"""Cones attached to admissible pairs, the fan refining the nonnegative
orthant of edge lengths, and point location (the executable Abel map).

For an admissible pair (E, phi) on a graph, the split cone lives in the edge
space of the E-subdivision and is cut out of the orthant by one equation per
fundamental cycle; the merged cone is its image under the coordinate-summing
map that collapses the two halves of each subdivided edge.  The merge is an
integral isomorphism; its inverse is assembled from the fundamental cycles
through the subdivided edges and provides both the H-representation of the
merged cone and the split of a located point back into half-lengths.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .cone import Cone
from .divisor import Divisor, Polarization, PseudoDivisor
from .errors import ValidationError
from .flow import AdmissiblePair, FlowAssignment, enumerate_admissible, is_acyclic_flow
from .graph import CycleBasis, Graph, Subdivision, contract, cycle_basis, subdivide
from .linalg import dot


def _cycle_on_subdivision(cyc, sub):
    """Lift a signed cycle vector of the base graph to the subdivision: each
    half inherits the parent's sign (reference directions are aligned)."""
    out = {}
    for e in sub.result.edge_ids:
        base = sub.over_map[e]
        s = cyc.get(base, 0)
        if s:
            out[e] = s
    return out


def _sub_of(pair):
    return pair.resulting_pd.subdivision


def _signed_flow(sub, flow):
    """Flow values signed against the stored reference directions: positive
    when the flow orientation agrees with the parent-aligned direction of the
    edge, negative otherwise, zero on zero edges.

    Cycle equations pair these signed values with reference-signed cycles,
    which is the same as pairing plain values with flow-signed cycles.
    """
    out = {}
    for e in sub.result.edge_ids:
        v = flow.flow_map[e]
        if v == 0:
            out[e] = 0
            continue
        out[e] = v if flow.orient_map[e] == sub.dir_map[e] else -v
    return out


def _through_sign(sub, flow, base):
    """Direction of the flow through a subdivided edge relative to the
    reference direction; read off any oriented half (they agree: the
    exceptional vertex absorbs exactly one unit, so a coherent through
    direction exists whenever some half is positive)."""
    for h in sub.halves[base]:
        v = flow.flow_map[h]
        if v > 0:
            return 1 if flow.orient_map[h] == sub.dir_map[h] else -1
    raise ValidationError(f"no oriented half over {base}")


def _eset_frame(g, eset):
    """The E-subdivision and the cycle basis avoiding E, shared by every
    pair with that edge set."""
    sub = subdivide(g, eset)
    if not g.is_nondisconnecting(eset):
        raise ValidationError("edge set disconnects the graph")
    return sub, cycle_basis(g, avoid=eset)


def _subdivision_data(g, eset, flow, frame=None):
    """Subdivision, cycle basis and reference-signed flow values of a flow on
    the E-subdivision, after the checks every cone of the pair relies on.
    `frame` is _eset_frame(g, eset) when the caller already has it."""
    sub, basis = frame if frame is not None else _eset_frame(g, eset)
    if flow.graph != sub.result:
        raise ValidationError("flow does not live on the E-subdivision")
    if not is_acyclic_flow(flow):
        raise ValidationError("flow is not acyclic")
    return sub, basis, _signed_flow(sub, flow)


def _split_cone(sub, basis, sflow):
    order = sub.result.edge_ids
    eqs = []
    for _, vec in basis.cycles:
        cyc = _cycle_on_subdivision(dict(vec), sub)
        eqs.append(tuple(cyc.get(e, 0) * sflow[e] for e in order))
    ineqs = [tuple(1 if i == j else 0 for i in range(len(order))) for j in range(len(order))]
    return Cone.from_halfspaces(len(order), tuple(eqs), tuple(ineqs))


def split_cone(g, eset, flow):
    """The cone of subdivision edge lengths compatible with the flow.

    Cut from the nonnegative orthant of the E-subdivision's edge space by
    one equality per fundamental cycle of a spanning tree avoiding E; the
    coefficient of an edge is its cycle sign times its flow value.
    """
    eset = frozenset(eset)
    sub, basis, sflow = _subdivision_data(g, eset, flow)
    return _split_cone(sub, basis, sflow), sub, basis


@dataclass(frozen=True)
class AbelCone:
    """A merged-cone member of the fan, with its provenance.

    cone lives in the edge space of the ambient base graph; provenance is
    the admissible pair on the (possibly contracted) graph, spec_contracted
    names the edges contracted away from the ambient graph, and split is the
    subdivision-space cone together with the integral inverse rows mapping
    merged coordinates back to half-lengths.
    """

    ambient_edges: tuple
    cone: Cone
    provenance: AdmissiblePair
    spec_contracted: frozenset
    split: Cone
    split_edge_order: tuple
    inverse_rows: tuple  # one integer row per subdivision edge, over live edges
    live_edges: tuple  # edges of the provenance graph, canonical order

    def key(self):
        return (
            tuple(sorted(self.spec_contracted)),
            tuple(sorted(self.provenance.eset)),
            self.provenance.flow.canonical_key(),
        )

    def split_point(self, point):
        """Map a merged point (over ambient edges) to subdivision lengths."""
        live = {e: point[self.ambient_edges.index(e)] for e in self.live_edges}
        vec = [live[e] for e in self.live_edges]
        return {
            e: sum(c * v for c, v in zip(row, vec))
            for e, row in zip(self.split_edge_order, self.inverse_rows)
        }

    def to_json(self):
        data = self.provenance.to_json()
        data["contracted"] = sorted(self.spec_contracted)
        return {
            "provenance": data,
            "equalities": [list(r) for r in self.cone.equalities],
            "inequalities": [list(r) for r in self.cone.inequalities],
            "rays": [list(r) for r in self.cone.rays],
        }


@dataclass(frozen=True)
class PairRows:
    """The H-representation of a pair's merged cone over its own edges,
    derived without double description.

    inverse_rows express each subdivision-edge length from merged
    coordinates (one integer row per subdivision edge, over live edges);
    equalities are the fundamental cycles avoiding E, pulled back to live
    coordinates.  The merged cone is {u : equalities(u) = 0, inverse(u) >= 0}.
    """

    sub: Subdivision
    basis: CycleBasis
    sflow: dict  # reference-signed flow value per subdivision edge
    live_edges: tuple
    inverse_rows: tuple
    equalities: tuple

    def contains_interior(self, point):
        """Open-cone membership of a point over the live edges.

        Exact: the flow is acyclic once its zero edges are contracted, so a
        topological potential gives a strictly positive split point and no
        inverse row is an implicit equality.  The relative interior is then
        cut out by the strict rows, as Cone.contains_interior decides from
        the rays.
        """
        return all(dot(row, point) == 0 for row in self.equalities) and all(
            dot(row, point) > 0 for row in self.inverse_rows
        )

    def split_point(self, point):
        """Subdivision lengths of a point over the live edges."""
        return {
            e: dot(row, point)
            for e, row in zip(self.sub.result.edge_ids, self.inverse_rows)
        }


def pair_rows(g, pair, frame=None):
    """The inverse rows and cycle equalities of an admissible pair.

    Tree edges are read off directly, and the two halves of a subdivided
    edge are solved from its fundamental-cycle equation using the unit gap
    between their flow values.  Raises unless the inverse rows merge back to
    the identity.  `frame` is the pair's _eset_frame, when already built.
    """
    sub, basis, sflow = _subdivision_data(g, frozenset(pair.eset), pair.flow, frame)
    live = g.edge_ids
    n_live = len(live)
    idx = {e: i for i, e in enumerate(live)}
    order = sub.result.edge_ids
    flow = pair.flow.flow_map
    inverse_rows = []
    for e in order:
        base = sub.over_map[e]
        if base not in pair.eset:
            row = [0] * n_live
            row[idx[base]] = 1
            inverse_rows.append(tuple(row))
            continue
        ha, hb = sub.halves[base]
        gamma = basis.cycle_map[base]  # gamma(base) = +1 by convention
        # the upstream half carries one unit less; solving the cycle equation
        # against half(a) + half(b) = u_base gives
        #   x(upstream) = phi(downstream) * u_base
        #               + through_sign(base) * sum_tree gamma sflow u
        s_e = _through_sign(sub, pair.flow, base)
        tree_part = [0] * n_live
        for f, s in gamma.items():
            if f == base:
                continue
            tree_part[idx[f]] = s_e * s * sflow[f]
        phi_a, phi_b = flow[ha], flow[hb]
        if phi_b == phi_a + 1:
            s_half, t_half = ha, hb
        elif phi_a == phi_b + 1:
            s_half, t_half = hb, ha
        else:  # pragma: no cover - excluded by the admissible-pair invariant
            raise ValidationError("half flows do not differ by one unit")
        row_s = list(tree_part)
        row_s[idx[base]] += flow[t_half]
        row_t = [-x for x in row_s]
        row_t[idx[base]] += 1
        if e == s_half:
            inverse_rows.append(tuple(row_s))
        else:
            inverse_rows.append(tuple(row_t))
    _check_inverse(inverse_rows, order, sub, live)
    # the cycles avoiding E pull back to equalities on live coordinates
    eqs = []
    for ce, vec in basis.cycles:
        if ce in pair.eset:
            continue
        row = [0] * n_live
        for f, s in vec:
            row[idx[f]] = s * sflow[f]
        eqs.append(tuple(row))
    return PairRows(sub, basis, sflow, live, tuple(inverse_rows), tuple(eqs))


def merged_cone(g, pair, ambient_edges=None, spec_contracted=frozenset()):
    """The fan cone of an admissible pair, embedded in ambient edge space.

    Built from the pair's rows (pair_rows): the inverse rows are the
    inequalities and the cycles avoiding E the equalities; edges of the
    ambient space missing from g are pinned to zero.  The split and the
    merged cone each run one double description.
    """
    rows = pair_rows(g, pair)
    live = rows.live_edges
    amb = tuple(ambient_edges) if ambient_edges is not None else live
    amb_idx = {e: i for i, e in enumerate(amb)}
    n_amb = len(amb)

    def embed(row):
        out = [0] * n_amb
        for e, c in zip(live, row):
            out[amb_idx[e]] = c
        return tuple(out)

    emb_eqs = [embed(r) for r in rows.equalities]
    live_set = set(live)
    for e in amb:
        if e not in live_set:
            pin = [0] * n_amb
            pin[amb_idx[e]] = 1
            emb_eqs.append(tuple(pin))
    emb_ineqs = [embed(r) for r in rows.inverse_rows]
    return AbelCone(
        ambient_edges=amb,
        cone=Cone.from_halfspaces(n_amb, tuple(emb_eqs), tuple(emb_ineqs)),
        provenance=pair,
        spec_contracted=frozenset(spec_contracted),
        split=_split_cone(rows.sub, rows.basis, rows.sflow),
        split_edge_order=rows.sub.result.edge_ids,
        inverse_rows=rows.inverse_rows,
        live_edges=live,
    )


def _check_inverse(inverse_rows, order, sub, live):
    """Certificate that the inverse rows merge back to the identity."""
    n = len(live)
    sums = {e: [0] * n for e in live}
    for e, row in zip(order, inverse_rows):
        base = sub.over_map[e]
        sums[base] = [a + b for a, b in zip(sums[base], row)]
    for i, e in enumerate(live):
        expect = [1 if j == i else 0 for j in range(n)]
        if sums[e] != expect:
            raise AssertionError("inverse rows do not merge to the identity")


def expected_dim(pair):
    """Closed-form dimension of a pair's cone: |E(G)| - |F| + b0(G - E - F) - 1
    with F the positive-flow edges outside the subdivided set."""
    g = pair.base
    fset = {
        e
        for e in g.edge_ids
        if e not in pair.eset and pair.flow.flow_map.get(e, 0) != 0
    }
    removed = set(pair.eset) | fset
    return len(g.edge_ids) - len(fset) + g.b0(removed) - 1


def classify_ray(abcone):
    """Shape of a one-dimensional cone's provenance: 'proportional' for a
    two-vertex loopless graph with nowhere-zero flow (flow value times ray
    coordinate constant), 'bridge' for a single zero-flow edge, 'loop' for a
    single loop."""
    pair = abcone.provenance
    g = pair.base
    if abcone.cone.dim != 1:
        raise ValidationError("not a ray")
    (ray,) = abcone.cone.rays
    live_ray = {e: ray[abcone.ambient_edges.index(e)] for e in g.edge_ids}
    if len(g.vertex_ids) == 2 and not any(g.is_loop(e) for e in g.edge_ids):
        if pair.eset:
            raise AssertionError("ray provenance should not subdivide")
        values = {e: pair.flow.flow_map[e] for e in g.edge_ids}
        if any(values.values()):
            products = {v * live_ray[e] for e, v in values.items()}
            if len(products) != 1:
                raise AssertionError("flow-ray products differ across edges")
            return "proportional"
        if len(g.edge_ids) == 1:
            return "bridge"
        raise AssertionError("two-vertex ray with zero flow and several edges")
    if len(g.vertex_ids) == 1 and len(g.edge_ids) == 1 and g.is_loop(g.edge_ids[0]):
        if pair.eset or any(v for _, v in pair.flow.flow):
            raise AssertionError("loop ray must carry zero flow, no subdivision")
        return "loop"
    raise AssertionError("ray provenance matches no admissible shape")


def cone_faces(abcone):
    """All faces of a fan cone, tagged with their provenance.

    Faces arise from contracting subsets of subdivision edges whose image
    flow stays acyclic; distinct surviving data give distinct faces.  The
    resulting cones are embedded in the same ambient space.
    """
    pair = abcone.provenance
    g = pair.base
    sub = _sub_of(pair)
    out = {}
    sub_edges = list(sub.result.edge_ids)
    from itertools import combinations

    for r in range(len(sub_edges) + 1):
        for zset in combinations(sub_edges, r):
            face = _specialize_pair(g, pair, frozenset(zset))
            if face is None:
                continue
            g2, pair2, contracted_base = face
            key = (tuple(sorted(contracted_base)), tuple(sorted(pair2.eset)), pair2.flow.canonical_key())
            if key in out:
                continue
            out[key] = merged_cone(
                g2,
                pair2,
                ambient_edges=abcone.ambient_edges,
                spec_contracted=abcone.spec_contracted | contracted_base,
            )
    return [out[k] for k in sorted(out)]


def _specialize_pair(g, pair, zset):
    """Contract a set of subdivision edges of an admissible pair.

    Returns (new graph, new pair, contracted base edges) or None when the
    image flow has a directed cycle.  A base edge is contracted when all its
    halves vanish; a subdivided edge with one half contracted drops out of
    the subdivided set, its exceptional unit merging into the adjacent
    vertex.
    """
    sub = _sub_of(pair)
    by_base = {}
    for e in sub.result.edge_ids:
        by_base.setdefault(sub.over_map[e], []).append(e)
    full_gone = set()
    half_gone = {}
    for base, parts in by_base.items():
        gone = [e for e in parts if e in zset]
        if len(gone) == len(parts):
            full_gone.add(base)
        elif gone:
            half_gone[base] = gone[0]
    spec = contract(g, full_gone)
    g2 = spec.target
    new_e = frozenset(e for e in pair.eset if e not in full_gone and e not in half_gone)
    sub2 = subdivide(g2, new_e)
    # carry the flow: surviving subdivision edges keep their values; a
    # subdivided edge reduced to one half keeps that half's value on the
    # un-subdivided edge
    vmap = dict(spec.vmap)
    for base in pair.eset:
        x = f"x:{base}"
        if base in full_gone:
            vmap[x] = spec(g.ends[base][0])
        elif base in half_gone:
            kept = next(e for e in by_base[base] if e != half_gone[base])
            tail, head = sub.dir_map[half_gone[base]]
            absorbed = tail if tail != x else head
            vmap[x] = spec.vmap.get(absorbed, absorbed)
        else:
            vmap[x] = x
    flow_vals = {}
    orient = {}
    for e2 in sub2.result.edge_ids:
        base2 = sub2.over_map[e2]
        if base2 in half_gone:
            src = next(e for e in by_base[base2] if e not in zset)
        elif base2 in pair.eset:
            # match the half by the image of its base endpoint: contraction
            # can rename the ends so that their sorted order flips
            ha, hb = sub.halves[base2]
            if spec(g.ends[base2][0]) == g2.ends[base2][0]:
                src = e2
            else:
                src = hb if e2 == ha else ha
        else:
            src = base2
        v = pair.flow.flow_map[src]
        flow_vals[e2] = v
        if v > 0:
            s, t = pair.flow.orient_map[src]
            orient[e2] = (vmap.get(s, s), vmap.get(t, t))
    fa = FlowAssignment.of(sub2.result, orient, flow_vals)
    if not is_acyclic_flow(fa):
        return None
    # divisor of the face pair: pushforward of the pair's divisor
    vals = {v: 0 for v in sub2.result.vertex_ids}
    for v in sub.result.vertex_ids:
        tv = vmap.get(v, v)
        vals[tv] += pair.resulting_pd.divisor[v]
    pd2 = PseudoDivisor.of(g2, new_e, vals)
    pair2 = AdmissiblePair(g2, new_e, fa, pd2)
    return g2, pair2, frozenset(full_gone)


@dataclass(frozen=True)
class AbelFan:
    """The complete fan: every admissible pair over every contraction of the
    base graph, cones embedded in the base edge space."""

    graph: Graph
    base_divisor: Divisor
    polarization: Polarization
    cones: tuple  # AbelCone, sorted by key
    maximal: tuple  # indices of cones with empty contraction

    def cone_by_key(self, key):
        for c in self.cones:
            if c.key() == key:
                return c
        raise KeyError(key)

    def to_json(self):
        ids = {c.key(): i for i, c in enumerate(self.cones)}
        cones = []
        for i, c in enumerate(self.cones):
            entry = c.to_json()
            entry["id"] = i
            entry["faces"] = sorted(
                ids[f.key()] for f in cone_faces(c) if f.key() in ids
            )
            cones.append(entry)
        return {
            "edge_order": list(self.graph.edge_ids),
            "cones": cones,
            "maximal": list(self.maximal),
        }


def build_fan(g, v0, pol, d0, cap=1 << 20):
    """Assemble the fan: admissible pairs of every contraction of g, with
    cones embedded into the edge space of g (contracted coordinates pinned
    to zero)."""
    if d0.degree() != pol.degree():
        raise ValidationError("deg D0 must equal deg mu")
    from itertools import combinations

    amb = g.edge_ids
    cones = {}
    maximal_keys = []
    for r in range(len(amb) + 1):
        for cset in combinations(amb, r):
            spec = contract(g, cset)
            g2 = spec.target
            d2 = _push_divisor(spec, d0)
            mu2 = pol.pushforward(spec)
            v02 = spec(v0)
            for pair in enumerate_admissible(g2, v02, mu2, d2, cap=cap):
                ac = merged_cone(g2, pair, ambient_edges=amb, spec_contracted=frozenset(cset))
                cones[ac.key()] = ac
                if not cset:
                    maximal_keys.append(ac.key())
    ordered = [cones[k] for k in sorted(cones)]
    index = {c.key(): i for i, c in enumerate(ordered)}
    maximal = tuple(sorted(index[k] for k in maximal_keys))
    return AbelFan(g, d0, pol, tuple(ordered), maximal)


def _push_divisor(spec, d):
    vals = {v: 0 for v in spec.target.vertex_ids}
    for v in spec.source.vertex_ids:
        vals[spec(v)] += d[v]
    return Divisor.of(spec.target, vals)


def verify_fan(fan, pairwise=True):
    """Constructive fan-axiom check: face closure, and pairwise intersections
    realized as common faces (matched through their ray sets)."""
    keys = {c.key() for c in fan.cones}
    all_faces = []
    for c in fan.cones:
        faces = cone_faces(c)
        for f in faces:
            if f.key() not in keys:
                raise AssertionError(f"face {f.key()} missing from the fan")
        all_faces.append({f.cone.rays for f in faces})
    if not pairwise:
        return True
    n = len(fan.cones)
    for i in range(n):
        ci = fan.cones[i]
        for j in range(i + 1, n):
            cj = fan.cones[j]
            inter = Cone.from_halfspaces(
                ci.cone.ambient_dim,
                ci.cone.equalities + cj.cone.equalities,
                ci.cone.inequalities + cj.cone.inequalities,
            )
            if inter.rays not in all_faces[i] or inter.rays not in all_faces[j]:
                raise AssertionError(
                    f"intersection of cones {i} and {j} is not a common face"
                )
    return True


def locate_point(g, v0, pol, d0, point, reverse=False, check_unique=False, cap=1 << 20):
    """Find the unique admissible pair whose open cone contains the point.

    point: mapping edge -> nonnegative rational (Fractions or ints).  Zero
    coordinates trigger contraction of those edges and location in the
    smaller fan; negative coordinates are rejected.  Returns (AbelCone,
    split values) where the split values place the exceptional points on
    the subdivided edges.

    Pairs are scanned in canonical order (reversed with `reverse`) and
    tested against their rows (pair_rows): the point lies in the open cone
    exactly when every cycle equality vanishes at it and every inverse row
    is positive there.  The subdivision and cycle basis are built once per
    edge set E.  Only the hit's merged cone is built, so a point costs two
    double descriptions however many cones the fan has.  With
    `check_unique` every pair is tested and a second hit raises.
    """
    point = {e: point[e] for e in g.edge_ids}
    for e, x in point.items():
        if x < 0:
            raise ValidationError(f"negative coordinate on edge {e}")
    zeros = frozenset(e for e, x in point.items() if x == 0)
    live_g = g
    if zeros:
        spec = contract(g, zeros)
        live_g = spec.target
        v0, pol, d0 = spec(v0), pol.pushforward(spec), _push_divisor(spec, d0)
    # scale to integers: cone membership is invariant under positive scaling
    denom = 1
    for e in live_g.edge_ids:
        f = Fraction(point[e])
        denom = denom * f.denominator // math.gcd(denom, f.denominator)
    ipoint = tuple(int(Fraction(point[e]) * denom) for e in live_g.edge_ids)
    pairs = enumerate_admissible(live_g, v0, pol, d0, cap=cap)
    order = reversed(pairs) if reverse else pairs
    hit = None
    frames = {}
    for pair in order:
        eset = frozenset(pair.eset)
        if eset not in frames:
            frames[eset] = _eset_frame(live_g, eset)
        rows = pair_rows(live_g, pair, frames[eset])
        if rows.contains_interior(ipoint):
            if hit is None:
                hit = pair, rows
                if not check_unique:
                    break
            else:
                raise AssertionError("point lies in two open cones")
    if hit is None:
        raise ValidationError("point not located in any open cone")
    pair, rows = hit
    cone = merged_cone(live_g, pair, ambient_edges=g.edge_ids, spec_contracted=zeros)
    split = {e: Fraction(v, denom) for e, v in rows.split_point(ipoint).items()}
    return cone, split
