"""Cones attached to admissible pairs, the fan refining the nonnegative
orthant of edge lengths, and point location (the executable Abel map).

For an admissible pair (E, phi) on a graph, the split cone lives in the edge
space of the E-subdivision and is cut out of the orthant by one equation per
fundamental cycle; the merged cone is its image under the coordinate-summing
map that collapses the two halves of each subdivided edge.  The merge is an
integral isomorphism; its inverse is assembled from the fundamental cycles
through the subdivided edges and provides both the H-representation of the
merged cone and the split of a located point back into half-lengths.  The
split cone is only ever read through that inverse (PairRows), never built
by a second double description.

Point location goes through neither the pairs nor the whole quasistable
poset.  It walks the nondisconnecting edge sets E from the largest down,
and for each quasistable pseudo-divisor (E, D) of the walk it solves the
tropical Abel-Jacobi condition exactly:
the flows with divisor D - D0 differ by integer combinations of the
fundamental cycles, and the cycle equations at the point are linear in
those integers and in the half-lengths, so the candidates are the lattice
points of a small parallelepiped (_EdgeSetSolve).
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cone import Cone, face_lattice_rayset
from .divisor import (
    Divisor,
    Polarization,
    contract_pushforward,
    nondisconnecting_edge_sets,
    quasistable_with_edge_set,
)
from .errors import ValidationError, WorkCap
from .flow import (
    AdmissiblePair,
    FlowAssignment,
    check_instance,
    div_flow,
    enumerate_admissible,
    is_acyclic_flow,
)
from .graph import CycleBasis, Graph, Subdivision, contract, cycle_basis
from .linalg import clear_denominators, dot, inverse


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


def _subdivision_data(sub, flow):
    """Reference-signed flow values of a flow on the E-subdivision, after
    the checks every cone of the pair relies on."""
    if flow.graph != sub.result:
        raise ValidationError("flow does not live on the E-subdivision")
    if not is_acyclic_flow(flow):
        raise ValidationError("flow is not acyclic")
    return _signed_flow(sub, flow)


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
    # reference-signed flow value per subdivision edge: a dict, left out of
    # equality and hashing (the pair's flow fixes it) so AbelCone hashes
    sflow: dict = field(compare=False)
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

    def split_equalities(self):
        """The split cone's equalities over the subdivision edges, one per
        fundamental cycle: each half inherits its parent's cycle sign (the
        reference directions are aligned), times its signed flow value."""
        over = self.sub.over_map
        return tuple(
            tuple(dict(vec).get(over[e], 0) * self.sflow[e] for e in self.sub.result.edge_ids)
            for _, vec in self.basis.cycles
        )


@dataclass(frozen=True)
class AbelCone:
    """A merged-cone member of the fan, with its provenance.

    cone lives in the edge space of the ambient base graph; provenance is
    the admissible pair on the (possibly contracted) graph, spec_contracted
    names the edges contracted away from the ambient graph, and rows are the
    pair's rows, whose integral inverse rows map merged coordinates back to
    half-lengths (the split cone is the image of the cone under them).
    """

    ambient_edges: tuple
    cone: Cone
    provenance: AdmissiblePair
    spec_contracted: frozenset
    rows: PairRows

    def key(self):
        return (
            tuple(sorted(self.spec_contracted)),
            tuple(sorted(self.provenance.eset)),
            self.provenance.flow.canonical_key(),
        )

    def split_point(self, point):
        """Map a merged point (over ambient edges) to subdivision lengths."""
        amb = self.ambient_edges
        return self.rows.split_point([point[amb.index(e)] for e in self.rows.live_edges])

    def to_json(self):
        data = self.provenance.to_json()
        data["contracted"] = sorted(self.spec_contracted)
        return {
            "provenance": data,
            "equalities": [list(r) for r in self.cone.equalities],
            "inequalities": [list(r) for r in self.cone.inequalities],
            "rays": [list(r) for r in self.cone.rays],
        }


def pair_rows(g, pair, basis=None):
    """The inverse rows and cycle equalities of an admissible pair.

    Tree edges are read off directly, and the two halves of a subdivided
    edge are solved from its fundamental-cycle equation using the unit gap
    between their flow values.  Raises unless the inverse rows merge back to
    the identity.  The subdivision is the pair's pseudo-divisor's; `basis`
    is cycle_basis(g, avoid=E), when already built.
    """
    sub = _sub_of(pair)
    if sub.base != g:
        raise ValidationError("the pair's subdivision is not one of the graph")
    if basis is None:
        basis = cycle_basis(g, avoid=pair.eset)
    sflow = _subdivision_data(sub, pair.flow)
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


def merged_cone(g, pair, ambient_edges=None, spec_contracted=frozenset(), rows=None):
    """The fan cone of an admissible pair, embedded in ambient edge space.

    Built from the pair's rows (pair_rows, or `rows` when the caller already
    has them): the inverse rows are the inequalities and the cycles avoiding
    E the equalities; edges of the ambient space missing from g are pinned
    to zero.  The merged cone runs one double description; the split cone
    is its image under the inverse rows, read through the AbelCone's rows
    and never built.
    """
    if rows is None:
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
    cone = Cone.from_halfspaces(n_amb, tuple(emb_eqs), tuple(emb_ineqs))
    return AbelCone(
        ambient_edges=amb,
        cone=cone,
        provenance=pair,
        spec_contracted=frozenset(spec_contracted),
        rows=rows,
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


def _lattice_faces(abcone):
    """Every face of a fan cone, read from its face lattice and specialized
    from the cone's pair: yields (face key, face pair, contracted base edges)
    once per face.

    A face's zero set is the set of subdivision edges whose inverse row
    vanishes on all of the face's rays; contracting it specializes the pair.
    """
    pair = abcone.provenance
    vanish = []
    for ray in abcone.cone.rays:
        lengths = abcone.split_point(ray)
        vanish.append(frozenset(e for e, x in lengths.items() if x == 0))
    every = frozenset(abcone.rows.sub.result.edge_ids)
    for face in face_lattice_rayset(abcone.cone):
        zset = every.intersection(*(vanish[i] for i in face))
        spec = _specialize_pair(pair.base, pair, zset)
        if spec is None:
            raise AssertionError("a face of a fan cone specializes to a cyclic flow")
        _, pair2, contracted = spec
        key = (
            tuple(sorted(abcone.spec_contracted | contracted)),
            tuple(sorted(pair2.eset)),
            pair2.flow.canonical_key(),
        )
        yield key, pair2, contracted


def cone_faces(abcone):
    """All faces of a fan cone, tagged with their provenance, in key order.

    The faces come from the cone's face lattice, each specialized from the
    cone's pair (_lattice_faces); their cones are embedded in the same
    ambient space.
    """
    out = {}
    for key, pair, contracted in _lattice_faces(abcone):
        out[key] = merged_cone(
            pair.base,
            pair,
            ambient_edges=abcone.ambient_edges,
            spec_contracted=abcone.spec_contracted | contracted,
        )
    return [out[k] for k in sorted(out)]


def _specialize_pair(g, pair, zset):
    """Specialize an admissible pair by contracting a set of edges of its
    E-subdivision; zset may hold plain edges as well as halves.

    The divisor and the vertex map come from contract_pushforward; this
    function carries the flow only.  Surviving subdivision edges keep their
    values, and a subdivided edge reduced to one half carries that half's
    value on the un-subdivided edge; orientations go through the vertex
    map.  Returns (contracted graph, face pair, contracted base edges), or
    None when the image flow has a directed cycle, which no face of the
    pair's cone gives.
    """
    sub = _sub_of(pair)
    pd2, along = contract_pushforward(pair.resulting_pd, zset)
    g2, sub2 = pd2.base, pd2.subdivision
    flow_vals = {}
    orient = {}
    for e2 in sub2.result.edge_ids:
        base2 = sub2.over_map[e2]
        if base2 not in pair.eset:
            src = base2
        elif base2 not in pd2.eset:
            src = next(h for h in sub.halves[base2] if h not in zset)
        else:
            # match the half by the image of its base endpoint: contraction
            # can rename the ends so that their sorted order flips
            ha, hb = sub.halves[base2]
            if along(g.ends[base2][0]) == g2.ends[base2][0]:
                src = e2
            else:
                src = hb if e2 == ha else ha
        v = pair.flow.flow_map[src]
        flow_vals[e2] = v
        if v > 0:
            s, t = pair.flow.orient_map[src]
            orient[e2] = (along(s), along(t))
    fa = FlowAssignment.of(sub2.result, orient, flow_vals)
    if not is_acyclic_flow(fa):
        return None
    pair2 = AdmissiblePair(g2, pd2.eset, fa, pd2)
    return g2, pair2, frozenset(g.edge_ids).difference(g2.edge_ids)


@dataclass(frozen=True)
class AbelFan:
    """The complete fan: the cones of the admissible pairs and of all their
    specializations, embedded in the base edge space."""

    graph: Graph
    base_divisor: Divisor
    polarization: Polarization
    cones: tuple  # AbelCone, sorted by key
    maximal: tuple  # indices of cones with empty contraction

    @cached_property
    def index(self):
        """Cone index by key."""
        return {c.key(): i for i, c in enumerate(self.cones)}

    @cached_property
    def faces(self):
        """Each cone's faces, in cone order: face key -> the face pair's
        divisor (PseudoDivisor.canonical_key), read from the cone's face
        lattice.  build_fan seeds this with the faces it walked."""
        return tuple(
            {key: pair.resulting_pd.canonical_key() for key, pair, _ in _lattice_faces(c)}
            for c in self.cones
        )

    def cone_by_key(self, key):
        return self.cones[self.index[key]]

    def to_json(self):
        ids = self.index
        cones = []
        for i, (c, faces) in enumerate(zip(self.cones, self.faces)):
            entry = c.to_json()
            entry["id"] = i
            entry["faces"] = sorted(ids[k] for k in faces if k in ids)
            cones.append(entry)
        return {
            "edge_order": list(self.graph.edge_ids),
            "cones": cones,
            "maximal": list(self.maximal),
        }


def build_fan(g, v0, pol, d0, cap=1 << 20):
    """Assemble the fan as the face closure of the admissible pairs of g.

    The pairs' merged cones are the maximal cones.  Each cone's faces are
    read from its face lattice and specialized from its pair
    (_lattice_faces); a face key not seen before gets its merged cone, whose
    faces are walked in turn.  Cones are embedded into the edge space of g,
    contracted coordinates pinned to zero.  `cap` bounds the pair
    enumeration and, separately, the number of face specializations.
    """
    if d0.degree() != pol.degree():
        raise ValidationError("deg D0 must equal deg mu")
    amb = g.edge_ids
    cones = {}
    for pair in enumerate_admissible(g, v0, pol, d0, cap=cap):
        ac = merged_cone(g, pair, ambient_edges=amb)
        cones[ac.key()] = ac
    maximal_keys = list(cones)
    faces = {}
    frontier = list(cones.values())
    work = WorkCap("fan faces", cap, "face specializations")
    while frontier:
        ac = frontier.pop()
        mine = faces[ac.key()] = {}
        for key, pair, contracted in _lattice_faces(ac):
            work.charge("face specializations")
            mine[key] = pair.resulting_pd.canonical_key()
            if key not in cones:
                face = merged_cone(
                    pair.base,
                    pair,
                    ambient_edges=amb,
                    spec_contracted=ac.spec_contracted | contracted,
                )
                cones[key] = face
                frontier.append(face)
    keys = sorted(cones)
    index = {k: i for i, k in enumerate(keys)}
    maximal = tuple(sorted(index[k] for k in maximal_keys))
    fan = AbelFan(g, d0, pol, tuple(cones[k] for k in keys), maximal)
    object.__setattr__(fan, "index", index)
    object.__setattr__(fan, "faces", tuple(faces[k] for k in keys))
    return fan


def verify_fan(fan, pairwise=True):
    """Constructive fan-axiom check: face closure, and pairwise intersections
    realized as common faces (matched through their ray sets).

    Faces are read from fan.faces; no face cone is built.  Each face must
    be a cone of the fan, spanned by some of the cone's rays, and carry the
    divisor of the fan cone with its key.
    """
    all_faces = []
    for c, faces in zip(fan.cones, fan.faces):
        rays = set(c.cone.rays)
        face_rays = set()
        for key, divisor in faces.items():
            if key not in fan.index:
                raise AssertionError(f"face {key} missing from the fan")
            face = fan.cone_by_key(key)
            if face.provenance.resulting_pd.canonical_key() != divisor:
                raise AssertionError(f"face {key} carries another divisor than its fan cone")
            if not rays.issuperset(face.cone.rays):
                raise AssertionError(f"face {key} has rays outside its cone")
            face_rays.add(face.cone.rays)
        all_faces.append(face_rays)
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


def _box_points(ranges, cols, acc, z=()):
    """Every integer point z of a box (one range per coordinate) together
    with acc + sum_j z_j cols[j]; each step adds one column."""
    j = len(z)
    if j == len(ranges):
        yield z, acc
        return
    rng, col = ranges[j], cols[j]
    acc = [a + rng.start * c for a, c in zip(acc, col)]
    for v in rng:
        yield from _box_points(ranges, cols, acc, z + (v,))
        acc = [a + c for a, c in zip(acc, col)]


class _EdgeSetSolve:
    """The flows of one nondisconnecting edge set E whose open cone holds an
    integer point (edge lengths l over the graph's edges).

    Take the tree of cycle_basis(g, avoid=E) and its fundamental cycles C_i.
    Peeling the leaves of the subdivision's spanning tree (the tree plus the
    half e:a of each e in E) gives a flow y0 with divisor D - D0, zero off
    the tree; every other one is y0 + sum_i lam_i C_i with lam integer, and
    the halves of e in E carry lam_e - 1 and lam_e.  Cycle i's equation at
    the point is linear: (Q lam)_i = r_i, plus t_e in row e of E, where
    Q = C diag(l) C^T, r = -C diag(l) y0 and t_e is the length of e:a.  The
    rows off E are integer equalities, which fix lam off E as a function of
    lam on E; the rows in E ask 0 < t_e < l_e, which keeps lam on E in an
    open parallelepiped.  Its shape depends on E and l only, so it is built
    once per E; each divisor D moves it.  Every lattice point of its
    bounding box is tested exactly, in integers scaled by d, the common
    denominator of the off-E block's inverse.  The box is at most |E| wide
    along each e in E, whatever l and D0: its width is a sum over f in E of
    |l_f (Q^-1)_ef|, and each term is an electrical transfer current, at
    most 1.
    """

    def __init__(self, g, sub, ipoint):
        self.sub = sub
        self.basis = cycle_basis(g, avoid=sub.subdivided_set)
        length = dict(zip(g.edge_ids, ipoint))
        self.cycles = [dict(vec) for _, vec in self.basis.cycles]
        tree = self.basis.spanning_tree
        # r_i = sum over tree edges f of -C_i(f) l_f y0(f)
        self.r_terms = [
            [(f, -c * length[f]) for f, c in cyc.items() if f in tree] for cyc in self.cycles
        ]
        q = [
            [sum(c * ci.get(f, 0) * length[f] for f, c in cj.items()) for ci in self.cycles]
            for cj in self.cycles
        ]
        on = [i for i, (e, _) in enumerate(self.basis.cycles) if e in sub.subdivided_set]
        off = [i for i, (e, _) in enumerate(self.basis.cycles) if e not in sub.subdivided_set]
        self.on, self.off = on, off
        qoo_inv = inverse([[q[i][j] for j in off] for i in off])
        d = math.lcm(1, *(x.denominator for row in qoo_inv for x in row))
        a = [[int(x * d) for x in row] for row in qoo_inv]
        # d lam_off = a r_off - db lam_on and d t = ds lam_on + dc
        db = [[dot(row, [q[m][j] for m in off]) for j in on] for row in a]
        ds = [
            [
                d * q[i][j] - dot([q[i][m] for m in off], [row[n] for row in db])
                for n, j in enumerate(on)
            ]
            for i in on
        ]
        self.d, self.a = d, a
        self.q_on_off = [[q[i][m] for m in off] for i in on]
        self.cols = [
            tuple([-row[n] for row in db] + [row[n] for row in ds]) for n in range(len(on))
        ]
        self.dl = [d * length[self.basis.cycles[i][0]] for i in on]
        # lam_on = ds^-1 (d t - dc) with d t in the open box (0, d l)
        self.ds_inv = inverse(ds)
        self.spread = [
            (
                sum(min(0, x * dl) for x, dl in zip(row, self.dl)),
                sum(max(0, x * dl) for x, dl in zip(row, self.dl)),
            )
            for row in self.ds_inv
        ]
        # the subdivision's spanning tree, children after their parents:
        # (vertex, parent edge, +1 if the edge points into the vertex, parent)
        res = sub.result
        tree_edges = set(tree) | {sub.halves[e][0] for e in sub.subdivided_set}
        self.order = []
        seen = {res.vertex_ids[0]}
        queue = [res.vertex_ids[0]]
        for v in queue:
            for e, u in res.adjacency[v]:
                if e in tree_edges and u not in seen:
                    seen.add(u)
                    self.order.append((u, e, 1 if sub.dir_map[e][1] == u else -1, v))
                    queue.append(u)

    def flows(self, target):
        """One item per lattice point tested: the signed flow (per
        subdivision edge, against its reference direction) when the point
        solves every row, else None.  `target` is D - D0 per vertex."""
        acc = {}
        y = {h: 0 for h in self.sub.result.edge_ids}
        for v, e, sign, parent in reversed(self.order):
            need = target[v] - acc.get(v, 0)
            y[e] = sign * need
            acc[parent] = acc.get(parent, 0) - need
        r = [sum(c * y[f] for f, c in terms) for terms in self.r_terms]
        d, off = self.d, self.off
        ar = [dot(row, [r[m] for m in off]) for row in self.a]
        dc = [dot(row, ar) - d * r[i] for row, i in zip(self.q_on_off, self.on)]
        ranges = []
        for row, (lo, hi) in zip(self.ds_inv, self.spread):
            centre = dot(row, dc)
            ranges.append(range(math.floor(lo - centre) + 1, math.ceil(hi - centre)))
        n_off = len(off)
        for z, vec in _box_points(ranges, self.cols, ar + dc):
            if any(x % d for x in vec[:n_off]) or not all(
                0 < x < dl for x, dl in zip(vec[n_off:], self.dl)
            ):
                yield None
                continue
            lam = dict(zip(off, (x // d for x in vec[:n_off])))
            lam.update(zip(self.on, z))
            flow = dict(y)
            for i, k in lam.items():
                if k:
                    for f, c in self.cycles[i].items():
                        for h in self.sub.halves.get(f, (f,)):
                            flow[h] += k * c
            yield flow


def _certified_pair(g, pd, basis, flow, d0, ipoint):
    """The admissible pair of a signed flow found by _EdgeSetSolve, with its
    rows, after two explicit checks: the flow's divisor is D - D0, and the
    point lies in the pair's open cone."""
    sub = pd.subdivision
    orient = {h: sub.dir_map[h] if v > 0 else sub.dir_map[h][::-1] for h, v in flow.items() if v}
    fa = FlowAssignment.of(sub.result, orient, {h: abs(v) for h, v in flow.items()})
    if div_flow(fa).values != pd.divisor.sub(d0.lift_to_subdivision(sub)).values:
        raise AssertionError("a lattice candidate's flow has the wrong divisor")
    pair = AdmissiblePair(g, pd.eset, fa, pd)
    rows = pair_rows(g, pair, basis)
    if not rows.contains_interior(ipoint):
        raise AssertionError("a lattice candidate lies outside its open cone")
    return pair, rows


def locate_point(g, v0, pol, d0, point, reverse=False, check_unique=False, cap=1 << 20):
    """Find the unique admissible pair whose open cone contains the point.

    point: mapping edge -> nonnegative rational (Fractions or ints).  Zero
    coordinates trigger contraction of those edges and location in the
    smaller fan; negative coordinates are rejected.  Returns (AbelCone,
    split values) where the split values place the exceptional points on
    the subdivided edges.

    No admissible pair is enumerated and no quasistable poset is built.  The
    nondisconnecting edge sets E are walked from the largest to the
    smallest (the smallest first with `reverse`, which also reverses the
    order within each E).  A generic point lies in a cone of full
    dimension, whose E has b1(G) edges, so the walk usually stops at its
    first size.  Each E's quasistable pseudo-divisors (E, D) come from the
    per-edge-set kernel quasistable_with_edge_set, built only when the walk
    reaches E, and so is E's lattice solve (_EdgeSetSolve), at the first D.
    The solve yields the flows with divisor D - D0 whose cone holds the
    point; each is certified against its pair's rows (pair_rows).  The walk
    stops at the first certified hit, or, with `check_unique`, tests every
    (E, D) and raises on a second hit.  Only the hit's merged cone is
    built.  The lattice points tested per (E, D) are bounded by the graph
    alone, whatever D0 and the scale of the point.  `cap` bounds the
    candidate checks of the kernels the walk builds plus the lattice points
    tested.
    """
    pair, rows, split, _ = _locate(g, v0, pol, d0, point, reverse, check_unique, cap)
    zeros = frozenset(g.edge_ids) - frozenset(pair.base.edge_ids)
    cone = merged_cone(pair.base, pair, ambient_edges=g.edge_ids, spec_contracted=zeros, rows=rows)
    return cone, split


def locate_pair(g, v0, pol, d0, point, reverse=False):
    """locate_point (at its default cap, stopping at the first hit) without
    building the cone: the hit's admissible pair, on g with the point's
    zero edges contracted, and the split values."""
    pair, _, split, _ = _locate(g, v0, pol, d0, point, reverse, False, 1 << 20)
    return pair, split


def _locate(g, v0, pol, d0, point, reverse, check_unique, cap):
    """locate_pair, also returning the hit's rows and the work done (the
    candidate checks and the lattice points tested)."""
    point = {e: point[e] for e in g.edge_ids}
    for e, x in point.items():
        if x < 0:
            raise ValidationError(f"negative coordinate on edge {e}")
    zeros = frozenset(e for e, x in point.items() if x == 0)
    live_g = g
    if zeros:
        spec = contract(g, zeros)
        live_g = spec.target
        v0, pol, d0 = spec(v0), pol.pushforward(spec), d0.pushforward(spec)
    # scale to integers: cone membership is invariant under positive scaling
    ipoint, denom = clear_denominators(point[e] for e in live_g.edge_ids)
    check_instance(live_g, v0, pol, d0)
    work = WorkCap("locate", cap, "candidate checks", "lattice points")
    hits = _lattice_hits(live_g, v0, pol, d0, ipoint, reverse, work)
    hit = next(hits, None)
    if hit is None:
        raise ValidationError("point not located in any open cone")
    if check_unique and next(hits, None) is not None:
        raise AssertionError("point lies in two open cones")
    pair, rows = hit
    split = {e: Fraction(v, denom) for e, v in rows.split_point(ipoint).items()}
    return pair, rows, split, work.count


def _lattice_hits(g, v0, pol, d0, ipoint, reverse, work):
    """Every certified (pair, rows) whose open cone holds the integer point,
    in the walk of locate_point; the kernels and solves are built as it goes,
    and `work` is charged for each candidate check and lattice point."""
    esets = list(nondisconnecting_edge_sets(g))
    for eset in esets if reverse else reversed(esets):
        pds = quasistable_with_edge_set(g, eset, v0, pol, work)
        if reverse:
            pds = reversed(list(pds))
        solve = None
        for pd in pds:
            if solve is None:
                solve = _EdgeSetSolve(g, pd.subdivision, ipoint)
            target = {v: pd.divisor[v] - d0[v] for v in g.vertex_ids}
            target.update((x, -1) for x in pd.subdivision.exceptional)
            for flow in solve.flows(target):
                work.charge("lattice points")
                if flow is not None:
                    yield _certified_pair(g, pd, solve.basis, flow, d0, ipoint)
