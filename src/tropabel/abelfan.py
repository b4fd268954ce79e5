"""Cones attached to admissible pairs, the fan refining the nonnegative
orthant of edge lengths, and point location (the executable Abel map).

For an admissible pair (E, phi) on a graph, the split cone lives in the edge
space of the E-subdivision and is cut out of the orthant by one equation per
fundamental cycle; the merged cone is its image under the coordinate-summing
map that collapses the two halves of each subdivided edge.  The merge is an
integral isomorphism; its inverse is assembled from the fundamental cycles
through the subdivided edges and provides both the H-representation of the
merged cone and the split of a located point back into half-lengths.  The
split cone is only ever read through that inverse (PairRows), never built.
No cone of a pair runs a double description: its rays are read from the
flow's cuts (_cut_rays), the zero-flow edges and the connected up-sets of
the flow's quotient DAG, and certified against the pair's rows.

Point location goes through neither the pairs nor the whole quasistable
poset.  It walks the nondisconnecting edge sets E from the largest down,
and for each candidate pseudo-divisor (E, D) of the walk it solves the
tropical Abel-Jacobi condition exactly:
the flows with divisor D - D0 differ by integer combinations of the
fundamental cycles, and the cycle equations at the point are linear in
those integers and in the half-lengths, so the candidates are the lattice
points of a small parallelepiped (_EdgeSetSolve).  Only a D with a lattice
hit is tested for quasistability.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .cone import Cone, face_lattice_rayset
from .divisor import (
    Divisor,
    Polarization,
    PseudoDivisor,
    QuasistableRoutes,
    fiber_sums,
    nondisconnecting_edge_sets,
    pushforward_vertex_map,
)
from .errors import DEFAULT_CAP, ValidationError, WorkCap
from .flow import (
    AdmissiblePair,
    FlowAssignment,
    check_instance,
    div_flow,
    enumerate_admissible,
    is_acyclic_flow,
)
from .graph import (
    CycleBasis,
    Graph,
    Subdivision,
    contract,
    contraction_names,
    cycle_basis,
    subdivide,
)
from .linalg import clear_denominators, dot, inverse, primitive


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
        cut out by the strict rows, as Cone.interior_rows finds from the
        rays.
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
    the admissible pair on the (possibly contracted) graph, and rows are the
    pair's rows, whose integral inverse rows map merged coordinates back to
    half-lengths (the split cone is the image of the cone under them).  The
    pair fixes the contracted edges too (spec_contracted), since contraction
    keeps edge ids.
    """

    ambient_edges: tuple
    cone: Cone
    provenance: AdmissiblePair
    rows: PairRows

    @property
    def spec_contracted(self):
        return contracted_edges(self.ambient_edges, self.provenance)

    def key(self):
        return _cone_key(self.ambient_edges, self.provenance)

    def split_point(self, point):
        """Map a merged point (over ambient edges) to subdivision lengths."""
        amb = self.ambient_edges
        return self.rows.split_point([point[amb.index(e)] for e in self.rows.live_edges])

    def to_json(self):
        data = self.provenance.to_json()
        data["contracted"] = sorted(self.spec_contracted)
        cone = self.cone.to_json()
        del cone["ambient_dim"]
        return {"provenance": data, **cone}


def contracted_edges(ambient_edges, pair):
    """The ambient edges a pair has contracted away: those missing from the
    pair's graph, since contraction keeps edge ids."""
    return frozenset(ambient_edges).difference(pair.base.edge_ids)


def _cone_key(ambient_edges, pair):
    """The fan key of a pair's cone over the ambient edges: the contracted
    edges, E and the flow's canonical key."""
    return (
        tuple(sorted(contracted_edges(ambient_edges, pair))),
        tuple(sorted(pair.eset)),
        pair.flow.canonical_key(),
    )


def pair_rows(pair, basis=None):
    """The inverse rows and cycle equalities of an admissible pair.

    Tree edges are read off directly, and the two halves of a subdivided
    edge are solved from its fundamental-cycle equation using the unit gap
    between their flow values.  Raises unless the inverse rows merge back to
    the identity.  The graph g is the pair's base and the subdivision its
    pseudo-divisor's; `basis` is cycle_basis(g, avoid=E), when already built.
    """
    g, sub = pair.base, _sub_of(pair)
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


def merged_cone(pair, ambient_edges=None, rows=None):
    """The fan cone of an admissible pair, embedded in ambient edge space.

    Built from the pair's rows (pair_rows, or `rows` when the caller already
    has them): the inverse rows are the inequalities and the cycles avoiding
    E the equalities; edges of the ambient space missing from the pair's
    graph are pinned to zero.  The rays are read from the flow's cuts
    (_cut_rays), with no double description; the split cone is the cone's
    image under the inverse rows, read through the AbelCone's rows and
    never built.
    """
    if rows is None:
        rows = pair_rows(pair)
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
    emb_ineqs = tuple(embed(r) for r in rows.inverse_rows)
    rays = tuple(embed(r) for r in _cut_rays(pair, rows))
    cone = Cone(n_amb, tuple(emb_eqs), emb_ineqs, rays)
    return AbelCone(ambient_edges=amb, cone=cone, provenance=pair, rows=rows)


def _cut_rays(pair, rows):
    """The extreme rays of a pair's merged cone over its live edges, read
    from the flow's cuts.

    Let phi be the flow on the E-subdivision S, contract its zero-flow
    edges, and orient each positive edge h along the flow.  A split point
    x >= 0 meets every cycle equation exactly when phi_h x_h = f(head) -
    f(tail) for some potential f on the vertices, constant across the zero
    edges (whose lengths the equations leave free).  So the split cone is
    R>=0^{zero edges} times the order cone {f : f(tail) <= f(head)} of the
    quotient digraph, modulo constants; that digraph is acyclic (the pair
    is admissible) and connected (S is).  The face of the order cone
    through f is cut out by the arcs f keeps tight, and its dimension is
    the number of components of the tight arcs minus one.  Its rays are
    therefore the two-level potentials 1_U, U a nonempty proper up-set
    (closed under successors) with U and its complement each connected
    through arcs: such a U gives x_h = 1/phi_h on the arcs entering U and
    0 elsewhere.  The rays of the factor R>=0^{zero edges} are the unit
    vectors of the zero edges.  The merge map, summing the two halves of a
    subdivided edge, is an isomorphism onto the merged cone (the inverse
    rows undo it), so it maps rays to rays: a zero edge gives the unit ray
    of its base edge, and a cut its halves' sums, denominators cleared.

    The up-sets are walked with successor bitmasks, sinks first, so only
    up-sets are produced.  Certificate: each ray meets the equalities with
    0 and the inverse rows with >= 0, and no two rays have nested zero
    sets (a ray's zero set among the inverse rows fixes its face).
    """
    sub, flow = rows.sub, pair.flow
    res, values = sub.result, flow.flow_map
    idx = {e: i for i, e in enumerate(rows.live_edges)}
    n = len(idx)
    rays = set()
    zero = [h for h in res.edge_ids if values[h] == 0]
    for h in zero:
        rays.add(tuple(int(i == idx[sub.over_map[h]]) for i in range(n)))
    name = contraction_names(res, zero)
    pos = {c: i for i, c in enumerate(sorted(set(name.values())))}
    k = len(pos)
    succ, adj, arcs = [0] * k, [0] * k, []
    for h, (s, t) in flow.orient_map.items():
        i, j = pos[name[s]], pos[name[t]]
        succ[i] |= 1 << j
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        arcs.append((i, j, idx[sub.over_map[h]], values[h]))
    ups, done = [0], 0
    while done != (1 << k) - 1:
        ready = [c for c in range(k) if not done >> c & 1 and not succ[c] & ~done]
        if not ready:  # pragma: no cover - pair_rows checked acyclicity
            raise ValidationError("flow is not acyclic")
        for c in ready:
            ups += [u | 1 << c for u in ups if not succ[c] & ~u]
            done |= 1 << c
    full = (1 << k) - 1
    for u in ups:
        if u in (0, full) or not _connected(u, adj) or not _connected(full ^ u, adj):
            continue
        entering = [(e, phi) for i, j, e, phi in arcs if u >> j & 1 and not u >> i & 1]
        den = math.lcm(*(phi for _, phi in entering))
        ray = [0] * n
        for e, phi in entering:
            ray[e] += den // phi
        rays.add(primitive(ray))
    _check_rays(rays, rows)
    return rays


def _connected(mask, adj):
    """Whether the classes in a nonempty bitmask are connected through the
    arcs among them (adj: per class, the bitmask of its neighbours)."""
    seen = frontier = mask & -mask
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adj[low.bit_length() - 1] & mask & ~seen
        seen |= new
        frontier |= new
    return seen == mask


def _check_rays(rays, rows):
    """Certificate of _cut_rays: every ray lies in the cone, and no ray's
    zero set among the inverse rows holds another's."""
    zsets = []
    for ray in rays:
        if any(dot(row, ray) for row in rows.equalities):
            raise AssertionError("a cut ray misses a cycle equality")
        signs = [dot(row, ray) for row in rows.inverse_rows]
        if not any(ray) or min(signs, default=0) < 0:
            raise AssertionError("a cut ray lies outside its cone")
        zsets.append(sum(1 << i for i, x in enumerate(signs) if x == 0))
    for i, a in enumerate(zsets):
        for b in zsets[i + 1 :]:
            if a & b in (a, b):
                raise AssertionError("two cut rays have nested zero sets")


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


def _face_flow(pair, zset, eset2, along):
    """The flow of the face pair that contracting `zset` specializes the
    pair to, as (values, arrows): the pairs (edge, value) over the edges of
    the face's E'-subdivision, and (edge, (tail, head)) over the positive
    ones.  `along` is the vertex map (pushforward_vertex_map) and eset2 the
    face's E.

    Surviving plain edges and halves keep their values, and a subdivided
    edge reduced to one half carries that half's value on the
    un-subdivided edge; orientations go through the vertex map.
    """
    g, sub = pair.base, _sub_of(pair)
    sources = []  # (face edge, the pair's edge whose flow it carries)
    for e, (a, b) in g.edges:
        if e in eset2:
            # contraction can flip the sorted ends: the halves swap names
            ha, hb = sub.halves[e]
            if along[a] <= along[b]:
                sources += ((ha, ha), (hb, hb))
            else:
                sources += ((ha, hb), (hb, ha))
        elif e not in pair.eset:
            if e not in zset:
                sources.append((e, e))
        else:
            rest = [h for h in sub.halves[e] if h not in zset]
            if rest:
                sources.append((e, rest[0]))
    flow, orient = pair.flow.flow_map, pair.flow.orient_map
    values, arrows = [], []
    for e2, src in sources:
        values.append((e2, flow[src]))
        if flow[src] > 0:
            s, t = orient[src]
            arrows.append((e2, (along[s], along[t])))
    return values, arrows


def _face_keys(ambient_edges, pair, zset, pushed):
    """The fan key of the face pair that contracting `zset` specializes the
    pair to, and that pair's divisor key (PseudoDivisor.canonical_key),
    read from the zero set alone, with no graph, subdivision or flow built:
    the vertex map and the divisor key from pushforward_vertex_map, the
    flow from _face_flow.

    `pushed` memoizes pushforward_vertex_map by (divisor key, zset); the
    pairs sharing it must have one base graph, which with the divisor key
    and the zero set fixes the result.  Results there are only read.
    """
    pd = pair.resulting_pd
    memo = (pd.canonical_key(), zset)
    if memo not in pushed:
        pushed[memo] = pushforward_vertex_map(pd, zset)
    full, eset2, along, divisor = pushed[memo]
    values, arrows = _face_flow(pair, zset, eset2, along)
    contracted = tuple(sorted(contracted_edges(ambient_edges, pair).union(full)))
    flow_key = (tuple(sorted(arrows)), tuple(sorted(values)))
    return (contracted, divisor[0], flow_key), divisor


def _lattice_faces(abcone, cones, pushed, seen, fan_cone):
    """Every face of a fan cone, read from its face lattice and specialized
    from the cone's pair: yields (face ray-index set, face key, face
    divisor key) once per face.

    `seen` maps a face's ray set (the frozenset of its ambient ray tuples)
    to its two keys; a face whose rays are there is yielded from it, with
    no zero set, key or pair computed.  Any other face is derived: its zero
    set is the set of subdivision edges whose inverse row vanishes on all
    of the face's rays, and contracting it specializes the pair.  Both keys
    are read from the zero set (_face_keys), the face key over the cone's
    ambient edges.  A face pair is built only for a key missing from
    `cones` (key -> fan cone), from its entry in `pushed`
    (_specialize_pair); its flow must be acyclic and its cone key the one
    read from the zero set, and its cone, fan_cone(key, pair) over the
    same ambient edges, is then stored in `cones`.  A key already there
    needs no pair: it fixes the contracted graph, E and the flow, and so
    the divisor, the flow's divisor plus the pushed D0.  Certificate of
    every derivation: the cone of the derived key, whose rays come from
    its own pair's cuts, has exactly the face's rays; only then is the face
    stored in `seen`.  The vanish sets are computed at the cone's first
    derivation, and its pair's D - div phi at its first new face pair.
    `pushed` is _face_keys' pushforward memo; a caller may share it, and
    `seen`, among cones whose pairs have one base graph.
    """
    pair = abcone.provenance
    rays = abcone.cone.rays
    vanish = lifted = None
    for face in face_lattice_rayset(abcone.cone):
        face_rays = frozenset(rays[i] for i in face)
        if face_rays in seen:
            yield (face, *seen[face_rays])
            continue
        if vanish is None:
            vanish = [
                frozenset(e for e, x in abcone.split_point(ray).items() if x == 0)
                for ray in rays
            ]
            every = frozenset(abcone.rows.sub.result.edge_ids)
        zset = every.intersection(*(vanish[i] for i in face))
        key, divisor = _face_keys(abcone.ambient_edges, pair, zset, pushed)
        if key not in cones:
            if lifted is None:
                lifted = _d_minus_div_flow(pair)
            entry = pushed[pair.resulting_pd.canonical_key(), zset]
            pair2 = _specialize_pair(pair, zset, entry, lifted)
            if pair2 is None:
                raise AssertionError("a face of a fan cone specializes to a cyclic flow")
            if _cone_key(abcone.ambient_edges, pair2) != key:
                raise AssertionError("a face pair's cone key differs from its zero set's")
            cones[key] = fan_cone(key, pair2)
        if frozenset(cones[key].cone.rays) != face_rays:
            raise AssertionError("a face's rays are not those of its key's cone")
        seen[face_rays] = key, divisor
        yield face, key, divisor


def cone_faces(abcone):
    """All faces of a fan cone, tagged with their provenance, in key order.

    The faces come from the cone's face lattice, each specialized from the
    cone's pair (_lattice_faces); their cones are embedded in the same
    ambient space.
    """
    cones = {}

    def fan_cone(key, pair):
        return merged_cone(pair, ambient_edges=abcone.ambient_edges)

    for _ in _lattice_faces(abcone, cones, {}, {}, fan_cone):
        pass
    return [cones[k] for k in sorted(cones)]


def _d_minus_div_flow(pair):
    """D - div phi of an admissible pair, per vertex of its subdivision:
    the lifted D0, computed from the divisor and the flow."""
    d, dphi = pair.resulting_pd.divisor, div_flow(pair.flow)
    return {v: d[v] - dphi[v] for v in _sub_of(pair).result.vertex_ids}


def _specialize_pair(pair, zset, entry, lifted):
    """Specialize an admissible pair by contracting a set `zset` of edges
    of its E-subdivision, plain edges and halves alike.

    `entry` is pushforward_vertex_map(pair.resulting_pd, zset): the
    contracted base edges, E', the vertex map and the divisor key, whose
    fiber sums are the face divisor.  The face graph is the contraction of
    those edges, subdivided at E', and the flow is carried by _face_flow.
    Returns the face pair, or None when its flow has a directed cycle,
    which no face of the pair's cone gives.  `lifted` is D - div phi of
    the pair (_d_minus_div_flow).  Raises AssertionError unless D' - div
    phi' is its fiber sum, the pushed D0, and that vanishes at every
    surviving exceptional vertex: the face flow then has divisor D' minus
    the pushed D0, whatever the entry was read from.
    """
    full, eset2, along, (_, sums) = entry
    target = contract(pair.base, full).target
    sub2 = subdivide(target, eset2)
    values, arrows = _face_flow(pair, zset, eset2, along)
    fa = FlowAssignment.of(sub2.result, dict(arrows), dict(values))
    if not is_acyclic_flow(fa):
        return None
    pd2 = PseudoDivisor(target, eset2, Divisor(sub2.result, sums), sub2)
    pushed_d0 = fiber_sums(along, lifted)
    d2, dphi2 = pd2.divisor, div_flow(fa)
    after = {w: d2[w] - dphi2[w] for w in sub2.result.vertex_ids}
    if after != pushed_d0 or any(pushed_d0[x] for x in sub2.exceptional):
        raise AssertionError("a face pair's divisor minus its flow's is not the pushed D0")
    return AdmissiblePair(target, eset2, fa, pd2)


@dataclass(frozen=True)
class AbelFan:
    """The complete fan: the cones of the admissible pairs (the maximal
    cones) and of all their faces, embedded in the base edge space.

    faces holds each cone's faces, in cone order: face key -> the face
    pair's divisor (PseudoDivisor.canonical_key), as build_fan read them
    from a maximal cone's face lattice.
    """

    graph: Graph
    base_divisor: Divisor
    polarization: Polarization
    cones: tuple  # AbelCone, sorted by key
    maximal: tuple  # indices of cones with empty contraction
    faces: tuple  # per cone: face key -> face divisor

    @cached_property
    def index(self):
        """Cone index by key."""
        return {c.key(): i for i, c in enumerate(self.cones)}

    def cone_by_key(self, key):
        return self.cones[self.index[key]]

    def to_json(self):
        ids = self.index
        cones = []
        for i, (c, faces) in enumerate(zip(self.cones, self.faces)):
            entry = c.to_json()
            entry["id"] = i
            try:
                entry["faces"] = sorted(ids[k] for k in faces)
            except KeyError as exc:
                raise AssertionError(f"face {exc.args[0]} missing from the fan") from None
            cones.append(entry)
        return {
            "edge_order": list(self.graph.edge_ids),
            "cones": cones,
            "maximal": list(self.maximal),
        }


def build_fan(g, v0, pol, d0, cap=DEFAULT_CAP):
    """Assemble the fan as the face closure of the admissible pairs of g.

    The pairs' merged cones are the maximal cones, and every cone of the
    fan is a face of one of them, so only their face lattices are walked
    (_lattice_faces).  Within one call, a face is derived once: the first
    maximal cone whose lattice holds it reads its key and divisor key from
    its zero set, and the later ones find them by its ray set (the frozenset
    of its ambient ray tuples), since a cone of a fan is fixed by its rays.
    A face pair is specialized from the maximal cone's pair only for a key
    not seen before, its divisor certified against the pushed D0
    (_specialize_pair); that key's merged cone reads its rays from its own
    pair's cuts (_cut_rays), and each derived face must have exactly those
    rays before its ray set is stored.  The cones with one (contracted
    graph, E) share one cycle basis, and the maximal cones, whose pairs
    all live on g, share one pushforward per (divisor, zero set)
    (_face_keys), which also builds each new face pair: many of them carry
    one pseudo-divisor.  The memos live as long as the call; the cap still
    charges every face walked, memoized or not.  A cone's face map comes
    from the first maximal cone that holds it: that cone's faces whose ray
    sets lie in its own.  Cones are embedded into the edge space of g,
    contracted coordinates pinned to zero.  The instance is checked once,
    by enumerate_admissible (check_instance).  `cap` bounds the pair
    enumeration and, separately, the face work: one unit per face walked
    in each maximal cone's lattice (a "face specialization", though a face
    found by its ray set derives nothing), and for each cone one
    containment test per face of the maximal cone its face map comes from.
    """
    amb = g.edge_ids
    bases = {}

    def fan_cone(key, pair):
        # key[:2] is (contracted edges, E): the cycle basis's (graph, avoid)
        if key[:2] not in bases:
            bases[key[:2]] = cycle_basis(pair.base, avoid=pair.eset)
        rows = pair_rows(pair, bases[key[:2]])
        return merged_cone(pair, ambient_edges=amb, rows=rows)

    cones = {}
    for pair in enumerate_admissible(g, v0, pol, d0, cap=cap):
        key = _cone_key(amb, pair)
        cones[key] = fan_cone(key, pair)
    maximal_keys = list(cones)
    faces, pushed, seen = {}, {}, {}
    work = WorkCap("fan faces", cap, "face specializations", "face containment tests")
    for top in maximal_keys:
        walked = []
        for rayset, key, divisor in _lattice_faces(cones[top], cones, pushed, seen, fan_cone):
            work.charge("face specializations")
            walked.append((rayset, key, divisor))
        for rayset, key, _ in walked:
            if key not in faces:
                work.charge("face containment tests", len(walked))
                faces[key] = {k: div for rs, k, div in walked if rs <= rayset}
    keys = sorted(cones)
    index = {k: i for i, k in enumerate(keys)}
    maximal = tuple(sorted(index[k] for k in maximal_keys))
    return AbelFan(
        g, d0, pol, tuple(cones[k] for k in keys), maximal, tuple(faces[k] for k in keys)
    )


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
        a, d = inverse([[q[i][j] for j in off] for i in off])
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
        # lam_on = ds^-1 (d t - dc) with d t in the open box (0, d l); ds^-1
        # is kept as integers over the common denominator m, and so is the
        # spread of ds^-1 (d t) over the box
        self.ds_inv, self.m = inverse(ds)
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
        # lam_on runs over the integers strictly between (lo - centre) / m
        # and (hi - centre) / m
        m = self.m
        ranges = []
        for row, (lo, hi) in zip(self.ds_inv, self.spread):
            centre = dot(row, dc)
            ranges.append(range((lo - centre) // m + 1, -((centre - hi) // m)))
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
    rows = pair_rows(pair, basis)
    if not rows.contains_interior(ipoint):
        raise AssertionError("a lattice candidate lies outside its open cone")
    return pair, rows


def locate_point(g, v0, pol, d0, point, check_unique=False, cap=DEFAULT_CAP):
    """Find the unique admissible pair whose open cone contains the point.

    point: mapping edge -> nonnegative rational (Fractions or ints).  Zero
    coordinates trigger contraction of those edges and location in the
    smaller fan; negative coordinates are rejected.  Returns (AbelCone,
    split values) where the split values place the exceptional points on
    the subdivided edges.

    No admissible pair is enumerated and no quasistable poset is built.  The
    nondisconnecting edge sets E are walked from the largest to the
    smallest.  A generic point lies in a cone of full
    dimension, whose E has b1(G) edges, so the walk usually stops at its
    first size.  Each E's candidate pseudo-divisors (E, D), the divisors in
    E's value windows, come in the order of the per-edge-set kernel
    quasistable_with_edge_set, and E's lattice solve (_EdgeSetSolve) is
    built at the first.  The solve yields the flows with divisor D - D0
    whose cone holds the point.  Only then is D's cut test run, once per
    candidate with a hit; a non-quasistable D's hits are dropped, and
    each hit of a quasistable D is certified against its pair's rows
    (pair_rows).  The walk stops at the first certified hit, or, with
    `check_unique`, tests every candidate and raises on a second hit.
    Only the hit's merged cone is built.  The lattice points tested per
    (E, D) are bounded by the graph alone, whatever D0 and the scale of the
    point.  `cap` bounds the candidate checks (the candidates whose lattice
    points are tested) plus the lattice points tested.
    """
    pair, rows, split, _ = _locate(g, v0, pol, d0, point, check_unique, cap)
    return merged_cone(pair, ambient_edges=g.edge_ids, rows=rows), split


def locate_pair(g, v0, pol, d0, point, cap=DEFAULT_CAP):
    """locate_point, stopping at the first hit, without building the cone:
    the hit's admissible pair, on g with the point's zero edges contracted
    (the edges of g missing from the pair's graph), and the split values.
    `cap` bounds the same work as in locate_point."""
    pair, _, split, _ = _locate(g, v0, pol, d0, point, False, cap)
    return pair, split


def _locate(g, v0, pol, d0, point, check_unique, cap):
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
    hits = _lattice_hits(live_g, v0, pol, d0, ipoint, work)
    hit = next(hits, None)
    if hit is None:
        raise ValidationError("point not located in any open cone")
    if check_unique and next(hits, None) is not None:
        raise AssertionError("point lies in two open cones")
    pair, rows = hit
    split = {e: Fraction(v, denom) for e, v in rows.split_point(ipoint).items()}
    return pair, rows, split, work.count


def _lattice_hits(g, v0, pol, d0, ipoint, work):
    """Every certified (pair, rows) whose open cone holds the integer point,
    in the walk of locate_point.

    Each reached E's window candidates D (QuasistableRoutes.candidates)
    come in the kernel's order, and E's lattice solve is built at the
    first.  The solve runs first; the cut test (QuasistableRoutes.accepts)
    runs once per candidate with a lattice hit, and a hit is yielded only
    when it accepts D, so a non-quasistable D's hits are dropped.  `work` is charged for each
    candidate and each lattice point tested.
    """
    for eset in reversed(list(nondisconnecting_edge_sets(g))):
        routes = QuasistableRoutes(g, eset, v0, pol)
        solve = None
        for values in routes.candidates(work):
            if solve is None:
                solve = _EdgeSetSolve(g, routes.sub, ipoint)
            target = dict(values)
            for v in g.vertex_ids:
                target[v] -= d0[v]
            pd = None
            for flow in solve.flows(target):
                work.charge("lattice points")
                if flow is None:
                    continue
                if pd is None:
                    if not routes.accepts(values):
                        break
                    pd = routes.pseudo_divisor(values)
                yield _certified_pair(g, pd, solve.basis, flow, d0, ipoint)
