"""Divisors, pseudo-divisors, polarizations, the beta function, quasistability
and the poset of quasistable pseudo-divisors.

Everything touching beta is exact: half-integers are Fractions, never floats,
because stability is decided by strict comparison with 0.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product

from .errors import ValidationError, WorkCap
from .graph import Graph, Specialization, Subdivision, contract, exceptional_id, subdivide
from .linalg import exact_value, format_rational

DEFAULT_CANDIDATE_CAP = 1 << 20


@dataclass(frozen=True)
class Divisor:
    """Integer vertex values on a fixed graph."""

    graph: Graph
    values: tuple  # sorted (vertex, int)

    def __post_init__(self):
        object.__setattr__(
            self,
            "values",
            tuple(sorted((str(v), exact_value(c, integral=True)) for v, c in self.values)),
        )
        vm = dict(self.values)
        for v in vm:
            if v not in self.graph.weight:
                raise ValidationError(f"divisor keys unknown vertex {v}")
        object.__setattr__(self, "_map", {v: vm.get(v, 0) for v in self.graph.vertex_ids})

    @staticmethod
    def of(graph, mapping):
        return Divisor(graph, tuple(mapping.items()))

    def __getitem__(self, v):
        return self._map[v]

    def degree(self):
        return sum(self._map.values())

    def restricted_degree(self, vset):
        return sum(self._map[v] for v in vset)

    def add(self, other):
        if self.graph != other.graph:
            raise AssertionError("divisors live on different graphs")
        return Divisor.of(self.graph, {v: self[v] + other[v] for v in self.graph.vertex_ids})

    def sub(self, other):
        if self.graph != other.graph:
            raise AssertionError("divisors live on different graphs")
        return Divisor.of(self.graph, {v: self[v] - other[v] for v in self.graph.vertex_ids})

    def lift_to_subdivision(self, sub):
        """The divisor on the subdivision that is 0 at exceptional vertices."""
        vals = {v: self[v] for v in self.graph.vertex_ids}
        vals.update({x: 0 for x in sub.exceptional})
        return Divisor.of(sub.result, vals)

    def pushforward(self, spec):
        """The divisor on spec.target summing the values over each fiber."""
        vals = {v: 0 for v in spec.target.vertex_ids}
        for v in self.graph.vertex_ids:
            vals[spec(v)] += self[v]
        return Divisor.of(spec.target, vals)

    def restrict_to(self, graph):
        """Forget vertices not present in `graph` (values there must exist)."""
        return Divisor.of(graph, {v: self._map.get(v, 0) for v in graph.vertex_ids})

    def to_json(self):
        return {v: c for v, c in self.values if c != 0}


@dataclass(frozen=True)
class Polarization:
    """Exact rational vertex weighting with integer total degree."""

    graph: Graph
    values: tuple  # sorted (vertex, Fraction)

    def __post_init__(self):
        vals = ((str(v), exact_value(c)) for v, c in self.values)
        object.__setattr__(self, "values", tuple(sorted(vals)))
        vm = dict(self.values)
        for v in vm:
            if v not in self.graph.weight:
                raise ValidationError(f"polarization keys unknown vertex {v}")
        object.__setattr__(self, "_map", {v: vm.get(v, Fraction(0)) for v in self.graph.vertex_ids})
        total = sum(self._map.values())
        if total.denominator != 1:
            raise ValidationError(f"polarization degree {total} is not an integer")

    @staticmethod
    def of(graph, mapping):
        return Polarization(graph, tuple(mapping.items()))

    @staticmethod
    def zero(graph):
        return Polarization(graph, ())

    def __getitem__(self, v):
        return self._map[v]

    def degree(self):
        return int(sum(self._map.values()))

    def restricted(self, vset):
        return sum((self._map[v] for v in vset), Fraction(0))

    def lift_to_subdivision(self, sub):
        vals = {v: self[v] for v in self.graph.vertex_ids}
        vals.update({x: Fraction(0) for x in sub.exceptional})
        return Polarization.of(sub.result, vals)

    def removed_edges_shift(self, eset):
        """The polarization mu_E on the edge-removed graph: mu + val_E/2."""
        g2 = self.graph.remove_edges(eset)
        return Polarization.of(
            g2, {v: self[v] + Fraction(self.graph.valence(v, set(eset)), 2) for v in g2.vertex_ids}
        )

    def pushforward(self, spec):
        vals = {v: Fraction(0) for v in spec.target.vertex_ids}
        for v in self.graph.vertex_ids:
            vals[spec(v)] += self[v]
        return Polarization.of(spec.target, vals)

    def to_json(self):
        return {v: format_rational(c) for v, c in self.values}


@dataclass(frozen=True)
class PseudoDivisor:
    """A pair (E, D): D lives on the E-subdivision with -1 at every
    exceptional vertex.

    `subdivision` is the E-subdivision of base; pass it when it is already
    built (pseudo-divisors with one E share it), otherwise it is built here.
    """

    base: Graph
    eset: frozenset
    divisor: Divisor
    subdivision: Subdivision = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        sub = self.subdivision
        if sub is None:
            sub = subdivide(self.base, self.eset)
            object.__setattr__(self, "subdivision", sub)
        elif sub.base != self.base or sub.subdivided_set != self.eset:
            raise ValidationError("subdivision is not the E-subdivision of the base")
        if self.divisor.graph != sub.result:
            raise ValidationError("divisor does not live on the E-subdivision")
        for x in sub.exceptional:
            if self.divisor[x] != -1:
                raise ValidationError(f"exceptional vertex {x} must carry -1")

    @staticmethod
    def of(base, eset, values, subdivision=None):
        eset = frozenset(eset)
        sub = subdivision if subdivision is not None else subdivide(base, eset)
        return PseudoDivisor(base, eset, Divisor.of(sub.result, values), sub)

    def degree(self):
        return self.divisor.degree()

    def canonical_key(self):
        return (tuple(sorted(self.eset)), self.divisor.values)

    def to_json(self):
        return {"E": sorted(self.eset), "D": dict(self.divisor.values)}


def beta(div, pol, vset):
    """deg(D|_V) - mu(V) + delta_V / 2, as an exact Fraction."""
    if div.graph != pol.graph:
        raise ValidationError("divisor and polarization live on different graphs")
    vset = set(vset)
    for v in vset:
        if v not in div.graph.weight:
            raise ValidationError(f"unknown vertex id {v}")
    return div.restricted_degree(vset) - pol.restricted(vset) + Fraction(div.graph.delta(vset), 2)


def _quasistable_on_graph(div, v0, pol):
    """Direct definition: beta >= 0 on proper subsets, strict when v0 inside.

    Exhaustive over all 2^|V| subsets; kept as the oracle of the cut test."""
    g = div.graph
    verts = g.vertex_ids
    n = len(verts)
    for r in range(1, n):
        for subset in combinations(verts, r):
            b = beta(div, pol, subset)
            if v0 in subset:
                if b <= 0:
                    return False
            elif b < 0:
                return False
    return True


def _max_flow(cap, nbrs, s, t, limit):
    """Edmonds-Karp on a dense residual matrix, updated in place.

    Stops once the flow reaches `limit` and returns (flow, None); otherwise
    the flow is maximum and comes back with the vertices reachable from s in
    the residual network, the source side of a minimum cut.
    """
    n = len(cap)
    total = 0
    while total < limit:
        parent = [-1] * n
        parent[s] = s
        queue = [s]
        for u in queue:
            row = cap[u]
            for v in nbrs[u]:
                if parent[v] < 0 and row[v] > 0:
                    parent[v] = u
                    queue.append(v)
            if parent[t] >= 0:
                break
        if parent[t] < 0:
            return total, queue
        push = limit - total
        v = t
        while v != s:
            u = parent[v]
            push = min(push, cap[u][v])
            v = u
        v = t
        while v != s:
            u = parent[v]
            cap[u][v] -= push
            cap[v][u] += push
            v = u
        total += push
    return total, None


class _CutTester:
    """Quasistability on one polarized graph by integer s-t minimum cuts.

    With L the lcm of the polarization's denominators and
    c(v) = 2L(D(v) - mu(v)), the function f(V) = sum_V c + L delta_V equals
    2L beta(V).  It is a modular function plus a graph cut, so its minimum
    over the sets holding s and missing t is a minimum cut (Picard and
    Ratliff): each non-loop edge gives two arcs of capacity L, a vertex with
    c(v) > 0 an arc v -> sink of capacity c(v), one with c(v) < 0 an arc
    source -> v of capacity -c(v), and the cut value exceeds f by the sum of
    the latter.  Only the terminal arcs depend on D, so one tester serves
    every candidate divisor on its graph.
    """

    def __init__(self, graph, pol, v0):
        if pol.graph != graph:
            raise ValidationError("polarization lives on the wrong graph")
        self.vertices = graph.vertex_ids
        n = len(self.vertices)
        idx = {v: i for i, v in enumerate(self.vertices)}
        self.scale = math.lcm(*(c.denominator for _, c in pol.values))
        self.root = idx[v0]
        self.twice_mu = [int(2 * self.scale * pol[v]) for v in self.vertices]
        # vertices 0..n-1, then the source n and the sink n + 1
        src, snk = n, n + 1
        arcs = [[0] * (n + 2) for _ in range(n + 2)]
        for _, (a, b) in graph.edges:
            if a != b:
                arcs[idx[a]][idx[b]] += self.scale
                arcs[idx[b]][idx[a]] += self.scale
        self.arcs = arcs
        # residual arcs into the source and out of the sink are never used
        self.nbrs = [[v for v in range(n) if arcs[u][v]] + [snk] for u in range(n)]
        self.nbrs += [list(range(n)), []]

    def _network(self, values):
        """Capacities for the divisor `values` (vertex -> int) and the sum
        of the source arcs, which a cut value exceeds f by."""
        n = len(self.vertices)
        src, snk = n, n + 1
        cap = [row[:] for row in self.arcs]
        for i, v in enumerate(self.vertices):
            c = 2 * self.scale * values[v] - self.twice_mu[i]
            if c > 0:
                cap[i][snk] = c
            elif c < 0:
                cap[src][i] = -c
        return cap, sum(cap[src])

    def _pinned_cuts(self, values, stop):
        """Yield (holds v0, f, set) per pinned pair: first v0 on the source
        side with each t on the sink side, then each s with v0 on the sink
        side.  f is the minimum of 2L beta over the sets holding the source
        pin and missing the sink pin, and set attains it.  With `stop` a flow
        halts at the strict (first family) or weak (second family) bound on
        f, and a pair that reaches it yields (holds v0, None, None); every
        set yielded then violates quasistability.
        """
        n = len(self.vertices)
        src, snk = n, n + 1
        cap, offset = self._network(values)
        big = sum(map(sum, cap)) + 1  # beyond any finite cut
        r = self.root
        for first in (True, False):
            limit = offset + 1 if first else offset
            for other in range(n):
                if other == r:
                    continue
                s, t = (r, other) if first else (other, r)
                res = [row[:] for row in cap]
                res[src][s] = big
                res[t][snk] = big
                value, side = _max_flow(res, self.nbrs, src, snk, limit if stop else big)
                if side is None:
                    yield first, None, None
                else:
                    yield first, value - offset, frozenset(self.vertices[i] for i in side if i < n)

    def violation(self, values):
        """A set violating quasistability of `values`, or None: beta < 0, or
        beta <= 0 on a set holding v0.  Stops at the first one found."""
        for _, _, vset in self._pinned_cuts(values, stop=True):
            if vset is not None:
                return vset
        return None

    def minimum(self, values):
        """(quasistable, beta, vset): vset attains the minimum of beta over
        proper nonempty subsets, a set holding v0 preferred on ties, so it is
        the most violated set whenever one exists."""
        best = None
        # the sets holding v0 come first, so they win ties
        for first, f, vset in self._pinned_cuts(values, stop=False):
            if best is None or f < best[0]:
                best = f, first, vset
        if best is None:  # a single vertex has no proper nonempty subset
            return True, None, None
        f, holds_root, vset = best
        ok = f > 0 or (f == 0 and not holds_root)
        return ok, Fraction(f, 2 * self.scale), vset


class _QuasistableRoutes:
    """The two quasistability tests of pseudo-divisors with one edge set E.

    The direct route cuts the E-subdivision against the lifted
    polarization; the reduction route demands E nondisconnecting and cuts
    G - E against mu_E.  Both are built once per E and must agree on every
    divisor they see.
    """

    def __init__(self, g, eset, v0, pol, sub=None):
        self.sub = sub if sub is not None else subdivide(g, eset)
        self.lifted = pol.lift_to_subdivision(self.sub)
        self.direct = _CutTester(self.sub.result, self.lifted, v0)
        self.reduced = None
        if g.is_nondisconnecting(eset):
            reduced_pol = pol.removed_edges_shift(eset)
            self.reduced = _CutTester(reduced_pol.graph, reduced_pol, v0)

    def accepts(self, values):
        """Quasistability of the divisor `values` on the subdivision."""
        direct = self.direct.violation(values) is None
        via_removal = self.reduced is not None and self.reduced.violation(values) is None
        if direct != via_removal:
            raise AssertionError("quasistability cross-check failed")
        return direct


def is_quasistable(pd, v0, pol):
    """Quasistability of a pseudo-divisor, cross-checked two ways.

    The direct route minimizes beta over the proper subsets of the
    subdivision; the reduction route demands E nondisconnecting plus
    quasistability of the restricted divisor on the edge-removed graph
    against the shifted polarization.  Each minimum is found by 2(|V| - 1)
    integer s-t minimum cuts (see _CutTester), and both routes must agree.
    """
    if pol.graph != pd.base:
        raise ValidationError("polarization lives on the wrong graph")
    if v0 not in pd.base.weight:
        raise ValidationError(f"unknown base vertex {v0}")
    routes = _QuasistableRoutes(pd.base, pd.eset, v0, pol, sub=pd.subdivision)
    return routes.accepts(pd.divisor._map)


def contract_pushforward(pd, zset, subdivision=None):
    """Push a pseudo-divisor forward along the contraction of a set `zset`
    of edges of its E-subdivision, plain edges and halves alike.

    A base edge is contracted when all its parts are in zset (the plain
    edge, or both halves), and leaves E when it is subdivided.  A
    subdivided edge with one half in zset leaves E uncontracted: its
    exceptional vertex merges into the far end of the contracted half.
    The vertex map between the two subdivisions is the Specialization
    sending a base vertex to its image under contract, the exceptional
    vertex of a contracted edge to the image of the edge's smaller end,
    that of a half-contracted edge to the image of the absorbing end, and
    every other exceptional vertex to itself.  The face divisor sums the
    values over its fibers (Divisor.pushforward), so the degree is kept and
    each surviving exceptional vertex keeps its -1.  `subdivision` is the
    face's E'-subdivision of the contracted base, when already built.
    Returns (face pseudo-divisor, vertex map).
    """
    g, sub = pd.base, pd.subdivision
    parts = {}
    for h in zset:
        if h not in sub.over_map:
            raise ValidationError(f"{h} is not an edge of the E-subdivision")
        parts.setdefault(sub.over_map[h], []).append(h)
    full = frozenset(e for e, hs in parts.items() if len(hs) == len(sub.halves.get(e, (e,))))
    spec = contract(g, full)
    new_e = pd.eset.difference(parts)
    if subdivision is None:
        subdivision = subdivide(spec.target, new_e)
    vmap = dict(spec.vmap)
    for e in pd.eset:
        x = exceptional_id(e)
        if e in full:
            vmap[x] = spec(g.ends[e][0])
        elif e in parts:
            tail, head = sub.dir_map[parts[e][0]]
            vmap[x] = spec(tail if tail != x else head)
        else:
            vmap[x] = x
    along = Specialization(
        sub.result, subdivision.result, frozenset(zset), tuple(sorted(vmap.items()))
    )
    face = PseudoDivisor(spec.target, new_e, pd.divisor.pushforward(along), subdivision)
    return face, along


def _value_windows(sub, pol_lifted, base_vertices):
    windows = {}
    for v in base_vertices:
        d = sub.result.delta({v})
        lo = pol_lifted[v] - Fraction(d, 2)
        hi = pol_lifted[v] + Fraction(d, 2)
        windows[v] = range(math.ceil(lo), math.floor(hi) + 1)
    return windows


@dataclass(frozen=True)
class QuasistablePoset:
    """All quasistable pseudo-divisors of a polarized 1-legged graph, ordered
    by specialization; covers link (E, D) to its single-edge pushforwards.
    checks counts the candidates tested to find them."""

    elements: tuple  # PseudoDivisor, canonically sorted
    covers: tuple  # (i, j) index pairs: element i covers element j
    checks: int = field(default=0, compare=False)

    def index(self, pd):
        key = pd.canonical_key()
        for i, el in enumerate(self.elements):
            if el.canonical_key() == key:
                return i
        raise KeyError(key)

    def to_json(self):
        return {
            "elements": [pd.to_json() for pd in self.elements],
            "covers": [list(c) for c in self.covers],
        }


def edge_sets(g):
    """Every edge set E, by size and then in the order of
    itertools.combinations over the edge ids."""
    for r in range(len(g.edge_ids) + 1):
        for eset in combinations(g.edge_ids, r):
            yield frozenset(eset)


def nondisconnecting_edge_sets(g):
    """The edge sets E with G - E connected, in the order of edge_sets.
    G - E keeps at least |V| - 1 edges, so |E| <= b1(G) and the walk stops
    at the first larger set."""
    b1 = g.b1()
    for eset in edge_sets(g):
        if len(eset) > b1:
            return
        if g.is_nondisconnecting(eset):
            yield eset


def quasistable_with_edge_set(g, eset, v0, pol, work):
    """The quasistable pseudo-divisors (E, D) of degree deg(mu) with the
    one edge set E, in canonical order, one at a time.

    Only E's cut tests (_QuasistableRoutes), its subdivision and its value
    windows mu(v) +- delta_v/2 are built.  Each candidate of the right total
    is charged to the WorkCap `work` as one "candidate checks" unit and then
    goes through both cut tests, which must agree.  The windows are walked
    in the sorted vertex order, values ascending, and every exceptional
    vertex carries -1, so the divisors come in the order of their values.
    """
    routes = _QuasistableRoutes(g, eset, v0, pol)
    sub = routes.sub
    base_verts = g.vertex_ids
    windows = _value_windows(sub, routes.lifted, base_verts)
    target_total = pol.degree() + len(eset)
    vals = {x: -1 for x in sub.exceptional}
    for combo in product(*(windows[v] for v in base_verts)):
        if sum(combo) != target_total:
            continue
        work.charge("candidate checks")
        vals.update(zip(base_verts, combo))
        if routes.accepts(vals):
            yield PseudoDivisor(g, eset, Divisor.of(sub.result, vals), sub)


def enumerate_quasistable(g, v0, pol, cap=DEFAULT_CANDIDATE_CAP):
    """The full poset of quasistable pseudo-divisors of degree deg(mu).

    Runs the per-edge-set kernel quasistable_with_edge_set on the
    nondisconnecting edge sets only (on a disconnecting one the direct cut
    route rejects every candidate), then links each element to its
    single-edge pushforwards.  The candidate checks of those edge sets count
    against `cap`, and DeskScaleError is raised past it.
    """
    if pol.graph != g:
        raise ValidationError("polarization lives on the wrong graph")
    if v0 not in g.weight:
        raise ValidationError(f"unknown base vertex {v0}")
    work = WorkCap("quasistable pseudo-divisors", cap, "candidate checks")
    found = []
    for eset in nondisconnecting_edge_sets(g):
        found.extend(quasistable_with_edge_set(g, eset, v0, pol, work))
    found.sort(key=lambda p: p.canonical_key())
    index = {pd.canonical_key(): i for i, pd in enumerate(found)}
    subs = {pd.eset: pd.subdivision for pd in found}
    covers = set()
    for i, pd in enumerate(found):
        for e in sorted(pd.eset):
            for half in pd.subdivision.halves[e]:
                smaller, _ = contract_pushforward(pd, {half}, subs.get(pd.eset - {e}))
                j = index.get(smaller.canonical_key())
                if j is None:
                    raise AssertionError("pushforward left the quasistable poset")
                covers.add((i, j))
    return QuasistablePoset(tuple(found), tuple(sorted(covers)), work.count["candidate checks"])
