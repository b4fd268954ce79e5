"""Divisors, pseudo-divisors, polarizations, the beta function, quasistability
and the poset of quasistable pseudo-divisors.

Divisors (integer) and polarizations (rational) are one vertex-value type,
_VertexValues: the same gate, restriction, lift to a subdivision and
pushforward, each returning the caller's own class.

Everything touching beta is exact: half-integers are Fractions, never floats,
because stability is decided by strict comparison with 0.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations, repeat
from operator import add, sub

from .errors import DEFAULT_CAP, ValidationError, WorkCap
from .graph import Graph, Subdivision, contraction_names, exceptional_id, subdivide
from .linalg import exact_value


@dataclass(frozen=True)
class _VertexValues:
    """Exact vertex values on a fixed graph, each through the exact_value
    gate (integral or rational, by the class); absent vertices read 0.
    Values of two classes never compare equal."""

    graph: Graph
    values: tuple  # sorted (vertex, value)

    _integral = True
    _noun = "divisor"

    def __post_init__(self):
        integral = self._integral
        vals = ((str(v), exact_value(c, integral=integral)) for v, c in self.values)
        object.__setattr__(self, "values", tuple(sorted(vals)))
        vm = dict(self.values)
        for v in vm:
            if v not in self.graph.weight:
                raise ValidationError(f"{self._noun} keys unknown vertex {v}")
        zero = exact_value(0, integral=integral)
        object.__setattr__(self, "_map", {v: vm.get(v, zero) for v in self.graph.vertex_ids})

    @classmethod
    def of(cls, graph, mapping):
        return cls(graph, tuple(mapping.items()))

    def __getitem__(self, v):
        return self._map[v]

    def degree(self):
        return sum(self._map.values())

    def restricted(self, vset):
        return sum(self._map[v] for v in vset)

    def lift_to_subdivision(self, sub):
        """The values on the subdivision, 0 at exceptional vertices."""
        vals = {v: self[v] for v in self.graph.vertex_ids}
        vals.update({x: 0 for x in sub.exceptional})
        return self.of(sub.result, vals)

    def pushforward(self, spec):
        """The values on spec.target, summed over each fiber."""
        vals = dict.fromkeys(spec.target.vertex_ids, 0)
        vals.update(fiber_sums(spec.vmap, self._map))
        return self.of(spec.target, vals)


class Divisor(_VertexValues):
    """Integer vertex values on a fixed graph."""

    def add(self, other):
        if self.graph != other.graph:
            raise AssertionError("divisors live on different graphs")
        return Divisor.of(self.graph, {v: self[v] + other[v] for v in self.graph.vertex_ids})

    def sub(self, other):
        if self.graph != other.graph:
            raise AssertionError("divisors live on different graphs")
        return Divisor.of(self.graph, {v: self[v] - other[v] for v in self.graph.vertex_ids})


class Polarization(_VertexValues):
    """Exact rational vertex weighting with integer total degree, summed
    once, when the polarization is checked."""

    _integral = False
    _noun = "polarization"

    def __post_init__(self):
        super().__post_init__()
        total = super().degree()
        if total.denominator != 1:
            raise ValidationError(f"polarization degree {total} is not an integer")
        object.__setattr__(self, "_degree", int(total))

    @staticmethod
    def zero(graph):
        return Polarization(graph, ())

    def degree(self):
        return self._degree


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
    def of(base, eset, values):
        sub = subdivide(base, eset)
        return PseudoDivisor(base, sub.subdivided_set, Divisor.of(sub.result, values), sub)

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
    return div.restricted(vset) - pol.restricted(vset) + Fraction(div.graph.delta(vset), 2)


def _max_flow(cap, nbrs, s, t, limit):
    """Edmonds-Karp on a dense residual matrix, updated in place.  Returns
    None once the flow reaches `limit`; otherwise the flow is maximum and
    the vertices reachable from s in the residual network, the source side
    of a minimum cut, are returned."""
    n = len(cap)
    while limit > 0:
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
            return queue
        push = limit
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
        limit -= push
    return None


def _check_flow(cap, res, s, t, limit):
    """Raise unless `res` is the residual network of an s-t flow on `cap`
    of value at least `limit`: res >= 0, and the flow cap - res is
    skew-symmetric, conserved at every vertex but s and t, and its net
    outflow at s reaches `limit`.  By weak duality no s-t cut of `cap` is
    then below `limit`."""
    flow = [list(map(sub, row, left)) for row, left in zip(cap, res)]
    if min(map(min, res)) < 0:
        raise AssertionError("a residual capacity is negative")
    if any(map(any, map(map, repeat(add), flow, zip(*flow)))):  # flow[u][v] + flow[v][u]
        raise AssertionError("the flow is not skew-symmetric")
    out = list(map(sum, flow))
    if out[s] < limit:
        raise AssertionError("the flow falls short of its limit")
    out[s] = out[t] = 0
    if any(out):
        raise AssertionError("the flow is not conserved")


def _residual_reach(res, nbrs, starts):
    """The nodes reachable from `starts` through residual arcs > 0, searched
    along `nbrs`, as a set."""
    seen = set(starts)
    stack = list(starts)
    while stack:
        u = stack.pop()
        row = res[u]
        for v in nbrs[u]:
            if row[v] > 0 and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _check_closure(res, starts, n):
    """Raise unless every node below n is reachable from `starts` through
    arcs of `res` > 0.  The reach is recomputed over whole rows of `res`,
    apart from _residual_reach."""
    seen = [False] * len(res)
    for s in starts:
        seen[s] = True
    frontier = list(starts)
    for u in frontier:
        for v, left in enumerate(res[u]):
            if left > 0 and not seen[v]:
                seen[v] = True
                frontier.append(v)
    if not all(seen[:n]):
        raise AssertionError("the residual closure of v0 misses a vertex")


class _CutTester:
    """Quasistability on one polarized graph by one integer maximum flow.

    With L the lcm of the polarization's denominators and
    c(v) = 2L(D(v) - mu(v)), the function f(X) = sum_X c + L delta_X equals
    2L beta(X).  It is a modular function plus a graph cut, so it is a cut
    function shifted by a constant (Picard and Ratliff): each non-loop edge
    gives two arcs of capacity L, a vertex with c(v) > 0 an arc v -> sink of
    capacity c(v), one with c(v) < 0 an arc source -> v of capacity -c(v),
    and the cut of X plus the source is f(X) plus the sum of the latter,
    the offset.  Only the terminal arcs depend on D, so one tester serves
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
        self.edges = [(idx[a], idx[b]) for _, (a, b) in graph.edges if a != b]
        # vertices 0..n-1, then the source n and the sink n + 1
        arcs = [[0] * (n + 2) for _ in range(n + 2)]
        for a, b in self.edges:
            arcs[a][b] += self.scale
            arcs[b][a] += self.scale
        self.arcs = arcs
        # residual arcs into the source and out of the sink are never used
        self.nbrs = [[v for v in range(n) if arcs[u][v]] + [n + 1] for u in range(n)]
        self.nbrs += [list(range(n)), []]

    def _network(self, values):
        """Capacities for the divisor `values` (vertex -> int) and the sum
        of the source arcs, which a cut value exceeds f by.  Raises
        ValidationError unless f vanishes on the whole vertex set, that is
        unless deg D = deg mu."""
        n = len(self.vertices)
        src, snk = n, n + 1
        cap = [row[:] for row in self.arcs]
        total = 0
        for i, v in enumerate(self.vertices):
            c = 2 * self.scale * values[v] - self.twice_mu[i]
            total += c
            if c > 0:
                cap[i][snk] = c
            elif c < 0:
                cap[src][i] = -c
        if total:
            raise ValidationError("the divisor's degree is not the polarization's")
        return cap, sum(cap[src])

    def violation(self, values):
        """A set violating quasistability of `values`, or None: beta < 0, or
        beta = 0 on a set holding v0.

        One maximum flow from source to sink.  Since f vanishes on the empty
        and the whole vertex set, the flow never exceeds the offset, and
        falls short of it exactly when some set has f < 0: the source side
        of the minimum cut is then such a set, nonempty and proper.  Otherwise
        f >= 0 everywhere, and the sets with f = 0 are the minimum cuts,
        which are the residual-closed sets holding the source (Picard and
        Queyranne).  So the residual reach of the source and v0 is the
        least set holding v0 with f = 0, and it names a violation exactly
        when it misses a vertex.

        Both answers are certified by explicit raises: a returned set by f
        recomputed from the divisor, 2L mu and the edges leaving it, and
        None by the flow's residual network (_check_flow), which shows
        f >= 0, and by the residual reach of the source and v0 recomputed
        apart from the walk (_check_closure), which shows no proper set
        holding v0 has f = 0.
        """
        n = len(self.vertices)
        src, snk = n, n + 1
        cap, offset = self._network(values)
        res = [row[:] for row in cap]
        side = _max_flow(res, self.nbrs, src, snk, offset)
        if side is not None:
            return self._checked_violation(values, side)
        starts = (src, self.root)
        reach = _residual_reach(res, self.nbrs, starts)
        if not reach.issuperset(range(n)):
            return self._checked_violation(values, reach)
        _check_flow(cap, res, src, snk, offset)
        _check_closure(res, starts, n)
        return None

    def _checked_violation(self, values, side):
        """The vertices of a cut's source side `side`, once f on them is
        recomputed and found to violate quasistability."""
        inside = {i for i in side if i < len(self.vertices)}
        if not 0 < len(inside) < len(self.vertices):
            raise AssertionError("the violating set is not a nonempty proper subset")
        f = sum(2 * self.scale * values[self.vertices[i]] - self.twice_mu[i] for i in inside)
        f += self.scale * sum((a in inside) != (b in inside) for a, b in self.edges)
        if f > 0 or (f == 0 and self.root not in inside):
            raise AssertionError("the violating set does not violate quasistability")
        return frozenset(self.vertices[i] for i in inside)


class QuasistableRoutes:
    """The candidates and the quasistability test of the pseudo-divisors
    with one edge set E.

    The test is the definition, decided by one certified maximum flow and
    its residual closure on the E-subdivision against the lifted
    polarization (_CutTester.violation); the network is built at the first
    accepts, so a walk that tests no candidate of E builds none.
    """

    def __init__(self, g, eset, v0, pol, sub=None):
        self.g, self.eset, self.v0, self.pol = g, eset, v0, pol
        self.sub = sub if sub is not None else subdivide(g, eset)
        self.lifted = pol.lift_to_subdivision(self.sub)

    @cached_property
    def direct(self):
        return _CutTester(self.sub.result, self.lifted, self.v0)

    def candidates(self, work):
        """The divisors (vertex -> int) on the E-subdivision of degree
        deg(mu) + |E| with each base vertex v in its window
        mu(v) +- delta_v/2 and -1 at every exceptional vertex, in the order
        of their values: the windows are walked in the sorted vertex order,
        values ascending, degree first (_tuples_of_sum), so no tuple of
        another degree is produced.  Each one is charged to the WorkCap
        `work` as one "candidate checks" unit before it is yielded."""
        base_verts = self.g.vertex_ids
        windows = _value_windows(self.sub, self.lifted, base_verts)
        target_total = self.pol.degree() + len(self.eset)
        exceptional = {x: -1 for x in self.sub.exceptional}
        for combo in _tuples_of_sum([windows[v] for v in base_verts], target_total):
            work.charge("candidate checks")
            vals = dict(zip(base_verts, combo))
            vals.update(exceptional)
            yield vals

    def accepts(self, values):
        """Quasistability of the divisor `values` on the subdivision."""
        return self.direct.violation(values) is None

    def pseudo_divisor(self, values):
        return PseudoDivisor(self.g, self.eset, Divisor.of(self.sub.result, values), self.sub)


def is_quasistable(pd, v0, pol):
    """Quasistability of a pseudo-divisor: beta >= 0 on every proper vertex
    set of its E-subdivision, and > 0 on those holding v0.

    Decided by one integer maximum flow on the subdivision and the
    residual reach of v0, and certified (see _CutTester.violation).  Raises
    ValidationError when the degree of the pseudo-divisor is not deg(mu).
    """
    if pol.graph != pd.base:
        raise ValidationError("polarization lives on the wrong graph")
    if v0 not in pd.base.weight:
        raise ValidationError(f"unknown base vertex {v0}")
    routes = QuasistableRoutes(pd.base, pd.eset, v0, pol, sub=pd.subdivision)
    return routes.accepts(pd.divisor._map)


def pushforward_vertex_map(pd, zset):
    """What contracting a set `zset` of edges of a pseudo-divisor's
    E-subdivision, plain edges and halves alike, does to it, with no graph
    built: returns (contracted base edges, E', vertex map, key), where key
    is the pushed pseudo-divisor's canonical_key, (sorted E', sorted fiber
    sums of the divisor).

    A base edge is contracted when all its parts are in zset (the plain
    edge, or both halves), and leaves E when it is subdivided.  A
    subdivided edge with one half in zset leaves E uncontracted: its
    exceptional vertex merges into the far end of the contracted half.
    The vertex map sends a base vertex to its name under contract (the
    least vertex of its class, contraction_names), the exceptional vertex
    of a contracted edge to the image of the edge's smaller end, that of a
    half-contracted edge to the image of the absorbing end, and every
    other exceptional vertex to itself.
    """
    g, sub = pd.base, pd.subdivision
    parts = {}
    for h in zset:
        if h not in sub.over_map:
            raise ValidationError(f"{h} is not an edge of the E-subdivision")
        parts.setdefault(sub.over_map[h], []).append(h)
    full = frozenset(e for e, hs in parts.items() if len(hs) == len(sub.halves.get(e, (e,))))
    vmap = contraction_names(g, full)
    for e in pd.eset:
        x = exceptional_id(e)
        if e in full:
            vmap[x] = vmap[g.ends[e][0]]
        elif e in parts:
            tail, head = sub.dir_map[parts[e][0]]
            vmap[x] = vmap[tail if tail != x else head]
        else:
            vmap[x] = x
    new_e = pd.eset.difference(parts)
    sums = fiber_sums(vmap, pd.divisor._map)
    return full, new_e, vmap, (tuple(sorted(new_e)), tuple(sorted(sums.items())))


def fiber_sums(vmap, values):
    """The sums of `values` (vertex -> value) over the fibers of the vertex
    map `vmap` (vertex -> image), as image -> sum: the one fiber sum of
    every pushforward of vertex values."""
    sums = {}
    for v, w in vmap.items():
        sums[w] = sums.get(w, 0) + values[v]
    return sums


def _tuples_of_sum(windows, total):
    """The tuples of product(*windows) whose entries sum to total, in the
    same lexicographic order, walked degree first.

    Each window is a range of consecutive integers, so the sums of windows
    j.. are exactly the integers from lo[j] to hi[j], the sums of their
    least and greatest values.  A prefix ending at level j therefore has a
    completion exactly when the rest of the total, rests[j + 1], lies in
    [lo[j + 1], hi[j + 1]], and the walk keeps only such prefixes: no
    tuple of the wrong sum is produced and the work is proportional to the
    tuples yielded.  It runs as an odometer: each level below the last
    takes its least completable value, the last takes what is left of the
    total, and after a yield the deepest level that can still rise (below
    its window's top and with rests[j + 1] above lo[j + 1]) rises by one
    and the levels after it start again from their least values.
    """
    lo, hi = [0], [0]
    for w in reversed(windows):
        if not w:
            return
        lo.append(lo[-1] + w[0])
        hi.append(hi[-1] + w[-1])
    lo.reverse()
    hi.reverse()
    n = len(windows)
    if total != math.floor(total) or not lo[0] <= total <= hi[0]:
        return
    if n == 0:
        yield ()
        return
    first = [w[0] for w in windows]
    top = [w[-1] for w in windows]
    vals = [0] * n
    rests = [int(total)] + [0] * n
    j = 0
    while True:
        for k in range(j, n - 1):
            v = rests[k] - hi[k + 1]
            if v < first[k]:
                v = first[k]
            vals[k] = v
            rests[k + 1] = rests[k] - v
        vals[-1] = rests[n - 1]
        yield tuple(vals)
        j = n - 2
        while j >= 0 and (vals[j] == top[j] or rests[j + 1] == lo[j + 1]):
            j -= 1
        if j < 0:
            return
        vals[j] += 1
        rests[j + 1] -= 1
        j += 1


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

    Only E's subdivision, value windows and cut test (QuasistableRoutes)
    are built.  Each candidate D of the windows is charged to the WorkCap
    `work` as one "candidate checks" unit and then goes through the
    certified cut test.  Point location walks the same candidates but runs
    the cut test only on those whose open cone holds its point.
    """
    routes = QuasistableRoutes(g, eset, v0, pol)
    for vals in routes.candidates(work):
        if routes.accepts(vals):
            yield routes.pseudo_divisor(vals)


def enumerate_quasistable(g, v0, pol, cap=DEFAULT_CAP):
    """The full poset of quasistable pseudo-divisors of degree deg(mu).

    Runs the per-edge-set kernel quasistable_with_edge_set on the
    nondisconnecting edge sets only (on a disconnecting one the cut test
    rejects every candidate), then links each element to its
    single-edge pushforwards, whose keys are read from the vertex map
    (pushforward_vertex_map) with no graph built.  The candidate checks of
    those edge sets count against `cap`, and DeskScaleError is raised past
    it.
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
    covers = set()
    for i, pd in enumerate(found):
        for e in sorted(pd.eset):
            for half in pd.subdivision.halves[e]:
                *_, key = pushforward_vertex_map(pd, {half})
                j = index.get(key)
                if j is None:
                    raise AssertionError("pushforward left the quasistable poset")
                covers.add((i, j))
    return QuasistablePoset(tuple(found), tuple(sorted(covers)), work.count["candidate checks"])
