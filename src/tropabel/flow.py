"""Integer flows, their divisors, and admissible pairs.

A flow is canonically stored with zero edges unoriented: the cones downstream
depend only on the values, and keeping phantom orientations would duplicate
fan cones.  Acyclicity is the contracted-zero-edge notion: positive edges must
induce no directed cycle after all zero edges are collapsed.

acyclic_flows produces the acyclic flows with a given divisor directly on
the undirected graph, each once: it peels sink classes of zero edges in one
canonical order, so no orientation is enumerated and no copy has to be
removed.  enumerate_admissible runs it once per nondisconnecting E and
quasistable divisor, and its cap counts the pairs produced.
"""

from dataclasses import dataclass
from functools import cached_property

from .divisor import Divisor, PseudoDivisor, nondisconnecting_edge_sets, quasistable_with_edge_set
from .errors import ValidationError, WorkCap
from .graph import Graph

DEFAULT_PAIR_CAP = 1 << 20


@dataclass(frozen=True)
class FlowAssignment:
    """Nonnegative integer flow on an oriented support.

    orientation: sorted (edge, (source, target)) for edges with positive flow;
    flow: sorted (edge, value) for every edge of the graph.  Zero edges carry
    no orientation (canonical form).
    """

    graph: Graph
    orientation: tuple
    flow: tuple

    def __post_init__(self):
        fl = {e: int(v) for e, v in self.flow}
        orient = {e: (str(a), str(b)) for e, (a, b) in self.orientation}
        for e in self.graph.edge_ids:
            if e not in fl:
                fl[e] = 0
        for e, v in fl.items():
            if e not in self.graph.ends:
                raise ValidationError(f"flow keys unknown edge {e}")
            if v < 0:
                raise ValidationError(f"negative flow on {e}")
            if v > 0 and e not in orient:
                raise ValidationError(f"positive edge {e} lacks an orientation")
        for e, (a, b) in orient.items():
            if fl.get(e, 0) == 0:
                raise ValidationError(f"zero edge {e} must be unoriented")
            if {a, b} != set(self.graph.ends[e]):
                raise ValidationError(f"orientation of {e} does not match its endpoints")
        object.__setattr__(self, "flow", tuple(sorted(fl.items())))
        object.__setattr__(self, "orientation", tuple(sorted(orient.items())))

    @staticmethod
    def of(graph, orientation, flow):
        """Canonicalize: drop orientations of zero edges."""
        fl = {e: int(flow.get(e, 0)) for e in graph.edge_ids}
        orient = {e: pair for e, pair in orientation.items() if fl.get(e, 0) > 0}
        return FlowAssignment(graph, tuple(orient.items()), tuple(fl.items()))

    @staticmethod
    def zero(graph):
        return FlowAssignment(graph, (), ())

    @cached_property
    def flow_map(self):
        return dict(self.flow)

    @cached_property
    def orient_map(self):
        return dict(self.orientation)

    def value(self, e):
        return self.flow_map[e]

    def support(self):
        return tuple(e for e, v in self.flow if v > 0)

    def canonical_key(self):
        return (self.orientation, self.flow)

    def to_json(self):
        return {
            "phi": {e: v for e, v in self.flow},
            "orient": {e: list(p) for e, p in self.orientation},
        }


def div_flow(f):
    """The degree-0 divisor of a flow: in-flow minus out-flow per vertex."""
    vals = {v: 0 for v in f.graph.vertex_ids}
    for e, v in f.flow:
        if v == 0:
            continue
        s, t = f.orient_map[e]
        vals[t] += v
        vals[s] -= v
    d = Divisor.of(f.graph, vals)
    if d.degree() != 0:
        raise AssertionError("divisor of a flow has nonzero degree")
    return d


def is_acyclic_flow(f):
    """Contract all zero edges, then look for a directed cycle."""
    parent = {v: v for v in f.graph.vertex_ids}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e, v in f.flow:
        if v == 0:
            a, b = f.graph.ends[e]
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    arcs = {}
    for e, v in f.flow:
        if v > 0:
            s, t = f.orient_map[e]
            rs, rt = find(s), find(t)
            if rs == rt:
                return False
            arcs.setdefault(rs, set()).add(rt)
    # DFS cycle detection on the quotient digraph
    color = {}

    def dfs(u):
        color[u] = 1
        for w in arcs.get(u, ()):
            c = color.get(w, 0)
            if c == 1:
                return False
            if c == 0 and not dfs(w):
                return False
        color[u] = 2
        return True

    return all(color.get(u, 0) != 0 or dfs(u) for u in list(arcs))


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _positive_splits(total, parts):
    """Every way to write total as an ordered sum of `parts` positive ints."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_splits(total - first, parts - 1):
            yield (first,) + rest


def acyclic_flows(graph, target):
    """Every acyclic flow on `graph` with divisor `target`, each once.

    The zero edges of an acyclic flow split the vertices into connected
    classes.  Every edge inside a class is zero (loops included), every edge
    between two classes is positive, and the positive edges orient the
    quotient without a directed cycle.  Such a flow is taken apart by
    peeling sink classes: the edges from a sink class S to the vertices
    still left all point into S and carry at least one unit each, at every
    vertex of S they carry exactly its adjusted target, and removing S adds
    each edge's value to the target of its far end.

    A flow has one peeling order per reverse topological order of its
    quotient; only the greedy one is followed, which at each step peels the
    sink class with the smallest least vertex.  After a given history, S may
    come next exactly when every class peeled after S's last neighbour (all
    of them, if S has none) has a smaller least vertex than S, so the order
    is checked class by class and no flow is produced twice.  Vertices
    compare in the graph's (sorted) vertex order.  Candidate classes grow from their least vertex through
    vertices of nonnegative target, and a branch stops as soon as a vertex
    of the class has fewer units of target than edges that must leave the
    class there, or a component of the vertices left has nonzero total.
    """
    if target.graph != graph:
        raise ValidationError("divisor lives on another graph")
    if target.degree() != 0:
        raise ValidationError("divisor must have degree 0")
    verts = graph.vertex_ids
    index = {v: i for i, v in enumerate(verts)}
    edges = []  # the non-loop edges as (id, end, end)
    slots = []  # every edge id in order, with its index in edges (None for a loop)
    for e, (a, b) in graph.edges:
        slots.append((e, len(edges) if a != b else None))
        if a != b:
            edges.append((e, index[a], index[b]))
    inc = [[] for _ in verts]  # per vertex: (edge index, far end)
    nbr = [0] * len(verts)
    for k, (_, a, b) in enumerate(edges):
        inc[a].append((k, b))
        inc[b].append((k, a))
        nbr[a] |= 1 << b
        nbr[b] |= 1 << a
    need = [target[v] for v in verts]
    value = [0] * len(edges)
    tail = [0] * len(edges)  # ends of a positive edge, set when it is peeled
    head = [0] * len(edges)
    peeled = []  # (class mask, least vertex) in peeling order

    members = {}  # mask -> its vertices, ascending

    def bits(mask):
        got = members.get(mask)
        if got is None:
            got = members[mask] = tuple(_bits(mask))
        return got

    def outside(v, mask):
        return sum(1 for _, w in inc[v] if mask >> w & 1)

    def components(rest):
        """The vertex masks of the components that `rest` induces."""
        comps = []
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                grown = 0
                for v in bits(frontier):
                    grown |= nbr[v]
                frontier = grown & rest & ~comp
                comp |= frontier
            comps.append(comp)
            rest &= ~comp
        return comps

    def grow(left, possible, cls, frontier, banned):
        """Connected classes holding cls, inside possible, each once: the
        least frontier vertex is first left out, then taken in."""
        if not frontier:
            yield cls
            return
        u = (frontier & -frontier).bit_length() - 1
        bit = 1 << u
        out = left & ~(possible & ~banned & ~bit)
        if all(outside(v, out) <= need[v] for v in bits(cls & nbr[u])):
            yield from grow(left, possible, cls, frontier & ~bit, banned | bit)
        out = left & ~(possible & ~banned)
        if outside(u, out) <= need[u]:
            grown = (frontier | nbr[u] & possible) & ~(cls | bit | banned)
            yield from grow(left, possible, cls | bit, grown, banned)

    def sink_classes(left):
        """(class, its cut edges per vertex) for every class that the greedy
        order may peel next from the vertices in `left`."""
        possible = 0
        for v in bits(left):
            if need[v] >= 0:
                possible |= 1 << v
        for r in bits(possible):
            # the classes peeled since the last one with a larger least
            # vertex; a class rooted at r must touch one of them
            late = None
            for j in range(len(peeled) - 1, -1, -1):
                if peeled[j][1] > r:
                    late = 0
                    for mask, _ in peeled[j:]:
                        for v in bits(mask):
                            late |= nbr[v]
                    break
            above = possible & ~((2 << r) - 1)
            for cls in grow(left, above | 1 << r, 1 << r, nbr[r] & above, 0):
                if late is not None and not cls & late:
                    continue
                rest = left & ~cls
                cut = []
                for v in bits(cls):
                    edges_out = [(k, w) for k, w in inc[v] if rest >> w & 1]
                    if len(edges_out) > need[v] or (not edges_out and need[v]):
                        break
                    if edges_out:
                        cut.append((v, edges_out))
                else:
                    yield cls, r, cut

    def distribute(cut, i):
        """Spread each vertex's target over its cut edges, one unit at least
        on each; the far ends gain what they send."""
        if i == len(cut):
            yield
            return
        v, edges_out = cut[i]
        for split in _positive_splits(need[v], len(edges_out)):
            for (k, w), x in zip(edges_out, split):
                value[k], tail[k], head[k] = x, w, v
                need[w] += x
            yield from distribute(cut, i + 1)
            for (k, w), x in zip(edges_out, split):
                need[w] -= x
                value[k] = 0

    def peel(left):
        if not left:
            flow = tuple((e, value[k] if k is not None else 0) for e, k in slots)
            orient = tuple(
                (e, (verts[tail[k]], verts[head[k]])) for e, k in slots if k is not None and value[k]
            )
            yield FlowAssignment(graph, orient, flow)
            return
        for cls, r, cut in sink_classes(left):
            rest = left & ~cls
            # no flow crosses between two components of rest any more, so
            # each must balance; a single one does, as the total is zero
            parts = components(rest)
            if len(parts) < 2:
                parts = ()
            peeled.append((cls, r))
            for _ in distribute(cut, 0):
                if all(sum(need[v] for v in bits(c)) == 0 for c in parts):
                    yield from peel(rest)
            peeled.pop()

    yield from peel((1 << len(verts)) - 1)


@dataclass(frozen=True)
class AdmissiblePair:
    """A nondisconnecting edge set E plus an acyclic flow on the
    E-subdivision whose shifted divisor is quasistable."""

    base: Graph
    eset: frozenset
    flow: FlowAssignment
    resulting_pd: PseudoDivisor

    def canonical_key(self):
        return (tuple(sorted(self.eset)), self.flow.canonical_key())

    def to_json(self):
        data = {"E": sorted(self.eset)}
        data.update(self.flow.to_json())
        data["D"] = dict(self.resulting_pd.divisor.values)
        return data


def check_instance(g, v0, pol, d0):
    """The checks on (g, v0, mu, D0) shared by every search for D0's pairs."""
    if d0.graph != g or pol.graph != g:
        raise ValidationError("divisor or polarization lives on the wrong graph")
    if v0 not in g.weight:
        raise ValidationError(f"unknown base vertex {v0}")
    if d0.degree() != pol.degree():
        raise ValidationError(
            f"deg D0 = {d0.degree()} differs from deg mu = {pol.degree()}"
        )


def enumerate_admissible(g, v0, pol, d0, cap=DEFAULT_PAIR_CAP):
    """All admissible pairs for the base divisor d0, sorted by canonical key.

    Only the nondisconnecting edge sets E are visited, and no poset covers
    are built: the per-edge-set kernel quasistable_with_edge_set yields
    each quasistable divisor D on the E-subdivision, and acyclic_flows
    yields every acyclic flow with divisor D - D0 once.  `cap` bounds the
    candidate checks of the kernels and, separately, the pairs produced;
    DeskScaleError is raised past either.
    """
    check_instance(g, v0, pol, d0)
    checks = WorkCap("quasistable pseudo-divisors", cap, "candidate checks")
    produced = WorkCap("admissible pairs", cap, "pairs")
    pairs = []
    for eset in nondisconnecting_edge_sets(g):
        lifted_d0 = None
        for pd in quasistable_with_edge_set(g, eset, v0, pol, checks):
            sub = pd.subdivision
            if lifted_d0 is None:
                lifted_d0 = d0.lift_to_subdivision(sub)
            for fa in acyclic_flows(sub.result, pd.divisor.sub(lifted_d0)):
                produced.charge("pairs")
                pairs.append(AdmissiblePair(g, eset, fa, pd))
    keys = [p.canonical_key() for p in pairs]
    order = sorted(range(len(pairs)), key=keys.__getitem__)
    for i, j in zip(order, order[1:]):
        if keys[i] == keys[j]:
            raise AssertionError("an admissible pair was produced twice")
    return [pairs[i] for i in order]
