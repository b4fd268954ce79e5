"""Orientations, integer flows, their divisors, and admissible pairs.

A flow is canonically stored with zero edges unoriented: the cones downstream
depend only on the values, and keeping phantom orientations would duplicate
fan cones.  Acyclicity is the contracted-zero-edge notion: positive edges must
induce no directed cycle after all zero edges are collapsed.
"""

from dataclasses import dataclass
from functools import cached_property

from .divisor import Divisor, PseudoDivisor
from .errors import DeskScaleError, ValidationError
from .graph import Graph, subdivide

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


def _digraph_is_acyclic(graph, orient):
    arcs = {}
    for e, (s, t) in orient.items():
        if s == t:
            return False
        arcs.setdefault(s, set()).add(t)
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


def flows_with_divisor(graph, orient, target):
    """All flows on the acyclic digraph (graph, orient) with divisor `target`.

    Sink-peeling: pick the canonical sink, split its divisor value over the
    incoming edges in every nonnegative way, remove the sink and recurse.
    Returns flows as edge -> value dicts over the digraph's full edge set.
    """
    orient = {e: tuple(p) for e, p in orient.items()}
    if set(orient) != set(graph.edge_ids):
        raise ValidationError("orientation must cover every edge")
    if not _digraph_is_acyclic(graph, orient):
        raise ValidationError("digraph has a directed cycle")
    if target.degree() != 0:
        raise ValidationError("divisor must have degree 0")

    def rec(vertices, edges, dvals):
        if len(vertices) == 1:
            v = next(iter(vertices))
            return [dict()] if dvals[v] == 0 else []
        sinks = sorted(v for v in vertices if not any(orient[e][0] == v for e in edges))
        v = sinks[0]
        incoming = sorted(e for e in edges if orient[e][1] == v)
        need = dvals[v]
        if need < 0:
            return []
        out = []
        for split in _compositions(need, len(incoming)):
            ndv = dict(dvals)
            del ndv[v]
            # removing e: v' -> v drops a -phi(e) term at v', so the target
            # for the remaining digraph gains phi(e) there (degree stays 0)
            for e, val in zip(incoming, split):
                ndv[orient[e][0]] += val
            rest = [e for e in edges if e not in incoming]
            for sub in rec(vertices - {v}, rest, ndv):
                whole = dict(sub)
                whole.update(dict(zip(incoming, split)))
                out.append(whole)
        return out

    dvals = {v: target[v] for v in graph.vertex_ids}
    return rec(set(graph.vertex_ids), list(graph.edge_ids), dvals)


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def acyclic_orientations(graph):
    """All acyclic orientations of the non-loop edges, canonically ordered.

    Loops are omitted: an oriented loop is already a directed cycle, so any
    acyclic flow vanishes there and the canonical form keeps them unoriented.
    """
    plain = [e for e in graph.edge_ids if not graph.is_loop(e)]
    out = []
    for mask in range(1 << len(plain)):
        orient = {}
        for i, e in enumerate(plain):
            a, b = graph.ends[e]
            orient[e] = (a, b) if not (mask >> i) & 1 else (b, a)
        if _digraph_is_acyclic(graph, orient):
            out.append(orient)
    return out


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


def enumerate_admissible(g, v0, pol, d0, cap=DEFAULT_PAIR_CAP):
    """All admissible pairs for the base divisor d0.

    For each nondisconnecting E and acyclic orientation of the subdivision,
    the flows hitting each quasistable divisor are collected via sink
    peeling, canonicalized and deduplicated.
    """
    if d0.graph != g or pol.graph != g:
        raise ValidationError("divisor or polarization lives on the wrong graph")
    if d0.degree() != pol.degree():
        raise ValidationError(
            f"deg D0 = {d0.degree()} differs from deg mu = {pol.degree()}"
        )
    from .divisor import enumerate_quasistable

    poset = enumerate_quasistable(g, v0, pol, cap=cap)
    by_eset = {}
    for pd in poset.elements:
        by_eset.setdefault(pd.eset, []).append(pd)
    found = {}
    work = 0
    for eset in sorted(by_eset, key=sorted):
        if not g.is_nondisconnecting(eset):
            continue
        sub = subdivide(g, eset)
        lifted_d0 = d0.lift_to_subdivision(sub)
        targets = [(pd, pd.divisor.sub(lifted_d0)) for pd in by_eset[eset]]
        # loops must carry zero flow in any acyclic assignment; peel them off
        loops = {e for e in sub.result.edge_ids if sub.result.is_loop(e)}
        loopfree = sub.result.remove_edges(loops)
        for orient in acyclic_orientations(sub.result):
            work += 1
            if work > cap:
                raise DeskScaleError(
                    f"admissible-pair enumeration exceeded {cap} orientation visits"
                )
            # quick local feasibility: positive demand needs an incoming edge,
            # negative demand an outgoing one
            indeg = {v: 0 for v in sub.result.vertex_ids}
            outdeg = {v: 0 for v in sub.result.vertex_ids}
            for e, (s, t) in orient.items():
                outdeg[s] += 1
                indeg[t] += 1
            for pd, target in targets:
                feasible = all(
                    not (target[v] > 0 and indeg[v] == 0)
                    and not (target[v] < 0 and outdeg[v] == 0)
                    for v in sub.result.vertex_ids
                )
                if not feasible:
                    continue
                loopfree_target = target.restrict_to(loopfree)
                for raw in flows_with_divisor(loopfree, orient, loopfree_target):
                    raw.update({e: 0 for e in loops})
                    fa = FlowAssignment.of(sub.result, orient, raw)
                    if not is_acyclic_flow(fa):
                        continue
                    pair = AdmissiblePair(g, eset, fa, pd)
                    found.setdefault(pair.canonical_key(), pair)
    return [found[k] for k in sorted(found)]
