"""The earlier route to acyclic flows and admissible pairs, kept as oracles.

Sink peeling runs on every acyclic orientation of the non-loop edges (the
2^|E| mask loop), the flows are filtered by is_acyclic_flow, and a dict
removes the copies that differ only in how their zero edges were oriented.
tropabel.flow.acyclic_flows must give the same flows, each once.
"""

from itertools import product

from tropabel.divisor import Divisor, enumerate_quasistable
from tropabel.errors import ValidationError
from tropabel.flow import AdmissiblePair, FlowAssignment, is_acyclic_flow
from tropabel.graph import subdivide

from conftest import remove_edges


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


def flows_with_divisor(graph, orient, target):
    """All flows on the acyclic digraph (graph, orient) with divisor `target`.

    Sink-peeling: pick the canonical sink, split its divisor value over the
    incoming edges in every nonnegative way, remove the sink and recurse.
    Returns flows as edge -> value dicts over the digraph's full edge set.
    The earlier library version, with each vertex's in- and out-edges
    listed once instead of rescanned at every step, and with a branch
    dropped only where `feasible` proves that no flow completes it.
    """
    orient = {e: tuple(p) for e, p in orient.items()}
    if set(orient) != set(graph.edge_ids):
        raise ValidationError("orientation must cover every edge")
    if not _digraph_is_acyclic(graph, orient):
        raise ValidationError("digraph has a directed cycle")
    if target.degree() != 0:
        raise ValidationError("divisor must have degree 0")

    tails = {v: set() for v in graph.vertex_ids}
    heads = {v: [] for v in graph.vertex_ids}
    for e in sorted(orient):
        tails[orient[e][0]].add(e)
        heads[orient[e][1]].append(e)

    def feasible(vertices, edges, dvals):
        """False only when no flow on the remaining digraph meets dvals.
        A vertex's value is its inflow minus its outflow over the remaining
        edges, so one with positive demand needs an incoming edge; and the
        values over a component sum to 0, each of its edges adding as much
        at its head as it takes at its tail."""
        for v in vertices:
            if dvals[v] > 0 and edges.isdisjoint(heads[v]):
                return False
        seen = set()
        for start in vertices:
            if start in seen:
                continue
            seen.add(start)
            stack, total = [start], 0
            while stack:
                v = stack.pop()
                total += dvals[v]
                for e in tails[v].union(heads[v]) & edges:
                    w = orient[e][orient[e][0] == v]
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if total:
                return False
        return True

    def rec(vertices, edges, dvals):
        if not feasible(vertices, edges, dvals):
            return []
        if len(vertices) == 1:
            v = next(iter(vertices))
            return [dict()] if dvals[v] == 0 else []
        v = min(u for u in vertices if edges.isdisjoint(tails[u]))
        incoming = [e for e in heads[v] if e in edges]
        need = dvals[v]
        if need < 0:
            return []
        out = []
        rest = edges.difference(incoming)
        for split in _compositions(need, len(incoming)):
            ndv = dict(dvals)
            del ndv[v]
            # removing e: v' -> v drops a -phi(e) term at v', so the target
            # for the remaining digraph gains phi(e) there (degree stays 0)
            for e, val in zip(incoming, split):
                ndv[orient[e][0]] += val
            for sub in rec(vertices - {v}, rest, ndv):
                sub.update(zip(incoming, split))
                out.append(sub)
        return out

    dvals = {v: target[v] for v in graph.vertex_ids}
    return rec(set(graph.vertex_ids), set(graph.edge_ids), dvals)


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


def _flows_on_orientations(graph, orients, target, found, wrap):
    """Add to `found` every acyclic flow with divisor `target` that one of
    `orients` carries, keyed by wrap(flow).canonical_key()."""
    loops = {e for e in graph.edge_ids if graph.is_loop(e)}
    loopfree = remove_edges(graph, loops)
    loopfree_target = Divisor(loopfree, target.values)
    for orient in orients:
        # positive demand needs an incoming edge, negative an outgoing one
        heads = {t for s, t in orient.values()}
        tails = {s for s, t in orient.values()}
        if any(
            (target[v] > 0 and v not in heads) or (target[v] < 0 and v not in tails)
            for v in graph.vertex_ids
        ):
            continue
        for raw in flows_with_divisor(loopfree, orient, loopfree_target):
            fa = FlowAssignment.of(graph, orient, raw)
            if is_acyclic_flow(fa):
                item = wrap(fa)
                found.setdefault(item.canonical_key(), item)


def acyclic_flows_by_orientations(graph, target):
    """canonical key -> FlowAssignment for every acyclic flow with divisor
    `target`, by the orientation route."""
    found = {}
    _flows_on_orientations(graph, acyclic_orientations(graph), target, found, lambda fa: fa)
    return found


def admissible_by_orientations(g, v0, pol, d0):
    """The admissible pairs of d0 by the orientation route, sorted by
    canonical key."""
    by_eset = {}
    for pd in enumerate_quasistable(g, v0, pol).elements:
        by_eset.setdefault(pd.eset, []).append(pd)
    found = {}
    for eset, pds in by_eset.items():
        if not g.is_nondisconnecting(eset):
            continue
        sub = subdivide(g, eset)
        lifted = d0.lift_to_subdivision(sub)
        orients = acyclic_orientations(sub.result)
        for pd in pds:
            _flows_on_orientations(
                sub.result,
                orients,
                pd.divisor.sub(lifted),
                found,
                lambda fa, pd=pd: AdmissiblePair(g, eset, fa, pd),
            )
    return [found[k] for k in sorted(found)]


def bruteforce_acyclic_flows(graph, target):
    """canonical key -> FlowAssignment over every value vector and every
    orientation of its positive edges.  A flow without directed cycles is a
    sum of paths, so no edge carries more than the total positive demand."""
    bound = sum(max(target[v], 0) for v in graph.vertex_ids)
    edges = list(graph.edge_ids)
    choices = []
    for e in edges:
        a, b = graph.ends[e]
        opts = [(0, None)]
        for x in range(1, bound + 1):
            opts += [(x, (a, b)), (x, (b, a))] if a != b else [(x, (a, a))]
        choices.append(opts)
    found = {}
    for combo in product(*choices):
        d = {v: 0 for v in graph.vertex_ids}
        for x, ends in combo:
            if x:
                d[ends[1]] += x
                d[ends[0]] -= x
        if any(d[v] != target[v] for v in graph.vertex_ids):
            continue
        orient = {e: ends for e, (x, ends) in zip(edges, combo) if x}
        fa = FlowAssignment.of(graph, orient, {e: x for e, (x, _) in zip(edges, combo)})
        if is_acyclic_flow(fa):
            found[fa.canonical_key()] = fa
    return found
