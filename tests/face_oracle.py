"""The face-pair route that abelfan._specialize_pair replaced, kept as a
test oracle.

The library builds a face pair from build_fan's pushforward memo entry: the
fiber sums pushforward_vertex_map read are the face divisor, and the flow
is carried by abelfan._face_flow.  This module builds it the former way: the
face pseudo-divisor by contract_pushforward, which pushes the divisor along
a Specialization between the two subdivisions (Divisor.pushforward), and
the flow by its own walk over the edges, so the subset loop of the fan
tests checks the library against a route that shares neither.
"""

from tropabel.divisor import PseudoDivisor, pushforward_vertex_map
from tropabel.flow import AdmissiblePair, FlowAssignment, is_acyclic_flow
from tropabel.graph import Specialization, contract, subdivide


def contract_pushforward(pd, zset):
    """Push a pseudo-divisor forward along the contraction of a set `zset`
    of edges of its E-subdivision, plain edges and halves alike.

    The contracted edges, E' and the vertex map between the two
    subdivisions come from pushforward_vertex_map; the vertex map is the
    Specialization's.  The face divisor sums the values over its fibers
    (Divisor.pushforward), so the degree is kept and each surviving
    exceptional vertex keeps its -1.  Returns (face pseudo-divisor,
    Specialization).
    """
    full, new_e, vmap, _ = pushforward_vertex_map(pd, zset)
    target = contract(pd.base, full).target
    subdivision = subdivide(target, new_e)
    along = Specialization(
        pd.subdivision.result, subdivision.result, frozenset(zset), tuple(sorted(vmap.items()))
    )
    face = PseudoDivisor(target, new_e, pd.divisor.pushforward(along), subdivision)
    return face, along


def flow_sources(pair, zset, eset2, along):
    """Each edge of the face's E'-subdivision, after contracting `zset`,
    with the edge of the pair's subdivision whose flow it carries.

    Surviving plain edges and halves keep their values, and a subdivided
    edge reduced to one half carries that half's value on the
    un-subdivided edge.  `along` is the vertex map and eset2 the face's E.
    """
    g, sub = pair.base, pair.resulting_pd.subdivision
    for e, (a, b) in g.edges:
        if e in eset2:
            # contraction can flip the sorted ends: the halves swap names
            ha, hb = sub.halves[e]
            if along[a] <= along[b]:
                yield from ((ha, ha), (hb, hb))
            else:
                yield from ((ha, hb), (hb, ha))
        elif e not in pair.eset:
            if e not in zset:
                yield e, e
        else:
            rest = [h for h in sub.halves[e] if h not in zset]
            if rest:
                yield e, rest[0]


def specialize_pair(pair, zset):
    """Specialize an admissible pair by contracting a set of edges of its
    E-subdivision: the face pair on the contracted graph, or None when the
    image flow has a directed cycle."""
    pd2, along = contract_pushforward(pair.resulting_pd, zset)
    flow_vals = {}
    orient = {}
    for e2, src in flow_sources(pair, zset, pd2.eset, along.vmap):
        v = pair.flow.flow_map[src]
        flow_vals[e2] = v
        if v > 0:
            s, t = pair.flow.orient_map[src]
            orient[e2] = (along(s), along(t))
    fa = FlowAssignment.of(pd2.subdivision.result, orient, flow_vals)
    if not is_acyclic_flow(fa):
        return None
    return AdmissiblePair(pd2.base, pd2.eset, fa, pd2)
