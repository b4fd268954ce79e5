"""The face routes that abelfan replaced, kept as test oracles.

The library builds a face pair from build_fan's pushforward memo entry: the
fiber sums pushforward_vertex_map read are the face divisor, and the flow
is carried by abelfan._face_flow.  This module builds it the former way: the
face pseudo-divisor by contract_pushforward, which pushes the divisor along
a Specialization between the two subdivisions (Divisor.pushforward), and
the flow by its own walk over the edges, so the subset loop of the fan
tests checks the library against a route that shares neither.

build_fan derives each distinct face once and finds it again by its ray
set.  lattice_faces and build_fan here are the per-(cone, face) route it
replaced: every maximal cone derives each face of its lattice from the
zero set again.
"""

from tropabel.abelfan import (
    AbelFan,
    _cone_key,
    _d_minus_div_flow,
    _face_keys,
    _specialize_pair,
    merged_cone,
)
from tropabel.cone import face_lattice_rayset
from tropabel.divisor import PseudoDivisor, pushforward_vertex_map
from tropabel.flow import AdmissiblePair, FlowAssignment, enumerate_admissible, is_acyclic_flow
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


def lattice_faces(abcone, pairs, pushed):
    """Every face of a fan cone, each derived from its zero set: yields
    (face ray-index set, face key, face divisor key) once per face.  A face
    pair is built, with D - div phi recomputed, for a key missing from
    `pairs` (key -> pair), and stored there."""
    pair = abcone.provenance
    pd_key = pair.resulting_pd.canonical_key()
    vanish = []
    for ray in abcone.cone.rays:
        lengths = abcone.split_point(ray)
        vanish.append(frozenset(e for e, x in lengths.items() if x == 0))
    every = frozenset(abcone.rows.sub.result.edge_ids)
    for face in face_lattice_rayset(abcone.cone):
        zset = every.intersection(*(vanish[i] for i in face))
        key, divisor = _face_keys(abcone.ambient_edges, pair, zset, pushed)
        if key not in pairs:
            pair2 = _specialize_pair(pair, zset, pushed[pd_key, zset], _d_minus_div_flow(pair))
            assert pair2 is not None and _cone_key(abcone.ambient_edges, pair2) == key, zset
            pairs[key] = pair2
        yield face, key, divisor


def build_fan(g, v0, pol, d0):
    """The fan as build_fan assembles it, with every face of every maximal
    cone derived by lattice_faces, and no cap."""
    amb = g.edge_ids
    pairs = {_cone_key(amb, pair): pair for pair in enumerate_admissible(g, v0, pol, d0)}
    tops = {key: merged_cone(pair, ambient_edges=amb) for key, pair in pairs.items()}
    faces, pushed = {}, {}
    for top_cone in tops.values():
        walked = list(lattice_faces(top_cone, pairs, pushed))
        for rayset, key, _ in walked:
            if key not in faces:
                faces[key] = {k: div for rs, k, div in walked if rs <= rayset}
    keys = sorted(pairs)
    cones = tuple(tops.get(k) or merged_cone(pairs[k], ambient_edges=amb) for k in keys)
    maximal = tuple(sorted(keys.index(k) for k in tops))
    return AbelFan(g, d0, pol, cones, maximal, tuple(faces[k] for k in keys))
