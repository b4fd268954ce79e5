"""The split cone by its own double description, kept as a test oracle.

The library reads a pair's split cone through the pair's inverse rows
(PairRows): the images of the merged cone's rays are the split cone's rays.
This module builds the split cone the direct way instead: a fresh
subdivision and cycle basis, one equality per fundamental cycle, and a
double description over the nonnegative orthant of the subdivision edges.
"""

from tropabel.abelfan import _signed_flow
from tropabel.cone import Cone
from tropabel.flow import is_acyclic_flow
from tropabel.graph import cycle_basis, subdivide


def split_cone(g, eset, flow):
    """The cone of subdivision edge lengths compatible with an acyclic flow
    on the E-subdivision of g, with that subdivision.

    Cut from the orthant by one equality per fundamental cycle of a spanning
    tree avoiding E; the coefficient of an edge is its parent's cycle sign
    times its flow value, signed against its reference direction.
    """
    eset = frozenset(eset)
    sub, basis = subdivide(g, eset), cycle_basis(g, avoid=eset)
    if flow.graph != sub.result or not is_acyclic_flow(flow):
        raise ValueError("not an acyclic flow on the E-subdivision")
    sflow = _signed_flow(sub, flow)
    order = sub.result.edge_ids
    eqs = []
    for _, vec in basis.cycles:
        cyc = dict(vec)
        eqs.append(tuple(cyc.get(sub.over_map[e], 0) * sflow[e] for e in order))
    n = len(order)
    orthant = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    return Cone.from_halfspaces(n, eqs, orthant), sub


def split_rays(ac):
    """The images of an AbelCone's rays under its inverse rows, sorted like
    Cone.rays."""
    return tuple(sorted(tuple(ac.split_point(r).values()) for r in ac.cone.rays))
