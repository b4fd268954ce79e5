"""The route semigroup.node_power_intersection replaced, kept as its oracle:
every ray-wise symbolic power's generator list is built, and the lists are
intersected one pair of ideals at a time by join searches
(semigroup.intersect_ideals, or a breadth-first twin passed in).  Also the
whole ideal, and the ideal product and power, which only the model-ring
oracle uses.
"""

from tropabel.linalg import dot
from tropabel.semigroup import (
    DEFAULT_SEARCH_BOUND,
    MonomialIdeal,
    boundary_functionals,
    intersect_ideals,
    symbolic_power_ideal,
)


def intersect_many(ideals, intersect=intersect_ideals, bound=DEFAULT_SEARCH_BOUND):
    out = None
    for ideal in ideals:
        out = ideal if out is None else intersect(out, ideal, bound=bound)
    return out


def whole_ideal(ring):
    return MonomialIdeal.of(ring, (ring.one(),))


def ideal_product(a, b):
    return MonomialIdeal.of(a.ring, (g * h for g in a.gens for h in b.gens))


def ideal_power(ideal, n):
    out = whole_ideal(ideal.ring)
    for _ in range(n):
        out = ideal_product(out, ideal)
    return out


def pairwise_power_intersection(
    ring, ac, e0, power=symbolic_power_ideal, intersect=intersect_ideals, bound=DEFAULT_SEARCH_BOUND
):
    """The intersection of node_power_intersection(ring, ac, e0), from the
    symbolic powers of the rays where e0's relation is positive: at the
    upstream flow where u'' vanishes, at the downstream flow where u'
    vanishes, or at e0's flow when e0 is not subdivided."""
    pair = ac.provenance
    rays = ac.cone.rays
    if e0 in pair.eset:
        bf = boundary_functionals(ac, e0)
        pieces = []
        for r in rays:
            if dot(bf.u_prime, r) == 0 and dot(bf.u_second, r) == 0:
                continue
            if dot(bf.u_prime, r) == 0:
                if bf.downstream_flow > 0:
                    pieces.append(power(ring, r, bf.downstream_flow, bound=bound))
            elif dot(bf.u_second, r) == 0:
                if bf.upstream_flow > 0:
                    pieces.append(power(ring, r, bf.upstream_flow, bound=bound))
    else:
        n = pair.flow.flow_map[e0]
        pieces = [power(ring, r, n, bound=bound) for r in rays] if n else []
    if not pieces:
        return whole_ideal(ring)
    return intersect_many(pieces, intersect=intersect, bound=bound)
