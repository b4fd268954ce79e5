"""The boundary functionals by their own derivation, kept as a test oracle.

The library reads a subdivided edge's functionals u' and u'' from the
pair's rows: they are the inverse rows of its downstream and upstream
halves.  This module derives them the direct way instead: the fundamental
cycle through the edge of a spanning tree avoiding E, re-signed to run
along the flow and paired with the flow-signed tree values, and certifies
them with every clause of the former check.
"""

from tropabel.abelfan import _signed_flow, _through_sign, merged_cone
from tropabel.graph import cycle_basis
from tropabel.linalg import dot, vec_add


def functionals_by_cycle(pair, e0):
    """(upstream flow, downstream flow, u', u'') of the subdivided edge e0
    from its fundamental cycle, over pair.base's edges."""
    g = pair.base
    gamma = dict(cycle_basis(g, avoid=pair.eset).cycle_map[e0])
    sub = pair.resulting_pd.subdivision
    ha, hb = sub.halves[e0]
    fa, fb = pair.flow.flow_map[ha], pair.flow.flow_map[hb]
    if fb == fa + 1:
        s_half, t_half = ha, hb
    elif fa == fb + 1:
        s_half, t_half = hb, ha
    else:
        raise ValueError("half flows do not differ by one unit")
    # re-sign the cycle so it traverses e0 along the flow, and pair it with
    # flow-signed values on the tree edges
    sflow = _signed_flow(sub, pair.flow)
    if _through_sign(sub, pair.flow, e0) < 0:
        gamma = {e: -s for e, s in gamma.items()}
    phi_s, phi_t = pair.flow.flow_map[s_half], pair.flow.flow_map[t_half]
    idx = {e: i for i, e in enumerate(g.edge_ids)}
    u_prime = [0] * len(idx)
    u_second = [0] * len(idx)
    for f, sgn in gamma.items():
        if f == e0:
            continue
        u_prime[idx[f]] = -sgn * sflow[f]
        u_second[idx[f]] = sgn * sflow[f]
    u_prime[idx[e0]] = -phi_s
    u_second[idx[e0]] = phi_t
    check_functionals(pair, e0, tuple(u_prime), tuple(u_second), (s_half, t_half))
    return phi_s, phi_t, tuple(u_prime), tuple(u_second)


def check_functionals(pair, e0, u_prime, u_second, halves):
    """Every clause of the former certificate on the rays of the pair's
    merged cone; `halves` is (upstream half, downstream half)."""
    g = pair.base
    idx = {e: i for i, e in enumerate(g.edge_ids)}
    e0vee = tuple(int(e == e0) for e in g.edge_ids)
    assert vec_add(u_prime, u_second) == e0vee, "functionals do not sum to the edge functional"
    ac = merged_cone(pair)
    s_half, t_half = halves
    for r in ac.cone.rays:
        vp, vs = dot(u_prime, r), dot(u_second, r)
        assert vp >= 0 and vs >= 0, "functional negative on a ray"
        assert vp == 0 or vs == 0, "neither functional vanishes on a ray"
        split = ac.split_point(r)
        assert split[t_half] != 0 or vp == 0, "u' survives a vanishing downstream half"
        assert split[s_half] != 0 or vs == 0, "u'' survives a vanishing upstream half"
        assert vp or vs or r[idx[e0]] == 0, "both vanish on a ray that spans the edge"
