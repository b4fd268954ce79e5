"""The box walk that cone.hilbert_basis_pointed replaced, kept as its
oracle: every lattice point of a box around the dual zonotope is listed,
those of the dual cone are kept, and the irreducible ones form the basis.
"""

import math
from fractions import Fraction

from tropabel.errors import ValidationError
from tropabel.linalg import dot, vec_sub


def box_walk_hilbert_basis(primal_rays, dual_ray_list):
    """Hilbert basis of {u in Z^n : u(r) >= 0 for all primal rays}.

    Graded enumeration: w = sum of the primal rays is positive on the dual
    minus the origin; every basis element lies in the zonotope of the dual
    rays, so its w-degree is at most W = sum of the dual rays' degrees.
    All lattice points of the dual cone with degree <= W are enumerated and
    the irreducible ones kept (no decomposition into two nonzero elements).
    """
    n = len(primal_rays[0]) if primal_rays else 0
    w = tuple(sum(r[i] for r in primal_rays) for i in range(n))
    degs = [dot(w, d) for d in dual_ray_list]
    if any(d <= 0 for d in degs):
        raise ValidationError("grading degenerate: dual cone is not pointed")
    W = sum(degs)
    lo = [0] * n
    hi = [0] * n
    for j in range(n):
        fracs = [Fraction(d[j], deg) for d, deg in zip(dual_ray_list, degs)]
        lo[j] = min([0] + [math.floor(f * W) for f in fracs])
        hi[j] = max([0] + [math.ceil(f * W) for f in fracs])

    def in_dual(u):
        return all(dot(u, r) >= 0 for r in primal_rays)

    candidates = []
    point = [0] * n

    def walk(j):
        if j == n:
            u = tuple(point)
            if any(u) and dot(w, u) <= W and in_dual(u):
                candidates.append(u)
            return
        for v in range(lo[j], hi[j] + 1):
            point[j] = v
            walk(j + 1)
        point[j] = 0

    walk(0)
    candidates.sort(key=lambda u: (dot(w, u), u))
    basis = []
    members = []
    for u in candidates:
        du = dot(w, u)
        reducible = False
        for q in members:
            if dot(w, q) >= du:
                break
            diff = vec_sub(u, q)
            if in_dual(diff) and any(diff):
                reducible = True
                break
        if not reducible:
            basis.append(u)
        members.append(u)
    # minimality re-check: no element is the sum of two others
    bset = set(basis)
    for a in basis:
        for b in basis:
            s = tuple(x + y for x, y in zip(a, b))
            if s in bset:
                raise AssertionError("Hilbert basis not minimal")
    return sorted(basis)
