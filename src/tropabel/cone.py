"""Rational polyhedral cones with double description, duality, and Hilbert
bases of the dual lattice monoids.

A Cone carries an H-representation (integer equality and inequality
covectors) and its extremal rays (primitive integer vectors).  from_rays
and from_halfspaces compute the other half by double description; the fan
cones of admissible pairs are built with rays read from their flows
(abelfan._cut_rays), and double description is their test oracle.  All
cones handled here are pointed: they live inside a coordinate orthant
slice.  Dual cones are only formed for full-dimensional cones;
lower-dimensional ones go through the lineality quotient in
semigroup_generators.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DeskScaleError, ValidationError
from .linalg import (
    clear_denominators,
    dot,
    independent_rows,
    inverse,
    lattice_quotient,
    left_kernel_lattice,
    nullspace,
    primitive,
    rank,
    vec_scale,
    vec_sub,
)


def rays_from_halfspaces(ineqs, dim):
    """Extremal rays of the pointed cone {y : a . y >= 0 for a in ineqs}.

    Incremental double description with the combinatorial adjacency test.
    Raises if the cone is not pointed (it contains a line).
    """
    rows = [tuple(a) for a in ineqs if any(a)]
    if dim == 0:
        return []
    base_idx = independent_rows(rows)
    if len(base_idx) < dim:
        raise ValidationError("cone is not pointed")
    base = [rows[i] for i in base_idx]
    rest = [r for i, r in enumerate(rows) if i not in base_idx]
    # simplicial start: rays are the columns of the inverse of the base rows
    rays = [primitive(clear_denominators(col)[0]) for col in zip(*inverse(base))]
    processed = list(base)

    def tight_set(r):
        return frozenset(i for i, a in enumerate(processed) if dot(a, r) == 0)

    for a in rest:
        vals = [dot(a, r) for r in rays]
        keep = [r for r, v in zip(rays, vals) if v >= 0]
        plus = [(r, v) for r, v in zip(rays, vals) if v > 0]
        minus = [(r, v) for r, v in zip(rays, vals) if v < 0]
        if minus:
            tights = {id(r): tight_set(r) for r in rays}
            new = []
            for rp, vp in plus:
                for rm, vm in minus:
                    common = tights[id(rp)] & tights[id(rm)]
                    adjacent = True
                    for r3 in rays:
                        if r3 is rp or r3 is rm:
                            continue
                        if common <= tights[id(r3)]:
                            adjacent = False
                            break
                    if not adjacent:
                        continue
                    combo = vec_sub(vec_scale(vp, rm), vec_scale(vm, rp))
                    new.append(primitive(combo))
            seen = set(keep)
            for r in new:
                if r not in seen:
                    keep.append(r)
                    seen.add(r)
        rays = keep
        processed.append(a)
    # deduplicate and drop the origin if it sneaked in
    out = sorted({r for r in rays if any(r)})
    return out


@dataclass(frozen=True)
class Cone:
    """Pointed rational cone in R^n with both representations.

    equalities/inequalities are integer covector rows; rays are primitive
    integer generators.  The two representations certify each other through
    the double-description construction, or, for a fan cone, through the
    certificate of abelfan._cut_rays.
    """

    ambient_dim: int
    equalities: tuple
    inequalities: tuple
    rays: tuple

    @staticmethod
    def from_halfspaces(ambient_dim, equalities=(), inequalities=()):
        eqs = tuple(tuple(int(x) for x in row) for row in equalities)
        ineqs = tuple(tuple(int(x) for x in row) for row in inequalities)
        rays = _rays_in_ambient(eqs, ineqs, ambient_dim)
        return Cone(ambient_dim, eqs, ineqs, tuple(rays))

    @staticmethod
    def from_rays(ambient_dim, rays):
        """V-representation input; the H-representation is recovered by
        double description (facets of the cone = rays of its dual within
        the span, plus equalities cutting the span)."""
        rays = tuple(sorted(primitive(tuple(int(x) for x in r)) for r in rays))
        rays = tuple(r for r in rays if any(r))
        span_eqs = tuple(nullspace([list(r) for r in rays] or [[0] * ambient_dim], ambient_dim))
        ineqs = tuple(_rays_in_ambient(span_eqs, rays, ambient_dim)) if rays else ()
        return Cone(ambient_dim, span_eqs, ineqs, rays)

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(sorted(tuple(r) for r in self.rays)))

    @cached_property
    def dim(self):
        return _span_dim(self.rays)

    @cached_property
    def interior_rows(self):
        """(zero rows, positive rows) of the relative interior, each row once.

        An inequality vanishes on the span exactly when it vanishes on every
        ray.  Those inequalities and the equalities are the zero rows: they
        cut out the span, the affine hull of the cone.  The other
        inequalities are positive there.
        """
        zero, positive = list(self.equalities), []
        for row in self.inequalities:
            if any(dot(row, r) for r in self.rays):
                positive.append(row)
            else:
                zero.append(row)
        return tuple(dict.fromkeys(zero)), tuple(dict.fromkeys(positive))

    @cached_property
    def facet_rows(self):
        """Inequality rows supporting a facet (tight rays span dim-1)."""
        out = []
        for row in self.inequalities:
            tight = [r for r in self.rays if dot(row, r) == 0]
            if tight and rank([list(r) for r in tight]) == self.dim - 1:
                if any(dot(row, r) > 0 for r in self.rays):
                    out.append(row)
        return tuple(dict.fromkeys(out))

    def to_json(self):
        return {
            "ambient_dim": self.ambient_dim,
            "equalities": [list(r) for r in self.equalities],
            "inequalities": [list(r) for r in self.inequalities],
            "rays": [list(r) for r in self.rays],
        }


def _rays_in_ambient(equalities, inequalities, ambient_dim):
    """Double description run inside the subspace cut by the equalities
    (the whole space when there are none).

    Also the facets of cone(rays) inside its span: the facet normals are
    the rays of the dual cone within the span, cut by the span's
    equalities with the rays as inequalities.
    """
    if ambient_dim == 0:
        return []
    if equalities:
        basis = nullspace([list(r) for r in equalities], ambient_dim)
    else:
        basis = [tuple(int(i == j) for i in range(ambient_dim)) for j in range(ambient_dim)]
    if not basis:
        return []
    restricted = [tuple(dot(row, b) for b in basis) for row in inequalities]
    out = {
        primitive(tuple(sum(c * b[i] for c, b in zip(y, basis)) for i in range(ambient_dim)))
        for y in rays_from_halfspaces(restricted, len(basis))
    }
    return sorted(out)


def dual_rays(ambient_dim, rays):
    """Extremal rays of the dual cone {u : u(r) >= 0 for every ray r}.

    Read from the rays alone.  Requires them to span the space (pointed
    dual); use semigroup_generators for lower-dimensional cones.
    """
    if _span_dim(rays) != ambient_dim:
        raise ValidationError("dual rays need a full-dimensional cone")
    return tuple(rays_from_halfspaces([list(r) for r in rays], ambient_dim))


def _span_dim(rays):
    return rank([list(r) for r in rays]) if rays else 0


def hilbert_basis_pointed(primal_rays, dual_ray_list):
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


def dual_and_hilbert(cone):
    """Dual-cone rays and the Hilbert basis of the dual lattice monoid.

    Desk-scale contract: ambient dimension at most 6.
    """
    if cone.ambient_dim > 6:
        raise DeskScaleError("dual/Hilbert computations are capped at dimension 6")
    d = dual_rays(cone.ambient_dim, cone.rays)
    hb = hilbert_basis_pointed(cone.rays, list(d))
    return tuple(sorted(d)), tuple(hb)


def semigroup_generators(ambient_dim, rays):
    """A generating set of {u in Z^n : u(r) >= 0 for every ray r}, units
    allowed, read from the cone's extremal rays alone.

    For a full-dimensional cone this is the Hilbert basis.  Otherwise the
    monoid has a unit group (the integer covectors vanishing on the span);
    the pointed quotient's Hilbert basis is computed in quotient coordinates
    and lifted, and both signs of a unit-lattice basis are appended.
    """
    n = ambient_dim
    if not rays:
        gens = []
        for j in range(n):
            e = tuple(1 if i == j else 0 for i in range(n))
            gens.append(e)
            gens.append(tuple(-x for x in e))
        return tuple(gens)
    if _span_dim(rays) == n:
        return tuple(hilbert_basis_pointed(rays, list(dual_rays(n, rays))))
    unit_basis = left_kernel_lattice([list(r) for r in zip(*rays)])
    # unit_basis: u with u . r = 0 for all rays; rays enter as matrix columns
    proj, lift, pair = lattice_quotient(unit_basis, n)
    qrays = sorted({primitive(pair(r)) for r in rays})
    qdual = rays_from_halfspaces([list(r) for r in qrays], n - len(unit_basis))
    qhb = hilbert_basis_pointed(qrays, list(qdual))
    gens = [lift(h) for h in qhb]
    for u in unit_basis:
        gens.append(tuple(u))
        gens.append(tuple(-x for x in u))
    for g in gens:
        if any(dot(g, r) < 0 for r in rays):
            raise AssertionError("semigroup generator is negative on a ray")
    return tuple(sorted(set(gens)))


def face_lattice_rayset(cone):
    """All faces as frozensets of ray indices (polyhedral route).

    Each inequality is valid on the cone, so the rays it vanishes on span a
    face, and every facet is among these tight sets.  Closing the full ray
    set under intersections with them therefore gives every face, with no
    rank computation; the empty set stands for the origin face.
    """
    tights = {
        frozenset(i for i, r in enumerate(cone.rays) if dot(row, r) == 0)
        for row in cone.inequalities
    }
    faces = {frozenset(range(len(cone.rays)))}
    frontier = list(faces)
    while frontier:
        f = frontier.pop()
        for t in tights:
            nf = f & t
            if nf not in faces:
                faces.add(nf)
                frontier.append(nf)
    faces.add(frozenset())
    return faces
