"""Rational polyhedral cones with double description, duality, and Hilbert
bases of the dual lattice monoids.

A Cone carries an H-representation (integer equality and inequality
covectors) and its extremal rays (primitive integer vectors).  from_rays
and from_halfspaces compute the other half by double description; the fan
cones of admissible pairs are built with rays read from their flows
(abelfan._cut_rays), and double description is their test oracle.  The
fan cones are pointed: they live inside a coordinate orthant slice; a cone
given by rays (from_rays) may contain a line, and then its dual spans a
proper subspace.  Dual monoids have one entry point, dual_monoid, whose
kernel for a full-dimensional dual is hilbert_basis_pointed;
dual_and_hilbert and semigroup_generators read their answers from it.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .errors import DeskScaleError, ValidationError
from .linalg import (
    determinant,
    dot,
    hnf_transform,
    independent_rows,
    inverse,
    lattice_quotient,
    left_kernel_lattice,
    nullspace,
    primitive,
    rank,
    solve,
    vec_add,
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
    rays = [primitive(col) for col in zip(*inverse(base)[0])]
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
        the span, plus equalities cutting the span).  The rays are kept
        primitive, each direction once, with the origin dropped."""
        rays = {primitive(tuple(int(x) for x in r)) for r in rays}
        rays = tuple(sorted(r for r in rays if any(r)))
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


def _span_dim(rays):
    return rank([list(r) for r in rays]) if rays else 0


def hilbert_basis_pointed(primal_rays, dual_ray_list):
    """Hilbert basis of {u in Z^n : u(r) >= 0 for all primal rays}, from
    the fundamental parallelepipeds of the dual rays (Bruns and Ichim,
    "Normaliz: algorithms for affine monoids and rational cones",
    J. Algebra 324, 2010).

    Candidates.  The dual rays, and for every linearly independent n-subset
    d_1..d_n of them the nonzero lattice points sum l_i d_i, 0 <= l_i < 1.
    Every basis element h is among them: by Caratheodory h = sum l_i d_i
    with l_i >= 0 over some independent n-subset; if some l_i >= 1, then
    h - d_i = (l_i - 1) d_i + sum of the others is a lattice point of the
    cone, so h = d_i + (h - d_i) is reducible unless h - d_i = 0, that is
    unless h is the dual ray d_i itself.

    Listing a parallelepiped.  The subset's rows span a sublattice L of
    index |det|; linalg.hnf_transform gives an upper-triangular basis of L
    with positive diagonal h_jj, so the points 0 <= x_j < h_jj are one
    representative of each coset of L, |det| of them.  The parallelepiped
    holds exactly one point of each coset: x - sum floor(l_i) d_i, where
    x = sum l_i d_i is solved through the same Hermite form in integers.

    Reduction.  w = sum of the primal rays is positive on the dual minus
    the origin, so the candidates are taken in w-degree order and u is
    reducible iff u - q lies in the cone for some basis element q of
    smaller degree.  Testing against the basis elements already found is
    complete by induction on degree: if u = a + b with a, b nonzero monoid
    elements, a is a sum of basis elements of degree below u's, and any one
    of them, q, leaves u - q = (a - q) + b in the monoid.

    Lines.  If the primal cone contains a line, the dual rays span less
    than R^n and have no independent n-subset; the kernel then returns
    None, and dual_monoid takes the basis in the lattice of their span.

    Certificates, raised explicitly so that they hold under python -O:
    each subset's number of coset representatives (the product of the HNF
    diagonal) and of distinct parallelepiped points equals |det|; every
    basis element pairs >= 0 with every primal ray; and no basis element is
    the sum of two others.
    """
    n = len(primal_rays[0]) if primal_rays else 0
    if n == 0 or not dual_ray_list:
        return []
    w = tuple(sum(r[i] for r in primal_rays) for i in range(n))
    if any(dot(w, d) <= 0 for d in dual_ray_list):
        raise ValidationError("grading degenerate: dual cone is not pointed")
    candidates = _hilbert_candidates(dual_ray_list, n)
    if candidates is None:
        return None
    candidates = sorted(candidates, key=lambda u: (dot(w, u), u))
    basis = []
    for u in candidates:
        du = dot(w, u)
        reducible = False
        for q in basis:
            if dot(w, q) >= du:
                break
            diff = vec_sub(u, q)
            if all(dot(diff, r) >= 0 for r in primal_rays):
                reducible = True
                break
        if not reducible:
            basis.append(u)
    for u in basis:
        if any(dot(u, r) < 0 for r in primal_rays):
            raise AssertionError(f"Hilbert basis element {u} is negative on a primal ray")
    # minimality re-check: no element is the sum of two others
    bset = set(basis)
    for a in basis:
        for b in basis:
            if vec_add(a, b) in bset:
                raise AssertionError("Hilbert basis not minimal")
    return sorted(basis)


def _hilbert_candidates(dual_ray_list, n):
    """The dual rays and the nonzero points of the fundamental
    parallelepipeds of their independent n-subsets (see
    hilbert_basis_pointed), each once; None if no n-subset is independent,
    that is if the dual rays span less than R^n."""
    out = {tuple(d) for d in dual_ray_list}
    spanning = False
    for subset in combinations(dual_ray_list, n):
        h, u = hnf_transform(subset)
        if h[-1][-1] == 0:
            continue  # dependent: the echelon form ends in a zero row
        spanning = True
        index = math.prod(h[j][j] for j in range(n))
        det = determinant(subset)
        if index != abs(det):
            raise AssertionError(f"HNF of {subset} has index {index}, not |det| = {abs(det)}")
        points = set(_parallelepiped_points(subset, h, u, index))
        if len(points) != index:
            raise AssertionError(
                f"parallelepiped of {subset} holds {len(points)} points, not |det| = {index}"
            )
        out |= points
    if not spanning:
        return None
    out.discard((0,) * n)
    return out


def _parallelepiped_points(subset, h, u, index):
    """The point of the fundamental parallelepiped of the rows `subset` in
    each coset of their lattice, from the Hermite form u @ subset = h: one
    per representative 0 <= x_j < h_jj, moved in by the floors of
    x @ subset^-1 = (x @ h^-1) @ u, scaled by index = det h to stay integral."""
    n = len(h)
    ucols = list(zip(*u))
    for x in product(*(range(h[j][j]) for j in range(n))):
        m = []  # index * x @ h^-1 by forward substitution; each division is exact
        for j in range(n):
            m.append((index * x[j] - sum(m[i] * h[i][j] for i in range(j))) // h[j][j])
        point = x
        for d, col in zip(subset, ucols):
            k = dot(m, col) // index
            if k:
                point = vec_sub(point, vec_scale(k, d))
        yield point


def dual_monoid(ambient_dim, rays):
    """The monoid {u in Z^n : u(r) >= 0 for every ray r} as (dual rays,
    Hilbert basis, units), sorted tuples; the basis and the units generate it.

    Units.  Both signs of a basis of the integer covectors vanishing on the
    rays; none when the rays span R^n.  Otherwise the monoid is taken in
    the pointed quotient by them (linalg.lattice_quotient), where a ray r
    acts as pair(r), and its dual rays and basis are lifted back.  One
    double description runs, in the quotient, for the dual rays.

    Lines.  If the quotient cone holds a line, its dual rays span a proper
    subspace S and hilbert_basis_pointed returns None.  With B a basis of
    the integer points of S (the covectors vanishing on the lines),
    u = c @ B pairs with r as c . (B r), so the basis is the lift of that of
    {c : c . (B r) >= 0 for every ray r}, a full-dimensional dual.  Its
    rays are the dual rays d already found, written as the c with
    c @ B = d (linalg.solve); no second double description runs.

    Certificate, raised explicitly so that it holds under python -O: every
    basis element pairs >= 0 and every unit 0 with every ray.
    """
    n = ambient_dim
    units = []
    if _span_dim(rays) < n:
        # rays enter as matrix columns: u @ mat = 0 iff u vanishes on them
        units = left_kernel_lattice([[r[i] for r in rays] for i in range(n)])
    _, lift, pair = lattice_quotient(units, n)
    qrays = sorted({primitive(pair(r)) for r in rays})
    k = n - len(units)
    qdual = rays_from_halfspaces(qrays, k)
    basis = hilbert_basis_pointed(qrays, qdual)
    if basis is None:
        lines = nullspace(qdual, k)
        span = left_kernel_lattice([list(col) for col in zip(*lines)])
        cols = [list(col) for col in zip(*span)]
        srays = sorted({primitive(tuple(dot(b, r) for b in span)) for r in qrays})
        sdual = []
        for d in qdual:
            x = solve(cols, d)
            c = None if x is None else tuple(int(q) for q in x)
            if c is None or any(dot(c, col) != v for col, v in zip(cols, d)):
                raise AssertionError(f"dual ray {tuple(d)} is not integral in the span lattice")
            sdual.append(c)
        sbasis = hilbert_basis_pointed(srays, sorted(sdual))
        basis = [tuple(dot(c, col) for col in cols) for c in sbasis]
    basis = [lift(u) for u in basis]
    units += [vec_scale(-1, u) for u in units]
    for r in rays:
        if any(dot(u, r) < 0 for u in basis) or any(dot(u, r) for u in units):
            raise AssertionError(f"dual monoid certificate failed on the ray {tuple(r)}")
    return tuple(sorted(lift(d) for d in qdual)), tuple(sorted(basis)), tuple(sorted(units))


def dual_and_hilbert(cone):
    """Dual-cone rays and the Hilbert basis of the dual lattice monoid of a
    full-dimensional cone (dual_monoid); a cone spanning less is rejected.

    Desk-scale contract: ambient dimension at most 6.
    """
    if cone.ambient_dim > 6:
        raise DeskScaleError("dual/Hilbert computations are capped at dimension 6")
    if cone.dim < cone.ambient_dim:
        raise ValidationError("dual rays need a full-dimensional cone")
    dual, basis, _ = dual_monoid(cone.ambient_dim, cone.rays)
    return dual, basis


def semigroup_generators(ambient_dim, rays):
    """A generating set of {u in Z^n : u(r) >= 0 for every ray r}, units
    allowed, read from the cone's rays alone: the Hilbert basis and the
    units of dual_monoid, sorted."""
    _, basis, units = dual_monoid(ambient_dim, rays)
    return tuple(sorted(basis + units))


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
