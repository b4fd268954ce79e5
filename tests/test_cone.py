import random
from itertools import product

import pytest

from tropabel.cone import (
    Cone,
    dual_and_hilbert,
    dual_monoid,
    face_lattice_rayset,
    rays_from_halfspaces,
    semigroup_generators,
)
from tropabel.errors import ValidationError
from tropabel.linalg import determinant, dot, lattice_quotient, left_kernel_lattice, nullspace

import linalg_oracle as oracle
from conftest import contains, contains_interior



def test_orthant_rays():
    rays = rays_from_halfspaces([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert rays == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_nonpointed_raises():
    with pytest.raises(ValidationError, match="not pointed"):
        rays_from_halfspaces([(1, 0), (-1, 0)], 2)


def test_quadrilateral_cone_rays():
    # inequalities 0 <= z2 - z0 <= z0, 0 <= z2 - z1 <= z1 in R^3
    ineqs = [(-1, 0, 1), (2, 0, -1), (0, -1, 1), (0, 2, -1)]
    cone = Cone.from_halfspaces(3, (), ineqs)
    assert cone.rays == ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2))
    assert cone.dim == 3
    assert set(cone.facet_rows) == set(tuple(r) for r in ineqs)
    # bipolar roundtrip: the rays satisfy the H-representation, and the
    # facets of cone(rays) give the rays back
    assert all(contains(cone, r) for r in cone.rays)
    assert Cone.from_rays(3, cone.rays).rays == cone.rays


def test_from_rays_roundtrip():
    cone = Cone.from_rays(3, [(1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 1, 2)])
    assert cone.dim == 3
    back = Cone.from_halfspaces(3, cone.equalities, cone.inequalities)
    assert back.rays == cone.rays


def test_lower_dimensional_cone():
    cone = Cone.from_rays(3, [(1, 1, 1), (1, 1, 2)])
    assert cone.dim == 2
    assert len(cone.equalities) == 1
    assert contains(cone, (2, 2, 3))
    assert contains_interior(cone, (2, 2, 3))
    assert not contains_interior(cone, (1, 1, 1))
    assert not contains(cone, (1, 0, 1))


def test_zero_cone():
    cone = Cone.from_rays(2, [])
    assert cone.dim == 0
    assert contains(cone, (0, 0))
    assert contains_interior(cone, (0, 0))
    assert not contains(cone, (1, 0))


def test_dual_rays_of_worked_cone():
    d, _, units = dual_monoid(3, ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2)))
    assert set(d) == {(0, -1, 1), (2, 0, -1), (0, 2, -1), (-1, 0, 1)}
    assert units == ()


def test_hilbert_basis_of_worked_cone():
    cone = Cone.from_rays(3, [(1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 1, 2)])
    d, hb = dual_and_hilbert(cone)
    assert set(d) == {(0, -1, 1), (2, 0, -1), (0, 2, -1), (-1, 0, 1)}
    assert set(hb) == {(0, -1, 1), (2, 0, -1), (0, 2, -1), (-1, 0, 1), (1, 1, -1)}


def test_hilbert_basis_orthant():
    cone = Cone.from_rays(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    d, hb = dual_and_hilbert(cone)
    assert set(d) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert set(hb) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_hilbert_basis_singular_quadric():
    # cone over a square: the dual monoid needs an interior generator
    cone = Cone.from_rays(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)])
    _, hb = dual_and_hilbert(cone)
    assert (0, 0, 1) in hb


def test_dual_rays_requires_full_dim():
    with pytest.raises(ValidationError, match="full-dimensional"):
        dual_and_hilbert(Cone.from_rays(3, ((1, 1, 1),)))


def test_dual_hilbert_dimension_cap():
    from tropabel.errors import DeskScaleError

    rays = [tuple(1 if i == j else 0 for i in range(7)) for j in range(7)]
    cone = Cone.from_rays(7, rays)
    with pytest.raises(DeskScaleError, match="dimension 6"):
        dual_and_hilbert(cone)


def test_semigroup_generators_with_units():
    gens = semigroup_generators(3, ((1, 1, 1), (1, 1, 2)))
    # every generator pairs nonnegatively with the rays
    for g in gens:
        assert dot(g, (1, 1, 1)) >= 0 and dot(g, (1, 1, 2)) >= 0
    # units: covectors vanishing on the span appear with both signs
    units = [g for g in gens if dot(g, (1, 1, 1)) == 0 and dot(g, (1, 1, 2)) == 0]
    assert units
    for u in units:
        assert tuple(-x for x in u) in gens
    # spot-check: nonnegative combinations of generators stay in the monoid
    rng = random.Random(5)
    for _ in range(40):
        coeffs = [rng.randint(0, 3) for _ in gens]
        target = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3))
        assert dot(target, (1, 1, 1)) >= 0 and dot(target, (1, 1, 2)) >= 0


def test_semigroup_generators_generate():
    """Every small monoid element decomposes over the generating set: strip
    nonnegative multiples of the non-unit generators greedily (the pairing
    total strictly drops), then the remainder must be a unit-lattice vector."""
    rays = [(1, 1, 1), (1, 1, 2)]
    gens = list(semigroup_generators(3, rays))
    units = [g for g in gens if all(dot(g, r) == 0 for r in rays)]
    pointed = [g for g in gens if any(dot(g, r) > 0 for r in rays)]

    def is_member(u):
        return all(dot(u, r) >= 0 for r in rays)

    def grade(u):
        return sum(dot(u, r) for r in rays)

    count = 0
    for a in range(-2, 3):
        for b in range(-2, 3):
            for c in range(-2, 3):
                u = (a, b, c)
                if not is_member(u):
                    continue
                cur = u
                progress = True
                while grade(cur) > 0 and progress:
                    progress = False
                    for g in pointed:
                        v = tuple(x - y for x, y in zip(cur, g))
                        if is_member(v):
                            cur = v
                            progress = True
                            break
                assert grade(cur) == 0
                # remainder lies in the rank-1 unit lattice spanned by (1,-1,0)
                assert cur[2] == 0 and cur[0] == -cur[1]
                count += 1
    assert count > 10


def test_face_lattice_of_quadrilateral():
    cone = Cone.from_rays(3, [(1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 1, 2)])
    faces = face_lattice_rayset(cone)
    sizes = sorted(len(f) for f in faces)
    # origin, 4 rays, 4 two-dimensional facets, the cone itself
    assert sizes == [0, 1, 1, 1, 1, 2, 2, 2, 2, 4]


def _facet_closure(cone):
    """The face lattice from the facets alone: the full ray set closed under
    intersections with the facet rows' tight sets, plus the origin."""
    tights = [
        frozenset(i for i, r in enumerate(cone.rays) if dot(row, r) == 0) for row in cone.facet_rows
    ]
    faces = {frozenset(range(len(cone.rays)))}
    frontier = list(faces)
    while frontier:
        f = frontier.pop()
        for t in tights:
            if f & t not in faces:
                faces.add(f & t)
                frontier.append(f & t)
    return faces | {frozenset()}


def test_face_lattice_matches_facet_closure():
    """Closing under every inequality's tight set gives the faces that the
    facets alone give, on random cones (some lower-dimensional) whose
    H-representation carries redundant rows: sums of two facet rows."""
    rng = random.Random(8)
    sizes = set()
    for _ in range(40):
        n = rng.randint(2, 4)
        rays = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 6))]
        if not any(any(r) for r in rays):
            continue
        hull = Cone.from_rays(n, rays)
        rows = list(hull.inequalities)
        rows += [tuple(x + y for x, y in zip(rng.choice(rows), rng.choice(rows))) for _ in range(3)]
        cone = Cone.from_halfspaces(n, hull.equalities, rows)
        assert cone.rays == Cone.from_halfspaces(n, hull.equalities, hull.inequalities).rays
        faces = face_lattice_rayset(cone)
        assert faces == _facet_closure(cone)
        sizes.add((cone.dim, len(faces)))
    assert len(sizes) > 5


def test_left_kernel_lattice_saturated():
    """The basis spans every integer vector x with x @ mat = 0, not a
    sublattice of them: on seeded integer matrices, each kernel vector of a
    small box is an integer combination of the basis (solved over the
    rationals by the Fraction oracle), and the basis is independent."""
    cols = [[1, 1], [1, 1], [1, 2]]  # the rays (1, 1, 1), (1, 1, 2) as columns
    assert left_kernel_lattice(cols) == [(1, -1, 0)]
    rng = random.Random(17)
    hits = 0
    for _ in range(40):
        m, k = rng.randint(2, 4), rng.randint(1, 3)
        mat = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(m)]
        basis = left_kernel_lattice(mat)
        assert len(basis) == m - oracle.rank(mat)
        assert oracle.rank(basis) == len(basis)
        for x in product(range(-2, 3), repeat=m):
            if any(x) and all(dot(x, col) == 0 for col in zip(*mat)):
                coeffs = oracle.solve([list(col) for col in zip(*basis)], x)
                assert coeffs is not None and all(c.denominator == 1 for c in coeffs), (mat, x)
                hits += 1
    assert hits > 100


def test_lattice_quotient_roundtrip():
    """lift maps Z^(n-s) onto a complement of U, and lift(w) . r equals
    w . pair(r) on the vectors r vanishing on U and on any other r."""
    rng = random.Random(1)
    cases = [([(1, -1, 0)], 3), ([], 2)]
    for _ in range(40):
        n = rng.randint(2, 5)
        cols = rng.randint(1, n)
        mat = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(n)]
        cases.append((left_kernel_lattice(mat), n))
    for basis, n in cases:
        lift, pair = lattice_quotient(basis, n)
        k = n - len(basis)
        units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        assert abs(determinant(list(basis) + [lift(e) for e in units])) == 1, basis
        perp = nullspace(basis, n) if basis else units
        for _ in range(10):
            w = tuple(rng.randint(-4, 4) for _ in range(k))
            coeffs = [rng.randint(-3, 3) for _ in perp]
            r = tuple(sum(c * p[j] for c, p in zip(coeffs, perp)) for j in range(n))
            assert all(dot(b, r) == 0 for b in basis)
            for v in (r, tuple(rng.randint(-4, 4) for _ in range(n))):
                assert dot(lift(w), v) == dot(w, pair(v)), (basis, w, v)
