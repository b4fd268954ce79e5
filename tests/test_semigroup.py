import random

import pytest

from tropabel.divisor import Divisor, Polarization
from tropabel.errors import SearchBoundError, ValidationError
from tropabel.flow import enumerate_admissible
from tropabel.linalg import dot, vec_add
from tropabel.semigroup import (
    Monomial,
    MonomialIdeal,
    MonomialRing,
    boundary_functionals,
    intersect_ideals,
    intersect_many,
    localization_preimage,
    model_ring,
    model_symbolic_power,
    monomial_in_principal,
    node_ring,
    ray_power_intersection,
    symbolic_power_ideal,
    symbolic_power_membership,
)

WORKED_RAYS = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2))


@pytest.fixture
def worked_pair(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    for p in pairs:
        if p.eset == {"e0", "e1"}:
            vals = dict(p.flow.flow)
            if vals == {"e0:a": 1, "e0:b": 2, "e1:a": 1, "e1:b": 2, "e2": 1}:
                return p
    raise AssertionError("missing worked pair")


@pytest.fixture
def worked_ring(worked_pair):
    ring, ac = node_ring(worked_pair, "e0")
    return ring


# z-names of the worked example, as exponent vectors
Z0 = (0, -1, 1)
Z1 = (2, 0, -1)
Z2 = (0, 2, -1)
Z3 = (-1, 0, 1)
Z4 = (1, 1, -1)


def test_ring_generators_match_hilbert_basis(worked_ring):
    assert set(worked_ring.generators) == {Z0, Z1, Z2, Z3, Z4}


def test_monomial_canonical_form(worked_ring):
    r = worked_ring
    m = r.monomial((0, 0, 0), a=2, b=3)
    # x^2 y^3 = (xy)^2 y = chi^(2,0,0) y
    assert m.a == 0 and m.b == 1 and m.u == (2, 0, 0)


def test_monomial_format_parse_roundtrip(worked_ring):
    r = worked_ring
    m = r.monomial(Z4, b=2)
    text = m.format()
    assert text == "y^2 χ{1,1,-1}"
    assert Monomial.parse(r, text).key() == m.key()


def test_principal_membership_worked_values(worked_ring):
    r = worked_ring
    # chi^(1,0,0) = z0 z4 smells divisible by z0: (1,0,0) - (0,-1,1) = (1,1,-1) in the monoid
    u = r.monomial((1, 0, 0))
    v = r.monomial(Z0)
    assert monomial_in_principal(u, v)
    assert monomial_in_principal(u, u)
    # z0 is not in (z1): difference pairs negatively with a ray
    assert not monomial_in_principal(r.monomial(Z0), r.monomial(Z1))


def test_principal_membership_uses_split_relation(worked_ring):
    r = worked_ring
    # chi^(1,0,0) = x*y, so y divides it with an x left over
    m = r.monomial((1, 0, 0))
    assert r.y().divides(m)
    assert r.x().divides(m)


def test_principal_membership_agrees_with_difference_rule():
    """On random monomials of the plain ring, membership in a principal
    ideal is exactly the monoid membership of the exponent difference."""
    rng = random.Random(3)
    ring = MonomialRing(3, WORKED_RAYS)
    gens = [ring.monomial(u) for u in ring.generators]
    pool = [ring.one()]
    for _ in range(80):
        m = rng.choice(pool) * rng.choice(gens)
        pool.append(m)
    for _ in range(300):
        m = rng.choice(pool)
        g = rng.choice(pool)
        diff_in = ring.in_monoid(tuple(a - b for a, b in zip(m.u, g.u)))
        assert monomial_in_principal(m, g) == diff_in


def _by_names(ring, *groups):
    names = {"y": ring.y(), "y2": ring.y() ** 2}
    out = []
    for grp in groups:
        mono = ring.one()
        for item in grp:
            if item == "y":
                mono = mono * ring.y()
            else:
                mono = mono * ring.monomial(item)
        out.append(mono)
    return out


def test_symbolic_power_generators_reproduce_worked_lists(worked_ring):
    r = worked_ring
    r1, r2, r3, r4 = (1, 1, 1), (2, 1, 2), (1, 2, 2), (1, 1, 2)
    i1 = symbolic_power_ideal(r, r1, 2)
    want_i1 = _by_names(
        r,
        ("y", "y"),
        ("y", Z1),
        ("y", Z2),
        ("y", Z4),
        (Z1, Z1),
        (Z1, Z4),
        (Z4, Z4),
        (Z2, Z4),
        (Z2, Z2),
    )
    assert {m.key() for m in i1.gens} == {m.key() for m in want_i1}

    i3 = symbolic_power_ideal(r, r3, 1)
    want_i3 = _by_names(r, ("y",), (Z2,), (Z3,), (Z4,))
    assert {m.key() for m in i3.gens} == {m.key() for m in want_i3}

    i4 = symbolic_power_ideal(r, r4, 1)
    want_i4 = _by_names(r, ("y",), (Z0,), (Z3,))
    assert {m.key() for m in i4.gens} == {m.key() for m in want_i4}

    # the published 14-element list for this power is redundant as semigroup
    # monomials (z0 z4 = z1 z3 makes some entries products of others); the
    # minimal list has 6 elements and generates the same ideal
    i2 = symbolic_power_ideal(r, r2, 2)
    published_i2 = _by_names(
        r,
        ("y", "y"),
        ("y", Z0, Z4),
        ("y", Z1),
        ("y", Z4, Z4),
        ("y", Z0, Z0),
        (Z0, Z0, Z4, Z4),
        (Z0, Z1, Z4),
        (Z0, Z4, Z4, Z4),
        (Z1, Z1),
        (Z1, Z4, Z4),
        (Z4, Z4, Z4, Z4),
        (Z0, Z0, Z1),
        (Z0, Z0, Z0, Z4),
        (Z0, Z0, Z0, Z0),
    )
    assert i2.equals(MonomialIdeal(r, tuple(published_i2)))
    minimal_i2 = _by_names(
        r,
        ("y", "y"),
        ("y", Z0, Z0),
        ("y", Z1),
        (Z0, Z0, Z0, Z0),
        (Z0, Z0, Z1),
        (Z1, Z1),
    )
    assert {m.key() for m in i2.gens} == {m.key() for m in minimal_i2}


def test_symbolic_membership_trivial_cases(worked_ring):
    r = worked_ring
    ray = (1, 1, 1)
    # b >= n always belongs
    assert symbolic_power_membership(r, ray, 2, r.y() ** 2)
    assert symbolic_power_membership(r, ray, 1, r.y() ** 3)
    assert not symbolic_power_membership(r, ray, 2, r.y())


def test_worked_intersection(worked_ring):
    r = worked_ring
    r1, r2, r3, r4 = (1, 1, 1), (2, 1, 2), (1, 2, 2), (1, 1, 2)
    ideals = [
        symbolic_power_ideal(r, r1, 2),
        symbolic_power_ideal(r, r2, 2),
        symbolic_power_ideal(r, r3, 1),
        symbolic_power_ideal(r, r4, 1),
    ]
    inter = intersect_many(ideals)
    want = [(r.y() ** 2), r.y() * r.monomial(Z1)]
    assert {m.key() for m in inter.gens} == {m.key() for m in want}


def test_intersection_idempotent_and_whole(worked_ring):
    r = worked_ring
    ideal = MonomialIdeal.of(r, (r.y(), r.monomial(Z1)))
    assert intersect_ideals(ideal, ideal).equals(ideal)
    assert intersect_ideals(ideal, MonomialIdeal.whole(r)).equals(ideal)


def test_intersection_search_bound_error(worked_ring):
    from tropabel.errors import SearchBoundError

    r = worked_ring
    deep_a = MonomialIdeal.of(r, (r.y() ** 6,))
    deep_b = MonomialIdeal.of(r, (r.monomial(Z1) ** 6,))
    with pytest.raises(SearchBoundError, match="bound 1"):
        intersect_ideals(deep_a, deep_b, bound=1)
    # a large enough bound saturates; the split relation converts y-powers
    # into chi-shifts, so the join fans out into a ladder of generators
    ok = intersect_ideals(deep_a, deep_b, bound=14)
    assert r.monomial((6, 0, 0)).key() in {m.key() for m in ok.gens}
    for m in ok.gens:
        assert deep_a.contains(m) and deep_b.contains(m)


def test_localization_preimage_face_r3(worked_pair):
    ring, ac = node_ring(worked_pair, "e0")
    ideal, member = localization_preimage(ring, [(1, 2, 2)], ring.y())
    want = _by_names(ring, ("y",), (Z2,), (Z3,), (Z4,))
    assert {m.key() for m in ideal.gens} == {m.key() for m in want}
    # the membership rule and the generator list agree on a grid of monomials
    rng = random.Random(11)
    pool = [ring.one()]
    for _ in range(60):
        pool.append(rng.choice(pool) * rng.choice(ring.monomial_generators))
    for m in pool:
        assert member(m) == ideal.contains(m)


def test_localization_preimage_whole_and_principal(worked_pair):
    ring, ac = node_ring(worked_pair, "e0")
    whole, _ = localization_preimage(ring, [(1, 2, 2)], ring.one())
    assert whole.is_whole()
    # localizing at the full cone: the preimage of (m) is (m) itself
    principal, member = localization_preimage(ring, ac.cone.rays, ring.monomial(Z4))
    assert principal.equals(MonomialIdeal.of(ring, (ring.monomial(Z4),)))


def test_boundary_functionals_worked_values(worked_pair):
    bf0 = boundary_functionals(worked_pair, "e0")
    assert bf0.u_prime == (-1, 0, 1)
    assert bf0.u_second == (2, 0, -1)
    bf1 = boundary_functionals(worked_pair, "e1")
    assert bf1.u_prime == (0, -1, 1)
    assert bf1.u_second == (0, 2, -1)


def test_boundary_functionals_not_invertible(worked_pair):
    ring, ac = node_ring(worked_pair, "e0")
    bf = boundary_functionals(worked_pair, "e0")
    for u in (bf.u_prime, bf.u_second):
        assert any(dot(u, r) > 0 for r in ac.cone.rays)


def test_boundary_functionals_requires_subdivided_edge(worked_pair):
    with pytest.raises(ValidationError, match="not in the subdivided set"):
        boundary_functionals(worked_pair, "e2")


def test_boundary_functionals_rejects_another_pairs_cone(worked_pair, theta):
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = enumerate_admissible(theta, "v0", Polarization.zero(theta), d0)
    other = next(p for p in pairs if p.eset == {"e0"})
    _, ac = node_ring(other, "e0")
    with pytest.raises(ValidationError, match="is not merged_cone"):
        boundary_functionals(worked_pair, "e0", abel_cone=ac)


def test_ray_power_intersection_worked(worked_pair):
    lhs, rhs = ray_power_intersection(worked_pair, "e0")
    ring = lhs.ring
    want = [(ring.y() ** 2), ring.y() * ring.monomial(Z1)]
    assert {m.key() for m in lhs.gens} == {m.key() for m in want}
    assert lhs.equals(rhs)


def test_ray_power_intersection_unsubdivided_zero(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 1, "v1": -1})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    (pair,) = [p for p in pairs if not p.eset]
    lhs, rhs = ray_power_intersection(pair, "e0")
    assert lhs.is_whole() and rhs.is_whole()


def test_ray_power_intersection_unsubdivided_positive(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    pair = next(
        p
        for p in pairs
        if not p.eset and dict(p.flow.flow) == {"e0": 1, "e1": 1, "e2": 1}
    )
    lhs, rhs = ray_power_intersection(pair, "e0")
    ring = lhs.ring
    assert {m.key() for m in rhs.gens} == {ring.y().key()}
    assert lhs.equals(rhs)


def test_ray_power_intersection_across_theta_fan(theta):
    """Two-sided identity for every (pair, subdivided edge) of the theta
    instance."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    checked = 0
    for p in pairs:
        for e0 in sorted(p.eset):
            lhs, rhs = ray_power_intersection(p, e0)
            assert lhs.equals(rhs)
            checked += 1
    assert checked == 3 * 9 + 3 * 6 * 2  # one edge per single, two per pair


def test_model_symbolic_powers():
    for t in (1, 2, 3):
        for n in (1, 2):
            ideal, member = model_symbolic_power(t, t * n)
            ring = ideal.ring
            want = MonomialIdeal.of(ring, (ring.y() ** n,))
            assert ideal.equals(want), (t, n, ideal.format())


def test_model_symbolic_power_membership_examples():
    ring = model_ring(2)
    ideal, member = model_symbolic_power(2, 2)
    # u^2 = xy falls in after saturating by x
    assert member(ring.monomial((2,)))
    assert ideal.contains(ring.monomial((2,)))
    assert not member(ring.monomial((1,)))


def test_ray_power_intersection_builds_one_cone(worked_pair, monkeypatch):
    """The boundary functionals are certified on the cone node_ring built."""
    from tropabel import abelfan

    calls = []
    real = abelfan.merged_cone

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(abelfan, "merged_cone", counted)
    lhs, rhs = ray_power_intersection(worked_pair, "e0")
    assert lhs.equals(rhs)
    assert len(calls) == 1


def test_join_finds_the_generator_four_levels_up():
    """chi^(5,5) is a minimal common multiple of chi^(1,0) and chi^(1,1)
    four levels above chi^(2,1); a search that stops two levels past its
    last new generator misses it."""
    ring = MonomialRing(2, ((0, 1), (5, -4)))
    a = MonomialIdeal.of(ring, (ring.monomial((1, 0)),))
    b = MonomialIdeal.of(ring, (ring.monomial((1, 1)),))
    got = intersect_ideals(a, b)
    assert [m.u for m in got.gens] == [(2, 1), (5, 5)]


def test_valuations_add_and_survive_canonical_form(worked_ring):
    r = worked_ring
    m = r.monomial(Z1, a=2) * r.monomial(Z4, b=3)
    assert m.key() == r.monomial(vec_add(vec_add(Z1, Z4), (2, 0, 0)), b=1).key()
    assert m.w == r.monomial(m.u, m.a, m.b).w
    assert m.w == tuple(x + y for x, y in zip(r.monomial(Z1, a=2).w, r.monomial(Z4, b=3).w))


def test_relation_outside_the_monoid_is_rejected():
    with pytest.raises(ValidationError, match="pairs negatively"):
        MonomialRing(2, ((0, 1), (5, -4)), (0, -1))
    with pytest.raises(ValidationError, match="pairs negatively"):
        model_ring(-2)
    MonomialRing(2, ((0, 1), (5, -4)), (1, 0))


def test_symbolic_power_rejects_bad_exponent_and_ray(worked_ring):
    with pytest.raises(ValidationError, match="n >= 0"):
        symbolic_power_ideal(worked_ring, (1, 1, 1), -1)
    with pytest.raises(ValidationError, match="not an extremal ray"):
        symbolic_power_ideal(worked_ring, (1, 1, 3), 1)
    with pytest.raises(ValidationError, match="split-pair ring"):
        symbolic_power_ideal(MonomialRing(3, WORKED_RAYS), (1, 1, 1), 1)
    assert symbolic_power_ideal(worked_ring, (1, 1, 1), 0).is_whole()


def test_search_stops_at_the_cap_on_a_deep_staircase():
    """The search may only stop once every short valuation is met; on this
    ring the chi-only staircase at the ray is 45 levels deep, so a cap of 40
    raises instead of returning a guess."""
    ring = MonomialRing(2, ((0, 1), (8, -1)), (2, 1))
    with pytest.raises(SearchBoundError, match="bound 40"):
        symbolic_power_ideal(ring, (8, -1), 3, bound=40)
    ideal = symbolic_power_ideal(ring, (8, -1), 3, bound=45)
    assert sorted(ideal.format()) == ["y χ{4,0}", "y^2 χ{2,0}", "y^3 χ{0,0}", "χ{6,0}"]
