"""The monomial layer against its predecessors and against exhaustive
enumeration.

The predecessors are kept here as oracles: the j-loop divisibility test,
the breadth-first search that stopped two levels past its last new
minimal generator, the model-ring symbolic power by x-saturation of the
ordinary power, the boundary functionals from a fundamental cycle
(functional_oracle.py), and the intersection of the ray-wise symbolic
powers by pairwise joins (ideal_oracle.py).  The exhaustive check lists
every lattice point of a valuation box {m : w(m) <= B}.  A member m of an
upward closed set is minimal iff no quotient of m by a ring generator is
a member, and the box holds each such quotient of its points; a box only
gives a lower bound, since generators above it go unchecked.
"""

import json
import math
import random
from fractions import Fraction
from importlib import resources
from itertools import product

import pytest

from tropabel import abelfan, cone, semigroup, worked
from tropabel.abelfan import build_fan, merged_cone
from tropabel.cone import Cone
from tropabel.errors import SearchBoundError
from tropabel.flow import enumerate_admissible
from tropabel.linalg import dot, rank, solve, vec_sub
from tropabel.semigroup import (
    DEFAULT_SEARCH_BOUND,
    MonomialIdeal,
    MonomialRing,
    boundary_functionals,
    intersect_ideals,
    model_ring,
    model_symbolic_power,
    node_power_intersection,
    node_ring,
    ray_power_intersection,
    symbolic_power_ideal,
    symbolic_power_membership,
)
from tropabel.worked import ideal_report

from conftest import ideal_cases, localization_preimage, parallel_instance
from functional_oracle import functionals_by_cycle
from ideal_oracle import ideal_power, pairwise_power_intersection

# ------------------------------------------------------------ the predecessors


def in_monoid(ring, u):
    return all(dot(u, r) >= 0 for r in ring.rays)


def jloop_divides(g, m):
    """g | m: some integer shift j >= max(-da, -db) keeps du - j*relation
    in the chi-monoid; j is bounded above through any ray pairing
    positively with the relation."""
    du = vec_sub(m.u, g.u)
    da, db = m.a - g.a, m.b - g.b
    ring = g.ring
    if ring.relation is None:
        return da == 0 and db == 0 and in_monoid(ring, du)
    rel = ring.relation
    jlo = max(-da, -db)
    jhi = None
    for r in ring.rays:
        cr = dot(rel, r)
        if cr > 0:
            bound = dot(du, r) // cr
            jhi = bound if jhi is None else min(jhi, bound)
    if jhi is None:
        return in_monoid(ring, du)
    return any(
        in_monoid(ring, tuple(x - j * y for x, y in zip(du, rel))) for j in range(jlo, jhi + 1)
    )


def bfs_minimal(start, member, alphabet, bound, what):
    """Breadth-first minimal monomials above `start`: hits stop their
    branch, states divisible by a hit are pruned, and the walk stops two
    levels after the last new hit."""
    hits = []
    frontier = {start.key(): start}
    visited = {start.key()}
    level = 0
    last_new = None
    while frontier:
        if last_new is not None and level > last_new + 2:
            return hits
        if level > bound + 2:
            raise SearchBoundError(what, bound)
        nxt = {}
        for m in frontier.values():
            if member(m):
                if not any(jloop_divides(w, m) for w in hits):
                    hits.append(m)
                    last_new = level
                continue
            if any(jloop_divides(w, m) for w in hits):
                continue
            for t in alphabet:
                nm = m * t
                if nm.key() not in visited:
                    visited.add(nm.key())
                    nxt[nm.key()] = nm
        frontier = nxt
        level += 1
    return hits


def _size(m):
    return sum(abs(c) for c in m.u) + m.a + m.b


def bfs_intersect_ideals(ideal_a, ideal_b, bound=DEFAULT_SEARCH_BOUND):
    ring = ideal_a.ring
    cands = []
    for g in ideal_a.gens:
        for h in ideal_b.gens:
            lo, hi = (g, h) if _size(g) >= _size(h) else (h, g)
            cands.extend(
                bfs_minimal(
                    lo,
                    lambda m, hi=hi: jloop_divides(hi, m),
                    ring.monomial_generators,
                    bound,
                    "ideal intersection",
                )
            )
    return MonomialIdeal.of(ring, cands)


def bfs_symbolic_power_ideal(ring, ray, n, bound=DEFAULT_SEARCH_BOUND):
    c = dot(ring.relation, ray)
    cands = [ring.y() ** n]
    chi_gens = [ring.monomial(u) for u in ring.generators if dot(u, ray) > 0]
    for b in range(n):
        need = (n - b) * c
        hits = bfs_minimal(
            ring.one(),
            lambda m, need=need: dot(m.u, ray) >= need,
            chi_gens,
            bound,
            "symbolic power saturation",
        )
        cands.extend(ring.y() ** b * h for h in hits)
    return MonomialIdeal.of(ring, cands)


def bfs_localization_preimage(ring, face_rays, target, bound=DEFAULT_SEARCH_BOUND):
    def member(m):
        du = vec_sub(m.u, target.u)
        da, db = m.a - target.a, m.b - target.b
        if ring.relation is None:
            return not (da or db) and all(dot(du, r) >= 0 for r in face_rays)
        return all(
            dot(du, r) + d * dot(ring.relation, r) >= 0 for r in face_rays for d in (da, db)
        )

    alphabet = [
        t
        for t in ring.monomial_generators
        if t.a or t.b or any(dot(t.u, r) != 0 for r in face_rays)
    ]
    return MonomialIdeal.of(ring, bfs_minimal(ring.one(), member, alphabet, bound, "")), member


def saturation_model_symbolic_power(t, m):
    """Symbolic power of (y, u) in the model ring, by x-saturation of the
    ordinary power: a monomial belongs iff x^k times it falls into (y, u)^m
    for some k <= m t + t, a cap that is a heuristic, not a proof.
    Candidates are y^b u^s with b <= m + 1 and s <= m t + t."""
    ring = model_ring(t)
    ordinary = ideal_power(MonomialIdeal.of(ring, (ring.y(), ring.monomial((1,)))), m)
    cap = m * t + t

    def member(mono):
        probe = mono
        for _ in range(cap + 1):
            if ordinary.contains(probe):
                return True
            probe = probe * ring.x()
        return False

    cands = [
        ring.monomial((s,), b=b)
        for b in range(m + 2)
        for s in range(m * t + t + 1)
        if member(ring.monomial((s,), b=b))
    ]
    return MonomialIdeal.of(ring, cands), member


# ------------------------------------------------------------------- the rings


def _ring_2d(n, s, relation=None):
    return MonomialRing(2, ((0, 1), (n, -s)), relation)


def _ring_3d(rng):
    while True:
        pts = {(1, rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.choice((3, 4)))}
        cone = Cone.from_rays(3, sorted(pts))
        if cone.dim == 3:
            return MonomialRing(3, tuple(cone.rays))


def _with_relation(ring, rng):
    """The same cone with a split pair tied to a random nonzero covector of
    the dual monoid."""
    while True:
        rel = [0] * ring.ambient_dim
        for _ in range(rng.randint(1, 2)):
            rel = [x + y for x, y in zip(rel, rng.choice(ring.generators))]
        if any(dot(rel, r) > 0 for r in ring.rays):
            return MonomialRing(ring.ambient_dim, ring.rays, tuple(rel))


def _seeded_rings():
    rng = random.Random(7077)
    rings = []
    for n, s in ((3, 1), (5, 4), (4, 3), (7, 2)):
        rings.append(_ring_2d(n, s))
    for _ in range(2):
        rings.append(_ring_3d(rng))
    return rings + [_with_relation(r, rng) for r in rings]


def _pool(ring, rng, size):
    gens = ring.monomial_generators
    pool = [ring.one()]
    for _ in range(size):
        pool.append(rng.choice(pool) * rng.choice(gens))
    return pool


# -------------------------------------------------- exhaustive valuation boxes


def _box(ring, radius):
    """Every monomial whose valuation vector is at most `radius`, by a scan
    of the lattice points of a coordinate box around it (the cone is
    full-dimensional, so the valuations bound the coordinates)."""
    d = ring.ambient_dim
    basis = []
    for r in ring.rays:
        if rank([list(v) for v in basis + [r]]) > len(basis):
            basis.append(r)
    # u = basis^-1 (u . basis): bound each coordinate through the inverse
    inverse = [solve(basis, [int(i == j) for i in range(d)]) for j in range(d)]
    reach = [int(radius * sum(abs(col[i]) for col in inverse)) + 1 for i in range(d)]
    c = ring.relation_values if ring.relation is not None else None
    out = []
    for u in product(*(range(-k, k + 1) for k in reach)):
        v = [dot(u, r) for r in ring.rays]
        if min(v) < 0 or max(v) > radius:
            continue
        if c is None:
            out.append(ring.monomial(u))
            continue
        for k in range(radius // max(c) + 1):
            if all(x + k * y <= radius for x, y in zip(v, c)):
                out.append(ring.monomial(u, a=k))
                if k:
                    out.append(ring.monomial(u, b=k))
    return out


def _quotients(m):
    """m / s for each ring generator s dividing m."""
    ring = m.ring
    for s in ring.monomial_generators:
        if s.divides(m):
            du, da, db = vec_sub(m.u, s.u), m.a - s.a, m.b - s.b
            j = -min(da, db)
            if j:
                du = tuple(x - j * y for x, y in zip(du, ring.relation))
            yield ring.monomial(du, da + j, db + j)


def _check_answer(ideal, member, box):
    """Every generator is a member and locally minimal (no quotient by a
    ring generator is a member), and every member of the box that is
    locally minimal is a generator."""
    keys = {g.key() for g in ideal.gens}
    for g in ideal.gens:
        assert member(g), g.format()
        assert not any(member(q) for q in _quotients(g)), g.format()
    for m in box:
        if member(m) and not any(member(q) for q in _quotients(m)):
            assert m.key() in keys, m.format()


# ----------------------------------------------------------------------- tests


def test_closed_form_divides_agrees_with_jloop():
    rng = random.Random(2024)
    rings = _seeded_rings()
    rings.append(MonomialRing(3, ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2)), (1, 0, 0)))
    # a cone that is not full-dimensional: the chi-monoid has units
    rings.append(MonomialRing(3, ((1, 0, 1), (1, 1, 0)), (1, 0, 0)))
    checked = 0
    for ring in rings:
        pool = _pool(ring, rng, 40)
        for _ in range(200):
            g, m = rng.choice(pool), rng.choice(pool)
            assert g.divides(m) == jloop_divides(g, m), (ring, g.key(), m.key())
            checked += 1
    assert checked == 200 * len(rings)


def _keys(ideal):
    return tuple(m.key() for m in ideal.gens)


def test_search_agrees_with_bfs_on_theta_and_worked_golden(monkeypatch):
    """On the 63 ideal cases the chain of threshold searches gives the
    generators of the replaced route run on its breadth-first twins: each
    ray-wise power by bfs_symbolic_power_ideal, intersected pairwise by
    bfs_intersect_ideals.  The worked report, with its four powers from the
    breadth-first twin, matches its golden."""
    cases = ideal_cases()
    assert len(cases) == 63
    for p, e0 in cases:
        ring, ac = node_ring(p, e0)
        new = node_power_intersection(ring, ac, e0)[0]
        old = pairwise_power_intersection(
            ring, ac, e0, power=bfs_symbolic_power_ideal, intersect=bfs_intersect_ideals
        )
        assert _keys(new) == _keys(old), (p.to_json(), e0)
    report = ideal_report()
    monkeypatch.setattr(worked, "symbolic_power_ideal", bfs_symbolic_power_ideal)
    golden = json.loads(resources.files("tropabel.goldens").joinpath("ideal.json").read_text())
    assert ideal_report() == golden == report


@pytest.mark.parametrize(
    ("k", "m", "cases", "chain_only", "both_raise"),
    [(4, 0, 165, 0, 0), (6, Fraction(1, 5), 453, 36, 0), (8, 0, 885, 102, 162)],
)
def test_chain_agrees_with_pairwise_joins_on_theta(k, m, cases, chain_only, both_raise):
    """Every (admissible pair, base edge) case of theta with D0 = (k, -k)
    and mu = (m, -m), subdivided or not: wherever the replaced route (every ray-wise power, then
    pairwise joins) answers under the default bound, the chain gives the
    same generator keys.  The chain never raises where it answers, and it
    answers some cases where a join search exceeds the bound; those pass
    the two-sided closed-form check inside node_power_intersection."""
    g, v0, mu, d0 = parallel_instance(3, k, m)
    counts = {"equal": 0, "chain only": 0, "both raise": 0}
    for p in enumerate_admissible(g, v0, mu, d0):
        for e0 in g.edge_ids:
            ring, ac = node_ring(p, e0)
            try:
                new = node_power_intersection(ring, ac, e0)[0]
            except SearchBoundError:
                new = None
            try:
                old = pairwise_power_intersection(ring, ac, e0)
            except SearchBoundError:
                old = None
            if old is not None:
                assert new is not None and _keys(new) == _keys(old), (p.to_json(), e0)
                counts["equal"] += 1
            else:
                counts["both raise" if new is None else "chain only"] += 1
    assert counts == {
        "equal": cases - chain_only - both_raise,
        "chain only": chain_only,
        "both raise": both_raise,
    }


def test_ideal_cases_run_one_threshold_search_per_power_and_generator(monkeypatch):
    """A pass over the 63 ideal cases runs at most 255 threshold searches,
    one per (generator found so far, power) step of the chains; building
    every power's list and then joining the lists pairwise ran 819."""
    calls = []
    search = semigroup._minimal_search

    def spy(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(semigroup, "_minimal_search", spy)
    for p, e0 in ideal_cases():
        ray_power_intersection(p, e0)
    assert len(calls) <= 255


def test_ideal_report_builds_the_merged_cone_once(monkeypatch):
    """The report builds the ring and cone of node_ring once and hands them
    to node_power_intersection, with the same golden output."""
    calls = []
    build = abelfan.merged_cone

    def spy(pair):
        calls.append(pair)
        return build(pair)

    monkeypatch.setattr(abelfan, "merged_cone", spy)
    report = ideal_report()
    assert len(calls) == 1
    golden = json.loads(resources.files("tropabel.goldens").joinpath("ideal.json").read_text())
    assert report == golden


def test_ideal_report_builds_one_hilbert_basis(monkeypatch):
    """The report reads the dual rays and the dual-monoid basis from the
    ring's one dual monoid: one double description and one Hilbert basis
    per report, with the same golden output."""
    calls, descriptions = [], []
    build = cone.hilbert_basis_pointed
    describe = cone.rays_from_halfspaces

    def spy(primal_rays, dual_ray_list):
        calls.append(primal_rays)
        return build(primal_rays, dual_ray_list)

    def spy_describe(ineqs, dim):
        descriptions.append(ineqs)
        return describe(ineqs, dim)

    monkeypatch.setattr(cone, "hilbert_basis_pointed", spy)
    monkeypatch.setattr(cone, "rays_from_halfspaces", spy_describe)
    report = ideal_report()
    assert len(calls) == 1
    assert len(descriptions) == 1
    golden = json.loads(resources.files("tropabel.goldens").joinpath("ideal.json").read_text())
    assert report == golden


def test_joins_of_generators_on_two_dimensional_rings():
    """Every join of two chi-generators on the rings with rays (0, 1) and
    (n, -s), n <= 8, is checked exhaustively; the two-level stop misses a
    generator on four of them."""
    radius = 24
    missed = 0
    for n in range(2, 9):
        for s in range(1, n):
            if math.gcd(n, s) != 1:
                continue
            ring = _ring_2d(n, s)
            box = _box(ring, radius)
            gens = [ring.monomial(u) for u in ring.generators]
            for i, g in enumerate(gens):
                for h in gens[i + 1:]:
                    ga = MonomialIdeal.of(ring, (g,))
                    hb = MonomialIdeal.of(ring, (h,))
                    ideal = intersect_ideals(ga, hb, bound=40)
                    _check_answer(ideal, lambda m: g.divides(m) and h.divides(m), box)
                    if not bfs_intersect_ideals(ga, hb, bound=40).equals(ideal):
                        missed += 1
    assert missed == 4


@pytest.mark.parametrize("index", range(12))
def test_searches_match_exhaustive_boxes(index):
    ring = _seeded_rings()[index]
    rng = random.Random(100 + index)
    radius = 14 if ring.ambient_dim == 2 else 6
    box = _box(ring, radius)
    small = [m for m in _pool(ring, rng, 12) if max(m.w) <= radius // 2]
    for _ in range(4):
        ia = MonomialIdeal.of(ring, rng.sample(small, min(2, len(small))))
        ib = MonomialIdeal.of(ring, rng.sample(small, min(2, len(small))))
        ideal = intersect_ideals(ia, ib, bound=40)
        _check_answer(ideal, lambda m: ia.contains(m) and ib.contains(m), box)
    for k, ray in enumerate(ring.rays):
        target = rng.choice(small)
        faces = ([ray], list(ring.rays)) if k == 0 else ([ray],)
        for face in faces:
            ideal, member = localization_preimage(ring, face, target, bound=40)
            _check_answer(ideal, member, box)
        if ring.relation is not None:
            for n in (1, 2):
                ideal = symbolic_power_ideal(ring, ray, n, bound=40)
                _check_answer(ideal, lambda m: symbolic_power_membership(ring, ray, n, m), box)


def test_localization_agrees_with_bfs_on_seeded_rings():
    rng = random.Random(31)
    for ring in _seeded_rings():
        for ray in ring.rays:
            target = rng.choice(_pool(ring, rng, 6))
            new, member = localization_preimage(ring, [ray], target)
            old, old_member = bfs_localization_preimage(ring, [ray], target)
            assert new.equals(old)
            for m in _pool(ring, rng, 30):
                assert member(m) == old_member(m)


def test_model_symbolic_power_matches_saturation():
    """The threshold search and the x-saturation route give the same
    generators for t in 1..8 and m in 0..12, and the same membership on
    every monomial x^a y^b u^s with a <= 1, b <= m + 1 and s <= m + 2."""
    compared = 0
    for t in range(1, 9):
        ring = model_ring(t)
        for m in range(13):
            ideal, member = model_symbolic_power(t, m)
            oracle, oracle_member = saturation_model_symbolic_power(t, m)
            assert _keys(ideal) == _keys(oracle), (t, m)
            for a, b, s in product(range(2), range(m + 2), range(m + 3)):
                mono = ring.monomial((s,), a, b)
                assert member(mono) == oracle_member(mono) == ideal.contains(mono), (t, m, a, b, s)
                compared += 1
    assert compared == 8 * sum(2 * (m + 2) * (m + 3) for m in range(13))


def test_boundary_functionals_match_cycle_derivation(random_instances):
    """The functionals read from the rows equal the fundamental-cycle
    derivation on every subdivided edge of every pair of the theta (4,-4)
    fan, face pairs on contracted graphs included, and of the pairs of the
    seeded random instances."""
    g, v0, mu, d0 = parallel_instance(3, 4, 0)
    cones = list(build_fan(g, v0, mu, d0).cones)
    cones += [merged_cone(p) for *_, instance_pairs in random_instances for p in instance_pairs]
    cases = 0
    for ac in cones:
        pair = ac.provenance
        for e0 in sorted(pair.eset):
            bf = boundary_functionals(ac, e0)
            got = (bf.upstream_flow, bf.downstream_flow, bf.u_prime, bf.u_second)
            assert got == functionals_by_cycle(pair, e0), (pair.to_json(), e0)
            cases += 1
    assert cases >= 800, cases
