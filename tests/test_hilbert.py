"""Hilbert bases from fundamental parallelepipeds against the box walk they
replaced (hilbert_oracle.py), on seeded random cones, on lower-dimensional
cones through semigroup_generators and on the 63 (pair, edge) cases of the
ideal benchmark; plus the certificates of the parallelepiped listing."""

import os
import random
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tropabel import cone
from tropabel.abelfan import merged_cone
from tropabel.cone import (
    Cone,
    dual_and_hilbert,
    hilbert_basis_pointed,
    rays_from_halfspaces,
    semigroup_generators,
)
from tropabel.linalg import rank

from conftest import ideal_cases
from hilbert_oracle import box_walk_hilbert_basis


def random_pointed_rays(rng, n, k, bound, top):
    """k integer vectors of R^n, entries in [-bound, bound] but the last in
    [1, top], so that their cone is pointed."""
    return [
        tuple([rng.randint(-bound, bound) for _ in range(n - 1)] + [rng.randint(1, top)])
        for _ in range(k)
    ]


# (dimension, cones, entry bound, last-entry bound, extra vectors): the
# box walk's cost grows fast with the dimension and the entries
FULL_DIMENSIONAL = ((2, 60, 3, 3, 2), (3, 60, 2, 2, 2), (4, 20, 1, 1, 1))


@pytest.mark.parametrize("n, count, bound, top, extra", FULL_DIMENSIONAL)
def test_parallelepipeds_match_box_walk_on_random_cones(n, count, bound, top, extra):
    rng = random.Random(23 + n)
    cones = simplicial = larger = 0
    while cones < count:
        vecs = random_pointed_rays(rng, n, rng.randint(n, n + extra), bound, top)
        if rank(vecs) < n:
            continue
        dual = rays_from_halfspaces(vecs, n)
        primal = rays_from_halfspaces(dual, n)  # the extremal rays of cone(vecs)
        basis = hilbert_basis_pointed(primal, dual)
        assert basis == box_walk_hilbert_basis(primal, dual), (primal, dual)
        cones += 1
        simplicial += len(primal) == n
        larger += len(basis) > len(dual)
    assert 0 < larger
    if n > 2:
        assert 0 < simplicial < count


def test_parallelepipeds_match_box_walk_on_lower_dimensional_cones(monkeypatch):
    """semigroup_generators takes a lower-dimensional cone's Hilbert basis in
    the quotient by its unit lattice; the box walk, patched in there, must
    give the same generating set."""
    rng = random.Random(29)
    cases = []
    for _ in range(40):
        n = rng.randint(2, 4)
        c = Cone.from_rays(n, random_pointed_rays(rng, n, rng.randint(1, n - 1), 2, 2))
        cases.append((n, Cone.from_halfspaces(n, c.equalities, c.inequalities).rays))
    assert {len(rays) for _, rays in cases} == {1, 2, 3}
    fast = [semigroup_generators(n, rays) for n, rays in cases]
    monkeypatch.setattr(cone, "hilbert_basis_pointed", box_walk_hilbert_basis)
    assert fast == [semigroup_generators(n, rays) for n, rays in cases]


def test_parallelepipeds_match_box_walk_on_cones_with_lines():
    """A primal cone that spans R^n but contains a line has a dual spanning
    less than R^n, with no independent n-subset of dual rays; dual_monoid
    takes the basis in the lattice of the dual's span, and the box walk
    in R^n must find the same one.  (0, 1, 1) is the example: it lies on
    neither dual ray (0, 1, 0), (0, 1, 2)."""
    c = Cone.from_rays(3, [(1, 0, 0), (-1, 0, 0), (0, 2, -1), (0, 0, 1)])
    assert dual_and_hilbert(c) == (((0, 1, 0), (0, 1, 2)), ((0, 1, 0), (0, 1, 1), (0, 1, 2)))
    rng = random.Random(31)
    cones = larger = 0
    while cones < 40:
        n = rng.randint(2, 4)
        bound = 2 if n < 4 else 1  # the box walk's cost grows fast with both
        line = tuple(rng.randint(-bound, bound) for _ in range(n))
        others = [
            tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(rng.randint(n - 1, n + 1))
        ]
        rays = [line, tuple(-x for x in line)] + others
        if not any(line) or rank(rays) < n:
            continue
        dual, basis, units = cone.dual_monoid(n, rays)
        assert units == () and rank(dual) < n
        assert list(basis) == box_walk_hilbert_basis(rays, list(dual)), (rays, dual)
        cones += 1
        larger += len(basis) > len(dual)
    assert larger > 0


def test_cone_with_a_line_runs_one_double_description(monkeypatch):
    """In the lattice of the dual's span, dual_monoid writes the dual rays
    it already has in that lattice's basis rather than running a second
    double description: one call for the `dual-hilbert --rays` example and
    for seeded cones spanning R^n that hold a line."""
    calls = []
    real = cone.rays_from_halfspaces

    def spy(ineqs, dim):
        calls.append(dim)
        return real(ineqs, dim)

    monkeypatch.setattr(cone, "rays_from_halfspaces", spy)
    example = [(1, 0, 0), (-1, 0, 0), (0, 2, -1), (0, 0, 1)]
    assert cone.dual_monoid(3, example) == (
        ((0, 1, 0), (0, 1, 2)),
        ((0, 1, 0), (0, 1, 1), (0, 1, 2)),
        (),
    )
    assert calls == [3]
    rng = random.Random(41)
    cones = 0
    while cones < 30:
        n = rng.randint(2, 4)
        line = tuple(rng.randint(-2, 2) for _ in range(n))
        rays = [line, tuple(-x for x in line)]
        rays += [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n - 1, n + 1))]
        if not any(line) or rank(rays) < n:
            continue
        calls.clear()
        cone.dual_monoid(n, rays)
        assert calls == [n], rays
        cones += 1


def test_lower_dimensional_cones_with_lines_match_box_walk(monkeypatch):
    """A cone that spans less than R^n and holds a line takes both
    reductions in one dual_monoid call: the quotient by the units, then the
    lattice of the quotient dual's span.  The box walk, patched in for the
    kernel, works in the quotient alone and must give the same monoid."""
    assert semigroup_generators(3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]) == (
        (0, 0, -1),
        (0, 0, 1),
        (0, 1, 0),
    )
    rng = random.Random(37)
    cases = []
    while len(cases) < 40:
        n = rng.randint(3, 4)
        span = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(n - 1)]
        vecs = [
            tuple(sum(rng.randint(-2, 2) * b[i] for b in span) for i in range(n))
            for _ in range(rng.randint(2, n))
        ]
        rays = [vecs[0], tuple(-x for x in vecs[0])] + vecs[1:]
        # the cone holds the line through vecs[0]; keep it when it spans
        # less than R^n and is no subspace (it has dual rays)
        if any(vecs[0]) and rank(rays) < n and cone.dual_monoid(n, rays)[0]:
            cases.append((n, rays))
    fast = [cone.dual_monoid(n, rays) for n, rays in cases]
    assert all(units for _, _, units in fast)
    assert any(len(basis) > len(dual) for dual, basis, _ in fast)
    monkeypatch.setattr(cone, "hilbert_basis_pointed", box_walk_hilbert_basis)
    assert fast == [cone.dual_monoid(n, rays) for n, rays in cases]


def ideal_cones():
    """The extremal rays of the merged cone of each of the 63 cases of the
    ideal benchmark."""
    cases = [merged_cone(pair).cone.rays for pair, _ in ideal_cases()]
    assert len(cases) == 63
    return cases


def test_parallelepipeds_match_box_walk_on_the_ideal_cases(monkeypatch):
    cases = ideal_cones()
    fast = [semigroup_generators(3, rays) for rays in cases]
    monkeypatch.setattr(cone, "hilbert_basis_pointed", box_walk_hilbert_basis)
    assert fast == [semigroup_generators(3, rays) for rays in cases]


def test_hilbert_candidates_over_the_ideal_cases(monkeypatch):
    """The dual rays plus the distinct nonzero parallelepiped points: 174
    candidates over the 63 cases, where the box walk lists 21,963 box
    points and keeps 1,083 of them."""
    counts = []
    candidates = cone._hilbert_candidates

    def spy(dual_ray_list, n):
        out = candidates(dual_ray_list, n)
        counts.append(len(out))
        return out

    monkeypatch.setattr(cone, "_hilbert_candidates", spy)
    for rays in ideal_cones():
        semigroup_generators(3, rays)
    assert len(counts) == 63
    assert sum(counts) == 174


def test_dropped_parallelepiped_point_raises_under_optimize():
    """The count certificate is an explicit raise, so `python -O`, which
    strips assert statements, still rejects a listing that misses a point:
    here the origin of the first, unimodular, parallelepiped."""
    script = textwrap.dedent(
        """
        from tropabel import cone

        if __debug__:
            raise SystemExit("not running under -O")
        rays = ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 1, 2))
        dual = cone.dual_monoid(3, rays)[0]
        print(len(cone.hilbert_basis_pointed(rays, dual)))
        points = cone._parallelepiped_points
        cone._parallelepiped_points = lambda *args: list(points(*args))[:-1]
        try:
            cone.hilbert_basis_pointed(rays, dual)
        except AssertionError as exc:
            print("rejected:", exc)
        else:
            print("accepted")
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(
        r"5\nrejected: parallelepiped of .* holds 0 points, not \|det\| = 1\n", proc.stdout
    ), proc.stdout
