"""Point location by the lattice solve, checked against two exhaustive
routes it replaces: the scan of every admissible pair's rows
(pair_scan_locate), and the scan of every merged cone of the (contracted)
fan, which keeps the one whose relative interior holds the point."""

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from tropabel import metric as metric_mod
from tropabel.abelfan import (
    _EdgeSetSolve,
    _locate,
    locate_point,
    merged_cone,
    pair_rows,
)
from tropabel.divisor import Divisor, Polarization, enumerate_quasistable
from tropabel.errors import DeskScaleError
from tropabel.flow import enumerate_admissible
from tropabel.graph import build_graph, contract, cycle_basis
from tropabel.linalg import inverse
from tropabel.metric import abel_eval

from conftest import abel_instances, parallel_instance, pendant_cycle_instance, random_instance
from split_oracle import split_cone, split_rays

SRC = Path(__file__).resolve().parents[1] / "src"


def pair_scan_locate(g, v0, pol, d0, point, reverse=False, check_unique=False):
    """The route the lattice solve replaced: enumerate every admissible pair
    of the (contracted) graph, in canonical order or reversed, and keep the
    one whose rows hold the point; with check_unique, scan them all."""
    point = {e: point[e] for e in g.edge_ids}
    zeros = frozenset(e for e, x in point.items() if x == 0)
    live_g = g
    if zeros:
        spec = contract(g, zeros)
        live_g = spec.target
        v0, pol, d0 = spec(v0), pol.pushforward(spec), d0.pushforward(spec)
    denom = math.lcm(*(Fraction(point[e]).denominator for e in live_g.edge_ids))
    ipoint = tuple(int(Fraction(point[e]) * denom) for e in live_g.edge_ids)
    pairs = enumerate_admissible(live_g, v0, pol, d0)
    bases = {}
    hit = None
    for pair in reversed(pairs) if reverse else pairs:
        if pair.eset not in bases:
            bases[pair.eset] = cycle_basis(live_g, avoid=pair.eset)
        rows = pair_rows(live_g, pair, bases[pair.eset])
        if rows.contains_interior(ipoint):
            assert hit is None, f"{point} lies in two open cones"
            hit = pair, rows
            if not check_unique:
                break
    assert hit is not None, f"{point} lies in no open cone"
    pair, rows = hit
    cone = merged_cone(live_g, pair, ambient_edges=g.edge_ids, spec_contracted=zeros)
    return cone, {e: Fraction(v, denom) for e, v in rows.split_point(ipoint).items()}


def _parallel(n_edges):
    return build_graph(
        {
            "vertices": [{"id": "v0", "weight": 0}, {"id": "v1", "weight": 0}],
            "edges": [{"id": f"e{i}", "ends": ["v0", "v1"]} for i in range(n_edges)],
            "legs": {"0": "v0"},
        }
    )


class Instance:
    """One instance with the merged cones of every contracted fan it needed,
    embedded in its own edge space.  shape: how many positive points and
    points with zeros to locate."""

    def __init__(self, g, v0, mu, d0, shape):
        self.g, self.v0, self.mu, self.d0, self.shape = g, v0, mu, d0, shape
        self.fans = {}

    def cones(self, zeros):
        if zeros not in self.fans:
            spec = contract(self.g, zeros)
            d2 = {v: 0 for v in spec.target.vertex_ids}
            for v in self.g.vertex_ids:
                d2[spec(v)] += self.d0[v]
            pairs = enumerate_admissible(
                spec.target,
                spec(self.v0),
                self.mu.pushforward(spec),
                Divisor.of(spec.target, d2),
            )
            self.fans[zeros] = [
                merged_cone(spec.target, p, ambient_edges=self.g.edge_ids, spec_contracted=zeros)
                for p in pairs
            ]
        return self.fans[zeros]

    def oracle(self, point):
        """The unique cone whose open interior holds the point, by scanning
        every cone, and the split of the point."""
        zeros = frozenset(e for e, x in point.items() if x == 0)
        denom = math.lcm(*(Fraction(x).denominator for x in point.values()))
        ipoint = tuple(int(Fraction(point[e]) * denom) for e in self.g.edge_ids)
        hits = [c for c in self.cones(zeros) if c.cone.contains_interior(ipoint)]
        assert len(hits) == 1, f"{len(hits)} open cones hold {point}"
        (hit,) = hits
        return hit, {e: Fraction(v, denom) for e, v in hit.split_point(ipoint).items()}


def _instances(random_instances):
    theta = _parallel(3)
    banana = _parallel(4)
    out = [
        Instance(
            theta, "v0", Polarization.zero(theta), Divisor.of(theta, {"v0": 8, "v1": -8}), (6, 3)
        )
    ]
    for m in (Fraction(1, 3), Fraction(-1, 3)):
        out.append(
            Instance(
                banana,
                "v0",
                Polarization.of(banana, {"v0": m, "v1": -m}),
                Divisor.of(banana, {"v0": 2, "v1": -2}),
                (4, 2),
            )
        )
    # cheap to scan but costly to enumerate: few points each
    out.extend(Instance(g, v0, mu, d0, (2, 1)) for g, v0, mu, d0, _ in random_instances)
    return out


@pytest.fixture(scope="module")
def instances(random_instances):
    return _instances(random_instances)


def _points(rng, g, n_positive, n_with_zeros):
    """Integer points in 1..12, which often sit on walls of lower-dimensional
    cones, then points with zero coordinates."""
    out = []
    for _ in range(n_positive):
        out.append({e: rng.randint(1, 12) for e in g.edge_ids})
    for _ in range(n_with_zeros):
        out.append({e: rng.choice([0, rng.randint(1, 12)]) for e in g.edge_ids})
    return out


def test_locate_matches_exhaustive_scan(instances):
    """Both exhaustive routes agree with the lattice solve.  Every call
    checks uniqueness; every other call takes the quasistable
    pseudo-divisors in reverse."""
    rng = random.Random(2026)
    calls = 0
    for inst in instances:
        for i, point in enumerate(_points(rng, inst.g, *inst.shape)):
            hit, split = inst.oracle(point)
            cone, got = locate_point(
                inst.g, inst.v0, inst.mu, inst.d0, point, check_unique=True, reverse=i % 2 == 1
            )
            assert cone.key() == hit.key()
            assert cone.cone.rays == hit.cone.rays
            pair = cone.provenance
            assert split_rays(cone) == split_cone(pair.base, pair.eset, pair.flow)[0].rays
            assert cone == hit
            assert got == split
            assert pair_scan_locate(inst.g, inst.v0, inst.mu, inst.d0, point) == (cone, got)
            calls += 1
    assert calls == 9 + 2 * 6 + 20 * 3


def test_fast_path_premise_no_implicit_equalities(instances):
    """Row membership is exact only if no inverse row of a merged cone is an
    implicit equality, i.e. all of them are strict on the cone's span."""
    checked = 0
    for inst in instances:
        for ac in inst.cones(frozenset()):
            assert ac.cone.strict_rows == ac.cone.inequalities
            checked += 1
    assert checked > 295


def test_corrupted_inverse_row_rejected_under_optimize():
    """The inverse-row certificate is an explicit raise, so `python -O`,
    which strips assert statements, still rejects a corrupted row."""
    script = textwrap.dedent(
        """
        from tropabel.abelfan import _check_inverse, pair_rows
        from tropabel.worked import theta_instance, worked_pair

        if __debug__:
            raise SystemExit("not running under -O")
        g, mu, d0 = theta_instance()
        rows = pair_rows(g, worked_pair(g, mu, d0))
        order = rows.sub.result.edge_ids
        _check_inverse(rows.inverse_rows, order, rows.sub, rows.live_edges)
        bad = list(rows.inverse_rows)
        bad[0] = (bad[0][0] + 1,) + bad[0][1:]
        try:
            _check_inverse(bad, order, rows.sub, rows.live_edges)
        except AssertionError as exc:
            print("rejected:", exc)
        else:
            print("accepted")
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "rejected: inverse rows do not merge to the identity\n"


def test_abel_eval_matches_pair_scan_on_acceptance_instances(monkeypatch):
    """The 500 instances of acceptance 11: abel_eval through the lattice
    solve and through the pair scan give the same answer and split."""
    instances = list(abel_instances(random.Random(1111), 500))
    fast = [abel_eval(metric, inp) for metric, inp, _ in instances]

    def pair_scan_locate_pair(*args, **kwargs):
        cone, split = pair_scan_locate(*args, **kwargs)
        return cone.provenance, split

    monkeypatch.setattr(metric_mod, "locate_pair", pair_scan_locate_pair)
    for res, (metric, inp, _) in zip(fast, instances):
        slow = abel_eval(metric, inp)
        assert res.answer_key() == slow.answer_key()
        assert res.split_values == slow.split_values
        assert res.positions == slow.positions


@pytest.mark.parametrize("k, n_points", [(2, 5), (4, 5), (8, 5), (16, 4), (32, 3), (64, 1)])
def test_locate_matches_pair_scan_on_theta(k, n_points):
    """Theta with D0 = (k, -k): the pairs grow with k, the lattice solve
    does not; the last point of each batch of several has a zero."""
    g, v0, mu, d0 = parallel_instance(3, k, 0)
    rng = random.Random(900 + k)
    points = [
        {e: Fraction(rng.randint(1, 40), rng.randint(1, 5)) for e in g.edge_ids}
        for _ in range(n_points)
    ]
    if n_points > 1:
        points[-1][rng.choice(g.edge_ids)] = 0
    for i, point in enumerate(points):
        got = locate_point(g, v0, mu, d0, point, check_unique=True, reverse=i % 2 == 1)
        assert got == pair_scan_locate(g, v0, mu, d0, point), point


def test_locate_matches_pair_scan_on_seeded_instances():
    """Seeded random instances with loops and parallel edges, at points with
    about a fifth of their coordinates zero."""
    rng = random.Random(4242)
    zeros = 0
    for n in range(120):
        g, v0, mu, d0 = random_instance(rng, max_edges=6)
        for j in range(2):
            point = {
                e: 0 if rng.random() < 0.2 else Fraction(rng.randint(1, 12), rng.randint(1, 3))
                for e in g.edge_ids
            }
            zeros += 0 in point.values()
            got = locate_point(g, v0, mu, d0, point, check_unique=True, reverse=j == 1)
            assert got == pair_scan_locate(g, v0, mu, d0, point, check_unique=True), (n, point)
    assert zeros > 60


def test_lazy_walk_matches_pair_scan_in_every_mode():
    """The walk from the largest edge set down, its reverse and the full
    walk of check_unique all find the pair-scan oracle's cone and split, on
    parallel-edge graphs, the `abel` cycle-with-pendant shape and seeded
    random graphs, at positive points and points with zero coordinates."""
    rng = random.Random(1102)
    instances = [
        parallel_instance(3, 4, 0),
        parallel_instance(4, 2, Fraction(1, 3)),
        parallel_instance(4, 2, Fraction(-1, 5)),
    ]
    instances += [pendant_cycle_instance(rng) for _ in range(3)]
    instances += [random_instance(rng, max_edges=5) for _ in range(40)]
    zeros = 0
    for g, v0, mu, d0 in instances:
        for j in range(3):
            point = {e: Fraction(rng.randint(1, 12), rng.randint(1, 3)) for e in g.edge_ids}
            if j == 2:
                point.update((e, 0) for e in g.edge_ids if rng.random() < 0.4)
            zeros += 0 in point.values()
            want = pair_scan_locate(g, v0, mu, d0, point, check_unique=True)
            for mode in ({}, {"reverse": True}, {"check_unique": True}):
                assert locate_point(g, v0, mu, d0, point, **mode) == want, (g, point, mode)
    assert zeros > 15


def _lattice_bound(g, v0, mu, lengths):
    """An upper bound, from the lengths alone, on the lattice points tested
    at a positive point.  Per nondisconnecting E, lam on E lies in an open
    box of width w_e = sum_f |(Q^-1)_ef| l_f along e (e, f in E, with
    Q = C diag(l) C^T over the cycles avoiding E's tree), which holds at
    most ceil(w_e) integers; w_e <= |E|, since l_f (Q^-1)_ef is a transfer
    current.  Each quasistable D with that E moves the box."""
    bound = 0
    for pd in enumerate_quasistable(g, v0, mu).elements:
        if not g.is_nondisconnecting(pd.eset):
            continue
        cycles = cycle_basis(g, avoid=pd.eset).cycles
        vecs = [dict(vec) for _, vec in cycles]
        q = [
            [sum(a.get(f, 0) * b.get(f, 0) * lengths[f] for f in g.edge_ids) for b in vecs]
            for a in vecs
        ]
        q_inv = inverse(q)
        on = [i for i, (e, _) in enumerate(cycles) if e in pd.eset]
        count = 1
        for i in on:
            width = sum(abs(q_inv[i][j]) * lengths[cycles[j][0]] for j in on)
            assert width <= len(on)
            count *= math.ceil(width)
        bound += count
    return bound


@pytest.mark.parametrize(
    "point",
    [{"e0": 3, "e1": 5, "e2": 7}, {"e0": Fraction(7, 3), "e1": Fraction(11, 5), "e2": 2}],
)
def test_lattice_work_is_bounded_by_the_lengths(point):
    """On theta the lattice points tested (with check_unique, so every
    (E, D)) stay under one bound computed from the lengths, whatever k."""
    tested = {}
    for k in (2, 8, 64):
        g, v0, mu, d0 = parallel_instance(3, k, 0)
        tested[k] = _locate(g, v0, mu, d0, point, False, True, 1 << 20)[3]["lattice points"]
    bound = _lattice_bound(g, v0, mu, point)
    assert bound < 20
    assert all(0 < n <= bound for n in tested.values()), (tested, bound)


def test_check_unique_tests_every_pseudo_divisor_and_rejects_a_second_hit(monkeypatch):
    g, v0, mu, d0 = parallel_instance(3, 8, 0)
    point = {"e0": 3, "e1": 5, "e2": 7}
    calls = []
    genuine = _EdgeSetSolve.flows

    def counted(self, target):
        calls.append(target)
        yield from genuine(self, target)

    monkeypatch.setattr(_EdgeSetSolve, "flows", counted)
    cone, split = locate_point(g, v0, mu, d0, point, check_unique=True)
    poset = enumerate_quasistable(g, v0, mu)
    assert len(calls) == sum(g.is_nondisconnecting(pd.eset) for pd in poset.elements) == 12
    calls.clear()
    assert locate_point(g, v0, mu, d0, point) == (cone, split)
    assert len(calls) <= 12

    def twice(self, target):
        for flow in genuine(self, target):
            yield flow
            if flow is not None:
                yield flow

    monkeypatch.setattr(_EdgeSetSolve, "flows", twice)
    assert locate_point(g, v0, mu, d0, point) == (cone, split)
    with pytest.raises(AssertionError, match="point lies in two open cones"):
        locate_point(g, v0, mu, d0, point, check_unique=True)


def test_locate_cap_counts_candidate_checks_and_lattice_points():
    """The cap counts the candidate checks of the kernels the walk builds
    plus the lattice points tested.  On theta (8,-8) the largest edge set
    tried first holds the point, so the default walk does one of each; with
    check_unique every nondisconnecting edge set is checked."""
    g, v0, mu, d0 = parallel_instance(3, 8, 0)
    point = {"e0": 3, "e1": 5, "e2": 7}
    for check_unique, checks, points in ((False, 1, 1), (True, 12, 11)):
        work = _locate(g, v0, mu, d0, point, False, check_unique, 1 << 20)[3]
        assert work == {"candidate checks": checks, "lattice points": points}
        got = locate_point(g, v0, mu, d0, point, check_unique=check_unique)
        cap = checks + points
        assert locate_point(g, v0, mu, d0, point, check_unique=check_unique, cap=cap) == got
        with pytest.raises(DeskScaleError) as exc:
            locate_point(g, v0, mu, d0, point, check_unique=check_unique, cap=cap - 1)
        assert str(exc.value) == (
            f"locate: {checks} candidate checks and {points} lattice points "
            f"exceed the cap of {cap - 1}"
        )


def test_corrupted_lattice_candidate_rejected_under_optimize():
    """The lattice route's three certificates are explicit raises, so
    `python -O` still rejects a candidate whose flow has the wrong divisor,
    one whose cone misses the point, and a second hit."""
    script = textwrap.dedent(
        """
        from tropabel import abelfan
        from tropabel.worked import theta_instance

        if __debug__:
            raise SystemExit("not running under -O")
        g, mu, d0 = theta_instance()
        point = {"e0": 2, "e1": 2, "e2": 3}
        genuine = abelfan._EdgeSetSolve.flows

        def move_unit(solve, flow):
            flow["e2"] += 1
            return [flow]

        def add_cycle(solve, flow):
            for f, c in solve.cycles[-1].items():
                for h in solve.sub.halves.get(f, (f,)):
                    flow[h] -= c
            return [flow]

        def twice(solve, flow):
            return [flow, flow]

        for change in (move_unit, add_cycle, twice):
            def flows(self, target):
                for flow in genuine(self, target):
                    yield from [None] if flow is None else change(self, dict(flow))

            abelfan._EdgeSetSolve.flows = flows
            try:
                abelfan.locate_point(g, "v0", mu, d0, point, check_unique=True)
            except AssertionError as exc:
                print("rejected:", exc)
            else:
                print("accepted")
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "rejected: a lattice candidate's flow has the wrong divisor\n"
        "rejected: a lattice candidate lies outside its open cone\n"
        "rejected: point lies in two open cones\n"
    )
