"""Point location from each pair's rows, checked against the exhaustive scan
of merged cones it replaces: build every cone of the (contracted) fan and
keep the one whose relative interior holds the point."""

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from tropabel.abelfan import locate_point, merged_cone
from tropabel.divisor import Divisor, Polarization
from tropabel.flow import enumerate_admissible
from tropabel.graph import build_graph, contract

SRC = Path(__file__).resolve().parents[1] / "src"


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
    """Every call checks uniqueness; every other call scans the pairs in
    reverse."""
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
            assert cone.split == hit.split
            assert cone == hit
            assert got == split
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
