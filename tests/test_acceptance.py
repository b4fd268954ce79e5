"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Expected values are frozen from independent derivations (hand
evaluation of the defining formulas, brute-force enumeration, or the
section-count analysis of the bundled instance); tolerances are exact
everywhere, and the stated wall-clock budgets are asserted.
"""

import json
import random
import time
from itertools import combinations_with_replacement, product

import pytest

from tropabel import metric as metric_mod
from tropabel.abelfan import build_fan, expected_dim, locate_point, merged_cone, verify_fan
from tropabel.cli import main as cli_main
from tropabel.cone import dual_and_hilbert
from tropabel.divisor import Divisor, Polarization, PseudoDivisor, enumerate_quasistable
from tropabel.flow import acyclic_flows, enumerate_admissible
from tropabel.graph import Graph
from tropabel.metric import abel_eval
from tropabel.semigroup import (
    MonomialIdeal,
    boundary_functionals,
    model_symbolic_power,
    node_ring,
    ray_power_intersection,
    symbolic_power_ideal,
)
from tropabel.worked import theta_graph, theta_instance, worked_pair

from conftest import (
    abel_instances,
    contains_interior,
    graph_json,
    poset_index,
    random_connected_graph,
    random_instance,
    scaled_metric,
)
from flow_oracle import (
    acyclic_flows_by_orientations,
    acyclic_orientations,
    bruteforce_acyclic_flows,
    flows_with_divisor,
)
from ideal_oracle import intersect_many


def _report(number, text):
    print(f"[PASS] criterion {number}: {text}")


@pytest.fixture(scope="module")
def theta():
    return theta_graph()


@pytest.fixture(scope="module")
def theta_pairs():
    g, mu, d0 = theta_instance()
    return g, mu, d0, enumerate_admissible(g, "v0", mu, d0)


def test_acceptance_01_theta_poset(theta):
    """Quasistable poset of the bundled two-vertex instance: the six drawn
    elements with exactly the drawn covering arrows, inside the labeled
    poset forced by the definitions (12 elements in layers 3/6/3)."""
    start = time.monotonic()
    mu = Polarization.zero(theta)
    poset = enumerate_quasistable(theta, "v0", mu)
    elapsed = time.monotonic() - start
    layers = {}
    for pd in poset.elements:
        layers[len(pd.eset)] = layers.get(len(pd.eset), 0) + 1
    assert layers == {0: 3, 1: 6, 2: 3}
    top = poset_index(
        poset, PseudoDivisor.of(theta, {"e0", "e1"}, {"v0": 1, "v1": 1, "x:e0": -1, "x:e1": -1})
    )
    mid_l = poset_index(poset, PseudoDivisor.of(theta, {"e0"}, {"v0": 1, "v1": 0, "x:e0": -1}))
    mid_r = poset_index(poset, PseudoDivisor.of(theta, {"e0"}, {"v0": 0, "v1": 1, "x:e0": -1}))
    bots = {
        key: poset_index(poset, PseudoDivisor.of(theta, set(), dict(key)))
        for key in [
            (("v0", 1), ("v1", -1)),
            (("v0", 0), ("v1", 0)),
            (("v0", -1), ("v1", 1)),
        ]
    }
    drawn = {
        (top, mid_l),
        (top, mid_r),
        (mid_l, bots[(("v0", 1), ("v1", -1))]),
        (mid_l, bots[(("v0", 0), ("v1", 0))]),
        (mid_r, bots[(("v0", 0), ("v1", 0))]),
        (mid_r, bots[(("v0", -1), ("v1", 1))]),
    }
    six = {top, mid_l, mid_r} | set(bots.values())
    inside = {c for c in poset.covers if c[0] in six and c[1] in six}
    assert inside == drawn
    assert elapsed < 1.0
    _report(1, f"poset reproduced exactly ({len(poset.elements)} elements, {elapsed:.2f}s)")


def test_acceptance_02_worked_cone_via_cli(theta, tmp_path, capsys):
    """The fan of the bundled instance contains the worked maximal cone with
    the stated facet representation and extremal rays."""
    start = time.monotonic()
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(graph_json(theta)))
    out = tmp_path / "fan.json"
    code = cli_main(
        [
            "build-fan",
            "--graph",
            str(path),
            "--mu",
            "0",
            "--D0",
            "4,-4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    fan = json.loads(out.read_text())
    want_rays = sorted([[1, 1, 1], [1, 2, 2], [2, 1, 2], [1, 1, 2]])
    found = None
    for cone in fan["cones"]:
        if sorted(cone["rays"]) == want_rays and cone["id"] in fan["maximal"]:
            found = cone
            break
    assert found is not None
    # facet subset of the stored inequalities: exactly the four stated rows
    g, mu, d0 = theta_instance()
    ac = merged_cone(worked_pair(g, mu, d0))
    assert set(ac.cone.facet_rows) == {(2, 0, -1), (-1, 0, 1), (0, 2, -1), (0, -1, 1)}
    assert sorted(list(r) for r in ac.cone.rays) == want_rays
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(2, f"worked cone facets and rays exact ({elapsed:.2f}s)")


def test_acceptance_03_worked_ideal_values(theta_pairs):
    """Dual rays, the five-element dual-monoid basis, the four boundary
    functionals, the first symbolic power's generator list, and the
    four-fold intersection."""
    start = time.monotonic()
    g, mu, d0, pairs = theta_pairs
    pair = worked_pair(g, mu, d0)
    ring, ac = node_ring(pair, "e0")
    dual, hb = dual_and_hilbert(ac.cone)
    assert set(dual) == {(0, -1, 1), (2, 0, -1), (0, 2, -1), (-1, 0, 1)}
    assert set(hb) == {(0, -1, 1), (2, 0, -1), (0, 2, -1), (-1, 0, 1), (1, 1, -1)}
    bf0 = boundary_functionals(ac, "e0")
    bf1 = boundary_functionals(ac, "e1")
    assert (bf0.u_prime, bf0.u_second) == ((-1, 0, 1), (2, 0, -1))
    assert (bf1.u_prime, bf1.u_second) == ((0, -1, 1), (0, 2, -1))
    r1, r2, r3, r4 = (1, 1, 1), (2, 1, 2), (1, 2, 2), (1, 1, 2)
    i1 = symbolic_power_ideal(ring, r1, 2)
    z1 = ring.monomial((2, 0, -1))
    z2 = ring.monomial((0, 2, -1))
    z4 = ring.monomial((1, 1, -1))
    y = ring.y()
    want_i1 = {
        (y * y).key(),
        (y * z1).key(),
        (y * z2).key(),
        (y * z4).key(),
        (z1 * z1).key(),
        (z1 * z4).key(),
        (z4 * z4).key(),
        (z2 * z4).key(),
        (z2 * z2).key(),
    }
    assert {m.key() for m in i1.gens} == want_i1
    ideals = [
        i1,
        symbolic_power_ideal(ring, r2, 2),
        symbolic_power_ideal(ring, r3, 1),
        symbolic_power_ideal(ring, r4, 1),
    ]
    inter = intersect_many(ideals)
    assert {m.key() for m in inter.gens} == {(y * y).key(), (y * z1).key()}
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(3, f"dual rays, monoid basis, functionals, ideals exact ({elapsed:.2f}s)")


def test_acceptance_04_partition_property(theta_pairs, random_instances):
    """1000 sampled positive points per instance land in exactly one open
    cone, re-verified against every maximal cone independently."""
    rng = random.Random(404)
    g, mu, d0, pairs = theta_pairs
    instances = [(g, "v0", mu, d0, pairs)] + list(random_instances)
    failures = 0
    total = 0
    for gg, v0, mmu, dd0, ppairs in instances:
        cones = [merged_cone(p) for p in ppairs]
        for _ in range(1000):
            pt = tuple(rng.randint(1, 12) for _ in gg.edge_ids)
            hits = sum(1 for c in cones if contains_interior(c.cone, pt))
            total += 1
            if hits != 1:
                failures += 1
    assert failures == 0
    _report(4, f"partition holds at {total} sampled points over {len(instances)} instances")


def test_acceptance_05_dimension_formula(theta_pairs, random_instances):
    """Closed-form dimension equals the rank-computed dimension for every
    cone of every fan from the partition criterion."""
    g, mu, d0, pairs = theta_pairs
    instances = [(g, "v0", mu, d0, pairs)] + list(random_instances)
    checked = 0
    for gg, v0, mmu, dd0, ppairs in instances:
        fan = build_fan(gg, v0, mmu, dd0)
        for c in fan.cones:
            assert c.cone.dim == expected_dim(c.provenance), c.key()
            checked += 1
    assert checked > 100
    _report(5, f"dimension formula exact on {checked} cones")


def test_acceptance_06_fan_axioms(theta):
    """Face closure and pairwise intersections as common faces on the full
    fan of the bundled instance."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    fan = build_fan(theta, "v0", mu, d0)
    assert len(fan.maximal) == 55 and len(fan.cones) == 62
    verify_fan(fan, pairwise=True)
    _report(6, f"fan axioms verified constructively on {len(fan.cones)} cones")


def test_acceptance_07_split_merge_roundtrip(theta_pairs, random_instances):
    """The half-length inverse is integral and two-sidedly inverse to the
    merge on 100 random lattice points per cone."""
    rng = random.Random(707)
    g, mu, d0, pairs = theta_pairs
    instances = [(g, "v0", mu, d0, pairs)] + list(random_instances)
    cones_checked = 0
    for gg, v0, mmu, dd0, ppairs in instances:
        for p in ppairs:
            ac = merged_cone(p)
            sub = p.resulting_pd.subdivision
            rays = ac.cone.rays
            if not rays:
                continue
            for _ in range(100):
                coeffs = [rng.randint(0, 4) for _ in rays]
                pt = tuple(
                    sum(c * r[i] for c, r in zip(coeffs, rays))
                    for i in range(len(gg.edge_ids))
                )
                split = ac.split_point(pt)
                assert all(isinstance(v, int) and v >= 0 for v in split.values())
                merged = {}
                for e, v in split.items():
                    merged[sub.over_map[e]] = merged.get(sub.over_map[e], 0) + v
                assert all(
                    merged.get(e, 0) == pt[i] for i, e in enumerate(gg.edge_ids)
                )
            cones_checked += 1
    assert cones_checked > 60
    _report(7, f"integral split/merge roundtrip on {cones_checked} cones x 100 points")


def test_acceptance_08_ray_power_identity(theta_pairs):
    """Two-sided equality of the ray-wise symbolic-power intersection with
    its closed form, for every subdivided edge of the bundled fan plus ten
    randomized instances."""
    g, mu, d0, pairs = theta_pairs
    checked = 0
    for p in pairs:
        for e0 in sorted(p.eset):
            lhs, rhs = ray_power_intersection(p, e0)
            assert lhs.equals(rhs)
            checked += 1
    rng = random.Random(808)
    extra = 0
    while extra < 10:
        gg, v0, mmu, dd0 = random_instance(rng, max_edges=4)
        ppairs = enumerate_admissible(gg, v0, mmu, dd0)
        subdivided = [p for p in ppairs if p.eset]
        if not subdivided:
            continue
        p = rng.choice(subdivided)
        e0 = rng.choice(sorted(p.eset))
        lhs, rhs = ray_power_intersection(p, e0)
        assert lhs.equals(rhs)
        # also exercise an unsubdivided edge when one exists
        outside = [e for e in gg.edge_ids if e not in p.eset and not gg.is_loop(e)]
        if outside:
            lhs2, rhs2 = ray_power_intersection(p, outside[0])
            assert lhs2.equals(rhs2)
        extra += 1
    assert checked == 63
    _report(8, f"ray-power identity two-sided on {checked} bundled + {extra} random cases")


def test_acceptance_09_model_ring_powers():
    """Symbolic powers in the one-ray model ring collapse to the stated
    principal ideals."""
    for t in (1, 2, 3):
        for n in (1, 2):
            ideal, _ = model_symbolic_power(t, t * n)
            ring = ideal.ring
            assert ideal.equals(MonomialIdeal.of(ring, (ring.y() ** n,))), (t, n)
    _report(9, "model-ring symbolic powers exact for t in {1,2,3}, n in {1,2}")


def test_acceptance_10_flow_oracle():
    """Sink-peeling enumeration matches bounded brute force exactly: all
    loop-free multigraph shapes up to 3 edges exhaustively, plus a seeded
    family of digraphs with up to 5 edges and divisor entries up to 3.  On
    the same shapes, acyclic_flows yields each acyclic flow once and the
    same flows as the orientation route and as brute force."""

    def brute(graph, orient, tgt):
        bound = sum(max(tgt[v], 0) for v in graph.vertex_ids)
        edges = list(graph.edge_ids)
        out = []
        for vals in product(range(bound + 1), repeat=len(edges)):
            d = {v: 0 for v in graph.vertex_ids}
            for e, val in zip(edges, vals):
                s, t = orient[e]
                d[t] += val
                d[s] -= val
            if all(d[v] == tgt[v] for v in graph.vertex_ids):
                out.append(dict(zip(edges, vals)))
        return sorted(tuple(sorted(f.items())) for f in out)

    checked = generated = 0
    for nv in (2, 3):
        vids = [f"v{i}" for i in range(nv)]
        pool = [(a, b) for i, a in enumerate(vids) for b in vids[i + 1 :]]
        for ne in (1, 2, 3):
            for combo in combinations_with_replacement(range(len(pool)), ne):
                g = Graph(
                    tuple((v, 0) for v in vids),
                    tuple((f"e{i}", pool[c]) for i, c in enumerate(combo)),
                    ((0, vids[0]),),
                )
                if g.b0() != 1:
                    continue
                for vals in product(range(-2, 3), repeat=nv):
                    if sum(vals) != 0:
                        continue
                    tgt = Divisor.of(g, dict(zip(g.vertex_ids, vals)))
                    keys = [fa.canonical_key() for fa in acyclic_flows(g, tgt)]
                    assert len(set(keys)) == len(keys)
                    assert set(keys) == set(acyclic_flows_by_orientations(g, tgt))
                    assert set(keys) == set(bruteforce_acyclic_flows(g, tgt))
                    generated += 1
                for orient in acyclic_orientations(g):
                    for vals in product(range(-2, 3), repeat=nv):
                        if sum(vals) != 0:
                            continue
                        tgt = Divisor.of(g, dict(zip(g.vertex_ids, vals)))
                        got = sorted(
                            tuple(sorted(f.items()))
                            for f in flows_with_divisor(g, orient, tgt)
                        )
                        assert got == brute(g, orient, tgt)
                        checked += 1
    rng = random.Random(1010)
    extra = 0
    while extra < 60:
        g = random_connected_graph(rng, max_edges=5, allow_loops=False)
        orients = acyclic_orientations(g)
        if not orients:
            continue
        orient = rng.choice(orients)
        vals = [rng.randint(-3, 3) for _ in g.vertex_ids]
        vals[0] -= sum(vals)
        if any(abs(v) > 3 for v in vals) or sum(max(v, 0) for v in vals) > 4:
            continue
        tgt = Divisor.of(g, dict(zip(g.vertex_ids, vals)))
        got = sorted(
            tuple(sorted(f.items())) for f in flows_with_divisor(g, orient, tgt)
        )
        assert got == brute(g, orient, tgt)
        extra += 1
    assert generated > 200
    _report(
        10,
        f"flow enumeration matches brute force on {checked} exhaustive + {extra} random cases; "
        f"acyclic_flows matches both routes on {generated} shapes and divisors",
    )


def test_acceptance_11_abel_uniqueness_and_scaling(monkeypatch):
    """500 random metric-graph instances: the located answer is the only
    open cone holding the lengths (every candidate tested, check_unique),
    and scaling the lengths leaves it unchanged."""

    def locate_unique(g, v0, pol, d0, point):
        cone, split = locate_point(g, v0, pol, d0, point, check_unique=True)
        return cone.provenance, split

    done = 0
    for metric, inp, lam in abel_instances(random.Random(1111), 500):
        res = abel_eval(metric, inp)
        scaled = abel_eval(scaled_metric(metric, lam), inp)
        with monkeypatch.context() as patch:
            patch.setattr(metric_mod, "locate_pair", locate_unique)
            unique = abel_eval(metric, inp)
        assert scaled.answer_key() == res.answer_key()
        assert unique.answer_key() == res.answer_key()
        done += 1
    assert done == 500
    _report(11, "Abel evaluation unique and stable under scaling (500 instances)")
