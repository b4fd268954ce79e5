import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from tropabel import divisor as divisor_mod
from tropabel.divisor import (
    Divisor,
    Polarization,
    PseudoDivisor,
    QuasistableRoutes,
    _check_flow,
    _CutTester,
    _max_flow,
    _tuples_of_sum,
    _value_windows,
    beta,
    edge_sets,
    enumerate_quasistable,
    is_quasistable,
    nondisconnecting_edge_sets,
    pushforward_vertex_map,
    quasistable_with_edge_set,
)
from tropabel.errors import DeskScaleError, ValidationError, WorkCap
from tropabel.graph import Graph, contract, exceptional_id, subdivide

from conftest import (
    cycle_instance,
    poset_index,
    parallel_instance,
    pendant_cycle_instance,
    random_connected_graph,
    random_instance,
    random_polarization,
    removed_edges_shift,
)
from face_oracle import contract_pushforward

SRC = Path(__file__).resolve().parents[1] / "src"


def quasistable_by_subsets(div, v0, pol):
    """Direct definition: beta >= 0 on proper subsets, strict when v0 inside.

    Exhaustive over all 2^|V| subsets; the oracle of the cut test."""
    verts = div.graph.vertex_ids
    for r in range(1, len(verts)):
        for subset in combinations(verts, r):
            b = beta(div, pol, subset)
            if b < 0 or (b == 0 and v0 in subset):
                return False
    return True


def pinned_violation(tester, values):
    """The cut test's former route, kept as the oracle of its single flow:
    one minimum cut per pinned pair, first v0 on the source side with each
    other vertex t on the sink side, halting at the strict bound offset + 1,
    then each other vertex s on the source side with v0 on the sink side,
    halting at the weak bound offset.  The first cut below its bound names
    the violating set, its source side; an acceptance checks the residual
    network of every pinned flow.  2(|V| - 1) flows per accepted divisor."""
    n = len(tester.vertices)
    src, snk = n, n + 1
    cap, offset = tester._network(values)
    big = sum(map(sum, cap)) + 1  # beyond any finite cut
    r = tester.root
    flows = []
    for first in (True, False):
        limit = offset + 1 if first else offset
        for other in range(n):
            if other == r:
                continue
            s, t = (r, other) if first else (other, r)
            pinned = [row[:] for row in cap]
            pinned[src][s] = pinned[t][snk] = big
            res = [row[:] for row in pinned]
            side = _max_flow(res, tester.nbrs, src, snk, limit)
            if side is not None:
                return tester._checked_violation(values, side)
            flows.append((pinned, res, limit))
    for pinned, res, limit in flows:
        _check_flow(pinned, res, src, snk, limit)
    return None


def test_beta_hand_value(theta):
    d = Divisor.of(theta, {"v0": 1, "v1": -1})
    mu = Polarization.zero(theta)
    assert beta(d, mu, {"v1"}) == Fraction(1, 2)


def test_beta_full_and_empty_vanish(theta):
    rng = random.Random(3)
    for _ in range(10):
        g = random_connected_graph(rng)
        mu = random_polarization(rng, g, degree=2)
        vals = {v: rng.randint(-3, 3) for v in g.vertex_ids}
        vals[g.vertex_ids[0]] += 2 - sum(vals.values())
        d = Divisor.of(g, vals)
        assert beta(d, mu, set(g.vertex_ids)) == 0
        assert beta(d, mu, set()) == 0


def test_beta_complementarity(theta):
    rng = random.Random(5)
    for _ in range(25):
        g = random_connected_graph(rng)
        mu = random_polarization(rng, g, degree=0)
        vals = {v: rng.randint(-3, 3) for v in g.vertex_ids}
        d = Divisor.of(g, vals)
        verts = list(g.vertex_ids)
        for r in range(len(verts) + 1):
            for vs in combinations(verts, r):
                comp = set(verts) - set(vs)
                lhs = beta(d, mu, vs) + beta(d, mu, comp)
                # beta(V) + beta(V^c) = delta_V + (deg D - deg mu)
                assert lhs == g.delta(vs) + d.degree() - mu.degree()


def test_pseudo_divisor_invariant(theta):
    with pytest.raises(ValidationError, match="must carry -1"):
        PseudoDivisor.of(theta, {"e0"}, {"v0": 1, "v1": 0, "x:e0": 0})


def test_pseudo_divisors_share_one_subdivision_per_edge_set(theta):
    poset = enumerate_quasistable(theta, "v0", Polarization.zero(theta))
    shared = {}
    for pd in poset.elements:
        assert shared.setdefault(pd.eset, pd.subdivision) is pd.subdivision
    assert len(shared) == 7
    other = subdivide(theta, {"e0"})
    with pytest.raises(ValidationError, match="not the E-subdivision"):
        PseudoDivisor(
            theta, frozenset({"e1"}), Divisor.of(other.result, {"v0": 1, "v1": 0, "x:e0": -1}), other
        )


def test_quasistable_figure_top(theta):
    mu = Polarization.zero(theta)
    pd = PseudoDivisor.of(theta, {"e0", "e1"}, {"v0": 1, "v1": 1, "x:e0": -1, "x:e1": -1})
    assert is_quasistable(pd, "v0", mu)


def test_quasistable_figure_bottom_row(theta):
    mu = Polarization.zero(theta)
    for vals in ({"v0": 1, "v1": -1}, {"v0": -1, "v1": 1}, {"v0": 0, "v1": 0}):
        pd = PseudoDivisor.of(theta, set(), vals)
        assert is_quasistable(pd, "v0", mu)
    pd = PseudoDivisor.of(theta, set(), {"v0": 2, "v1": -2})
    assert not is_quasistable(pd, "v0", mu)


def test_quasistable_rejects_disconnecting_eset(theta):
    mu = Polarization.zero(theta)
    pd = PseudoDivisor.of(
        theta,
        set(theta.edge_ids),
        {"v0": 2, "v1": 1, "x:e0": -1, "x:e1": -1, "x:e2": -1},
    )
    assert not is_quasistable(pd, "v0", mu)


def test_divisor_and_polarization_share_one_value_type(theta):
    """Divisors and polarizations are one vertex-value type: equal values
    still give unequal objects, each gate rejects floats and bools and
    names its own kind, and lift_to_subdivision and pushforward return the
    caller's class with the values of an inline oracle, on seeded graphs."""
    assert Divisor.of(theta, {"v0": 1, "v1": -1}) != Polarization.of(theta, {"v0": 1, "v1": -1})
    for bad in (0.5, 1.0, True):
        for cls in (Divisor, Polarization):
            with pytest.raises(ValidationError, match="bad"):
                cls.of(theta, {"v0": bad})
    with pytest.raises(ValidationError, match="divisor keys unknown vertex w"):
        Divisor.of(theta, {"w": 1})
    with pytest.raises(ValidationError, match="polarization keys unknown vertex w"):
        Polarization.of(theta, {"w": 1})
    rng = random.Random(18)
    for _ in range(40):
        g = random_connected_graph(rng, max_edges=5)
        sub = subdivide(g, {e for e in g.edge_ids if rng.random() < 0.5})
        spec = contract(g, {e for e in g.edge_ids if rng.random() < 0.4})
        d = Divisor.of(g, {v: rng.randint(-4, 4) for v in g.vertex_ids})
        for x, kind in ((d, int), (random_polarization(rng, g), Fraction)):
            lift = {v: x[v] if v in g.weight else 0 for v in sub.result.vertex_ids}
            push = {w: sum(x[v] for v in g.vertex_ids if spec(v) == w) for w in spec.target.vertex_ids}
            for out, graph, want in (
                (x.lift_to_subdivision(sub), sub.result, lift),
                (x.pushforward(spec), spec.target, push),
            ):
                assert type(out) is type(x) and out.graph == graph
                assert out.values == tuple(sorted(want.items()))
                assert all(type(c) is kind for _, c in out.values)


def test_pushforward_identity(theta):
    mu = Polarization.zero(theta)
    pd = PseudoDivisor.of(theta, {"e0"}, {"v0": 1, "v1": 0, "x:e0": -1})
    out, _ = contract_pushforward(pd, set())
    assert out.canonical_key() == pd.canonical_key()


def test_pushforward_contract_e2(theta):
    pd = PseudoDivisor.of(theta, {"e0", "e1"}, {"v0": 1, "v1": 1, "x:e0": -1, "x:e1": -1})
    out, _ = contract_pushforward(pd, {"e2"})
    assert out.eset == {"e0", "e1"}
    assert out.divisor.degree() == pd.divisor.degree()
    v = out.base.vertex_ids[0]
    assert out.divisor[v] == 2
    assert out.divisor["x:e0"] == -1 and out.divisor["x:e1"] == -1


def test_pushforward_full_contraction(theta):
    pd = PseudoDivisor.of(theta, set(), {"v0": 3, "v1": -3})
    out, _ = contract_pushforward(pd, set(theta.edge_ids))
    assert out.eset == frozenset()
    assert out.divisor.degree() == 0


def _whole(pd, eset):
    """Every edge of pd's subdivision over the base edges in eset."""
    halves = pd.subdivision.halves
    return {h for e in eset for h in halves.get(e, (e,))}


def test_pushforward_preserves_quasistability():
    rng = random.Random(17)
    done = 0
    while done < 20:
        g = random_connected_graph(rng, max_edges=4)
        mu = random_polarization(rng, g, degree=1)
        try:
            poset = enumerate_quasistable(g, g.leg_map[0], mu)
        except DeskScaleError:
            continue
        if not poset.elements:
            continue
        pd = rng.choice(poset.elements)
        eset = {e for e in g.edge_ids if rng.random() < 0.4}
        s = contract(g, eset)
        out, _ = contract_pushforward(pd, _whole(pd, eset))
        assert is_quasistable(out, s(g.leg_map[0]), mu.pushforward(s))
        done += 1


# --- the pseudo-divisor pushforwards contract_pushforward replaced, kept as
# oracles: one along a single half, one along whole base edges


def half_pushforward_oracle(pd, e, half):
    """Contract one half of e in E: its exceptional -1 moves to the half's
    other end, and E' = E - {e}."""
    sub = pd.subdivision
    assert e in pd.eset and half in sub.halves[e]
    x = exceptional_id(e)
    tail, head = sub.dir_map[half]
    absorbed = tail if tail != x else head
    vals = {v: pd.divisor[v] for v in sub.result.vertex_ids if v != x}
    vals[absorbed] += pd.divisor[x]
    return PseudoDivisor.of(pd.base, pd.eset - {e}, vals)


def whole_pushforward_oracle(spec, pd):
    """Contract whole base edges along a graph specialization: E' = E minus
    the contracted edges, and the values are summed over the fibers of the
    induced map on subdivisions, the exceptional vertex of a contracted
    edge going where its smaller end goes."""
    assert spec.source == pd.base
    new_e = frozenset(pd.eset - spec.contracted)
    newsub = subdivide(spec.target, new_e)
    vals = {v: 0 for v in newsub.result.vertex_ids}
    for v in pd.subdivision.result.vertex_ids:
        if v in pd.base.weight:
            vals[spec(v)] += pd.divisor[v]
        else:
            e = v[2:]  # strip the "x:" prefix
            if e in spec.contracted:
                vals[spec(pd.base.ends[e][0])] += pd.divisor[v]
            else:
                vals[v] += pd.divisor[v]
    return PseudoDivisor(spec.target, new_e, Divisor.of(newsub.result, vals), newsub)


def test_contract_pushforward_matches_fiber_sums_and_former_routes():
    """On quasistable pseudo-divisors of seeded random graphs, zsets mixing
    whole base edges and single halves: the face divisor is the fiber sum
    along the returned vertex map, of the same degree, with -1 at every
    surviving exceptional vertex, and it equals the single-half oracle run
    on each half followed by the whole-edge oracle, whose key
    pushforward_vertex_map reads with no graph built."""
    rng = random.Random(43)
    done = mixed = 0
    while done < 80:
        g = random_connected_graph(rng, max_edges=5)
        mu = random_polarization(rng, g, degree=rng.randint(-1, 2))
        try:
            poset = enumerate_quasistable(g, g.leg_map[0], mu, cap=20000)
        except DeskScaleError:
            continue
        subdivided = [pd for pd in poset.elements if pd.eset]
        for pd in rng.sample(subdivided, min(3, len(subdivided))):
            sub = pd.subdivision
            whole = {e for e in g.edge_ids if rng.random() < 0.3}
            halves = {
                e: rng.choice(sub.halves[e]) for e in sorted(pd.eset - whole) if rng.random() < 0.6
            }
            zset = _whole(pd, whole) | set(halves.values())
            face, along = contract_pushforward(pd, zset)
            assert along.source == sub.result and along.target == face.subdivision.result
            for w in along.target.vertex_ids:
                fiber = [v for v in sub.result.vertex_ids if along(v) == w]
                assert face.divisor[w] == sum(pd.divisor[v] for v in fiber)
            assert face.divisor.degree() == pd.divisor.degree()
            assert face.eset == pd.eset - whole - set(halves)
            assert all(face.divisor[x] == -1 for x in face.subdivision.exceptional)
            step = pd
            for e, h in sorted(halves.items()):
                step = half_pushforward_oracle(step, e, h)
            spec = contract(g, whole)
            old = whole_pushforward_oracle(spec, step)
            assert face.base == spec.target
            assert all(along(v) == spec(v) for v in g.vertex_ids)
            assert face.canonical_key() == old.canonical_key()
            assert pushforward_vertex_map(pd, zset)[3] == old.canonical_key()
            done += 1
            mixed += bool(whole) and bool(halves)
    assert mixed >= 15


def test_contract_pushforward_rejects_foreign_edges(theta):
    pd = PseudoDivisor.of(theta, {"e0"}, {"v0": 1, "v1": 0, "x:e0": -1})
    with pytest.raises(ValidationError, match="not an edge of the E-subdivision"):
        contract_pushforward(pd, {"e0"})


def test_divisor_pushforward_sums_fibers():
    """Divisor.pushforward against the definition: the value at a target
    vertex is the sum over the source vertices mapped to it."""
    rng = random.Random(29)
    for _ in range(40):
        g = random_connected_graph(rng, max_edges=5)
        d = Divisor.of(g, {v: rng.randint(-4, 4) for v in g.vertex_ids})
        s = contract(g, {e for e in g.edge_ids if rng.random() < 0.4})
        out = d.pushforward(s)
        assert out.graph == s.target
        for w in s.target.vertex_ids:
            assert out[w] == sum(d[v] for v in g.vertex_ids if s(v) == w)
        assert out.degree() == d.degree()


def test_theta_poset_figure_content(theta):
    """The labeled theta poset: 12 elements in layers 3/6/3, containing the
    six drawn elements with exactly the drawn covering arrows."""
    mu = Polarization.zero(theta)
    poset = enumerate_quasistable(theta, "v0", mu)
    by_size = {}
    for pd in poset.elements:
        by_size.setdefault(len(pd.eset), []).append(pd)
    assert len(poset.elements) == 12
    assert len(by_size.get(0, [])) == 3
    assert len(by_size.get(1, [])) == 6
    assert len(by_size.get(2, [])) == 3
    top = poset_index(
        poset, PseudoDivisor.of(theta, {"e0", "e1"}, {"v0": 1, "v1": 1, "x:e0": -1, "x:e1": -1})
    )
    mid_l = poset_index(poset, PseudoDivisor.of(theta, {"e0"}, {"v0": 1, "v1": 0, "x:e0": -1}))
    mid_r = poset_index(poset, PseudoDivisor.of(theta, {"e0"}, {"v0": 0, "v1": 1, "x:e0": -1}))
    bot = {
        vals: poset_index(poset, PseudoDivisor.of(theta, set(), dict(vals)))
        for vals in ((("v0", 1), ("v1", -1)), (("v0", 0), ("v1", 0)), (("v0", -1), ("v1", 1)))
    }
    covers = set(poset.covers)
    assert (top, mid_l) in covers and (top, mid_r) in covers
    assert (mid_l, bot[(("v0", 1), ("v1", -1))]) in covers
    assert (mid_l, bot[(("v0", 0), ("v1", 0))]) in covers
    assert (mid_r, bot[(("v0", 0), ("v1", 0))]) in covers
    assert (mid_r, bot[(("v0", -1), ("v1", 1))]) in covers
    # the drawn arrows are the only covers among those six elements
    six = {top, mid_l, mid_r} | set(bot.values())
    drawn = {
        (top, mid_l),
        (top, mid_r),
        (mid_l, bot[(("v0", 1), ("v1", -1))]),
        (mid_l, bot[(("v0", 0), ("v1", 0))]),
        (mid_r, bot[(("v0", 0), ("v1", 0))]),
        (mid_r, bot[(("v0", -1), ("v1", 1))]),
    }
    assert {c for c in covers if c[0] in six and c[1] in six} == drawn


def test_poset_single_vertex(single_vertex):
    mu = Polarization.zero(single_vertex)
    poset = enumerate_quasistable(single_vertex, "v", mu)
    assert len(poset.elements) == 1
    assert poset.elements[0].eset == frozenset()
    assert poset.elements[0].divisor.degree() == 0


def test_poset_bridge_graph():
    from tropabel.graph import Graph

    g = Graph((("a", 0), ("b", 0)), (("e", ("a", "b")),), ((0, "a"),))
    mu = Polarization.zero(g)
    poset = enumerate_quasistable(g, "a", mu)
    # E={e} disconnects, so only E=empty survives; brute force over beta:
    # (0,0) passes, (1,-1) fails strictness at {b}? beta({b}) = -1 + 1/2 < 0.
    keys = {pd.canonical_key() for pd in poset.elements}
    assert keys == {((), (("a", 0), ("b", 0)))}


def test_poset_agrees_with_bare_bruteforce():
    """Independent oracle: re-derive quasistability from the raw definition
    with no windowing or cross-checking."""
    rng = random.Random(29)
    for _ in range(8):
        g = random_connected_graph(rng, max_edges=3, max_extra_vertices=1)
        v0 = g.leg_map[0]
        mu = random_polarization(rng, g, degree=rng.randint(-1, 1))
        poset = enumerate_quasistable(g, v0, mu)
        got = {pd.canonical_key() for pd in poset.elements}
        expect = set()
        d = mu.degree()
        from itertools import combinations as combs, product

        for r in range(len(g.edge_ids) + 1):
            for eset in combs(g.edge_ids, r):
                sub = subdivide(g, frozenset(eset))
                lifted = mu.lift_to_subdivision(sub)
                base = list(g.vertex_ids)
                for vals in product(range(-6, 7), repeat=len(base)):
                    if sum(vals) != d + len(eset):
                        continue
                    dd = dict(zip(base, vals))
                    dd.update({x: -1 for x in sub.exceptional})
                    div = Divisor.of(sub.result, dd)
                    ok = True
                    verts = sub.result.vertex_ids
                    for rr in range(1, len(verts)):
                        for vsub in combs(verts, rr):
                            b = beta(div, lifted, vsub)
                            if (v0 in vsub and b <= 0) or b < 0:
                                ok = False
                                break
                        if not ok:
                            break
                    if ok:
                        expect.add((tuple(sorted(eset)), div.values))
        assert got == expect


def test_quasistable_on_refinement_has_sparse_exceptional_values(theta):
    """On the full subdivision with the lifted polarization, quasistable
    divisors take values in {0, -1} at exceptional vertices, with at most
    one -1 over each edge."""
    sub = subdivide(theta, set(theta.edge_ids))
    lifted = Polarization.zero(theta).lift_to_subdivision(sub)
    verts = sub.result.vertex_ids
    base = ["v0", "v1"]
    exceptional = sorted(sub.exceptional)
    found = 0
    for base_vals in product(range(-2, 3), repeat=2):
        for exc_vals in product(range(-2, 1), repeat=3):
            vals = dict(zip(base, base_vals))
            vals.update(dict(zip(exceptional, exc_vals)))
            if sum(vals.values()) != 0:
                continue
            div = Divisor.of(sub.result, vals)
            if quasistable_by_subsets(div, "v0", lifted):
                found += 1
                for x in exceptional:
                    assert vals[x] in (0, -1)
                # at most one -1 over each edge: one exceptional each here
    assert found > 0


def test_enumeration_cap(theta):
    mu = Polarization.zero(theta)
    with pytest.raises(DeskScaleError) as exc:
        enumerate_quasistable(theta, "v0", mu, cap=3)
    assert str(exc.value) == "quasistable pseudo-divisors: 4 candidate checks exceed the cap of 3"
    # the poset walks the nondisconnecting edge sets only: on the 5-cycle
    # that is 6 of the 32 edge sets and 276 candidate checks (752 over all)
    g, v0, mu, _ = cycle_instance(5, 0)
    assert enumerate_quasistable(g, v0, mu, cap=276).checks == 276
    with pytest.raises(DeskScaleError) as exc:
        enumerate_quasistable(g, v0, mu, cap=275)
    assert str(exc.value) == (
        "quasistable pseudo-divisors: 276 candidate checks exceed the cap of 275"
    )


def test_polarization_rejects_non_integer_degree(theta):
    with pytest.raises(ValidationError, match="not an integer"):
        Polarization.of(theta, {"v0": Fraction(1, 2), "v1": 0})


def test_polarization_degree_is_summed_once(theta, monkeypatch):
    """The integer degree is kept from the check in __post_init__, so
    degree() sums no values, and it takes no part in equality or hashing."""
    mu = Polarization.of(theta, {"v0": Fraction(3, 2), "v1": Fraction(-1, 2)})
    same = Polarization.of(theta, {"v1": Fraction(-1, 2), "v0": Fraction(3, 2)})
    zero = Polarization.zero(theta)

    def summed(self):
        raise AssertionError("degree() summed the values again")

    monkeypatch.setattr(divisor_mod._VertexValues, "degree", summed)
    assert mu.degree() == 1 and type(mu.degree()) is int
    assert mu == same and hash(mu) == hash(same)
    assert zero.degree() == 0


@pytest.fixture
def flow_calls(monkeypatch):
    """Counts of the library's _max_flow and _check_flow calls."""
    calls = {"flow": 0, "check": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(divisor_mod, "_max_flow", counted("flow", divisor_mod._max_flow))
    monkeypatch.setattr(divisor_mod, "_check_flow", counted("check", divisor_mod._check_flow))
    return calls


def _check_tester(tester, div, v0, pol, calls):
    """The cut tester against the subset oracle and the pinned route on one
    graph: same verdict, a genuinely violating set, and exactly one
    _max_flow per call, with _check_flow only on an acceptance."""
    expect = quasistable_by_subsets(div, v0, pol)
    calls.update(flow=0, check=0)
    bad = tester.violation(div._map)
    assert calls == {"flow": 1, "check": int(bad is None)}
    assert (bad is None) == expect == (pinned_violation(tester, div._map) is None)
    if bad is not None:
        assert 0 < len(bad) < len(div.graph.vertex_ids)
        b = beta(div, pol, bad)
        assert b < 0 or (b == 0 and v0 in bad)
    return expect


def _polarization_over(rng, g, degree, den):
    """Values over the denominator `den`, with integer total."""
    vals = {v: Fraction(rng.randint(-6, 6), den) for v in g.vertex_ids}
    vals[g.vertex_ids[0]] += degree - sum(vals.values())
    return Polarization.of(g, vals)


def test_cut_tester_matches_subset_oracle_on_both_routes(flow_calls):
    """Seeded graphs with loops, parallel edges and single vertices, every
    edge set E (disconnecting ones included), D at both ends of each window
    and one step outside it, zero-beta ties on sets with and without v0,
    and denominators 1 to 4: the library's cut tester on the E-subdivision
    and the reduction route's on G - E against mu_E (rebuilt from the test
    helpers removed_edges_shift and remove_edges) each agree with the subset
    loop and the pinned route, with each other and with accepts."""
    rng = random.Random(4242)
    seen = {"loop": 0, "parallel": 0, "single": 0, "disconnecting": 0, "kept": 0, "scale": set()}
    seen.update(tie_with_v0=0, tie_without_v0=0)
    for i in range(60):
        g = random_connected_graph(rng, max_edges=4, max_extra_vertices=2)
        v0 = rng.choice(g.vertex_ids)
        pol = _polarization_over(rng, g, rng.randint(-2, 2), 1 + i % 4)
        seen["loop"] += any(g.is_loop(e) for e in g.edge_ids)
        seen["parallel"] += len({pair for _, pair in g.edges}) < len(g.edges)
        seen["single"] += len(g.vertex_ids) == 1
        for eset in edge_sets(g):
            routes = QuasistableRoutes(g, eset, v0, pol)
            seen["scale"].add(routes.direct.scale)
            sub = routes.sub
            windows = _value_windows(sub, routes.lifted, g.vertex_ids)
            ends = {
                v: (w.start - 1, w.start, w.stop - 1, w.stop) if len(w) else (w.start,)
                for v, w in windows.items()
            }
            disconnecting = not g.is_nondisconnecting(eset)
            seen["disconnecting"] += disconnecting
            reduced_pol = removed_edges_shift(pol, eset)
            reduced_tester = _CutTester(reduced_pol.graph, reduced_pol, v0)
            for _ in range(3):
                vals = {v: rng.choice(ends[v]) for v in g.vertex_ids}
                vals[g.vertex_ids[0]] += pol.degree() + len(eset) - sum(vals.values())
                vals.update({x: -1 for x in sub.exceptional})
                div = Divisor.of(sub.result, vals)
                verts = sub.result.vertex_ids
                for r in range(1, len(verts)):
                    for x in combinations(verts, r):
                        if beta(div, routes.lifted, x) == 0:
                            seen["tie_with_v0" if v0 in x else "tie_without_v0"] += 1
                direct = _check_tester(routes.direct, div, v0, routes.lifted, flow_calls)
                # G - E is tested even when disconnected; the route
                # itself then rejects
                reduced_div = Divisor.of(
                    reduced_pol.graph, {v: div[v] for v in reduced_pol.graph.vertex_ids}
                )
                via_removal = _check_tester(
                    reduced_tester, reduced_div, v0, reduced_pol, flow_calls
                )
                via_removal = via_removal and not disconnecting
                assert direct == via_removal
                assert routes.accepts(vals) == direct
                assert (reduced_pol.graph.b0() != 1) == disconnecting
                seen["kept"] += direct
    assert seen["loop"] and seen["parallel"] and seen["single"]
    assert seen["disconnecting"] and seen["kept"]
    assert seen["tie_with_v0"] and seen["tie_without_v0"]
    assert seen["scale"] == {1, 2, 3, 4}


def test_cut_tester_zero_beta_ties():
    """beta = 0 on a set holding v0 rejects; on a set without v0 it does
    not."""
    g = Graph((("a", 0), ("b", 0)), (("e0", ("a", "b")), ("e1", ("a", "b"))), ((0, "a"),))
    pol = Polarization.zero(g)
    tester = _CutTester(g, pol, "a")
    rejected = Divisor.of(g, {"a": -1, "b": 1})
    assert beta(rejected, pol, {"a"}) == 0
    assert tester.violation(rejected._map) == frozenset({"a"})
    assert not quasistable_by_subsets(rejected, "a", pol)
    accepted = Divisor.of(g, {"a": 1, "b": -1})
    assert beta(accepted, pol, {"b"}) == 0
    assert tester.violation(accepted._map) is None
    assert quasistable_by_subsets(accepted, "a", pol)
    assert is_quasistable(PseudoDivisor.of(g, set(), {"a": 1, "b": -1}), "a", pol)
    assert not is_quasistable(PseudoDivisor.of(g, set(), {"a": -1, "b": 1}), "a", pol)


def test_is_quasistable_rejects_a_degree_other_than_the_polarizations(theta):
    """One flow decides quasistability only when beta vanishes on the whole
    vertex set, so a pseudo-divisor of another degree than mu is an error,
    not a verdict."""
    mu = Polarization.zero(theta)
    assert is_quasistable(PseudoDivisor.of(theta, set(), {"v0": 1, "v1": -1}), "v0", mu)
    for vals in ({"v0": 1, "v1": 0}, {"v0": -2, "v1": 1}):
        pd = PseudoDivisor.of(theta, set(), vals)
        with pytest.raises(ValidationError, match="degree is not the polarization's"):
            is_quasistable(pd, "v0", mu)
    pd = PseudoDivisor.of(theta, {"e0"}, {"v0": 1, "v1": -1, exceptional_id("e0"): -1})
    with pytest.raises(ValidationError, match="degree is not the polarization's"):
        is_quasistable(pd, "v0", mu)


def test_certificates_survive_optimize():
    """The certificates on the enumeration path are explicit raises, so
    `python -O`, which strips assert statements, still trips them: a cut
    side that violates nothing, a flow that leaves a negative residual
    capacity and one that falls short of its limit (the real flow accepts),
    a residual reach that overstates its coverage (the real one rejects), a pushforward
    leaving the poset, an admissible pair produced twice, divisors on
    different graphs, a flow divisor of nonzero degree, a non-unimodular
    integer inverse, an inverse from a corrupted elimination kernel (the
    real one is certified) and a cycle basis without a spanning tree."""
    script = textwrap.dedent(
        """

        from tropabel import divisor, flow, graph, linalg
        from tropabel.divisor import Divisor, Polarization, PseudoDivisor
        from tropabel.worked import theta_graph

        if __debug__:
            raise SystemExit("not running under -O")
        g = theta_graph()
        mu = Polarization.zero(g)
        half = Polarization.of(g, {"v0": "1/2", "v1": "-1/2"})

        def attempt(label, fn):
            try:
                fn()
            except AssertionError as exc:
                print(label, "rejected:", exc)
            else:
                print(label, "accepted")

        # (1, -1) is quasistable: beta({v0}) = 5/2 and beta({v1}) = 1/2
        routes = divisor.QuasistableRoutes(g, frozenset(), "v0", mu)
        real_flow = divisor._max_flow
        divisor._max_flow = lambda cap, nbrs, s, t, limit: [s, 0]
        attempt("cut_side", lambda: routes.accepts({"v0": 1, "v1": -1}))

        def leaky(cap, nbrs, s, t, limit):
            side = real_flow(cap, nbrs, s, t, limit)
            v = max(nbrs[s], key=cap[s].__getitem__)
            cap[s][v] -= 1
            cap[v][s] += 1
            return side

        divisor._max_flow = leaky
        attempt("leaky_flow", lambda: routes.accepts({"v0": 1, "v1": -1}))
        divisor._max_flow = lambda cap, nbrs, s, t, limit: None
        attempt("no_flow", lambda: routes.accepts({"v0": 1, "v1": -1}))
        divisor._max_flow = real_flow
        print("real_flow accepts:", routes.accepts({"v0": 1, "v1": -1}))

        # under mu = (1/2, -1/2), (-1, 1) has beta({v0}) = 0: a reach that
        # claims every vertex hides the tie from the walk, not the closure
        tied = divisor.QuasistableRoutes(g, frozenset(), "v0", half)
        real_reach = divisor._residual_reach
        divisor._residual_reach = lambda res, nbrs, starts: set(range(len(res)))
        attempt("reach", lambda: tied.accepts({"v0": -1, "v1": 1}))
        divisor._residual_reach = real_reach
        print("real reach rejects:", tied.direct.violation({"v0": -1, "v1": 1}))

        stray = ((), (("v0", 9), ("v1", -9)))
        real = divisor.pushforward_vertex_map
        divisor.pushforward_vertex_map = lambda pd, zset: (*real(pd, zset)[:3], stray)
        attempt("pushforward", lambda: divisor.enumerate_quasistable(g, "v0", mu))
        divisor.pushforward_vertex_map = real

        real_flows = flow.acyclic_flows

        def twice(graph, target):
            for fa in real_flows(graph, target):
                yield fa
                yield fa

        flow.acyclic_flows = twice
        d0 = Divisor.of(g, {"v0": 2, "v1": -2})
        attempt("pairs", lambda: flow.enumerate_admissible(g, "v0", mu, d0))
        flow.acyclic_flows = real_flows

        other = graph.subdivide(g, {"e0"}).result
        attempt("add", lambda: Divisor.of(g, {}).add(Divisor.of(other, {})))
        attempt("sub", lambda: Divisor.of(g, {}).sub(Divisor.of(other, {})))

        class Shifted(Divisor):
            @staticmethod
            def of(graph, mapping):
                return Shifted(graph, tuple(mapping.items()))

            def degree(self):
                return 1

        flow.Divisor = Shifted
        attempt("div_flow", lambda: flow.div_flow(flow.FlowAssignment(g, (), ())))

        attempt("int_inverse", lambda: linalg._int_inverse([[2]]))

        real_eliminate = linalg._eliminate

        def corrupted(m, ncols):
            out = real_eliminate(m, ncols)
            m[0][-1] += 1
            return out

        linalg._eliminate = corrupted
        attempt("inverse", lambda: linalg.inverse([[2, 1], [1, 1]]))
        linalg._eliminate = real_eliminate
        print("real inverse:", linalg.inverse([[2, 1], [1, 1]]))

        attempt(
            "cycle_basis",
            lambda: graph._check_cycles(graph.CycleBasis(g, frozenset(), graph.cycle_basis(g).cycles)),
        )
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "cut_side rejected: the violating set does not violate quasistability",
        "leaky_flow rejected: a residual capacity is negative",
        "no_flow rejected: the flow falls short of its limit",
        "real_flow accepts: True",
        "reach rejected: the residual closure of v0 misses a vertex",
        "real reach rejects: frozenset({'v0'})",
        "pushforward rejected: pushforward left the quasistable poset",
        "pairs rejected: an admissible pair was produced twice",
        "add rejected: divisors live on different graphs",
        "sub rejected: divisors live on different graphs",
        "div_flow rejected: divisor of a flow has nonzero degree",
        "int_inverse rejected: matrix is not unimodular",
        "inverse rejected: inverse certificate failed: rows @ m != den * I",
        "real inverse: ([(1, -1), (-1, 2)], 1)",
        "cycle_basis rejected: the cycles are not one per non-tree edge",
    ]


@pytest.mark.parametrize("bad", [0.5, 2.0, True, Fraction(1), "3"])
def test_divisor_rejects_values_that_are_not_ints(theta, bad):
    """Divisor.of(theta, {"v0": 0.5, "v1": -0.5}) was the zero divisor."""
    with pytest.raises(ValidationError, match="bad integer"):
        Divisor.of(theta, {"v0": bad, "v1": 0})


@pytest.mark.parametrize("bad", [0.1, 0.5, True, "0.5", None])
def test_polarization_rejects_floats_and_non_rationals(theta, bad):
    """Polarization.of(theta, {"v0": 0.1, ...}) read 0.1 as its binary
    expansion 3602879701896397/36028797018963968."""
    with pytest.raises(ValidationError, match="bad rational"):
        Polarization.of(theta, {"v0": bad, "v1": 0})


def test_divisor_and_polarization_accept_exact_values(theta):
    assert Divisor.of(theta, {"v0": 2, "v1": -2})["v1"] == -2
    pol = Polarization.of(theta, {"v0": "1/3", "v1": Fraction(-1, 3)})
    assert pol["v0"] == Fraction(1, 3) and pol.degree() == 0


def _kernel_instances():
    """(g, v0, mu) on parallel-edge graphs, the `abel` cycle-with-pendant
    shape and seeded random graphs with loops."""
    rng = random.Random(1101)
    out = [
        parallel_instance(n, 0, m)[:3]
        for n, m in ((3, 0), (4, Fraction(1, 3)), (4, Fraction(-1, 5)), (2, Fraction(1, 2)))
    ]
    out += [pendant_cycle_instance(rng)[:3] for _ in range(4)]
    out += [random_instance(rng, max_edges=5)[:3] for _ in range(60)]
    return out


def test_kernel_union_over_nondisconnecting_sets_is_the_poset():
    """The per-edge-set kernel yields each E's elements in canonical order.
    Run on every one of the 2^|E| edge sets, it finds nothing on the
    disconnecting ones, so its union is the poset, which walks the
    nondisconnecting E only and counts just their candidate checks."""
    for g, v0, mu in _kernel_instances():
        esets = list(nondisconnecting_edge_sets(g))
        assert esets == [e for e in edge_sets(g) if g.is_nondisconnecting(e)]
        work = WorkCap("kernel", 1 << 20, "candidate checks")
        union = []
        for eset in edge_sets(g):
            got = list(quasistable_with_edge_set(g, eset, v0, mu, work))
            keys = [pd.canonical_key() for pd in got]
            assert keys == sorted(keys)
            assert all(pd.eset == eset for pd in got)
            assert eset in esets or not got
            union += got
        poset = enumerate_quasistable(g, v0, mu)
        assert sorted(union, key=PseudoDivisor.canonical_key) == list(poset.elements)
        nondisconnecting = WorkCap("kernel", 1 << 20, "candidate checks")
        for eset in esets:
            list(quasistable_with_edge_set(g, eset, v0, mu, nondisconnecting))
        assert nondisconnecting.count == {"candidate checks": poset.checks}
        assert poset.checks <= work.count["candidate checks"]


def test_direct_route_rejects_every_candidate_on_disconnecting_sets():
    """On a disconnecting E the direct cut route of the E-subdivision finds
    a violated set for every candidate in the value windows, so location
    and the admissible pairs may skip those edge sets."""
    rejected = 0
    for g, v0, mu in _kernel_instances():
        for eset in edge_sets(g):
            if g.is_nondisconnecting(eset):
                continue
            routes = QuasistableRoutes(g, eset, v0, mu)
            windows = _value_windows(routes.sub, routes.lifted, g.vertex_ids)
            vals = {x: -1 for x in routes.sub.exceptional}
            for combo in product(*(windows[v] for v in g.vertex_ids)):
                if sum(combo) != mu.degree() + len(eset):
                    continue
                vals.update(zip(g.vertex_ids, combo))
                assert routes.direct.violation(vals) is not None, (g, eset, vals)
                rejected += 1
    assert rejected > 1000


def test_one_cut_network_per_tested_edge_set(monkeypatch):
    """The poset builds one _CutTester per edge set whose candidates it
    tests, on that edge set's subdivision, and none for an edge set with no
    candidate."""
    built = []
    real_init = _CutTester.__init__

    def spied(self, graph, pol, v0):
        built.append(graph)
        real_init(self, graph, pol, v0)

    monkeypatch.setattr(_CutTester, "__init__", spied)
    for g, v0, mu in _kernel_instances()[:20]:
        work = WorkCap("kernel", 1 << 20, "candidate checks")
        expected = [
            subdivide(g, eset).result
            for eset in nondisconnecting_edge_sets(g)
            if next(QuasistableRoutes(g, eset, v0, mu).candidates(work), None) is not None
        ]
        built.clear()
        enumerate_quasistable(g, v0, mu)
        assert built == expected


def test_degree_first_walk_is_the_filtered_window_product():
    """_tuples_of_sum yields exactly the tuples of the window product with
    the target sum, in the product's order: seeded windows, some of them
    empty, no windows at all, and rational or out-of-reach totals."""
    rng = random.Random(2501)
    yielded = 0
    for _ in range(600):
        windows = []
        for _ in range(rng.randint(0, 5)):
            lo = rng.randint(-3, 3)
            windows.append(range(lo, lo + rng.choice([0, 1, 1, 2, 3, 4])))
        lo = sum(w.start for w in windows)
        total = rng.choice([rng.randint(lo - 2, lo + 12), Fraction(2 * lo + 1, 2)])
        expected = [c for c in product(*windows) if sum(c) == total]
        assert list(_tuples_of_sum(windows, total)) == expected
        yielded += len(expected)
    assert list(_tuples_of_sum([], 0)) == [()] and list(_tuples_of_sum([], 1)) == []
    assert yielded


def test_candidates_are_the_filtered_window_product_on_every_edge_set():
    """On every edge set of the kernel instances, E = {} included, the
    candidates and their `candidate checks` count are those of the window
    product filtered by degree."""
    for g, v0, mu in _kernel_instances():
        for eset in edge_sets(g):
            routes = QuasistableRoutes(g, eset, v0, mu)
            windows = _value_windows(routes.sub, routes.lifted, g.vertex_ids)
            total = mu.degree() + len(eset)
            expected = [
                c for c in product(*(windows[v] for v in g.vertex_ids)) if sum(c) == total
            ]
            work = WorkCap("kernel", 1 << 20, "candidate checks")
            got = [tuple(vals[v] for v in g.vertex_ids) for vals in routes.candidates(work)]
            assert got == expected
            assert work.count == {"candidate checks": len(expected)}
