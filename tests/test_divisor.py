import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from tropabel.divisor import (
    Divisor,
    Polarization,
    PseudoDivisor,
    _CutTester,
    _QuasistableRoutes,
    _quasistable_on_graph,
    _value_windows,
    beta,
    contract_pushforward,
    edge_sets,
    enumerate_quasistable,
    is_quasistable,
    nondisconnecting_edge_sets,
    quasistable_with_edge_set,
)
from tropabel.errors import DeskScaleError, ValidationError, WorkCap
from tropabel.graph import Graph, contract, exceptional_id, subdivide

from conftest import (
    cycle_instance,
    parallel_instance,
    pendant_cycle_instance,
    random_connected_graph,
    random_instance,
    random_polarization,
)

SRC = Path(__file__).resolve().parents[1] / "src"


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
        PseudoDivisor.of(theta, {"e1"}, {"v0": 1, "v1": 0, "x:e0": -1}, other)


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


def test_pushforward_identity(theta):
    mu = Polarization.zero(theta)
    pd = PseudoDivisor.of(theta, {"e0"}, {"v0": 1, "v1": 0, "x:e0": -1})
    out, _ = contract_pushforward(pd, set())
    assert out.canonical_key() == pd.canonical_key()


def test_pushforward_contract_e2(theta):
    pd = PseudoDivisor.of(theta, {"e0", "e1"}, {"v0": 1, "v1": 1, "x:e0": -1, "x:e1": -1})
    out, _ = contract_pushforward(pd, {"e2"})
    assert out.eset == {"e0", "e1"}
    assert out.degree() == pd.degree()
    v = out.base.vertex_ids[0]
    assert out.divisor[v] == 2
    assert out.divisor["x:e0"] == -1 and out.divisor["x:e1"] == -1


def test_pushforward_full_contraction(theta):
    pd = PseudoDivisor.of(theta, set(), {"v0": 3, "v1": -3})
    out, _ = contract_pushforward(pd, set(theta.edge_ids))
    assert out.eset == frozenset()
    assert out.degree() == 0


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
    return PseudoDivisor.of(spec.target, new_e, vals, newsub)


def test_contract_pushforward_matches_fiber_sums_and_former_routes():
    """On quasistable pseudo-divisors of seeded random graphs, zsets mixing
    whole base edges and single halves: the face divisor is the fiber sum
    along the returned vertex map, of the same degree, with -1 at every
    surviving exceptional vertex, and it equals the single-half oracle run
    on each half followed by the whole-edge oracle."""
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
            face, along = contract_pushforward(pd, _whole(pd, whole) | set(halves.values()))
            assert along.source == sub.result and along.target == face.subdivision.result
            for w in along.target.vertex_ids:
                fiber = [v for v in sub.result.vertex_ids if along(v) == w]
                assert face.divisor[w] == sum(pd.divisor[v] for v in fiber)
            assert face.degree() == pd.degree()
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
    top = poset.index(
        PseudoDivisor.of(theta, {"e0", "e1"}, {"v0": 1, "v1": 1, "x:e0": -1, "x:e1": -1})
    )
    mid_l = poset.index(PseudoDivisor.of(theta, {"e0"}, {"v0": 1, "v1": 0, "x:e0": -1}))
    mid_r = poset.index(PseudoDivisor.of(theta, {"e0"}, {"v0": 0, "v1": 1, "x:e0": -1}))
    bot = {
        vals: poset.index(PseudoDivisor.of(theta, set(), dict(vals)))
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
    assert poset.elements[0].degree() == 0


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
            if _quasistable_on_graph(div, "v0", lifted):
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


def _min_beta(div, pol):
    verts = div.graph.vertex_ids
    return min(
        beta(div, pol, vs) for r in range(1, len(verts)) for vs in combinations(verts, r)
    )


def _check_tester(tester, div, v0, pol):
    """The cut tester against the subset oracle on one graph: same verdict,
    a genuinely violating set, and a minimizer of beta."""
    expect = _quasistable_on_graph(div, v0, pol)
    bad = tester.violation(div._map)
    assert (bad is None) == expect
    if bad is not None:
        b = beta(div, pol, bad)
        assert b < 0 or (b == 0 and v0 in bad)
    ok, b, vset = tester.minimum(div._map)
    assert ok == expect
    if len(div.graph.vertex_ids) == 1:
        assert (b, vset) == (None, None)
        return expect
    assert 0 < len(vset) < len(div.graph.vertex_ids)
    assert b == beta(div, pol, vset) == _min_beta(div, pol)
    # a minimizer holding v0 is reported whenever one exists
    assert ok == (b > 0 or (b == 0 and v0 not in vset))
    return expect


def _polarization_over(rng, g, degree, den):
    """Values over the denominator `den`, with integer total."""
    vals = {v: Fraction(rng.randint(-6, 6), den) for v in g.vertex_ids}
    vals[g.vertex_ids[0]] += degree - sum(vals.values())
    return Polarization.of(g, vals)


def test_cut_tester_matches_subset_oracle_on_both_routes():
    """Seeded graphs with loops, parallel edges and single vertices, every
    edge set E (disconnecting ones included), D at both ends of each window
    and one step outside it: each route's cut tester agrees with the subset
    loop, and the routes together agree with is_quasistable's definition."""
    rng = random.Random(4242)
    seen = {"loop": 0, "parallel": 0, "single": 0, "disconnecting": 0, "kept": 0, "scale": set()}
    for i in range(60):
        g = random_connected_graph(rng, max_edges=4, max_extra_vertices=2)
        v0 = rng.choice(g.vertex_ids)
        pol = _polarization_over(rng, g, rng.randint(-2, 2), 1 + i % 4)
        seen["loop"] += any(g.is_loop(e) for e in g.edge_ids)
        seen["parallel"] += len({pair for _, pair in g.edges}) < len(g.edges)
        seen["single"] += len(g.vertex_ids) == 1
        for eset in edge_sets(g):
            routes = _QuasistableRoutes(g, eset, v0, pol)
            seen["scale"].add(routes.direct.scale)
            sub = routes.sub
            windows = _value_windows(sub, routes.lifted, g.vertex_ids)
            ends = {
                v: (w.start - 1, w.start, w.stop - 1, w.stop) if len(w) else (w.start,)
                for v, w in windows.items()
            }
            disconnecting = not g.is_nondisconnecting(eset)
            seen["disconnecting"] += disconnecting
            reduced_pol = pol.removed_edges_shift(eset)
            reduced_tester = _CutTester(reduced_pol.graph, reduced_pol, v0)
            for _ in range(3):
                vals = {v: rng.choice(ends[v]) for v in g.vertex_ids}
                vals[g.vertex_ids[0]] += pol.degree() + len(eset) - sum(vals.values())
                vals.update({x: -1 for x in sub.exceptional})
                div = Divisor.of(sub.result, vals)
                direct = _check_tester(routes.direct, div, v0, routes.lifted)
                # G - E is tested even when disconnected; the route
                # itself then rejects
                reduced_div = div.restrict_to(reduced_pol.graph)
                via_removal = _check_tester(reduced_tester, reduced_div, v0, reduced_pol)
                via_removal = via_removal and not disconnecting
                assert direct == via_removal
                assert routes.accepts(vals) == direct
                assert (routes.reduced is None) == disconnecting
                seen["kept"] += direct
    assert seen["loop"] and seen["parallel"] and seen["single"]
    assert seen["disconnecting"] and seen["kept"]
    assert seen["scale"] == {1, 2, 3, 4}


def test_cut_tester_zero_beta_ties():
    """beta = 0 on a set holding v0 rejects; on a set without v0 it does
    not, and the reported minimizer says which case holds."""
    g = Graph((("a", 0), ("b", 0)), (("e0", ("a", "b")), ("e1", ("a", "b"))), ((0, "a"),))
    pol = Polarization.zero(g)
    tester = _CutTester(g, pol, "a")
    rejected = Divisor.of(g, {"a": -1, "b": 1})
    assert beta(rejected, pol, {"a"}) == 0
    assert tester.violation(rejected._map) == frozenset({"a"})
    assert tester.minimum(rejected._map) == (False, 0, frozenset({"a"}))
    assert not _quasistable_on_graph(rejected, "a", pol)
    accepted = Divisor.of(g, {"a": 1, "b": -1})
    assert beta(accepted, pol, {"b"}) == 0
    assert tester.violation(accepted._map) is None
    assert tester.minimum(accepted._map) == (True, 0, frozenset({"b"}))
    assert _quasistable_on_graph(accepted, "a", pol)
    assert is_quasistable(PseudoDivisor.of(g, set(), {"a": 1, "b": -1}), "a", pol)
    assert not is_quasistable(PseudoDivisor.of(g, set(), {"a": -1, "b": 1}), "a", pol)


def test_certificates_survive_optimize():
    """The certificates on the enumeration path are explicit raises, so
    `python -O`, which strips assert statements, still trips them: a forced
    disagreement of the two quasistability routes, a pushforward leaving the
    poset, an admissible pair produced twice, divisors on different graphs, a flow divisor of nonzero degree,
    a non-unimodular integer inverse, contraction Betti numbers breaking the
    partition identity, and a dependent cycle basis."""
    script = textwrap.dedent(
        """
        from types import SimpleNamespace

        from tropabel import divisor, flow, graph, linalg
        from tropabel.divisor import Divisor, Polarization, PseudoDivisor
        from tropabel.worked import theta_graph

        if __debug__:
            raise SystemExit("not running under -O")
        g = theta_graph()
        mu = Polarization.zero(g)

        def attempt(label, fn):
            try:
                fn()
            except AssertionError as exc:
                print(label, "rejected:", exc)
            else:
                print(label, "accepted")

        class Accepts:
            def violation(self, values):
                return None

        routes = divisor._QuasistableRoutes(g, frozenset(), "v0", mu)
        routes.reduced = Accepts()
        attempt("routes", lambda: routes.accepts({"v0": 2, "v1": -2}))

        stray = PseudoDivisor.of(g, set(), {"v0": 9, "v1": -9})
        real = divisor.contract_pushforward
        divisor.contract_pushforward = lambda pd, zset, subdivision=None: (stray, None)
        attempt("pushforward", lambda: divisor.enumerate_quasistable(g, "v0", mu))
        divisor.contract_pushforward = real

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
        attempt("div_flow", lambda: flow.div_flow(flow.FlowAssignment.zero(g)))

        attempt("int_inverse", lambda: linalg._int_inverse([[2]]))

        real_contract = graph.contract
        graph.contract = lambda g, e: SimpleNamespace(target=SimpleNamespace(b1=lambda: -1))
        attempt("graph_stats", lambda: graph.graph_stats(g, {"v0"}, {"e0"}))
        graph.contract = real_contract

        graph.rank = lambda rows: 0
        attempt("cycle_basis", lambda: graph.cycle_basis(g))
        """
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "routes rejected: quasistability cross-check failed",
        "pushforward rejected: pushforward left the quasistable poset",
        "pairs rejected: an admissible pair was produced twice",
        "add rejected: divisors live on different graphs",
        "sub rejected: divisors live on different graphs",
        "div_flow rejected: divisor of a flow has nonzero degree",
        "int_inverse rejected: matrix is not unimodular",
        "graph_stats rejected: contraction Betti numbers break the partition identity",
        "cycle_basis rejected: fundamental cycles are linearly dependent",
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
            routes = _QuasistableRoutes(g, eset, v0, mu)
            windows = _value_windows(routes.sub, routes.lifted, g.vertex_ids)
            vals = {x: -1 for x in routes.sub.exceptional}
            for combo in product(*(windows[v] for v in g.vertex_ids)):
                if sum(combo) != mu.degree() + len(eset):
                    continue
                vals.update(zip(g.vertex_ids, combo))
                assert routes.direct.violation(vals) is not None, (g, eset, vals)
                rejected += 1
    assert rejected > 1000
