import random
from fractions import Fraction
from itertools import product

import pytest

from tropabel.divisor import Divisor, Polarization, is_quasistable
from tropabel.errors import DeskScaleError, ValidationError
from tropabel.flow import (
    FlowAssignment,
    acyclic_flows,
    div_flow,
    enumerate_admissible,
    is_acyclic_flow,
)
from tropabel.graph import Graph, contract, subdivide

from conftest import (
    cycle_instance,
    parallel_instance,
    random_connected_graph,
    random_instance,
    random_polarization,
    zero_flow,
)
from flow_oracle import (
    acyclic_flows_by_orientations,
    acyclic_orientations,
    admissible_by_orientations,
    bruteforce_acyclic_flows,
    flows_with_divisor,
)


def _theta_subdivided_flow(theta):
    """The flow with values 1,2 across the two subdivided strands and 1 on
    the remaining edge, everything oriented v0-side to v1-side."""
    sub = subdivide(theta, {"e0", "e1"})
    orient = {
        "e0:a": ("v0", "x:e0"),
        "e0:b": ("x:e0", "v1"),
        "e1:a": ("v0", "x:e1"),
        "e1:b": ("x:e1", "v1"),
        "e2": ("v0", "v1"),
    }
    flow = {"e0:a": 1, "e0:b": 2, "e1:a": 1, "e1:b": 2, "e2": 1}
    return sub, FlowAssignment.of(sub.result, orient, flow)


def test_div_flow_figure_values(theta):
    sub, fa = _theta_subdivided_flow(theta)
    d = div_flow(fa)
    assert d["v0"] == -3
    assert d["v1"] == 5
    assert d["x:e0"] == -1
    assert d["x:e1"] == -1


def test_div_zero_flow(theta):
    assert div_flow(zero_flow(theta)).degree() == 0
    assert all(div_flow(zero_flow(theta))[v] == 0 for v in theta.vertex_ids)


def test_div_flow_path_telescopes():
    g = Graph((("a", 0), ("b", 0), ("c", 0)), (("e", ("a", "b")), ("f", ("b", "c"))), ((0, "a"),))
    fa = FlowAssignment.of(g, {"e": ("a", "b"), "f": ("b", "c")}, {"e": 1, "f": 1})
    d = div_flow(fa)
    assert (d["a"], d["b"], d["c"]) == (-1, 0, 1)


def test_is_acyclic_flow_figure(theta):
    _, fa = _theta_subdivided_flow(theta)
    assert is_acyclic_flow(fa)


def test_two_cycle_is_cyclic():
    g = Graph((("a", 0), ("b", 0)), (("e", ("a", "b")), ("f", ("a", "b"))), ((0, "a"),))
    fa = FlowAssignment.of(g, {"e": ("a", "b"), "f": ("b", "a")}, {"e": 1, "f": 1})
    assert not is_acyclic_flow(fa)


def test_zero_flow_acyclic(theta):
    assert is_acyclic_flow(zero_flow(theta))


def test_zero_contraction_can_create_cycle():
    # a->v, w->v, w->u with u,w joined by a zero edge: contracting it makes
    # a 2-cycle between {u,w} and v only if edges point both ways; build one
    g = Graph(
        (("u", 0), ("v", 0), ("w", 0)),
        (("e", ("u", "v")), ("f", ("v", "w")), ("z", ("u", "w"))),
        ((0, "u"),),
    )
    fa = FlowAssignment.of(g, {"e": ("u", "v"), "f": ("v", "w")}, {"e": 1, "f": 1, "z": 0})
    assert not is_acyclic_flow(fa)  # u~w after contraction, so u->v->u


def test_flows_with_divisor_path_forced():
    g = Graph((("a", 0), ("b", 0), ("c", 0)), (("e", ("a", "b")), ("f", ("b", "c"))), ((0, "a"),))
    orient = {"e": ("a", "b"), "f": ("b", "c")}
    target = Divisor.of(g, {"a": -1, "b": 0, "c": 1})
    flows = flows_with_divisor(g, orient, target)
    assert flows == [{"e": 1, "f": 1}]


def test_flows_with_divisor_parallel_split():
    g = Graph((("a", 0), ("b", 0)), (("e", ("a", "b")), ("f", ("a", "b"))), ((0, "a"),))
    orient = {"e": ("a", "b"), "f": ("a", "b")}
    target = Divisor.of(g, {"a": -2, "b": 2})
    flows = flows_with_divisor(g, orient, target)
    assert sorted((f["e"], f["f"]) for f in flows) == [(0, 2), (1, 1), (2, 0)]


def test_flows_with_divisor_negative_sink_empty():
    g = Graph((("a", 0), ("b", 0)), (("e", ("a", "b")),), ((0, "a"),))
    orient = {"e": ("a", "b")}
    target = Divisor.of(g, {"a": 1, "b": -1})
    assert flows_with_divisor(g, orient, target) == []


def test_flows_with_divisor_rejects_cycle():
    g = Graph((("a", 0), ("b", 0)), (("e", ("a", "b")), ("f", ("a", "b"))), ((0, "a"),))
    orient = {"e": ("a", "b"), "f": ("b", "a")}
    with pytest.raises(ValidationError, match="directed cycle"):
        flows_with_divisor(g, orient, Divisor.of(g, {"a": 0, "b": 0}))


def _bruteforce_flows(graph, orient, target):
    bound = sum(max(target[v], 0) for v in graph.vertex_ids)
    edges = list(graph.edge_ids)
    out = []
    for vals in product(range(bound + 1), repeat=len(edges)):
        d = {v: 0 for v in graph.vertex_ids}
        for e, val in zip(edges, vals):
            s, t = orient[e]
            d[t] += val
            d[s] -= val
        if all(d[v] == target[v] for v in graph.vertex_ids):
            out.append(dict(zip(edges, vals)))
    return out


def _small_shapes(loops=False):
    """Every multigraph shape on 2..3 vertices with 1..3 edges between
    distinct vertices (edge multisets), connected; with `loops`, each shape
    also gets a loop at its last vertex."""
    from itertools import combinations_with_replacement

    shapes = []
    for nv in (2, 3):
        vids = [f"v{i}" for i in range(nv)]
        pairs = [(a, b) for i, a in enumerate(vids) for b in vids[i + 1 :]]
        for ne in (1, 2, 3):
            for combo in combinations_with_replacement(range(len(pairs)), ne):
                edges = tuple((f"e{i}", pairs[c]) for i, c in enumerate(combo))
                if loops:
                    edges += (("l", (vids[-1], vids[-1])),)
                g = Graph(tuple((v, 0) for v in vids), edges, ((0, vids[0]),))
                if g.b0() == 1:
                    shapes.append(g)
    return shapes


def test_flows_match_bruteforce_exhaustive_small():
    # every loop-free multigraph shape on 2..3 vertices with <= 3 edges
    # (edge multisets, since edge labels do not matter here), every acyclic
    # orientation, every degree-0 divisor with entries bounded by 2
    checked = 0
    for g in _small_shapes():
        for orient in acyclic_orientations(g):
            for vals in product(range(-2, 3), repeat=len(g.vertex_ids)):
                if sum(vals) != 0:
                    continue
                target = Divisor.of(g, dict(zip(g.vertex_ids, vals)))
                got = flows_with_divisor(g, orient, target)
                want = _bruteforce_flows(g, orient, target)
                assert sorted(tuple(sorted(f.items())) for f in got) == sorted(
                    tuple(sorted(f.items())) for f in want
                )
                checked += 1
    assert checked > 200


def test_flows_match_bruteforce_random_five_edges():
    rng = random.Random(101)
    done = 0
    while done < 40:
        g = random_connected_graph(rng, max_edges=5, allow_loops=False)
        orients = acyclic_orientations(g)
        if not orients:
            continue
        orient = rng.choice(orients)
        vals = [rng.randint(-3, 3) for _ in g.vertex_ids]
        vals[0] -= sum(vals)
        if any(abs(v) > 3 for v in vals):
            continue
        if sum(max(v, 0) for v in vals) > 4:
            continue  # keeps the brute-force grid small
        target = Divisor.of(g, dict(zip(g.vertex_ids, vals)))
        got = flows_with_divisor(g, orient, target)
        want = _bruteforce_flows(g, orient, target)
        assert sorted(tuple(sorted(f.items())) for f in got) == sorted(
            tuple(sorted(f.items())) for f in want
        )
        done += 1


def _generated(graph, target):
    """acyclic_flows as key -> flow, after checking that no key comes twice
    and that every flow is acyclic with the asked divisor."""
    flows = list(acyclic_flows(graph, target))
    keys = [fa.canonical_key() for fa in flows]
    assert len(set(keys)) == len(keys)
    for fa in flows:
        assert fa.graph == graph and is_acyclic_flow(fa)
        assert div_flow(fa).values == target.values
    return dict(zip(keys, flows))


def test_acyclic_flows_match_both_oracles_exhaustive_small():
    """Every small shape (with and without a loop) and every degree-0
    divisor with entries in -2..2: the generator, the orientation route and
    brute force give the same flows."""
    checked = 0
    for g in _small_shapes() + _small_shapes(loops=True):
        for vals in product(range(-2, 3), repeat=len(g.vertex_ids)):
            if sum(vals) != 0:
                continue
            target = Divisor.of(g, dict(zip(g.vertex_ids, vals)))
            got = _generated(g, target)
            assert set(got) == set(acyclic_flows_by_orientations(g, target))
            assert set(got) == set(bruteforce_acyclic_flows(g, target))
            checked += 1
    assert checked > 200


def test_acyclic_flows_match_orientation_route_random():
    """Seeded graphs with up to 6 edges, loops and parallel edges, and
    divisors with entries up to 4."""
    rng = random.Random(2027)
    nonempty = 0
    for _ in range(150):
        g = random_connected_graph(rng, max_edges=6, max_extra_vertices=3)
        vals = [rng.randint(-4, 4) for _ in g.vertex_ids]
        vals[0] -= sum(vals)
        target = Divisor.of(g, dict(zip(g.vertex_ids, vals)))
        got = _generated(g, target)
        assert set(got) == set(acyclic_flows_by_orientations(g, target))
        nonempty += bool(got)
    assert nonempty >= 50


def test_acyclic_flows_single_vertex_and_rejections(single_vertex):
    zero = Divisor.of(single_vertex, {"v": 0})
    (fa,) = acyclic_flows(single_vertex, zero)
    assert fa == zero_flow(single_vertex)
    g = Graph((("a", 0), ("b", 0)), (("e", ("a", "b")),), ((0, "a"),))
    with pytest.raises(ValidationError, match="degree 0"):
        list(acyclic_flows(g, Divisor.of(g, {"a": 1})))
    with pytest.raises(ValidationError, match="another graph"):
        list(acyclic_flows(g, zero))


def _same_pairs(g, v0, mu, d0):
    got = enumerate_admissible(g, v0, mu, d0)
    want = admissible_by_orientations(g, v0, mu, d0)
    assert [p.canonical_key() for p in got] == [p.canonical_key() for p in want]
    for p, q in zip(got, want):
        assert p.to_json() == q.to_json()
        assert p.resulting_pd.canonical_key() == q.resulting_pd.canonical_key()
    return len(got)


def test_enumerate_admissible_matches_orientation_route_seeded():
    """300 seeded random_instance(max_edges=6) draws: the same pairs, in
    the same order, as sink peeling over every acyclic orientation."""
    rng = random.Random(8080)
    total = 0
    for _ in range(300):
        total += _same_pairs(*random_instance(rng, max_edges=6))
    assert total > 5000


def test_enumerate_admissible_matches_orientation_route_named():
    """Theta with k <= 16, banana_4 with mu = +-1/5, cycle_4 and cycle_5."""
    counts = [_same_pairs(*parallel_instance(3, k, 0)) for k in (1, 2, 4, 8, 16)]
    assert counts[2:] == [55, 295, 1351]
    for m in (Fraction(1, 5), Fraction(-1, 5)):
        counts += [_same_pairs(*parallel_instance(4, k, m)) for k in (2, 4)]
    counts += [_same_pairs(*cycle_instance(n, k)) for n in (4, 5) for k in (2, 4)]
    assert all(counts)


def test_enumerate_admissible_cap_counts_pairs():
    """The cap counts emitted pairs: theta (8,-8) has 295 of them."""
    theta = parallel_instance(3, 8, 0)
    assert len(enumerate_admissible(*theta, cap=295)) == 295
    with pytest.raises(DeskScaleError, match="^admissible pairs: 295 pairs exceed the cap of 294$"):
        enumerate_admissible(*theta, cap=294)


def test_enumerate_admissible_single_vertex(single_vertex):
    mu = Polarization.zero(single_vertex)
    d0 = Divisor.of(single_vertex, {"v": 0})
    pairs = enumerate_admissible(single_vertex, "v", mu, d0)
    assert len(pairs) == 1
    assert pairs[0].eset == frozenset()
    assert all(v == 0 for _, v in pairs[0].flow.flow)


def test_enumerate_admissible_theta_contains_figure_flow(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    _, fig = _theta_subdivided_flow(theta)
    keys = {p.canonical_key() for p in pairs}
    assert (tuple(sorted({"e0", "e1"})), fig.canonical_key()) in keys


def test_enumerate_admissible_theta_census(theta):
    """Layer counts match the section picture of the refining fan: 10 pairs
    on the unsubdivided graph, 9 per single strand, 6 per strand pair."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    by_e = {}
    for p in pairs:
        by_e.setdefault(tuple(sorted(p.eset)), []).append(p)
    assert len(by_e.get((), [])) == 10
    for e in ("e0", "e1", "e2"):
        assert len(by_e.get((e,), [])) == 9
    for pair in (("e0", "e1"), ("e0", "e2"), ("e1", "e2")):
        assert len(by_e.get(pair, [])) == 6
    assert len(pairs) == 55


def test_admissible_pairs_all_valid(theta):
    rng = random.Random(37)
    for _ in range(10):
        g = random_connected_graph(rng, max_edges=4)
        v0 = g.leg_map[0]
        d = rng.randint(-2, 2)
        mu = random_polarization(rng, g, degree=d)
        vals = {v: rng.randint(-3, 3) for v in g.vertex_ids}
        vals[v0] += d - sum(vals.values())
        d0 = Divisor.of(g, vals)
        pairs = enumerate_admissible(g, v0, mu, d0)
        keys = [p.canonical_key() for p in pairs]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for p in pairs:
            assert g.is_nondisconnecting(p.eset)
            assert is_acyclic_flow(p.flow)
            assert is_quasistable(p.resulting_pd, v0, mu)
            sub = subdivide(g, p.eset)
            lifted = d0.lift_to_subdivision(sub)
            assert p.resulting_pd.divisor.sub(lifted).values == div_flow(p.flow).values


def _push_pair_flow(s, pair):
    """Image of an admissible pair's flow under contraction of base edges
    not in E: values keep their ids, endpoints map along."""
    new_e = pair.eset - s.contracted
    subq = subdivide(s.target, new_e)
    keep = set(subq.result.edge_ids)
    subflow = {e: v for e, v in pair.flow.flow if e in keep}
    vmap = dict(s.vmap)
    orient = {
        e: (vmap.get(a, a), vmap.get(b, b))
        for e, (a, b) in pair.flow.orientation
        if e in keep
    }
    return new_e, FlowAssignment.of(subq.result, orient, subflow)


def test_admissible_specialization_stability(theta):
    """Pushing a pair along an edge contraction with acyclic image flow stays
    admissible for the pushed divisor."""

    rng = random.Random(53)
    cases = [(theta, Divisor.of(theta, {"v0": 1, "v1": -1}), Polarization.zero(theta))]
    for _ in range(8):
        g = random_connected_graph(rng, max_edges=4, allow_loops=False)
        d = rng.randint(-1, 1)
        mu = random_polarization(rng, g, degree=d)
        vals = {v: rng.randint(-2, 2) for v in g.vertex_ids}
        vals[g.vertex_ids[0]] += d - sum(vals.values())
        cases.append((g, Divisor.of(g, vals), mu))
    exercised = 0
    for g, d0, mu in cases:
        v0 = g.leg_map[0]
        pairs = enumerate_admissible(g, v0, mu, d0)
        for p in pairs:
            zero_edges = [
                e
                for e in g.edge_ids
                if e not in p.eset and not g.is_loop(e) and p.flow.flow_map.get(e, 0) == 0
            ]
            for e in zero_edges:
                s = contract(g, {e})
                new_e, fa = _push_pair_flow(s, p)
                if not is_acyclic_flow(fa):
                    continue
                target_pairs = enumerate_admissible(
                    s.target, s(v0), mu.pushforward(s), d0.pushforward(s)
                )
                target_keys = {q.canonical_key() for q in target_pairs}
                assert (tuple(sorted(new_e)), fa.canonical_key()) in target_keys
                exercised += 1
    assert exercised >= 1
