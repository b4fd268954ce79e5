import random
from fractions import Fraction

import pytest

from tropabel.divisor import Divisor, Polarization, is_quasistable
from tropabel.errors import ValidationError
from tropabel.flow import div_flow, enumerate_admissible
from tropabel.graph import Graph, build_graph, contract
from tropabel.metric import (
    AbelInput,
    MetricGraph,
    abel_eval,
    canonical_divisor,
    double_ramification_cones,
    target_divisor,
)

from conftest import (
    abel_result_json,
    metric_graph_json,
    random_connected_graph,
    random_polarization,
    scaled_metric,
)


def test_metric_graph_json_roundtrip(theta):
    m = MetricGraph.of(theta, {"e0": Fraction(3, 2), "e1": 2, "e2": Fraction(1, 3)})
    data = metric_graph_json(m)
    again = MetricGraph.of(build_graph(data), data["lengths"])
    assert again.lengths == m.lengths
    assert again.graph == theta


@pytest.mark.parametrize("bad", [0.1, "1/0", "x", "1/2/3", True, "0.5"])
def test_metric_graph_json_rejects_bad_lengths(theta, bad):
    """Lengths go through the rational codec: a float, a zero denominator,
    a malformed string and a bool are rejected as input, not crashes."""
    data = metric_graph_json(MetricGraph.of(theta, {"e0": 1, "e1": 2, "e2": 3}))
    data["lengths"]["e1"] = bad
    with pytest.raises(ValidationError, match="bad rational"):
        MetricGraph.of(build_graph(data), data["lengths"])


@pytest.mark.parametrize("bad", [0.1, 2.0, True, None])
def test_metric_graph_rejects_float_and_bool_lengths(theta, bad):
    """MetricGraph.of(theta, {"e0": 0.1, ...}) read 0.1 as its binary
    expansion."""
    with pytest.raises(ValidationError, match="bad rational"):
        MetricGraph.of(theta, {"e0": bad, "e1": 2, "e2": 3})


def test_metric_graph_requires_positive_lengths(theta):
    with pytest.raises(ValidationError, match="positive"):
        MetricGraph.of(theta, {"e0": 1, "e1": 0, "e2": 1})
    with pytest.raises(ValidationError, match="no length"):
        MetricGraph.of(theta, {"e0": 1, "e1": 1})


def test_target_divisor_matches_worked_base(theta):
    d = target_divisor(
        Graph(theta.vertices, theta.edges, ((0, "v0"), (1, "v1"))), (4, -4, 0)
    )
    assert d["v0"] == 4 and d["v1"] == -4


def test_target_divisor_zero_sequence(theta):
    d = target_divisor(theta, (0, 0))
    assert all(d[v] == 0 for v in theta.vertex_ids)


def test_target_divisor_canonical(theta):
    d = target_divisor(theta, (0, 1))
    omega = canonical_divisor(theta)
    assert d.values == omega.values
    assert d.degree() == 2 * theta.genus() - 2 == 2
    assert d["v0"] == 1 and d["v1"] == 1


def test_abel_eval_symmetric_lengths(theta):
    mu = Polarization.zero(theta)
    metric = MetricGraph.of(theta, {"e0": 1, "e1": 1, "e2": 1})
    g2 = Graph(theta.vertices, theta.edges, ((0, "v0"), (1, "v1")))
    metric2 = MetricGraph.of(g2, {"e0": 1, "e1": 1, "e2": 1})
    res = abel_eval(metric2, AbelInput((4, -4, 0), mu))
    assert res.divisor.eset == frozenset()
    assert res.divisor.divisor["v0"] == 1 and res.divisor.divisor["v1"] == -1
    assert dict(res.pair.flow.flow) == {"e0": 1, "e1": 1, "e2": 1}
    assert res.positions == ()


def test_abel_eval_quasistable_input_is_fixed(theta):
    mu = Polarization.zero(theta)
    g2 = Graph(theta.vertices, theta.edges, ((0, "v0"), (1, "v1")))
    metric = MetricGraph.of(g2, {"e0": 2, "e1": 5, "e2": 3})
    res = abel_eval(metric, AbelInput((1, -1, 0), mu))
    assert res.divisor.eset == frozenset()
    assert res.divisor.divisor["v0"] == 1 and res.divisor.divisor["v1"] == -1
    assert all(v == 0 for _, v in res.pair.flow.flow)


def test_abel_eval_interior_cone_positions(theta):
    mu = Polarization.zero(theta)
    g2 = Graph(theta.vertices, theta.edges, ((0, "v0"), (1, "v1")))
    metric = MetricGraph.of(g2, {"e0": 2, "e1": 2, "e2": 3})
    res = abel_eval(metric, AbelInput((4, -4, 0), mu))
    assert res.divisor.eset == {"e0", "e1"}
    pos = dict(res.positions)
    assert pos["x:e0"] == ("e0", Fraction(1))
    assert pos["x:e1"] == ("e1", Fraction(1))
    assert dict(res.split_values) == {
        "e0:a": Fraction(1),
        "e0:b": Fraction(1),
        "e1:a": Fraction(1),
        "e1:b": Fraction(1),
        "e2": Fraction(3),
    }


def test_abel_result_json(theta):
    mu = Polarization.zero(theta)
    g2 = Graph(theta.vertices, theta.edges, ((0, "v0"), (1, "v1")))
    metric = MetricGraph.of(g2, {"e0": 2, "e1": 2, "e2": 3})
    res = abel_eval(metric, AbelInput((4, -4, 0), mu))
    data = abel_result_json(res)
    assert data["divisor"]["E"] == ["e0", "e1"]
    assert data["positions"]["x:e0"] == {"edge": "e0", "offset": "1"}
    assert data["splits"]["e2"] == "3"
    assert data["pair"]["phi"]["e0:b"] == 2


def test_abel_eval_scaling_invariance(theta):
    mu = Polarization.zero(theta)
    g2 = Graph(theta.vertices, theta.edges, ((0, "v0"), (1, "v1")))
    metric = MetricGraph.of(g2, {"e0": 2, "e1": 2, "e2": 3})
    base = abel_eval(metric, AbelInput((4, -4, 0), mu))
    for lam in (2, Fraction(1, 3), 7):
        scaled = abel_eval(scaled_metric(metric, lam), AbelInput((4, -4, 0), mu))
        assert scaled.answer_key()[0] == base.answer_key()[0]
        assert scaled.answer_key()[1] == base.answer_key()[1]
        assert scaled.divisor.canonical_key() == base.divisor.canonical_key()


def test_abel_eval_stable_reduction_with_pendant():
    g = build_graph(
        {
            "vertices": [
                {"id": "a", "weight": 1},
                {"id": "b", "weight": 1},
                {"id": "c", "weight": 0},
            ],
            "edges": [
                {"id": "e0", "ends": ["a", "b"]},
                {"id": "e1", "ends": ["a", "b"]},
                {"id": "p", "ends": ["b", "c"]},
            ],
            "legs": {"0": "c"},
        }
    )
    # d0 = 3 at the pendant leg vertex; stable reduction contracts p
    metric = MetricGraph.of(g, {"e0": 1, "e1": 1, "p": 5})
    st_graph = contract(g, {"p"}).target
    mu = Polarization.of(st_graph, {"a": 2, "b": 1})
    res = abel_eval(metric, AbelInput((3, 0), mu))
    assert set(res.stable_model.vertex_ids) == {"a", "b"}
    assert dict(res.free_lengths) == {"p": Fraction(5)}
    assert res.divisor.divisor.degree() == 3
    assert is_quasistable(res.divisor, res.stable_model.leg_map[0], mu)


def test_abel_eval_certificate_randomized():
    from tropabel.graph import stable_reduction

    rng = random.Random(31)
    done = 0
    while done < 30:
        base = random_connected_graph(rng, max_edges=4)
        n_extra = rng.randint(0, 2)
        legs = [(0, base.leg_map[0])] + [
            (i + 1, rng.choice(base.vertex_ids)) for i in range(n_extra)
        ]
        g = Graph(base.vertices, base.edges, tuple(legs))
        weights = tuple(rng.randint(-2, 2) for _ in range(len(legs))) + (
            rng.randint(0, 1),
        )
        st, _, _ = stable_reduction(Graph(g.vertices, g.edges, ((0, g.leg_map[0]),)))
        if not st.edge_ids:
            continue
        d = target_divisor(g, weights).degree()
        mu = random_polarization(rng, st, degree=d)
        metric = MetricGraph.of(
            g, {e: Fraction(rng.randint(1, 8), rng.randint(1, 2)) for e in g.edge_ids}
        )
        res = abel_eval(metric, AbelInput(weights, mu))
        assert is_quasistable(res.divisor, res.stable_model.leg_map[0], mu)
        assert res.divisor.divisor.degree() == d
        done += 1


def _banana():
    return build_graph(
        {
            "vertices": [{"id": "a", "weight": 1}, {"id": "b", "weight": 1}],
            "edges": [
                {"id": "e0", "ends": ["a", "b"]},
                {"id": "e1", "ends": ["a", "b"]},
            ],
            "legs": {"0": "a", "1": "b"},
        }
    )


def _bruteforce_drl_flows(g, weights):
    """Oracle: acyclic flows killing the target divisor, via sink-peeling
    over all acyclic orientations plus the acyclicity filter."""
    from flow_oracle import acyclic_flows_by_orientations

    d = target_divisor(g, weights)
    target = Divisor.of(g, {v: -d[v] for v in g.vertex_ids})
    return acyclic_flows_by_orientations(g, target)


def test_drl_two_edge_banana_unit_weights_is_empty():
    # a unit of flow along either strand leaves the other at zero; its
    # contraction turns the first into a positive loop, so nothing survives
    g = _banana()
    cones = double_ramification_cones(g, (1, -1, 0))
    assert cones == []
    assert _bruteforce_drl_flows(g, (1, -1, 0)) == {}


def test_drl_two_edge_banana_weight_two():
    g = _banana()
    cones = double_ramification_cones(g, (2, -2, 0))
    oracle = _bruteforce_drl_flows(g, (2, -2, 0))
    assert {c.provenance.flow.canonical_key() for c in cones} == set(oracle)
    assert len(cones) == 1
    (c,) = cones
    fa = c.provenance.flow
    assert div_flow(fa)["a"] == -2 and div_flow(fa)["b"] == 2
    assert dict(fa.flow) == {"e0": 1, "e1": 1}
    # the cone is the locus where the two strand lengths agree
    assert c.cone.rays == ((1, 1),)


def test_drl_zero_sequence_contains_orthant(theta):
    g = Graph(theta.vertices, theta.edges, ((0, "v0"), (1, "v1")))
    cones = double_ramification_cones(g, (0, 0, 0))
    zero = [c for c in cones if all(v == 0 for _, v in c.provenance.flow.flow)]
    assert len(zero) == 1
    assert zero[0].cone.dim == 3
    assert set(zero[0].cone.rays) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert len(cones) == 1  # positive-degree target at every vertex otherwise


def test_drl_rejects_nonzero_degree(theta):
    g = Graph(theta.vertices, theta.edges, ((0, "v0"), (1, "v1")))
    with pytest.raises(ValidationError, match="degree 0"):
        double_ramification_cones(g, (1, 0, 0))


def test_drl_matches_fan_zero_divisor_cones(theta):
    """The double-ramification cones are the fan cones over the base graph
    whose located divisor is zero."""
    g = Graph(theta.vertices, theta.edges, ((0, "v0"), (1, "v1")))
    weights = (2, -2, 0)
    d0 = target_divisor(g, weights)
    mu = Polarization.zero(g)
    pairs = enumerate_admissible(g, "v0", mu, d0)
    zero_pairs = {
        p.canonical_key()
        for p in pairs
        if all(v == 0 for _, v in p.resulting_pd.divisor.values)
        and not p.eset
    }
    drl = {
        (tuple(sorted(c.provenance.eset)), c.provenance.flow.canonical_key())
        for c in double_ramification_cones(g, weights)
    }
    assert drl == zero_pairs
