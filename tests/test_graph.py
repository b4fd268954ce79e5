import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tropabel.errors import ValidationError
from tropabel.graph import (
    CycleBasis,
    Graph,
    _check_cycles,
    build_graph,
    compose,
    contract,
    contraction_names,
    cycle_basis,
    stable_reduction,
    subdivide,
)
from tropabel.linalg import rank

from conftest import graph_json, random_connected_graph


def cycle_rows(basis):
    """The cycles of a basis as rows over the graph's edges."""
    return [
        tuple(basis.cycle_map[e].get(f, 0) for f in basis.graph.edge_ids)
        for e, _ in basis.cycles
    ]


def test_build_theta(theta):
    assert theta.vertex_ids == ("v0", "v1")
    assert theta.edge_ids == ("e0", "e1", "e2")
    assert theta.leg_map[0] == "v0"
    assert theta.b1() == 2
    assert theta.genus() == 2


def test_build_single_vertex(single_vertex):
    assert single_vertex.b1() == 0
    assert single_vertex.genus() == 1


def test_build_rejects_dangling_endpoint():
    with pytest.raises(ValidationError, match="undeclared vertex w"):
        build_graph(
            {
                "vertices": [{"id": "v", "weight": 0}],
                "edges": [{"id": "e", "ends": ["v", "w"]}],
                "legs": {},
            }
        )


def test_build_rejects_duplicate_id():
    with pytest.raises(ValidationError, match="duplicate"):
        build_graph(
            {
                "vertices": [{"id": "v", "weight": 0}, {"id": "v", "weight": 1}],
                "edges": [],
                "legs": {},
            }
        )


def test_build_rejects_disconnected():
    with pytest.raises(ValidationError, match="disconnected"):
        build_graph(
            {
                "vertices": [{"id": "a", "weight": 0}, {"id": "b", "weight": 0}],
                "edges": [],
                "legs": {},
            }
        )


@pytest.mark.parametrize(
    "weight, message",
    [(1.5, "bad integer 1.5"), ("x", "bad integer 'x'"), ("2", "bad integer '2'"), (True, "bad integer True")],
)
def test_build_rejects_non_integer_weight(weight, message):
    """A weight goes through the integer value gate: a float is not
    truncated and a string, even of digits, is not converted."""
    with pytest.raises(ValidationError, match=message):
        build_graph({"vertices": [{"id": "v", "weight": weight}], "edges": [], "legs": {}})


@pytest.mark.parametrize(
    "legs, message",
    [
        ({"a": "v"}, "leg indices must be integers"),
        ({"1.5": "v"}, "leg indices must be integers"),
        (["v"], "legs must be an object"),
        ("v", "legs must be an object"),
    ],
)
def test_build_rejects_malformed_legs(legs, message):
    with pytest.raises(ValidationError, match=message):
        build_graph({"vertices": [{"id": "v", "weight": 0}], "edges": [], "legs": legs})


@pytest.mark.parametrize("bad", [1.5, 2.0, True, False, "1", "x"])
def test_graph_rejects_non_integer_weights_and_leg_indices(bad):
    """A Graph built directly passes its weights and leg indices through
    the same integer gate as build_graph: a float is not truncated, a bool
    is not read as 0 or 1 and a string is not parsed."""
    with pytest.raises(ValidationError, match="bad integer"):
        Graph((("a", bad),), ())
    with pytest.raises(ValidationError, match="bad integer"):
        Graph((("a", 1),), (), ((bad, "a"),))


def test_contract_single_edge_of_theta(theta):
    s = contract(theta, {"e0"})
    t = s.target
    assert len(t.vertex_ids) == 1
    assert len(t.edge_ids) == 2
    assert all(t.is_loop(e) for e in t.edge_ids)
    assert t.weight[t.vertex_ids[0]] == 0
    assert t.b1() == 2  # genus preserved
    assert t.genus() == theta.genus()


def test_contract_empty_is_identity(theta):
    s = contract(theta, set())
    assert s.target == theta
    assert all(s(v) == v for v in theta.vertex_ids)


def test_contract_everything_keeps_genus(theta):
    s = contract(theta, set(theta.edge_ids))
    t = s.target
    assert len(t.vertex_ids) == 1 and not t.edge_ids
    assert t.weight[t.vertex_ids[0]] == theta.genus()


def test_contract_loop_adds_weight():
    g = Graph((("v", 0),), (("l", ("v", "v")),), ((0, "v"),))
    t = contract(g, {"l"}).target
    assert t.weight["v"] == 1
    assert not t.edge_ids


def test_contract_composition_matches_union(theta):
    rng = random.Random(7)
    for _ in range(30):
        g = random_connected_graph(rng, max_edges=6)
        edges = list(g.edge_ids)
        rng.shuffle(edges)
        cut = rng.randint(0, len(edges))
        e1, e2 = set(edges[:cut]), set(edges[cut:])
        s1 = contract(g, e1)
        s2 = contract(s1.target, e2 - s1.contracted)
        both = compose(s1, s2)
        direct = contract(g, e1 | e2)
        assert both.target == direct.target
        assert both.vmap == direct.vmap


def test_contraction_names_least_member_of_each_component():
    """contract names each class by its least member, and the face keys
    read that naming through contraction_names: both match the components
    of the contracted subgraph, found here by a plain search."""
    rng = random.Random(11)
    for _ in range(30):
        g = random_connected_graph(rng, max_edges=6)
        eset = {e for e in g.edge_ids if rng.random() < 0.5}
        adj = {v: set() for v in g.vertex_ids}
        for e in eset:
            a, b = g.ends[e]
            adj[a].add(b)
            adj[b].add(a)
        expected = {}
        for v in g.vertex_ids:
            seen, todo = {v}, [v]
            while todo:
                for w in adj[todo.pop()] - seen:
                    seen.add(w)
                    todo.append(w)
            expected[v] = min(seen)
        assert contraction_names(g, eset) == expected
        assert contract(g, eset).vmap == expected


def test_subdivide_counts(theta):
    sub = subdivide(theta, {"e0", "e1"})
    assert len(sub.result.vertex_ids) == 4
    assert len(sub.result.edge_ids) == 5
    assert sub.exceptional == {"x:e0", "x:e1"}
    for x in sub.exceptional:
        assert sub.result.weight[x] == 0


def test_subdivide_empty(theta):
    sub = subdivide(theta, set())
    assert sub.result == theta


def test_subdivide_loop_gives_two_cycle():
    g = Graph((("v", 0),), (("l", ("v", "v")),), ((0, "v"),))
    sub = subdivide(g, {"l"})
    r = sub.result
    assert len(r.edge_ids) == 2
    assert not any(r.is_loop(e) for e in r.edge_ids)
    assert r.b1() == 1


def test_graph_stats_theta(theta):
    assert theta.delta({"v0"}) == 3
    assert theta.b0({"e0", "e1"}) == 1 and theta.is_nondisconnecting({"e0", "e1"})
    assert theta.b0(theta.edge_ids) == 2 and not theta.is_nondisconnecting(theta.edge_ids)


def test_graph_stats_loop_valence():
    g = Graph((("v", 0), ("w", 0)), (("l", ("v", "v")), ("e", ("v", "w"))), ((0, "v"),))
    assert g.valence("v") == 3  # loop twice, e once
    assert g.delta({"v"}) == 1  # loop does not cross the cut


def test_b0b1_partition_identity_randomized():
    """b1(g/E) = |F| - b0(g - F) + 1 for the split E + F of the edges,
    both ways round: g - F keeps the edges of E, so its components are the
    vertices of g/E."""
    rng = random.Random(11)
    for _ in range(40):
        g = random_connected_graph(rng, max_edges=8)
        edges = list(g.edge_ids)
        eset = {e for e in edges if rng.random() < 0.5}
        fset = set(edges) - eset
        assert contract(g, eset).target.b1() == len(fset) - g.b0(fset) + 1
        assert contract(g, fset).target.b1() == len(eset) - g.b0(eset) + 1


def test_cycle_basis_theta_avoiding(theta):
    cb = cycle_basis(theta, avoid={"e0", "e1"})
    assert cb.spanning_tree == {"e2"}
    assert cb.cycle_map["e0"] == {"e0": 1, "e2": -1}
    assert cb.cycle_map["e1"] == {"e1": 1, "e2": -1}


def test_cycle_basis_tree_is_empty():
    g = Graph((("a", 0), ("b", 0)), (("e", ("a", "b")),), ((0, "a"),))
    assert cycle_basis(g).cycles == ()


def test_cycle_basis_single_loop():
    g = Graph((("v", 0),), (("l", ("v", "v")),), ((0, "v"),))
    cb = cycle_basis(g)
    assert cb.cycle_map["l"] == {"l": 1}


def test_cycle_basis_avoid_disconnecting_raises(theta):
    with pytest.raises(ValidationError):
        cycle_basis(theta, avoid=set(theta.edge_ids))


def _corrupted_bases(theta):
    """Theta's basis (tree e0, cycles e1 - e0 and e2 - e0) with e2's cycle
    replaced: by e2 - e1, a cycle sharing e1 with e1's own (still
    independent, so a rank check passes it), and by e2 + e0, whose tree
    path runs the wrong way."""
    basis = cycle_basis(theta)
    assert basis.cycles == (("e1", (("e0", -1), ("e1", 1))), ("e2", (("e0", -1), ("e2", 1))))
    own = basis.cycles[0]
    return [
        (CycleBasis(theta, basis.spanning_tree, (own, ("e2", (("e1", -1), ("e2", 1))))), "identity"),
        (CycleBasis(theta, basis.spanning_tree, (own, ("e2", (("e0", 1), ("e2", 1))))), "boundary"),
    ]


def test_cycle_certificate_rejects_corrupted_bases(theta):
    _check_cycles(cycle_basis(theta))
    for basis, reason in _corrupted_bases(theta):
        assert rank(cycle_rows(basis)) == 2
        with pytest.raises(AssertionError, match=reason):
            _check_cycles(basis)


def test_cycle_certificate_rejects_corrupted_bases_under_optimize():
    """The certificate is explicit raises, so `python -O`, which strips
    assert statements, still rejects both corrupted bases."""
    script = textwrap.dedent(
        """
        from tropabel.graph import CycleBasis, _check_cycles, cycle_basis
        from tropabel.worked import theta_graph

        if __debug__:
            raise SystemExit("not running under -O")
        theta = theta_graph()
        tree = cycle_basis(theta).spanning_tree
        own = ("e1", (("e0", -1), ("e1", 1)))
        for other in ((("e1", -1), ("e2", 1)), (("e0", 1), ("e2", 1))):
            try:
                _check_cycles(CycleBasis(theta, tree, (own, ("e2", other))))
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
    assert proc.stdout.splitlines() == [
        "rejected: a fundamental cycle leaves the identity block",
        "rejected: a fundamental cycle has a nonzero boundary",
    ]


def test_cycles_lie_in_kernel_of_incidence():
    rng = random.Random(23)
    for _ in range(30):
        g = random_connected_graph(rng, max_edges=7)
        cb = cycle_basis(g)
        rows = cycle_rows(cb)
        for row in rows:
            # the signed incidence of each edge runs from its smaller end to
            # its larger one (a loop's is zero); the cycle's sum must vanish
            net = dict.fromkeys(g.vertex_ids, 0)
            for c, e in zip(row, g.edge_ids):
                tail, head = g.ends[e]
                net[tail] -= c
                net[head] += c
            assert not any(net.values())
        if rows:
            assert rank(rows) == g.b1()
        else:
            assert g.b1() == 0


def _figure_stable_reduction_input():
    # theta-with-tail shape: three strands between a and b, the bottom strand
    # carrying a midpoint joined to a weight-2 legged vertex and to a bare
    # weight-0 vertex
    return build_graph(
        {
            "vertices": [
                {"id": "a", "weight": 0},
                {"id": "b", "weight": 0},
                {"id": "t", "weight": 0},
                {"id": "m", "weight": 0},
                {"id": "c", "weight": 2},
                {"id": "d", "weight": 0},
            ],
            "edges": [
                {"id": "top1", "ends": ["a", "t"]},
                {"id": "top2", "ends": ["t", "b"]},
                {"id": "mid", "ends": ["a", "b"]},
                {"id": "bot1", "ends": ["a", "m"]},
                {"id": "bot2", "ends": ["m", "b"]},
                {"id": "pc", "ends": ["m", "c"]},
                {"id": "pd", "ends": ["m", "d"]},
            ],
            "legs": {"0": "c"},
        }
    )


def test_stable_reduction_figure_example():
    g = _figure_stable_reduction_input()
    st, red, witness = stable_reduction(g)
    # the bare pendant is contracted, the valence-2 strand vertex suppressed
    assert red.contracted == {"pd"}
    assert witness.exceptional == {"t"}
    # the contraction of pd merges m and d under the canonical (min id) name
    assert set(st.vertex_ids) == {"a", "b", "c", "d"}
    assert len(st.edge_ids) == 5
    assert st.genus() == g.genus()
    # the intermediate model keeps the suppressed vertex
    assert set(witness.result.vertex_ids) == {"a", "b", "c", "d", "t"}
    # chain walks a -> t -> b; top2 has sorted ends (b, t) so it runs backward
    assert witness.chain_map["top1"] == (("top1", True), ("top2", False))


def test_stable_reduction_idempotent():
    g = _figure_stable_reduction_input()
    st, _, _ = stable_reduction(g)
    st2, red2, wit2 = stable_reduction(st)
    assert st2 == st
    assert red2.contracted == frozenset()
    assert wit2.exceptional == frozenset()


def test_stable_reduction_already_stable(theta):
    st, red, wit = stable_reduction(theta)
    assert st == theta
    assert red.contracted == frozenset()


def test_stable_reduction_contracts_path_to_point():
    g = build_graph(
        {
            "vertices": [
                {"id": "v1", "weight": 2},
                {"id": "v2", "weight": 0},
                {"id": "v3", "weight": 0},
                {"id": "v4", "weight": 0},
            ],
            "edges": [
                {"id": "e1", "ends": ["v1", "v2"]},
                {"id": "e2", "ends": ["v2", "v3"]},
                {"id": "e3", "ends": ["v3", "v4"]},
            ],
            "legs": {"0": "v4"},
        }
    )
    st, red, _ = stable_reduction(g)
    assert len(st.vertex_ids) == 1
    assert st.weight[st.vertex_ids[0]] == 2
    assert st.leg_map[0] == st.vertex_ids[0]


def relabel(g, vmap, emap):
    """g with its vertices renamed by vmap and its edges by emap (ids that
    a map misses keep their names)."""
    return Graph(
        tuple((vmap.get(v, v), w) for v, w in g.vertices),
        tuple((emap.get(e, e), (vmap.get(a, a), vmap.get(b, b))) for e, (a, b) in g.edges),
        tuple((i, vmap.get(v, v)) for i, v in g.legs),
    )


def test_stable_reduction_commutes_with_relabeling():
    g = _figure_stable_reduction_input()
    vmap = {"a": "p", "b": "q", "t": "r", "m": "s", "c": "u", "d": "w"}
    emap = {e: f"f{i}" for i, e in enumerate(g.edge_ids)}
    g2 = relabel(g, vmap, emap)
    st1, _, _ = stable_reduction(g)
    st2, _, _ = stable_reduction(g2)
    assert relabel(st1, vmap, emap).genus() == st2.genus()
    assert len(st1.vertex_ids) == len(st2.vertex_ids)
    assert sorted(relabel(st1, vmap, emap).weight.values()) == sorted(st2.weight.values())


def test_soft_cap_warning():
    n = 17
    vertices = [{"id": f"v{i}", "weight": 0} for i in range(n + 1)]
    edges = [{"id": f"e{i:02d}", "ends": [f"v{i}", f"v{i+1}"]} for i in range(n)]
    with pytest.warns(UserWarning, match="soft cap"):
        build_graph({"vertices": vertices, "edges": edges, "legs": {"0": "v0"}})


def test_json_roundtrip(theta):
    assert build_graph(graph_json(theta)) == theta
