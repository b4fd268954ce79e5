import random
from fractions import Fraction

import pytest

from tropabel.divisor import Divisor, Polarization
from tropabel.errors import ValidationError
from tropabel.flow import FlowAssignment
from tropabel.graph import Graph, build_graph
from tropabel.linalg import dot, format_rational
from tropabel.semigroup import DEFAULT_SEARCH_BOUND, MonomialIdeal, _minimal_search


@pytest.fixture
def theta():
    """Two vertices, three parallel edges, leg 0 at v0."""
    return build_graph(
        {
            "vertices": [{"id": "v0", "weight": 0}, {"id": "v1", "weight": 0}],
            "edges": [
                {"id": "e0", "ends": ["v0", "v1"]},
                {"id": "e1", "ends": ["v0", "v1"]},
                {"id": "e2", "ends": ["v0", "v1"]},
            ],
            "legs": {"0": "v0"},
        }
    )


@pytest.fixture
def single_vertex():
    return build_graph({"vertices": [{"id": "v", "weight": 1}], "edges": [], "legs": {"0": "v"}})


def random_connected_graph(rng, max_edges=5, max_extra_vertices=2, allow_loops=True, max_weight=2):
    """Random small connected multigraph with leg 0, deterministic under rng."""
    n_edges = rng.randint(1, max_edges)
    lo = 1 if allow_loops else 2
    n_vertices = rng.randint(lo, max(lo, min(n_edges + 1, 1 + max_extra_vertices + 1)))
    vids = [f"v{i}" for i in range(n_vertices)]
    edges = []
    # spanning tree first so the graph is connected
    for i in range(1, n_vertices):
        a = vids[rng.randrange(i)]
        edges.append((f"e{len(edges)}", (a, vids[i])))
    while len(edges) < n_edges:
        a = rng.choice(vids)
        b = rng.choice(vids)
        if a == b and not allow_loops:
            continue
        edges.append((f"e{len(edges)}", tuple(sorted((a, b)))))
    vertices = tuple((v, rng.randint(0, max_weight)) for v in vids)
    return Graph(vertices, tuple(edges), ((0, vids[0]),))


def remove_edges(g, edge_set):
    """The (possibly disconnected) subgraph on all vertices minus edge_set."""
    edge_set = set(edge_set)
    return Graph(g.vertices, tuple((e, pair) for e, pair in g.edges if e not in edge_set), g.legs)


def removed_edges_shift(pol, eset):
    """The polarization mu_E on the edge-removed graph G - E: mu + val_E/2,
    val_E(v) counting the ends of E's edges at v, loops twice.  This is the
    reduction route's polarization: (E, D) is quasistable exactly when E is
    nondisconnecting and D restricted to G - E is mu_E-quasistable."""
    g = pol.graph
    g2 = remove_edges(g, eset)
    return Polarization.of(
        g2, {v: pol[v] + Fraction(g.valence(v) - g2.valence(v), 2) for v in g2.vertex_ids}
    )


def contains_interior(cone, point):
    """Relative-interior membership of a point in a Cone, read from its
    cached (zero rows, positive rows) pair, Cone.interior_rows."""
    zero, positive = cone.interior_rows
    return all(dot(row, point) == 0 for row in zero) and all(
        dot(row, point) > 0 for row in positive
    )


def contains(cone, point):
    """Closed-cone membership of a point in a Cone: its equalities vanish
    and its inequalities are nonnegative there."""
    return all(dot(row, point) == 0 for row in cone.equalities) and all(
        dot(row, point) >= 0 for row in cone.inequalities
    )


def zero_flow(graph):
    """The flow that is zero on every edge of the graph."""
    return FlowAssignment(graph, (), ())


def graph_json(g):
    """A graph as the graph JSON that build_graph reads back."""
    return {
        "vertices": [{"id": v, "weight": w} for v, w in g.vertices],
        "edges": [{"id": e, "ends": list(pair)} for e, pair in g.edges],
        "legs": {str(i): v for i, v in g.legs},
    }


def scaled_metric(metric, factor):
    """The metric graph with every length multiplied by factor."""
    from tropabel.metric import MetricGraph

    return MetricGraph.of(metric.graph, {e: v * factor for e, v in metric.lengths})


def metric_graph_json(metric):
    """A metric graph as graph JSON with a "lengths" map of "p/q" strings,
    which build_graph and MetricGraph.of read back."""
    data = graph_json(metric.graph)
    data["lengths"] = {e: format_rational(v) for e, v in metric.lengths}
    return data


def abel_result_json(res):
    """An AbelResult as JSON: its pseudo-divisor, the exceptional points'
    placements, its pair and the split lengths, rationals as "p/q"."""
    return {
        "divisor": res.divisor.to_json(),
        "positions": {
            x: {"edge": e, "offset": format_rational(o)} for x, (e, o) in res.positions
        },
        "pair": res.pair.to_json(),
        "splits": {e: format_rational(v) for e, v in res.split_values},
    }


def poset_index(poset, pd):
    """Position of the pseudo-divisor pd among the poset's elements."""
    key = pd.canonical_key()
    return next(i for i, el in enumerate(poset.elements) if el.canonical_key() == key)


def random_divisor(rng, g, degree=None, spread=3):
    vals = {v: rng.randint(-spread, spread) for v in g.vertex_ids}
    if degree is not None:
        first = g.vertex_ids[0]
        vals[first] += degree - sum(vals.values())
    return Divisor.of(g, vals)


def random_polarization(rng, g, degree=0):
    vals = {v: Fraction(rng.randint(-4, 4), rng.choice([1, 2, 2, 4])) for v in g.vertex_ids}
    first = g.vertex_ids[0]
    vals[first] += degree - sum(vals.values())
    return Polarization.of(g, vals)


def random_instance(rng, max_edges=5):
    """A random instance (g, v0, mu, d0) with deg d0 = deg mu."""
    g = random_connected_graph(rng, max_edges=max_edges)
    v0 = g.leg_map[0]
    d = rng.randint(-2, 2)
    mu = random_polarization(rng, g, degree=d)
    vals = {v: rng.randint(-3, 3) for v in g.vertex_ids}
    vals[v0] += d - sum(vals.values())
    return g, v0, mu, Divisor.of(g, vals)


def abel_instances(rng, count):
    """`count` seeded Abel-map instances on graphs of at most 3 edges, each as
    (metric graph, AbelInput, scale factor); draws whose stable model has no
    edges are skipped."""
    from tropabel.graph import stable_reduction
    from tropabel.metric import AbelInput, MetricGraph, target_divisor

    done = 0
    while done < count:
        base = random_connected_graph(rng, max_edges=3, max_extra_vertices=1)
        n_extra = rng.randint(0, 1)
        legs = [(0, base.leg_map[0])] + [
            (i + 1, rng.choice(base.vertex_ids)) for i in range(n_extra)
        ]
        g = Graph(base.vertices, base.edges, tuple(legs))
        weights = tuple(rng.randint(-2, 2) for _ in legs) + (rng.randint(0, 1),)
        st, _, _ = stable_reduction(Graph(g.vertices, g.edges, ((0, g.leg_map[0]),)))
        if not st.edge_ids:
            continue
        d = target_divisor(g, weights).degree()
        mu = random_polarization(rng, st, degree=d)
        metric = MetricGraph.of(
            g,
            {e: Fraction(rng.randint(1, 9), rng.randint(1, 3)) for e in g.edge_ids},
        )
        lam = rng.choice([2, Fraction(1, 3), 7])
        yield metric, AbelInput(weights, mu), lam
        done += 1


def ideal_cases():
    """The 63 (admissible pair, subdivided edge) cases of theta with
    D0 = (4, -4) and mu = 0, those of the ideal benchmark."""
    from tropabel.flow import enumerate_admissible
    from tropabel.worked import theta_graph

    g = theta_graph()
    pairs = enumerate_admissible(
        g, "v0", Polarization.zero(g), Divisor.of(g, {"v0": 4, "v1": -4})
    )
    return [(p, e0) for p in pairs for e0 in sorted(p.eset)]


def cycle_json(n):
    """The cycle v0 - v1 - ... - v(n-1) - v0 as graph JSON, leg 0 at v0."""
    return {
        "vertices": [{"id": f"v{i}", "weight": 0} for i in range(n)],
        "edges": [{"id": f"e{i}", "ends": [f"v{i}", f"v{(i + 1) % n}"]} for i in range(n)],
        "legs": {"0": "v0"},
    }


def parallel_instance(n_edges, k, m):
    """v0 and v1 joined by n_edges parallel edges (theta: 3, banana_4: 4),
    with mu = (m, -m) and D0 = (k, -k)."""
    g = build_graph(
        {
            "vertices": [{"id": "v0", "weight": 0}, {"id": "v1", "weight": 0}],
            "edges": [{"id": f"e{i}", "ends": ["v0", "v1"]} for i in range(n_edges)],
            "legs": {"0": "v0"},
        }
    )
    return g, "v0", Polarization.of(g, {"v0": m, "v1": -m}), Divisor.of(g, {"v0": k, "v1": -k})


def pendant_cycle_instance(rng):
    """The shape of the `abel` benchmark cases: a 5-cycle of weight-1
    vertices v0..v4 with a weight-0 vertex w0 hung from v3 by the bridge
    e5, D0 = a v0 - a v2 with a in 1..3, and a seeded degree-0 polarization
    that is 0 at w0 and mixes integer and half-odd values on the cycle."""
    cycle = [f"v{i}" for i in range(5)]
    edges = [(f"e{i}", (cycle[i], cycle[(i + 1) % 5])) for i in range(5)]
    edges.append(("e5", ("v3", "w0")))
    g = Graph(tuple((v, 1) for v in cycle) + (("w0", 0),), tuple(edges), ((0, "v0"),)).validate()
    vals = {v: Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for v in cycle}
    vals["v0"] -= sum(vals.values())
    a = rng.randint(1, 3)
    return g, "v0", Polarization.of(g, vals), Divisor.of(g, {"v0": a, "v2": -a})


def cycle_instance(n, k):
    """The n-cycle with mu = 0 and D0 = k v0 - k v(n-1)."""
    g = build_graph(cycle_json(n))
    vals = {v: 0 for v in g.vertex_ids}
    vals["v0"], vals[f"v{n - 1}"] = k, -k
    return g, "v0", Polarization.zero(g), Divisor.of(g, vals)


@pytest.fixture(scope="session")
def random_instances():
    """The 20 seeded instances of the acceptance suite, with their pairs."""
    from tropabel.flow import enumerate_admissible

    rng = random.Random(20260808)
    out = []
    while len(out) < 20:
        g, v0, mu, d0 = random_instance(rng)
        out.append((g, v0, mu, d0, enumerate_admissible(g, v0, mu, d0)))
    return out


def localization_preimage(ring, face_rays, target, bound=DEFAULT_SEARCH_BOUND):
    """Preimage of the principal ideal (target) under localization at the
    face spanned by the given extremal rays.

    Membership: the quotient exponent pairs nonnegatively with the face data
    (for the split ring, against both lifts (r, 0, c_r) and (r, c_r, 0)),
    that is, m reaches target's valuations at the face rays, in both blocks.
    Returns (ideal, membership predicate).
    """
    if target.ring is not ring and target.ring != ring:
        raise ValidationError("ring mismatch")
    cols = [ring.ray_index(r) for r in face_rays]
    if ring.relation is not None:
        cols += [len(ring.rays) + i for i in cols]
    need = [(i, target.w[i]) for i in cols]

    def member(m):
        return all(m.w[i] >= t for i, t in need)

    gens = _minimal_search(ring.one(), need, bound, "localization preimage")
    return MonomialIdeal.of(ring, gens), member
