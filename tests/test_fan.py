import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from tropabel import abelfan
from tropabel import divisor as divisor_mod
from tropabel.abelfan import (
    AbelFan,
    _cone_key,
    _face_keys,
    _lattice_faces,
    _specialize_pair,
    build_fan,
    classify_ray,
    cone_faces,
    expected_dim,
    locate_point,
    merged_cone,
    pair_rows,
    verify_fan,
)
from tropabel.cone import Cone, face_lattice_rayset
from tropabel.divisor import Divisor, Polarization
from tropabel.errors import DeskScaleError, ValidationError
from tropabel.flow import FlowAssignment, enumerate_admissible
from tropabel.graph import Graph, contract, subdivide
from tropabel.linalg import dot, independent_rows, nullspace

from conftest import (
    contains_interior,
    cycle_instance,
    cycle_json,
    parallel_instance,
    random_connected_graph,
    random_polarization,
    zero_flow,
)
from split_oracle import split_cone, split_rays


def figure_pair(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    sub = subdivide(theta, {"e0", "e1"})
    orient = {
        "e0:a": ("v0", "x:e0"),
        "e0:b": ("x:e0", "v1"),
        "e1:a": ("v0", "x:e1"),
        "e1:b": ("x:e1", "v1"),
        "e2": ("v0", "v1"),
    }
    flow = FlowAssignment.of(
        sub.result, orient, {"e0:a": 1, "e0:b": 2, "e1:a": 1, "e1:b": 2, "e2": 1}
    )
    for p in pairs:
        if p.eset == {"e0", "e1"} and p.flow.canonical_key() == flow.canonical_key():
            return p, mu, d0
    raise AssertionError("figure pair not found")


def test_split_cone_equations(theta):
    pair, _, _ = figure_pair(theta)
    rows = pair_rows(pair)
    # coordinates: (e0:a, e0:b, e1:a, e1:b, e2)
    assert rows.sub.result.edge_ids == ("e0:a", "e0:b", "e1:a", "e1:b", "e2")
    assert set(rows.split_equalities()) == {(1, 2, 0, 0, -1), (0, 0, 1, 2, -1)}
    c, _ = split_cone(theta, pair.eset, pair.flow)
    assert c.dim == 3
    assert c.rays == split_rays(merged_cone(pair))


def test_split_cone_trivial_orthant(theta):
    """With no subdivision and zero flow the split cone is the orthant."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 0, "v1": 0})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    (pair,) = [p for p in pairs if not any(v for _, v in p.flow.flow)]
    ac = merged_cone(pair)
    assert not any(any(r) for r in ac.rows.split_equalities())
    assert set(split_rays(ac)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    c, _ = split_cone(theta, frozenset(), zero_flow(theta))
    assert c.dim == 3
    assert c.rays == split_rays(ac)


def test_split_cone_tree_graph():
    g = Graph((("a", 0), ("b", 0)), (("e", ("a", "b")),), ((0, "a"),))
    mu = Polarization.zero(g)
    (pair,) = enumerate_admissible(g, "a", mu, Divisor.of(g, {"a": 2, "b": -2}))
    assert pair.flow.flow == (("e", 2),)
    assert split_rays(merged_cone(pair)) == ((1,),)
    fa = FlowAssignment.of(g, {"e": ("a", "b")}, {"e": 2})
    assert split_cone(g, frozenset(), fa)[0].rays == ((1,),)


def test_merged_cone_matches_worked_example(theta):
    pair, _, _ = figure_pair(theta)
    ac = merged_cone(pair)
    assert set(ac.cone.rays) == {(1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 1, 2)}
    assert set(ac.cone.facet_rows) == {(2, 0, -1), (-1, 0, 1), (0, 2, -1), (0, -1, 1)}
    assert ac.cone.dim == 3 == expected_dim(pair)


def test_merged_cone_empty_subdivision_is_split_cone(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = [p for p in enumerate_admissible(theta, "v0", mu, d0) if not p.eset]
    for p in pairs:
        ac = merged_cone(p)
        assert split_rays(ac) == ac.cone.rays


def test_split_image_matches_double_description(theta, random_instances):
    """The split cone read off through the inverse rows is the cone that
    double description finds from the split equalities on the orthant, on
    every cone of the theta fan (contracted ones included) and on every
    pair of the seeded instances.  The equalities are those of the oracle's
    own subdivision and cycle basis."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    cones = list(build_fan(theta, "v0", mu, d0).cones)
    for g, _, _, _, pairs in random_instances:
        cones.extend(merged_cone(p) for p in pairs)
    for ac in cones:
        pair = ac.provenance
        oracle, sub = split_cone(pair.base, pair.eset, pair.flow)
        assert sub.result.edge_ids == ac.rows.sub.result.edge_ids
        assert oracle.equalities == ac.rows.split_equalities(), ac.key()
        assert split_rays(ac) == oracle.rays, ac.key()


def test_dimension_formula_across_fan(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    for p in enumerate_admissible(theta, "v0", mu, d0):
        ac = merged_cone(p)
        assert ac.cone.dim == expected_dim(p)


def test_inverse_integral_roundtrip(theta):
    """Integer points of the merged cone pull back to integer split points
    and merge forward to themselves."""
    rng = random.Random(9)
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    for p in enumerate_admissible(theta, "v0", mu, d0):
        ac = merged_cone(p)
        rays = ac.cone.rays
        for _ in range(25):
            coeffs = [rng.randint(0, 4) for _ in rays]
            point = tuple(sum(c * r[i] for c, r in zip(coeffs, rays)) for i in range(3))
            split = ac.split_point(point)
            assert all(isinstance(v, int) for v in split.values())
            assert all(v >= 0 for v in split.values())
            merged = {}
            for e, v in split.items():
                merged[ac.provenance.resulting_pd.subdivision.over_map[e]] = (
                    merged.get(ac.provenance.resulting_pd.subdivision.over_map[e], 0) + v
                )
            for i, e in enumerate(theta.edge_ids):
                assert merged.get(e, 0) == point[i]


def test_fan_counts_theta(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    fan = build_fan(theta, "v0", mu, d0)
    assert len(fan.maximal) == 55
    assert len(fan.cones) == 62
    dims = {}
    for i in fan.maximal:
        dims[fan.cones[i].cone.dim] = dims.get(fan.cones[i].cone.dim, 0) + 1
    assert dims == {1: 10, 2: 27, 3: 18}


def test_fan_of_tree_with_quasistable_base_is_orthant():
    g = Graph((("a", 0), ("b", 0)), (("e", ("a", "b")),), ((0, "a"),))
    mu = Polarization.zero(g)
    d0 = Divisor.of(g, {"a": 0, "b": 0})
    fan = build_fan(g, "a", mu, d0)
    assert len(fan.maximal) == 1
    top = fan.cones[fan.maximal[0]]
    assert top.cone.rays == ((1,),)
    assert top.cone.dim == 1 == len(g.edge_ids)
    assert all(v == 0 for _, v in top.provenance.flow.flow)


def test_fan_contains_worked_cone(theta):
    pair, mu, d0 = figure_pair(theta)
    fan = build_fan(theta, "v0", mu, d0)
    key = ((), tuple(sorted(pair.eset)), pair.flow.canonical_key())
    ac = fan.cone_by_key(key)
    assert set(ac.cone.rays) == {(1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 1, 2)}


def test_faces_match_polyhedral_lattice(theta):
    pair, _, _ = figure_pair(theta)
    ac = merged_cone(pair)
    faces = cone_faces(ac)
    # specialization-derived and polyhedral face families coincide
    ray_sets = {tuple(sorted(f.cone.rays)) for f in faces}
    lattice = face_lattice_rayset(ac.cone)
    poly_sets = {
        tuple(sorted(ac.cone.rays[i] for i in idxs)) for idxs in lattice
    }
    assert ray_sets == poly_sets
    # 1 + 4 + 4 + 1 faces for the quadrilateral cone
    assert len(faces) == 10


def test_face_provenances_are_specializations(theta):
    pair, _, _ = figure_pair(theta)
    ac = merged_cone(pair)
    faces = cone_faces(ac)
    for f in faces:
        p = f.provenance
        assert p.eset <= pair.eset
        # the face flow restricts the original values
        for e, v in p.flow.flow:
            assert v in {pair.flow.flow_map.get(e, v), v}
    zero = [f for f in faces if f.cone.dim == 0]
    assert len(zero) == 1
    origin = zero[0].provenance.base
    assert len(origin.vertex_ids) == 1 and not origin.edge_ids


def test_boundary_location_agrees_with_fan_membership(theta):
    """Boundary points (some zero coordinates) located by contracting first
    land in the unique fan cone whose relative interior contains them."""
    rng = random.Random(55)
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    fan = build_fan(theta, "v0", mu, d0)
    for _ in range(30):
        pt = [rng.randint(1, 9) for _ in range(3)]
        pt[rng.randrange(3)] = 0
        ptd = dict(zip(theta.edge_ids, pt))
        ac, _ = locate_point(theta, "v0", mu, d0, ptd)
        hits = [c for c in fan.cones if contains_interior(c.cone, tuple(pt))]
        assert len(hits) == 1
        assert hits[0].key() == ac.key()


def test_ray_classification_theta(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    fan = build_fan(theta, "v0", mu, d0)
    kinds = {}
    for c in fan.cones:
        if c.cone.dim == 1:
            kinds[classify_ray(c)] = kinds.get(classify_ray(c), 0) + 1
    # 10 interior rays with proportional flow, 3 loop rays on the axes
    assert kinds == {"proportional": 10, "loop": 3}


def test_fan_axioms_small_instances():
    rng = random.Random(41)
    done = 0
    while done < 3:
        g = random_connected_graph(rng, max_edges=3, max_extra_vertices=1)
        v0 = g.leg_map[0]
        d = rng.randint(-1, 1)
        mu = random_polarization(rng, g, degree=d)
        vals = {v: rng.randint(-2, 2) for v in g.vertex_ids}
        vals[v0] += d - sum(vals.values())
        d0 = Divisor.of(g, vals)
        fan = build_fan(g, v0, mu, d0)
        verify_fan(fan, pairwise=True)
        done += 1


def test_verify_fan_catches_missing_face(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    fan = build_fan(theta, "v0", mu, d0)
    kept = [i for i, c in enumerate(fan.cones) if c.cone.dim != 1 or c.spec_contracted]
    broken = AbelFan(
        theta,
        d0,
        mu,
        tuple(fan.cones[i] for i in kept),
        fan.maximal[:10],
        tuple(fan.faces[i] for i in kept),
    )
    with pytest.raises(AssertionError, match="missing from the fan"):
        verify_fan(broken, pairwise=False)


def test_locate_symmetric_point(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    ac, split = locate_point(theta, "v0", mu, d0, {"e0": 1, "e1": 1, "e2": 1})
    assert ac.provenance.eset == frozenset()
    assert dict(ac.provenance.flow.flow) == {"e0": 1, "e1": 1, "e2": 1}
    assert dict(ac.provenance.flow.orientation) == {
        "e0": ("v0", "v1"),
        "e1": ("v0", "v1"),
        "e2": ("v0", "v1"),
    }
    d = ac.provenance.resulting_pd.divisor
    assert d["v0"] == 1 and d["v1"] == -1


def test_locate_interior_of_worked_cone(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    ac, split = locate_point(theta, "v0", mu, d0, {"e0": 2, "e1": 2, "e2": 3})
    assert ac.provenance.eset == {"e0", "e1"}
    assert split == {"e0:a": 1, "e0:b": 1, "e1:a": 1, "e1:b": 1, "e2": 3}


def test_locate_boundary_point_contracts_first(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    ac, _ = locate_point(theta, "v0", mu, d0, {"e0": 0, "e1": 1, "e2": 1})
    assert ac.spec_contracted == {"e0"}
    assert len(ac.provenance.base.vertex_ids) == 1


def test_locate_uniqueness_scan(theta):
    """The debug mode keeps scanning, confirms no second open cone and finds
    the default walk's cone."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    ac, _ = locate_point(theta, "v0", mu, d0, {"e0": 5, "e1": 3, "e2": 4}, check_unique=True)
    ac2, _ = locate_point(theta, "v0", mu, d0, {"e0": 5, "e1": 3, "e2": 4})
    assert ac.key() == ac2.key()


def test_locate_rejects_negative(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    with pytest.raises(ValidationError, match="negative"):
        locate_point(theta, "v0", mu, d0, {"e0": -1, "e1": 1, "e2": 1})


def test_partition_property_theta(theta):
    """Sampled positive points land in the open cone of exactly one
    admissible pair, checked against every maximal cone independently."""
    rng = random.Random(77)
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    cones = [merged_cone(p) for p in pairs]
    for _ in range(400):
        pt = tuple(rng.randint(1, 9) for _ in range(3))
        hits = [c for c in cones if contains_interior(c.cone, pt)]
        assert len(hits) == 1, pt


def test_partition_property_randomized():
    """Unique open-cone membership on randomized asymmetric instances, where
    flows routinely run against the stored reference directions."""
    rng = random.Random(1234)
    done = 0
    while done < 8:
        g = random_connected_graph(rng, max_edges=4)
        v0 = g.leg_map[0]
        d = rng.randint(-2, 2)
        mu = random_polarization(rng, g, degree=d)
        vals = {v: rng.randint(-3, 3) for v in g.vertex_ids}
        vals[v0] += d - sum(vals.values())
        d0 = Divisor.of(g, vals)
        pairs = enumerate_admissible(g, v0, mu, d0)
        cones = [merged_cone(p) for p in pairs]
        for _ in range(120):
            pt = tuple(rng.randint(1, 9) for _ in g.edge_ids)
            hits = [c for c in cones if contains_interior(c.cone, pt)]
            assert len(hits) == 1, (g.edges, dict(d0.values), pt)
        done += 1


def test_partition_census_saturates(theta):
    """Structured small-integer sampling reaches every admissible pair."""
    rng = random.Random(99)
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    cones = [merged_cone(p) for p in pairs]
    seen = set()
    # integer grid up to 7 suffices to meet every open cone of this fan
    for a in range(1, 8):
        for b in range(1, 8):
            for c in range(1, 8):
                pt = (a, b, c)
                for i, cone in enumerate(cones):
                    if contains_interior(cone.cone, pt):
                        seen.add(i)
                        break
    assert len(seen) == len(cones) == 55


@pytest.mark.parametrize("n,k", [(4, 2), (4, 4), (5, 2), (5, 4)])
def test_build_fan_on_cycles(tmp_path, monkeypatch, n, k):
    """Contracting an edge of a cycle can flip the sorted ends of a
    subdivided edge; its faces must still carry each half's flow."""
    import json

    from tropabel import cli

    built = []

    def keep(*args, **kwargs):
        built.append(build_fan(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(cli, "build_fan", keep)
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(cycle_json(n)))
    d0 = ",".join([str(k)] + ["0"] * (n - 2) + [str(-k)])
    out = tmp_path / "fan.json"
    assert cli.main(["build-fan", "--graph", str(path), "--mu", "0", "--D0", d0, "--out", str(out)]) == 0
    (fan,) = built
    assert len(json.loads(out.read_text())["cones"]) == len(fan.cones)
    assert verify_fan(fan, pairwise=False)
    assert sum((-1) ** c.cone.dim for c in fan.cones) == 0


# --- the exhaustive routes the face-closure build replaced, kept as oracles


def contraction_loop_fan(g, v0, pol, d0):
    """The fan from the admissible pairs of all 2^|E| contractions of g,
    with the faces of each cone from the subset loop."""
    amb = g.edge_ids
    cones = {}
    maximal_keys = []
    for r in range(len(amb) + 1):
        for cset in combinations(amb, r):
            spec = contract(g, cset)
            pairs = enumerate_admissible(
                spec.target, spec(v0), pol.pushforward(spec), d0.pushforward(spec)
            )
            for pair in pairs:
                ac = merged_cone(pair, ambient_edges=amb)
                cones[ac.key()] = ac
                if not cset:
                    maximal_keys.append(ac.key())
    ordered = tuple(cones[k] for k in sorted(cones))
    index = {c.key(): i for i, c in enumerate(ordered)}
    maximal = tuple(sorted(index[k] for k in maximal_keys))
    return AbelFan(g, d0, pol, ordered, maximal, tuple(subset_loop_faces(c) for c in ordered))


def subset_loop_faces(abcone):
    """Face key -> face divisor, from specializing every subset of the
    cone's subdivision edges and keeping the acyclic images.  Each image's
    keys are also those read from the subset alone (_face_keys), so the
    key route is checked on every face of the cone and on every other
    subset with an acyclic image."""
    pair = abcone.provenance
    sub_edges = pair.resulting_pd.subdivision.result.edge_ids
    out = {}
    for r in range(len(sub_edges) + 1):
        for zset in combinations(sub_edges, r):
            pair2 = _specialize_pair(pair, frozenset(zset))
            if pair2 is None:
                continue
            key = _cone_key(abcone.ambient_edges, pair2)
            divisor = pair2.resulting_pd.canonical_key()
            assert _face_keys(abcone.ambient_edges, pair, frozenset(zset)) == (key, divisor), zset
            assert out.setdefault(key, divisor) == divisor, key
    return out


def per_cone_faces(fan):
    """Each cone's face map from a walk of its own face lattice, the route
    the walk of the maximal cones alone replaced."""
    return tuple({key: divisor for _, key, divisor in _lattice_faces(c)} for c in fan.cones)


def _assert_matches_oracles(g, v0, mu, d0):
    """Same JSON as the contraction loop, and each cone's lattice faces
    (keys and divisors) are the subset loop's."""
    fan = build_fan(g, v0, mu, d0)
    oracle = contraction_loop_fan(g, v0, mu, d0)
    assert fan.to_json() == oracle.to_json()
    assert fan.faces == oracle.faces
    return fan


def interior_by_inequalities(cone):
    """Relative-interior membership row by row, the test that
    Cone.interior_rows replaced, kept as its oracle with its own span rows:
    the strict rows, the inequalities not zero on a basis of the rays'
    span (linalg.independent_rows), are positive; the other inequalities,
    the equalities and the rows cutting the span (linalg.nullspace of the
    rays) vanish.  Returns the test of a point."""
    mat = [list(r) for r in cone.rays]
    basis = [mat[i] for i in independent_rows(mat)] if mat else []
    strict = {row for row in cone.inequalities if any(dot(row, b) for b in basis)}
    zero = cone.equalities + tuple(r for r in cone.inequalities if r not in strict)
    zero += tuple(nullspace(mat or [[0] * cone.ambient_dim], cone.ambient_dim))

    def member(point):
        return all(dot(row, point) == 0 for row in zero) and all(
            dot(row, point) > 0 for row in strict
        )

    return member


def _assert_interior_matches_oracle(fan, rng):
    """Every cone of the fan, faces included, at 60 seeded points with
    coordinates 0..3 (zeros and faces of the orthant included), the origin
    and the ray sums of up to 40 seeded cones (points inside those cones),
    and at its own rays and ray sum (its boundary and its interior)."""
    n = fan.cones[0].cone.ambient_dim

    def ray_sum(c):
        return tuple(sum(r[i] for r in c.cone.rays) for i in range(n))

    shared = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(60)] + [(0,) * n]
    shared += [ray_sum(c) for c in rng.sample(fan.cones, min(40, len(fan.cones)))]
    inside = 0
    for c in fan.cones:
        oracle = interior_by_inequalities(c.cone)
        for pt in dict.fromkeys(shared + list(c.cone.rays) + [ray_sum(c)]):
            expect = oracle(pt)
            assert contains_interior(c.cone, pt) == expect, (c.key, pt)
            inside += expect
    assert inside >= len(fan.cones)


def _assert_cut_rays_match_double_description(fan):
    """Every cone of the fan, faces included, is the cone that double
    description builds from its own rows: merged_cone reads its rays from
    the flow's cuts."""
    for c in fan.cones:
        cone = c.cone
        oracle = Cone.from_halfspaces(cone.ambient_dim, cone.equalities, cone.inequalities)
        assert cone == oracle, c.key()
    return len(fan.cones)


@pytest.mark.parametrize(
    "instance",
    [
        pytest.param(lambda: parallel_instance(3, 4, 0), id="theta"),
        pytest.param(lambda: parallel_instance(4, 2, Fraction(1, 5)), id="banana4+"),
        pytest.param(lambda: parallel_instance(4, 2, Fraction(-1, 5)), id="banana4-"),
        pytest.param(lambda: cycle_instance(4, 2), id="cycle4-2"),
        pytest.param(lambda: cycle_instance(4, 4), id="cycle4-4"),
        pytest.param(lambda: cycle_instance(5, 2), id="cycle5-2"),
        pytest.param(lambda: cycle_instance(5, 4), id="cycle5-4"),
    ],
)
def test_face_closure_matches_exhaustive_routes(instance):
    """The face closure of the uncontracted pairs gives the fan of the
    contraction loop; the face maps build_fan read from the maximal cones
    are those of each cone's own face lattice; each cone's cached interior
    test agrees with the row-by-row one; and each cone's cut rays are
    double description's."""
    fan = _assert_matches_oracles(*instance())
    assert fan.faces == per_cone_faces(fan)
    _assert_interior_matches_oracle(fan, random.Random(7))
    _assert_cut_rays_match_double_description(fan)


def test_face_closure_matches_exhaustive_routes_on_seeded_instances(random_instances):
    rng = random.Random(8)
    for g, v0, mu, d0, _ in random_instances:
        fan = _assert_matches_oracles(g, v0, mu, d0)
        assert fan.faces == per_cone_faces(fan)
        _assert_interior_matches_oracle(fan, rng)
        _assert_cut_rays_match_double_description(fan)


def loop_instance(rng):
    """A seeded instance on a random graph of up to five vertices with a
    loop, vertex weights up to 2, a half-integral polarization and an
    integer D0 of its degree.  Unlike the theta, banana and cycle fans,
    some of these flows have up-sets with a disconnected side."""
    base = random_connected_graph(rng, max_edges=5, max_extra_vertices=3)
    loop = (f"e{len(base.edges)}", (rng.choice(base.vertex_ids),) * 2)
    g = Graph(base.vertices, base.edges + (loop,), base.legs).validate()
    v0, d = g.leg_map[0], rng.randint(-2, 2)
    mu = {v: Fraction(rng.randint(-3, 3), 2) for v in g.vertex_ids}
    mu[v0] += d - sum(mu.values())
    d0 = {v: rng.randint(-4, 4) for v in g.vertex_ids}
    d0[v0] += d - sum(d0.values())
    return g, v0, Polarization.of(g, mu), Divisor.of(g, d0)


def test_cut_rays_match_double_description_on_graphs_with_loops():
    """The cut rays are double description's on every cone of the fans of
    30 seeded graphs with a loop, weighted vertices and half-integral
    polarizations, faces included."""
    rng = random.Random(19)
    instances = [loop_instance(rng) for _ in range(30)]
    count = sum(_assert_cut_rays_match_double_description(build_fan(*i)) for i in instances)
    assert count > 1000
    assert any(x.denominator == 2 for _, _, mu, _ in instances for _, x in mu.values)


def test_cut_ray_certificate_raises(theta, monkeypatch):
    """A ray outside the cone, or a ray whose zero set nests in another's
    (a cut with a disconnected side), is rejected by an explicit raise."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    monkeypatch.setattr(abelfan, "primitive", lambda ray: tuple(-x for x in ray))
    with pytest.raises(AssertionError, match="outside its cone"):
        merged_cone(pairs[0])
    monkeypatch.undo()
    monkeypatch.setattr(abelfan, "_connected", lambda mask, adj: True)
    rng = random.Random(19)
    with pytest.raises(AssertionError, match="nested zero sets"):
        for _ in range(30):
            build_fan(*loop_instance(rng))


def test_cut_ray_certificate_raises_under_optimize():
    """The certificate is an explicit raise, so `python -O`, which strips
    assert statements, still rejects a ray outside the cone."""
    script = textwrap.dedent(
        """
        from tropabel import abelfan
        from tropabel.worked import theta_instance, worked_pair

        if __debug__:
            raise SystemExit("not running under -O")
        g, mu, d0 = theta_instance()
        pair = worked_pair(g, mu, d0)
        abelfan.merged_cone(pair)
        abelfan.primitive = lambda ray: tuple(-x for x in ray)
        try:
            abelfan.merged_cone(pair)
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
    assert proc.stdout == "rejected: a cut ray lies outside its cone\n"


def test_interior_rows_match_oracle_on_seeded_cones():
    """Seeded random cones of dimensions 0 to 4 in R^1..R^4, from rays and
    from halfspaces (with repeated rows and, for some, an equality), at
    every point of the box -1..2, at their rays and at their ray sums."""
    rng = random.Random(18)
    dims, inside, cones = set(), 0, 0
    while cones < 160:
        n = rng.randint(1, 4)
        if cones % 2:
            rays = [tuple(rng.randint(-1, 3) for _ in range(n)) for _ in range(rng.randint(0, 5))]
            try:
                cone = Cone.from_rays(n, rays)
            except ValidationError:
                continue
        else:
            rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n, n + 3))]
            rows += [rng.choice(rows) for _ in range(rng.randint(0, 2))]
            eqs = [tuple(rng.randint(-1, 1) for _ in range(n))] if rng.random() < 0.3 else []
            try:
                cone = Cone.from_halfspaces(n, eqs, rows)
            except ValidationError:
                continue
        cones += 1
        dims.add(cone.dim)
        oracle = interior_by_inequalities(cone)
        ray_sum = tuple(map(sum, zip(*cone.rays))) if cone.rays else (0,) * n
        for pt in list(product(range(-1, 3), repeat=n)) + list(cone.rays) + [ray_sum]:
            expect = oracle(pt)
            assert contains_interior(cone, pt) == expect, (cone, pt)
            inside += expect
    assert dims == {0, 1, 2, 3, 4}
    assert inside > cones


@pytest.mark.parametrize("d", [4, 8])
def test_build_fan_cap_charges_the_face_work(theta, d):
    """The fan-faces cap counts the work build_fan does: one specialization
    per face of each maximal cone, and for each cone one containment test
    per face of the first maximal cone (in pair order) holding it."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": d, "v1": -d})
    fan = build_fan(theta, "v0", mu, d0)
    walks = [
        [key for _, key, _ in _lattice_faces(fan.cone_by_key(_cone_key(theta.edge_ids, pair)))]
        for pair in enumerate_admissible(theta, "v0", mu, d0)
    ]
    first = {}
    for walk in walks:
        for key in walk:
            first.setdefault(key, len(walk))
    assert sorted(first) == sorted(fan.index)
    specs, tests = sum(map(len, walks)), sum(first.values())
    assert build_fan(theta, "v0", mu, d0, cap=specs + tests) == fan
    cap = specs + tests - 1
    with pytest.raises(DeskScaleError) as exc:
        build_fan(theta, "v0", mu, d0, cap=cap)
    assert str(exc.value) == (
        f"fan faces: {specs} face specializations and {tests} face containment tests"
        f" exceed the cap of {cap}"
    )


def test_verify_fan_catches_wrong_face_divisor(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    fan = build_fan(theta, "v0", mu, d0)
    faces = [dict(f) for f in fan.faces]
    top = fan.maximal[0]
    key = next(k for k in faces[top] if k != fan.cones[top].key())
    faces[top][key] = ((), (("v0", 9), ("v1", -9)))
    with pytest.raises(AssertionError, match="another divisor"):
        verify_fan(dataclasses.replace(fan, faces=tuple(faces)), pairwise=False)


def test_face_pair_certificate_raises(theta, monkeypatch):
    """A new face key gets its pair from _specialize_pair, and build_fan
    raises when that pair's flow is cyclic or its keys differ from the
    ones read from the zero set."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    real_keys, real_pair = abelfan._face_keys, abelfan._specialize_pair
    monkeypatch.setattr(abelfan, "_specialize_pair", lambda pair, zset: None)
    with pytest.raises(AssertionError, match="cyclic flow"):
        build_fan(theta, "v0", mu, d0)
    monkeypatch.setattr(abelfan, "_specialize_pair", real_pair)

    def stray_divisor(amb, pair, zset, pushed):
        key, (eset, _) = real_keys(amb, pair, zset, pushed)
        return key, (eset, ())

    monkeypatch.setattr(abelfan, "_face_keys", stray_divisor)
    with pytest.raises(AssertionError, match="keys differ"):
        build_fan(theta, "v0", mu, d0)


@pytest.mark.parametrize("d", [4, 8])
def test_build_fan_builds_each_face_pair_once(theta, monkeypatch, d):
    """build_fan specializes one pair per cone it has not seen (one
    contract_pushforward per non-maximal cone), and builds one cycle basis
    per (graph, E) it meets.  Subdivisions are not shared, and need not
    be: no two face pairs of these fans have the same (graph, E)."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": d, "v1": -d})
    pushforwards, subdivisions, bases = [], [], []

    def spy(calls, fn):
        def call(*args, **kwargs):
            calls.append((*args, *kwargs.values())[:2])
            return fn(*args, **kwargs)

        return call

    pushforward = spy(pushforwards, abelfan.contract_pushforward)
    monkeypatch.setattr(abelfan, "contract_pushforward", pushforward)
    monkeypatch.setattr(divisor_mod, "subdivide", spy(subdivisions, divisor_mod.subdivide))
    monkeypatch.setattr(abelfan, "cycle_basis", spy(bases, abelfan.cycle_basis))
    fan = build_fan(theta, "v0", mu, d0)
    assert len(pushforwards) == len(fan.cones) - len(fan.maximal)
    for calls in (subdivisions, bases):
        keys = [(g, frozenset(eset)) for g, eset in calls]
        assert len(keys) == len(set(keys))
    assert {(c.provenance.base, c.provenance.eset) for c in fan.cones} == {
        (g, frozenset(eset)) for g, eset in bases
    }


@pytest.mark.parametrize(
    "instance",
    [
        pytest.param(lambda: parallel_instance(3, 4, Fraction(1, 3)), id="theta+"),
        pytest.param(lambda: parallel_instance(3, 4, Fraction(-1, 3)), id="theta-"),
        pytest.param(lambda: parallel_instance(4, 2, Fraction(1, 5)), id="banana4+"),
    ],
)
def test_shared_pushforward_memo_yields_the_same_faces(instance):
    """A pushforward memo shared by all maximal cones, as build_fan shares
    it, leaves every cone's face walk as it is with a fresh one."""
    g, v0, mu, d0 = instance()
    fan = build_fan(g, v0, mu, d0)
    pairs, pushed = {}, {}
    for i in fan.maximal:
        c = fan.cones[i]
        assert list(_lattice_faces(c, pairs, pushed)) == list(_lattice_faces(c)), c.key()
    assert pushed


@pytest.mark.parametrize(
    "instance, shared",
    [
        pytest.param(lambda: parallel_instance(3, 4, Fraction(1, 3)), True, id="theta"),
        pytest.param(lambda: parallel_instance(4, 2, Fraction(-1, 5)), False, id="banana4"),
    ],
)
def test_build_fan_pushes_each_divisor_and_zero_set_forward_once(instance, shared, monkeypatch):
    """Within one build_fan call, pushforward_vertex_map runs at most once
    per distinct (divisor key, zero set) met in the face walks, plus once
    per new face pair.  On theta many maximal cones share a pseudo-divisor,
    so it runs fewer times than faces are walked; banana_4's 15 maximal
    cones have 15 divisors, and share none."""
    g, v0, mu, d0 = instance()
    fan = build_fan(g, v0, mu, d0)
    calls, specialized = [], []
    real_push, real_pair = abelfan.pushforward_vertex_map, abelfan._specialize_pair

    def push(pd, zset):
        calls.append((pd.canonical_key(), frozenset(zset)))
        return real_push(pd, zset)

    def specialize(pair, zset):
        specialized.append(zset)
        return real_pair(pair, zset)

    monkeypatch.setattr(abelfan, "pushforward_vertex_map", push)
    monkeypatch.setattr(abelfan, "_specialize_pair", specialize)
    assert build_fan(g, v0, mu, d0) == fan
    assert len(calls) <= len(set(calls)) + len(specialized)
    assert len(specialized) == len(fan.cones) - len(fan.maximal)
    walked = sum(len(face_lattice_rayset(fan.cones[i].cone)) for i in fan.maximal)
    assert (len(calls) < walked) == shared


def test_fan_json_names_a_face_missing_from_the_fan(theta):
    """AbelFan.to_json maps every face key to a cone id, and raises, naming
    the face, on a key the fan does not hold."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    fan = build_fan(theta, "v0", mu, d0)
    faces = [dict(f) for f in fan.faces]
    stray = (("e9",), (), ((), ()))
    faces[fan.maximal[0]][stray] = ((), (("v0", 0),))
    with pytest.raises(AssertionError, match=r"face \(\('e9',\).* missing from the fan"):
        dataclasses.replace(fan, faces=tuple(faces)).to_json()
    for entry, faces_of in zip(fan.to_json()["cones"], fan.faces):
        assert entry["faces"] == sorted(fan.index[k] for k in faces_of)

