import random
from fractions import Fraction
from itertools import combinations

import pytest

from tropabel.abelfan import (
    AbelFan,
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
from tropabel.cone import face_lattice_rayset
from tropabel.divisor import Divisor, Polarization
from tropabel.errors import ValidationError
from tropabel.flow import FlowAssignment, enumerate_admissible
from tropabel.graph import Graph, contract, subdivide

from conftest import (
    cycle_instance,
    cycle_json,
    parallel_instance,
    random_connected_graph,
    random_polarization,
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
    rows = pair_rows(theta, pair)
    # coordinates: (e0:a, e0:b, e1:a, e1:b, e2)
    assert rows.sub.result.edge_ids == ("e0:a", "e0:b", "e1:a", "e1:b", "e2")
    assert set(rows.split_equalities()) == {(1, 2, 0, 0, -1), (0, 0, 1, 2, -1)}
    c, _ = split_cone(theta, pair.eset, pair.flow)
    assert c.dim == 3
    assert c.rays == split_rays(merged_cone(theta, pair))


def test_split_cone_trivial_orthant(theta):
    """With no subdivision and zero flow the split cone is the orthant."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 0, "v1": 0})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    (pair,) = [p for p in pairs if not any(v for _, v in p.flow.flow)]
    ac = merged_cone(theta, pair)
    assert not any(any(r) for r in ac.rows.split_equalities())
    assert set(split_rays(ac)) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    c, _ = split_cone(theta, frozenset(), FlowAssignment.zero(theta))
    assert c.dim == 3
    assert c.rays == split_rays(ac)


def test_split_cone_tree_graph():
    g = Graph((("a", 0), ("b", 0)), (("e", ("a", "b")),), ((0, "a"),))
    mu = Polarization.zero(g)
    (pair,) = enumerate_admissible(g, "a", mu, Divisor.of(g, {"a": 2, "b": -2}))
    assert pair.flow.flow == (("e", 2),)
    assert split_rays(merged_cone(g, pair)) == ((1,),)
    fa = FlowAssignment.of(g, {"e": ("a", "b")}, {"e": 2})
    assert split_cone(g, frozenset(), fa)[0].rays == ((1,),)


def test_merged_cone_matches_worked_example(theta):
    pair, _, _ = figure_pair(theta)
    ac = merged_cone(theta, pair)
    assert set(ac.cone.rays) == {(1, 1, 1), (1, 2, 2), (2, 1, 2), (1, 1, 2)}
    assert set(ac.cone.facet_rows) == {(2, 0, -1), (-1, 0, 1), (0, 2, -1), (0, -1, 1)}
    assert ac.cone.dim == 3 == expected_dim(pair)


def test_merged_cone_empty_subdivision_is_split_cone(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = [p for p in enumerate_admissible(theta, "v0", mu, d0) if not p.eset]
    for p in pairs:
        ac = merged_cone(theta, p)
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
        cones.extend(merged_cone(g, p) for p in pairs)
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
        ac = merged_cone(theta, p)
        assert ac.cone.dim == expected_dim(p)


def test_inverse_integral_roundtrip(theta):
    """Integer points of the merged cone pull back to integer split points
    and merge forward to themselves."""
    rng = random.Random(9)
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    for p in enumerate_admissible(theta, "v0", mu, d0):
        ac = merged_cone(theta, p)
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
    ac = merged_cone(theta, pair)
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
    ac = merged_cone(theta, pair)
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
        hits = [c for c in fan.cones if c.cone.contains_interior(tuple(pt))]
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
    from tropabel.abelfan import AbelFan

    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    fan = build_fan(theta, "v0", mu, d0)
    keep = [c for c in fan.cones if c.cone.dim != 1 or c.spec_contracted]
    broken = AbelFan(theta, d0, mu, tuple(keep), fan.maximal[:10])
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
    """The debug mode keeps scanning and confirms no second open cone."""
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    ac, _ = locate_point(theta, "v0", mu, d0, {"e0": 5, "e1": 3, "e2": 4}, check_unique=True)
    ac2, _ = locate_point(theta, "v0", mu, d0, {"e0": 5, "e1": 3, "e2": 4}, reverse=True)
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
    cones = [merged_cone(theta, p) for p in pairs]
    for _ in range(400):
        pt = tuple(rng.randint(1, 9) for _ in range(3))
        hits = [c for c in cones if c.cone.contains_interior(pt)]
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
        cones = [merged_cone(g, p) for p in pairs]
        for _ in range(120):
            pt = tuple(rng.randint(1, 9) for _ in g.edge_ids)
            hits = [c for c in cones if c.cone.contains_interior(pt)]
            assert len(hits) == 1, (g.to_json(), dict(d0.values), pt)
        done += 1


def test_partition_census_saturates(theta):
    """Structured small-integer sampling reaches every admissible pair."""
    rng = random.Random(99)
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    pairs = enumerate_admissible(theta, "v0", mu, d0)
    cones = [merged_cone(theta, p) for p in pairs]
    seen = set()
    # integer grid up to 7 suffices to meet every open cone of this fan
    for a in range(1, 8):
        for b in range(1, 8):
            for c in range(1, 8):
                pt = (a, b, c)
                for i, cone in enumerate(cones):
                    if cone.cone.contains_interior(pt):
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
                ac = merged_cone(spec.target, pair, ambient_edges=amb, spec_contracted=frozenset(cset))
                cones[ac.key()] = ac
                if not cset:
                    maximal_keys.append(ac.key())
    ordered = tuple(cones[k] for k in sorted(cones))
    index = {c.key(): i for i, c in enumerate(ordered)}
    fan = AbelFan(g, d0, pol, ordered, tuple(sorted(index[k] for k in maximal_keys)))
    object.__setattr__(fan, "faces", tuple(subset_loop_faces(c) for c in ordered))
    return fan


def subset_loop_faces(abcone):
    """Face key -> face divisor, from specializing every subset of the
    cone's subdivision edges and keeping the acyclic images."""
    pair = abcone.provenance
    sub_edges = pair.resulting_pd.subdivision.result.edge_ids
    out = {}
    for r in range(len(sub_edges) + 1):
        for zset in combinations(sub_edges, r):
            face = _specialize_pair(pair.base, pair, frozenset(zset))
            if face is None:
                continue
            _, pair2, contracted = face
            key = (
                tuple(sorted(abcone.spec_contracted | contracted)),
                tuple(sorted(pair2.eset)),
                pair2.flow.canonical_key(),
            )
            divisor = pair2.resulting_pd.canonical_key()
            assert out.setdefault(key, divisor) == divisor, key
    return out


def _assert_matches_oracles(g, v0, mu, d0):
    """Same JSON as the contraction loop, and each cone's lattice faces
    (keys and divisors) are the subset loop's."""
    fan = build_fan(g, v0, mu, d0)
    oracle = contraction_loop_fan(g, v0, mu, d0)
    assert fan.to_json() == oracle.to_json()
    assert fan.faces == oracle.faces
    return fan


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
    contraction loop; the face map derived from the cones alone is the one
    build_fan seeded."""
    fan = _assert_matches_oracles(*instance())
    rebuilt = AbelFan(fan.graph, fan.base_divisor, fan.polarization, fan.cones, fan.maximal)
    assert rebuilt.faces == fan.faces


def test_face_closure_matches_exhaustive_routes_on_seeded_instances(random_instances):
    for g, v0, mu, d0, _ in random_instances:
        _assert_matches_oracles(g, v0, mu, d0)


def test_verify_fan_catches_wrong_face_divisor(theta):
    mu = Polarization.zero(theta)
    d0 = Divisor.of(theta, {"v0": 4, "v1": -4})
    fan = build_fan(theta, "v0", mu, d0)
    faces = [dict(f) for f in fan.faces]
    top = fan.maximal[0]
    key = next(k for k in faces[top] if k != fan.cones[top].key())
    faces[top][key] = ((), (("v0", 9), ("v1", -9)))
    object.__setattr__(fan, "faces", tuple(faces))
    with pytest.raises(AssertionError, match="another divisor"):
        verify_fan(fan, pairwise=False)
