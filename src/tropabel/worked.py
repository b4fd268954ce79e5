"""The bundled worked instance (two vertices joined by three strands) and the
reports the golden-example runner replays against committed files."""

from .abelfan import build_fan, locate_point, merged_cone
from .divisor import Divisor, Polarization, enumerate_quasistable
from .flow import enumerate_admissible
from .graph import build_graph
from .semigroup import (
    boundary_functionals,
    node_power_intersection,
    node_ring,
    symbolic_power_ideal,
)


def theta_graph():
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


def theta_instance():
    g = theta_graph()
    mu = Polarization.zero(g)
    d0 = Divisor.of(g, {"v0": 4, "v1": -4})
    return g, mu, d0


def worked_pair(g, mu, d0):
    for p in enumerate_admissible(g, "v0", mu, d0):
        if p.eset == {"e0", "e1"} and dict(p.flow.flow) == {
            "e0:a": 1,
            "e0:b": 2,
            "e1:a": 1,
            "e1:b": 2,
            "e2": 1,
        }:
            return p
    raise AssertionError("worked pair missing")


def poset_report():
    """The quasistable poset of the bundled graph with the zero polarization,
    plus the six-element principal picture drawn from its top strand."""
    g = theta_graph()
    mu = Polarization.zero(g)
    poset = enumerate_quasistable(g, "v0", mu)
    figure_keys = [
        (("e0", "e1"), (("v0", 1), ("v1", 1), ("x:e0", -1), ("x:e1", -1))),
        (("e0",), (("v0", 1), ("v1", 0), ("x:e0", -1))),
        (("e0",), (("v0", 0), ("v1", 1), ("x:e0", -1))),
        ((), (("v0", 1), ("v1", -1))),
        ((), (("v0", 0), ("v1", 0))),
        ((), (("v0", -1), ("v1", 1))),
    ]
    index = {pd.canonical_key(): i for i, pd in enumerate(poset.elements)}
    fig_idx = [index[k] for k in figure_keys]
    inside = set(fig_idx)
    arrows = sorted([a, b] for a, b in poset.covers if a in inside and b in inside)
    layer_counts = {}
    for pd in poset.elements:
        layer_counts[len(pd.eset)] = layer_counts.get(len(pd.eset), 0) + 1
    return {
        "poset": poset.to_json(),
        "element_count": len(poset.elements),
        "elements_by_layer": {str(k): v for k, v in sorted(layer_counts.items())},
        "figure_elements": fig_idx,
        "figure_arrows": arrows,
    }


def cone_report():
    """Split-cone equations and merged-cone facets/rays of the worked pair."""
    g, mu, d0 = theta_instance()
    pair = worked_pair(g, mu, d0)
    ac = merged_cone(pair)
    return {
        "split_coordinates": list(ac.rows.sub.result.edge_ids),
        "split_equalities": sorted([list(r) for r in ac.rows.split_equalities()]),
        "merged_coordinates": list(g.edge_ids),
        "merged_facets": sorted([list(r) for r in ac.cone.facet_rows]),
        "merged_rays": sorted([list(r) for r in ac.cone.rays]),
    }


def fan_report():
    """Shape of the full fan: counts by dimension and by contraction level."""
    g, mu, d0 = theta_instance()
    fan = build_fan(g, "v0", mu, d0)
    dims = {}
    for i in fan.maximal:
        d = fan.cones[i].cone.dim
        dims[str(d)] = dims.get(str(d), 0) + 1
    sample, _ = locate_point(g, "v0", mu, d0, {"e0": 2, "e1": 2, "e2": 3})
    return {
        "maximal_count": len(fan.maximal),
        "maximal_by_dim": dims,
        "total_cones": len(fan.cones),
        "sample_point": {"e0": "2", "e1": "2", "e2": "3"},
        "sample_located": sample.provenance.to_json(),
    }


def ideal_report():
    """Dual rays, dual-monoid basis, boundary functionals, the four ray-wise
    symbolic powers and their intersection for the worked pair."""
    g, mu, d0 = theta_instance()
    pair = worked_pair(g, mu, d0)
    ring, ac = node_ring(pair, "e0")
    dual, hb, _ = ring.monoid
    bf0 = boundary_functionals(ac, "e0")
    bf1 = boundary_functionals(ac, "e1")
    r1, r2, r3, r4 = (1, 1, 1), (2, 1, 2), (1, 2, 2), (1, 1, 2)
    ideals = {
        "I1": symbolic_power_ideal(ring, r1, 2),
        "I2": symbolic_power_ideal(ring, r2, 2),
        "I3": symbolic_power_ideal(ring, r3, 1),
        "I4": symbolic_power_ideal(ring, r4, 1),
    }
    lhs, rhs = node_power_intersection(ring, ac, "e0")
    return {
        "dual_rays": sorted([list(r) for r in dual]),
        "dual_monoid_basis": sorted([list(r) for r in hb]),
        "functionals": {
            "e0": {"u_prime": list(bf0.u_prime), "u_second": list(bf0.u_second)},
            "e1": {"u_prime": list(bf1.u_prime), "u_second": list(bf1.u_second)},
        },
        "symbolic_powers": {k: sorted(v.format()) for k, v in ideals.items()},
        "intersection": sorted(lhs.format()),
        "closed_form": sorted(rhs.format()),
        "two_sided_equal": lhs.equals(rhs),
    }


def all_reports():
    return {
        "poset": poset_report(),
        "cone": cone_report(),
        "fan": fan_report(),
        "ideal": ideal_report(),
    }
