"""Exact-arithmetic computations with quasistable divisors on graphs, acyclic
flows, the edge-length fan refining the nonnegative orthant, Abel-map point
location on metric graphs, and monomial ideals in the attached semigroup
rings."""

from .abelfan import (
    AbelCone,
    AbelFan,
    build_fan,
    cone_faces,
    expected_dim,
    locate_point,
    merged_cone,
    verify_fan,
)
from .cone import Cone, dual_and_hilbert, semigroup_generators
from .divisor import (
    Divisor,
    Polarization,
    PseudoDivisor,
    beta,
    enumerate_quasistable,
    is_quasistable,
)
from .errors import DeskScaleError, GoldenMismatch, SearchBoundError, ValidationError
from .flow import (
    AdmissiblePair,
    FlowAssignment,
    acyclic_flows,
    div_flow,
    enumerate_admissible,
    is_acyclic_flow,
)
from .graph import (
    CycleBasis,
    Graph,
    Refinement,
    Specialization,
    Subdivision,
    build_graph,
    contract,
    cycle_basis,
    stable_reduction,
    subdivide,
)
from .metric import (
    AbelInput,
    AbelResult,
    MetricGraph,
    abel_eval,
    canonical_divisor,
    double_ramification_cones,
    target_divisor,
)
from .semigroup import (
    BoundaryFunctionals,
    Monomial,
    MonomialIdeal,
    MonomialRing,
    boundary_functionals,
    intersect_ideals,
    model_symbolic_power,
    ray_power_intersection,
    symbolic_power_ideal,
    symbolic_power_membership,
)

__version__ = "0.1.0"
