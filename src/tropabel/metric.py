"""Metric graphs, the weighted target divisor, Abel-map evaluation through
point location, and the tropical double-ramification cones.

Evaluation first passes to the stable model: pendant branches are contracted
(their lengths are free coordinates of the answer) and suppressed valence-2
vertices re-enter as subdivision points when positions are reported.  Points
on edges are stored as (edge id, offset from the lexicographically smaller
endpoint).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .abelfan import locate_pair, merged_cone
from .divisor import Divisor, Polarization, PseudoDivisor
from .errors import ValidationError, WorkCap
from .flow import AdmissiblePair, FlowAssignment, acyclic_flows, div_flow
from .graph import Graph, exceptional_id, stable_reduction
from .linalg import exact_value


@dataclass(frozen=True)
class MetricGraph:
    """A graph with positive rational edge lengths."""

    graph: Graph
    lengths: tuple  # sorted (edge, Fraction)

    def __post_init__(self):
        lm = {e: exact_value(v) for e, v in self.lengths}
        for e in self.graph.edge_ids:
            if e not in lm:
                raise ValidationError(f"edge {e} has no length")
        for e, v in lm.items():
            if e not in self.graph.ends:
                raise ValidationError(f"length keys unknown edge {e}")
            if v <= 0:
                raise ValidationError(f"length of {e} must be positive")
        object.__setattr__(self, "lengths", tuple(sorted(lm.items())))

    @staticmethod
    def of(graph, mapping):
        return MetricGraph(graph, tuple(mapping.items()))

    @cached_property
    def length_map(self):
        return dict(self.lengths)


def canonical_divisor(g):
    """omega(v) = 2 w(v) + val(v) - 2, of degree 2 genus - 2."""
    d = Divisor.of(g, {v: 2 * g.weight[v] + g.valence(v) - 2 for v in g.vertex_ids})
    if d.degree() != 2 * g.genus() - 2:
        raise AssertionError("canonical divisor has the wrong degree")
    return d


def target_divisor(g, weights):
    """The divisor m * omega + sum a_i leg(i) for weights (a_0..a_n, m)."""
    *a, m = [int(x) for x in weights]
    vals = {v: 0 for v in g.vertex_ids}
    for i, ai in enumerate(a):
        if i not in g.leg_map:
            raise ValidationError(f"graph has no leg {i}")
        vals[g.leg_map[i]] += ai
    if m:
        omega = canonical_divisor(g)
        for v in g.vertex_ids:
            vals[v] += m * omega[v]
    d = Divisor.of(g, vals)
    if d.degree() != sum(a) + m * (2 * g.genus() - 2):
        raise AssertionError("target divisor has the wrong degree")
    return d


@dataclass(frozen=True)
class AbelInput:
    """Integer weight sequence (a_0..a_n, m) plus the polarization on the
    stable model."""

    weights: tuple
    polarization: Polarization

    def degree(self, genus):
        *a, m = self.weights
        return sum(a) + m * (2 * genus - 2)


@dataclass(frozen=True)
class AbelResult:
    """Output of an Abel evaluation.

    stable_model: the stable graph the answer lives on; divisor: the located
    quasistable pseudo-divisor on it; positions: exceptional point -> (edge,
    offset) placements; pair: the admissible pair on the intermediate model;
    free_lengths: lengths of the contracted pendant branches (they do not
    constrain the answer).
    """

    stable_model: Graph
    divisor: PseudoDivisor
    positions: tuple
    pair: object
    split_values: tuple
    free_lengths: tuple

    def answer_key(self):
        return (
            tuple(sorted(self.pair.eset)),
            self.pair.flow.canonical_key(),
            self.divisor.canonical_key(),
        )


def abel_eval(metric, inp):
    """Evaluate the Abel map at a metric graph.

    The model keeps leg 0 only, is stable-reduced, and the base divisor (the
    weighted canonical-plus-legs target computed before reduction) is pushed
    to the intermediate model; locating the lengths in the cone partition
    (locate_pair, which builds no cone) gives the unique admissible pair
    and its quasistable answer, whose exceptional points are then placed on
    the stable model with suppressed valence-2 vertices contributing their
    chain offsets.
    """
    g = metric.graph
    weights = inp.weights
    n_legs = len(weights) - 1
    for i in range(n_legs):
        if i not in g.leg_map:
            raise ValidationError(f"graph has no leg {i}")
    d0_full = target_divisor(g, weights)
    one_leg = Graph(g.vertices, g.edges, ((0, g.leg_map[0]),))
    st, red, refinement = stable_reduction(one_leg)
    hat = refinement.result
    mu = inp.polarization
    if set(mu.graph.vertex_ids) != set(st.vertex_ids):
        raise ValidationError("polarization must live on the stable model")
    if mu.degree() != d0_full.degree():
        raise ValidationError("polarization degree must match the divisor degree")
    # push the divisor to the intermediate model; lift the polarization there
    d0_hat = d0_full.pushforward(red)
    mu_hat = Polarization.of(
        hat,
        {v: (mu[v] if v in mu.graph.weight else Fraction(0)) for v in hat.vertex_ids},
    )
    v0_hat = hat.leg_map[0]
    point = {e: metric.length_map[e] for e in hat.edge_ids}
    pair, split = locate_pair(hat, v0_hat, mu_hat, d0_hat, point)
    # certificate: located divisor differs from the base one by the flow
    sub = pair.resulting_pd.subdivision
    lifted = d0_hat.lift_to_subdivision(sub)
    if pair.resulting_pd.divisor.sub(lifted).values != div_flow(pair.flow).values:
        raise AssertionError("located divisor differs from the base divisor by more than the flow")
    divisor_st, positions = _place_on_stable_model(st, refinement, metric, pair, split)
    free = tuple(
        (e, metric.length_map[e]) for e in g.edge_ids if e not in hat.edge_ids
    )
    return AbelResult(
        stable_model=st,
        divisor=divisor_st,
        positions=tuple(sorted(positions.items())),
        pair=pair,
        split_values=tuple(sorted(split.items())),
        free_lengths=free,
    )


def _place_on_stable_model(st, refinement, metric, pair, split):
    """Transfer the located pseudo-divisor from the intermediate model to the
    stable one, computing offsets along suppressed-vertex chains."""
    hat = refinement.result
    div = pair.resulting_pd.divisor
    st_e = []
    positions = {}
    for f in st.edge_ids:
        chain = refinement.chain_map[f]
        carrier = None  # offset of the -1 point inside this edge, if any
        offset = Fraction(0)
        for idx, (he, forward) in enumerate(chain):
            if he in pair.eset:
                ha, hb = pair.resulting_pd.subdivision.halves[he]
                # the a-half sits at the smaller endpoint of he; walking the
                # chain forward means entering through that endpoint
                enter_len = Fraction(split[ha] if forward else split[hb])
                if carrier is not None:
                    raise AssertionError("two interior points on one edge")
                carrier = offset + enter_len
            offset += metric.length_map[he]
            if idx < len(chain) - 1:
                tail, head = hat.ends[he]
                vtx = head if forward else tail
                value = div[vtx]
                if value == -1:
                    if carrier is not None:
                        raise AssertionError("two interior points on one edge")
                    carrier = offset
                elif value != 0:
                    raise AssertionError("suppressed vertex with nonzero value")
        if carrier is not None:
            st_e.append(f)
            positions[exceptional_id(f)] = (f, carrier)
    out_vals = {v: div[v] for v in st.vertex_ids}
    out_vals.update({exceptional_id(f): -1 for f in st_e})
    return PseudoDivisor.of(st, frozenset(st_e), out_vals), positions


def double_ramification_cones(g, weights, cap=1 << 20):
    """All acyclic flows on g (nothing subdivided) killing the target
    divisor, each with its fan cone, in canonical flow order.

    The target must have degree zero; the flows come from acyclic_flows,
    loops carrying zero flow.  Raises DeskScaleError once more than `cap`
    flows have been produced.
    """
    d = target_divisor(g, weights)
    if d.degree() != 0:
        raise ValidationError("target divisor must have degree 0")
    target = Divisor.of(g, {v: -d[v] for v in g.vertex_ids})
    work = WorkCap("DR flows", cap, "flows")
    flows = []
    for fa in acyclic_flows(g, target):
        work.charge("flows")
        flows.append(fa)
    flows.sort(key=FlowAssignment.canonical_key)
    pd = PseudoDivisor.of(g, frozenset(), {v: 0 for v in g.vertex_ids})
    return [merged_cone(AdmissiblePair(g, frozenset(), fa, pd)) for fa in flows]
