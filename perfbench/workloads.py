"""The four workloads: instances and cases made from a seed, the timed
operation, and the answer check of each.

A workload is a fixed list of cases.  The runner times `op` on every case
in order, pass after pass, then calls `check` on the first answer of each
case; a later pass must give an answer with the same `fingerprint`.  Cases
are stratified, so that each seed draws the same mix of work and only the
details vary: a run measures the library, not the luck of its draw.
"""

import json
import os
import random
from fractions import Fraction

from checks import CheckFailed, check_fan, check_ideal, check_located, check_scaled, require

from tropabel import abelfan, cli, semigroup
from tropabel import metric as metric_mod
from tropabel.divisor import Divisor, Polarization
from tropabel.flow import enumerate_admissible
from tropabel.graph import Graph, build_graph


def _parallel_edges(n):
    """Two vertices joined by n parallel edges, leg 0 at v0 (theta: n = 3)."""
    return {
        "vertices": [{"id": "v0", "weight": 0}, {"id": "v1", "weight": 0}],
        "edges": [{"id": f"e{i}", "ends": ["v0", "v1"]} for i in range(n)],
        "legs": {"0": "v0"},
    }


# seed of the fixed designs the --seed jitters (see Locate and Abel)
DESIGN_SEED = 1903

THETA = _parallel_edges(3)
BANANA4 = _parallel_edges(4)


def _ends(g):
    return {e: tuple(g.ends[e]) for e in g.edge_ids}


def _pair_data(pair):
    """Raw data of an admissible pair, for the checks."""
    return (
        set(pair.eset),
        dict(pair.flow.flow_map),
        {e: tuple(p) for e, p in pair.flow.orient_map.items()},
        dict(pair.resulting_pd.divisor.values),
    )


class Locate:
    """locate_point on theta with D0 = (8, -8) and mu = 0 at seeded points.

    Every call re-enumerates the same 295 admissible pairs and builds cones
    until one contains the point.  The cost of a point is set by how far
    down the pair list its cone sits, which jumps between neighbouring
    directions, so freely drawn points give a median that moves by 10-20%
    from seed to seed.  The cases are therefore a fixed design plus a
    seeded jitter: the triangle of directions is cut into SIDE^2 small
    triangles, case i has a design point drawn once inside triangle i, and
    the seed moves it 1/64 of the way towards a seeded point of the same
    triangle.  All cases share one instance.
    """

    name = "locate"
    SIDE = 7
    SCALE_CHECKS = 3

    def __init__(self, seed):
        rng = random.Random(seed)
        design = random.Random(DESIGN_SEED)
        self.g = build_graph(THETA)
        self.v0 = "v0"
        self.mu = Polarization.zero(self.g)
        self.d0 = Divisor.of(self.g, {"v0": 8, "v1": -8})
        if self.d0.degree() != self.mu.degree():
            raise ValueError("deg D0 must equal deg mu")
        self.cases = []
        for tri in _triangles(self.SIDE):
            p, q = _in_triangle(design, tri), _in_triangle(rng, tri)
            coords = [x + (y - x) / 64 for x, y in zip(p, q)]
            if min(coords) <= 0:
                raise ValueError("seeded point is not positive")
            self.cases.append(dict(zip(self.g.edge_ids, coords)))

    def op(self, case):
        return abelfan.locate_point(self.g, self.v0, self.mu, self.d0, case)

    @staticmethod
    def fingerprint(answer):
        cone, split = answer
        return cone.provenance.canonical_key(), tuple(sorted(split.items()))

    def check(self, case, answer):
        cone, split = answer
        eset, phi, orient, divisor = _pair_data(cone.provenance)
        check_located(
            _ends(self.g), self.v0, dict(self.mu.values), dict(self.d0.values),
            dict(case), eset, phi, orient, divisor, dict(split),
        )

    def scale_check(self, case, answer, factor):
        scaled = {e: v * factor for e, v in case.items()}
        again = self.op(scaled)
        check_scaled(
            (answer[0].provenance.canonical_key(), answer[1]),
            (again[0].provenance.canonical_key(), again[1]),
            factor,
        )


def _in_triangle(rng, tri):
    """A random rational point inside a triangle (positive weights)."""
    w = [rng.randint(1, 1000) for _ in range(3)]
    return [sum(wi * v[k] for wi, v in zip(w, tri)) / sum(w) for k in range(3)]


def _triangles(side):
    """The side^2 small triangles of the direction simplex, as vertex lists
    of barycentric coordinates with denominator `side`."""
    out = []
    for i in range(side):
        for j in range(side - i):
            a = (i, j, side - i - j)
            b = (i + 1, j, side - i - j - 1)
            c = (i, j + 1, side - i - j - 1)
            out.append([tuple(Fraction(x, side) for x in p) for p in (a, b, c)])
            if i + j + 1 < side:
                d = (i + 1, j + 1, side - i - j - 2)
                out.append([tuple(Fraction(x, side) for x in p) for p in (b, c, d)])
    return out


class Abel:
    """abel_eval on a 5-cycle of weight-1 vertices with a pendant weight-0
    vertex w0 at v3, which stable reduction contracts, and legs at v0 and v2.

    Case i has weights (a, -a, 0) with a = 1 + i % 3, its own lengths, and
    its own degree-0 polarization on the stable model with three integer
    and two half-odd values.  The window of candidate divisor values at a
    vertex holds three integers for an integer polarization value and two
    otherwise, so that pattern fixes how much quasistable enumeration a case
    does; cases share little work.  Polarizations and lengths come from a
    fixed design, and the seed scales each length by a factor within 1% of
    1, so every seed measures the same mix of work.
    """

    name = "abel"
    N_CASES = 42
    SCALE_CHECKS = 3
    CYCLE = tuple(f"v{i}" for i in range(5))

    def __init__(self, seed):
        rng = random.Random(seed)
        design = random.Random(DESIGN_SEED)
        cycle_edges = tuple(
            (f"e{i}", tuple(sorted((self.CYCLE[i], self.CYCLE[(i + 1) % 5])))) for i in range(5)
        )
        self.g = Graph(
            tuple((v, 1) for v in self.CYCLE) + (("w0", 0),),
            cycle_edges + (("e5", ("v3", "w0")),),
            ((0, "v0"), (1, "v2")),
        )
        self.g.validate()
        self.hat_ends = dict(cycle_edges)
        stable = Graph(tuple((v, 1) for v in self.CYCLE), cycle_edges, ((0, "v0"),))
        self.cases = []
        for i in range(self.N_CASES):
            a = 1 + i % 3
            mu = self._polarization(design)
            lengths = {
                e: Fraction(design.randint(1, 1000), design.randint(1, 8))
                * Fraction(1000 + rng.randint(-10, 10), 1000)
                for e in self.g.edge_ids
            }
            inp = metric_mod.AbelInput((a, -a, 0), Polarization.of(stable, mu))
            if inp.degree(self.g.genus()) != inp.polarization.degree():
                raise ValueError("polarization degree must match the divisor degree")
            self.cases.append((metric_mod.MetricGraph.of(self.g, lengths), inp, a, mu))

    def _polarization(self, rng):
        verts = list(self.CYCLE)
        rng.shuffle(verts)
        vals = {}
        for j, v in enumerate(verts):
            if j < 3:
                vals[v] = Fraction(rng.randint(-2, 2))
            else:
                vals[v] = Fraction(2 * rng.randint(-2, 1) + 1, 2)
        vals[verts[0]] -= sum(vals.values())
        return vals

    def op(self, case):
        return metric_mod.abel_eval(case[0], case[1])

    @staticmethod
    def fingerprint(answer):
        return answer.answer_key(), answer.split_values

    def check(self, case, answer):
        metric, _, a, mu = case
        pair = answer.pair
        require(_ends(pair.base) == self.hat_ends, "pair is not on the cycle left by stable reduction")
        lengths = dict(metric.lengths)
        require(dict(answer.free_lengths) == {"e5": lengths["e5"]}, "pendant length is not free")
        eset, phi, orient, divisor = _pair_data(pair)
        split = dict(answer.split_values)
        check_located(
            self.hat_ends, "v0", mu, {"v0": a, "v2": -a},
            {e: lengths[e] for e in self.hat_ends}, eset, phi, orient, divisor, split,
        )
        # on the cycle nothing is suppressed: the answer is the pair's divisor,
        # each point sitting at its a-half's length from the smaller endpoint
        require(dict(answer.divisor.divisor.values) == divisor, "stable divisor differs")
        require(
            dict(answer.positions) == {f"x:{e}": (e, split[f"{e}:a"]) for e in eset},
            "positions differ from the split",
        )

    def scale_check(self, case, answer, factor):
        metric, inp, _, _ = case
        scaled = metric_mod.MetricGraph.of(self.g, {e: v * factor for e, v in metric.lengths})
        again = metric_mod.abel_eval(scaled, inp)
        check_scaled(
            (answer.answer_key(), dict(answer.split_values)),
            (again.answer_key(), dict(again.split_values)),
            factor,
        )


class Fan:
    """`tropabel build-fan`, called through the CLI entry point in-process.

    Two cases in three are theta with D0 = (4, -4) and the third is banana_4
    with D0 = (2, -2).  Each case has a fresh polarization (p, -p) with
    p = k/q, q in {3, 5, 7} and 0 < |p| < 1/2.  Such p is never
    half-integral, so every case has the generic fan of its graph; no two
    cases share an instance.  A theta case costs about the same whatever p
    is, but a banana_4 case with p > 0 costs about 40% of one with p < 0.
    The sign of p and q therefore follow a fixed design, half of each
    graph's cases on either sign and q cycling through 3, 5, 7, and the
    seed draws |k| and the check points: every seed measures the same mix.
    The fan is written as JSON to a file, read back and checked.
    """

    name = "fan"
    N_CASES = 42
    POINTS = 8

    def __init__(self, seed):
        rng = random.Random(seed)
        self.graphs = {"theta": THETA, "banana4": BANANA4}
        d0 = {"theta": "4,-4", "banana4": "2,-2"}
        for doc in self.graphs.values():
            build_graph(doc)
        self.cases = []
        for i in range(self.N_CASES):
            name = "banana4" if i % 3 == 2 else "theta"
            sign = (-1) ** (i // 3 if name == "banana4" else i % 3)
            q = (3, 5, 7)[(i // 3) % 3]
            k = sign * rng.randint(1, q // 2)
            n = len(self.graphs[name]["edges"])
            points = [[rng.randint(1, 60) for _ in range(n)] for _ in range(self.POINTS)]
            self.cases.append((name, f"{k}/{q},{-k}/{q}", d0[name], points))
        self.workdir = None

    def prepare(self, workdir):
        """Write the graph files the CLI reads."""
        self.workdir = workdir
        for name, doc in self.graphs.items():
            with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
                json.dump(doc, fh)

    def op(self, case):
        name, mu, d0, _ = case
        out = os.path.join(self.workdir, "fan.json")
        code = cli.main(
            ["build-fan", "--graph", os.path.join(self.workdir, f"{name}.json"),
             f"--mu={mu}", f"--D0={d0}", "--out", out]
        )
        return code, out

    @staticmethod
    def fingerprint(answer):
        return answer

    def collect(self, answer):
        """Read the written fan back (outside the timed call)."""
        code, out = answer
        if code != 0:
            raise RuntimeError(f"build-fan exited with {code}")
        with open(out) as fh:
            return fh.read()

    def check(self, case, answer):
        name, _, _, points = case
        try:
            doc = json.loads(answer)
        except json.JSONDecodeError as exc:
            raise CheckFailed(f"build-fan wrote malformed JSON: {exc}") from exc
        check_fan(doc, len(self.graphs[name]["edges"]), points)


class Ideal:
    """ray_power_intersection over every (admissible pair, subdivided edge)
    of theta with D0 = (4, -4) and mu = 0: 63 cases, whose costs span more
    than two orders of magnitude.

    The admissible pairs are found during set-up, so the flow enumeration
    stays outside the timed calls.  The cases do not depend on the seed;
    the seed orders them.
    """

    name = "ideal"

    def __init__(self, seed):
        g = build_graph(THETA)
        self.g = g
        mu = Polarization.zero(g)
        d0 = Divisor.of(g, {"v0": 4, "v1": -4})
        pairs = enumerate_admissible(g, "v0", mu, d0)
        self.cases = [(pair, e0) for pair in pairs for e0 in sorted(pair.eset)]
        random.Random(seed).shuffle(self.cases)

    def op(self, case):
        return semigroup.ray_power_intersection(*case)

    @staticmethod
    def fingerprint(answer):
        return tuple(tuple(m.key() for m in ideal.gens) for ideal in answer)

    def check(self, case, answer):
        pair, e0 = case
        lhs, rhs = answer
        eset, phi, orient, _ = _pair_data(pair)

        def triples(ideal):
            return [(tuple(m.u), m.a, m.b) for m in ideal.gens]

        check_ideal(
            _ends(self.g), eset, phi, orient, e0, list(self.g.edge_ids),
            lhs.ring.rays, triples(lhs), triples(rhs),
        )


WORKLOADS = {w.name: w for w in (Locate, Abel, Fan, Ideal)}
