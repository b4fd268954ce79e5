"""Command-line front end: JSON in, JSON out, deterministic bytes.

Exit codes: 0 success, 1 validation error, 2 desk-scale cap exceeded,
3 golden-file mismatch.  All rationals are serialized as "p/q" strings.
The environment variable TAK_CAP overrides enumeration caps.
"""

import argparse
import functools
import json
import os
import random
import re
import sys

from .abelfan import (
    build_fan,
    classify_ray,
    contracted_edges,
    expected_dim,
    locate_pair,
    merged_cone,
    verify_fan,
)
from .cone import Cone, dual_and_hilbert
from .divisor import Divisor, Polarization, enumerate_quasistable
from .errors import DeskScaleError, GoldenMismatch, ValidationError
from .flow import enumerate_admissible
from .graph import build_graph
from .linalg import dot, format_rational, parse_rational
from .metric import double_ramification_cones
from .semigroup import node_ring, model_symbolic_power, ray_power_intersection, symbolic_power_ideal

DEFAULT_CAP = 1 << 20

# options taking comma-separated numbers, whose first value may be negative
NUMBER_LIST_OPTIONS = ("--mu", "--D0", "--point", "--A", "--rays")


def _dump(data, out_path):
    text = json.dumps(data, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_graph(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read graph file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return build_graph(data)


def _parse_mu(text, g):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) == 1 and len(g.vertex_ids) != 1:
        value = parse_rational(parts[0])
        if value != 0:
            raise ValidationError(
                "a single polarization value is only allowed as the uniform 0"
            )
        return Polarization.zero(g)
    if len(parts) != len(g.vertex_ids):
        raise ValidationError(
            f"polarization needs {len(g.vertex_ids)} values (canonical vertex order)"
        )
    return Polarization.of(g, dict(zip(g.vertex_ids, map(parse_rational, parts))))


def _parse_d0(text, g):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(g.vertex_ids):
        raise ValidationError(
            f"divisor needs {len(g.vertex_ids)} values (canonical vertex order)"
        )
    try:
        vals = [int(p) for p in parts]
    except ValueError as exc:
        raise ValidationError(f"divisor values must be integers: {exc}") from exc
    return Divisor.of(g, dict(zip(g.vertex_ids, vals)))


def _parse_point(text, g):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != len(g.edge_ids):
        raise ValidationError(
            f"point needs {len(g.edge_ids)} coordinates (canonical edge order)"
        )
    return dict(zip(g.edge_ids, map(parse_rational, parts)))


def _parse_rays(text):
    """The cone spanned by semicolon-separated rays of comma-separated
    integers, all of one length."""
    try:
        rows = [tuple(int(x) for x in chunk.split(",")) for chunk in text.split(";") if chunk.strip()]
    except ValueError as exc:
        raise ValidationError(f"ray coordinates must be integers: {exc}") from exc
    if not rows:
        raise ValidationError("no rays given")
    if len({len(r) for r in rows}) != 1:
        raise ValidationError("rays must all have the same number of coordinates")
    return Cone.from_rays(len(rows[0]), rows)


def _parse_weights(text):
    try:
        return tuple(int(p.strip()) for p in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"weight sequence must be integers: {exc}") from exc


def _v0(g):
    if 0 not in g.leg_map:
        raise ValidationError("graph must carry leg 0")
    return g.leg_map[0]


def _cap(args):
    """--cap, else TAK_CAP, else DEFAULT_CAP; a cap below 1 is an input error."""
    cap, source = getattr(args, "cap", None), "--cap"
    if cap is None:
        env = os.environ.get("TAK_CAP")
        if not env:
            return DEFAULT_CAP
        try:
            cap, source = int(env), "TAK_CAP"
        except ValueError as exc:
            raise ValidationError(f"TAK_CAP must be an integer: {env!r}") from exc
    if cap < 1:
        raise ValidationError(f"{source} must be at least 1, got {cap}")
    return cap


def cmd_quasistable_poset(args):
    g = _load_graph(args.graph)
    mu = _parse_mu(args.mu, g)
    poset = enumerate_quasistable(g, _v0(g), mu, cap=_cap(args))
    _dump(poset.to_json(), args.out)
    return 0


def cmd_admissible(args):
    g = _load_graph(args.graph)
    mu = _parse_mu(args.mu, g)
    d0 = _parse_d0(args.d0, g)
    pairs = enumerate_admissible(g, _v0(g), mu, d0, cap=_cap(args))
    _dump({"pairs": [p.to_json() for p in pairs]}, args.out)
    return 0


def cmd_build_fan(args):
    g = _load_graph(args.graph)
    mu = _parse_mu(args.mu, g)
    d0 = _parse_d0(args.d0, g)
    fan = build_fan(g, _v0(g), mu, d0, cap=_cap(args))
    _dump(fan.to_json(), args.out)
    return 0


def cmd_locate(args):
    g = _load_graph(args.graph)
    mu = _parse_mu(args.mu, g)
    d0 = _parse_d0(args.d0, g)
    point = _parse_point(args.point, g)
    pair, split = locate_pair(g, _v0(g), mu, d0, point, cap=_cap(args))
    out = {
        "pair": pair.to_json(),
        "contracted": sorted(contracted_edges(g.edge_ids, pair)),
        "divisor": pair.resulting_pd.to_json(),
        "splits": {e: format_rational(v) for e, v in split.items()},
    }
    _dump(out, args.out)
    return 0


def cmd_dual_hilbert(args):
    if args.rays is not None:
        cone = _parse_rays(args.rays)
    else:
        if None in (args.graph, args.mu, args.d0):
            raise ValidationError("dual-hilbert needs --rays, or --graph, --mu and --D0")
        pair = _pick_pair(args)
        cone = merged_cone(pair).cone
    dual, hb = dual_and_hilbert(cone)
    _dump(
        {
            "rays": [list(r) for r in cone.rays],
            "dual_rays": [list(r) for r in dual],
            "hilbert_basis": [list(r) for r in hb],
        },
        args.out,
    )
    return 0


def _pick_pair(args):
    g = _load_graph(args.graph)
    mu = _parse_mu(args.mu, g)
    d0 = _parse_d0(args.d0, g)
    pairs = enumerate_admissible(g, _v0(g), mu, d0, cap=_cap(args))
    if not 0 <= args.pair < len(pairs):
        raise ValidationError(f"pair index out of range 0..{len(pairs) - 1}")
    return pairs[args.pair]


def cmd_icap_check(args):
    pair = _pick_pair(args)
    lhs, rhs = ray_power_intersection(pair, args.edge)
    _dump(
        {
            "pair": pair.to_json(),
            "edge": args.edge,
            "intersection": sorted(lhs.format()),
            "closed_form": sorted(rhs.format()),
            "equal": lhs.equals(rhs),
        },
        args.out,
    )
    return 0


def cmd_symbolic_power(args):
    if args.model_t is not None:
        ideal, _ = model_symbolic_power(args.model_t, args.power)
        _dump(
            {
                "ring": f"split pair over one ray with relation ({args.model_t})",
                "power": args.power,
                "generators": sorted(ideal.format()),
            },
            args.out,
        )
        return 0
    if None in (args.graph, args.mu, args.d0, args.edge):
        raise ValidationError("symbolic-power needs --graph, --mu, --D0 and --edge, or --model-t")
    pair = _pick_pair(args)
    ring, ac = node_ring(pair, args.edge)
    if not 0 <= args.ray < len(ac.cone.rays):
        raise ValidationError(f"ray index out of range 0..{len(ac.cone.rays) - 1}")
    ray = ac.cone.rays[args.ray]
    ideal = symbolic_power_ideal(ring, ray, args.power)
    _dump(
        {
            "pair": pair.to_json(),
            "edge": args.edge,
            "ray": list(ray),
            "power": args.power,
            "generators": sorted(ideal.format()),
        },
        args.out,
    )
    return 0


def cmd_drl(args):
    g = _load_graph(args.graph)
    weights = _parse_weights(args.weights)
    cones = double_ramification_cones(g, weights, cap=_cap(args))
    _dump(
        {
            "edge_order": list(g.edge_ids),
            "cones": [c.to_json() for c in cones],
        },
        args.out,
    )
    return 0


def _sample_partition(cones, n_edges, seed, count):
    """Draw `count` integer points and count those not in exactly one of the
    open cones (Cones).  A cone's interior test is two bit masks over the
    distinct rows of all the tests (zero rows, positive rows), met by none
    of a point's masks of nonzero and of nonpositive rows; each distinct
    point is tested once."""
    rows = {}
    masks = [
        [sum(1 << rows.setdefault(r, len(rows)) for r in part) for part in cone.interior_rows]
        for cone in cones
    ]
    rng = random.Random(seed)
    failed = {}  # distinct point -> whether it misses "exactly one cone"
    failures = 0
    for _ in range(count):
        pt = tuple(rng.randint(1, 12) for _ in range(n_edges))
        if pt not in failed:
            nonzero = notpositive = 0
            for bit, r in enumerate(rows):
                v = dot(r, pt)
                if v:
                    nonzero |= 1 << bit
                if v <= 0:
                    notpositive |= 1 << bit
            hits = sum(1 for zero, positive in masks if not (zero & nonzero or positive & notpositive))
            failed[pt] = hits != 1
        failures += failed[pt]
    return failures


def cmd_verify(args):
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
    if args.points < 0:
        raise ValidationError(f"--points must be at least 0, got {args.points}")
    g = _load_graph(args.graph)
    mu = _parse_mu(args.mu, g)
    d0 = _parse_d0(args.d0, g)
    v0 = _v0(g)
    cap = _cap(args)
    report = {}
    fan = build_fan(g, v0, mu, d0, cap=cap)
    cones = [fan.cones[i] for i in fan.maximal]
    pairs = [c.provenance for c in cones]
    report["admissible_pairs"] = len(pairs)
    # partition sampling over the fan's maximal cones, in one chunk of the
    # seed space per job: chunk i draws its points with seed + i, and the
    # last chunk takes the remainder; only chunks with points are listed
    maximal = [c.cone for c in cones]
    per, rest = divmod(args.points, args.jobs)
    chunks = [(i, per) for i in range(args.jobs - 1)] if per else []
    chunks.append((args.jobs - 1, per + rest))
    failures = sum(
        _sample_partition(maximal, len(g.edge_ids), args.seed + i, n) for i, n in chunks if n
    )
    report["partition"] = {"points": args.points, "failures": failures}
    # dimension formula
    dim_bad = sum(1 for p, c in zip(pairs, cones) if c.cone.dim != expected_dim(p))
    report["dimension_formula"] = {"cones": len(cones), "failures": dim_bad}
    # split/merge roundtrip on integer ray combinations
    rng = random.Random(args.seed)
    round_bad = 0
    for p, c in zip(pairs, cones):
        for _ in range(20):
            coeffs = [rng.randint(0, 3) for _ in c.cone.rays]
            pt = tuple(
                sum(a * r[i] for a, r in zip(coeffs, c.cone.rays))
                for i in range(len(g.edge_ids))
            )
            split = c.split_point(pt)
            if any(v < 0 or not isinstance(v, int) for v in split.values()):
                round_bad += 1
                continue
            merged = {}
            sub = p.resulting_pd.subdivision
            for e, v in split.items():
                merged[sub.over_map[e]] = merged.get(sub.over_map[e], 0) + v
            if any(merged.get(e, 0) != pt[i] for i, e in enumerate(g.edge_ids)):
                round_bad += 1
    report["split_roundtrip"] = {"failures": round_bad}
    # fan axioms and ray shapes
    verify_fan(fan, pairwise=not args.skip_pairwise)
    report["fan"] = {
        "cones": len(fan.cones),
        "maximal": len(fan.maximal),
        "axioms": "ok",
    }
    rays = [c for c in fan.cones if c.cone.dim == 1]
    shapes = {}
    for c in rays:
        kind = classify_ray(c)
        shapes[kind] = shapes.get(kind, 0) + 1
    report["ray_shapes"] = shapes
    ok = failures == 0 and dim_bad == 0 and round_bad == 0
    report["ok"] = ok
    _dump(report, args.out)
    return 0 if ok else 1


def cmd_examples(args):
    from importlib import resources

    from .worked import all_reports

    computed = all_reports()
    mismatches = []
    lines = {}
    for name, data in sorted(computed.items()):
        try:
            ref = resources.files("tropabel.goldens").joinpath(f"{name}.json").read_text()
        except FileNotFoundError:
            mismatches.append(f"{name}: golden file missing")
            continue
        expected = json.loads(ref)
        if expected != data:
            mismatches.append(f"{name}: recomputed output differs from the golden file")
            lines[name] = "MISMATCH"
        else:
            lines[name] = "ok"
    report = {"reports": lines, "mismatches": mismatches}
    _dump(report, args.out)
    if mismatches:
        for m in mismatches:
            print(m, file=sys.stderr)
        raise GoldenMismatch("; ".join(mismatches))
    return 0


@functools.cache
def _build_parser():
    """The argument parser, built at the first call in a process: parsing
    leaves it unchanged, so later calls share it."""
    parser = argparse.ArgumentParser(
        prog="tropabel",
        description=(
            "Exact computations with quasistable divisors on graphs, acyclic "
            "flows, the edge-length fan, and the attached monomial ideals"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, graph=True, mu=False, d0=False, cap=True):
        if graph:
            p.add_argument("--graph", required=True, help="graph JSON file")
        if mu:
            p.add_argument("--mu", required=True, help="polarization values, canonical vertex order")
        if d0:
            p.add_argument("--D0", dest="d0", required=True, help="base divisor values")
        if cap:
            p.add_argument("--cap", type=int, help="enumeration cap, at least 1 (default 2^20; env TAK_CAP)")
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("quasistable-poset", help="poset of quasistable pseudo-divisors")
    add_common(p, mu=True)
    p.set_defaults(func=cmd_quasistable_poset)

    p = sub.add_parser("admissible", help="admissible pairs of a base divisor")
    add_common(p, mu=True, d0=True)
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("build-fan", help="the full fan with faces")
    add_common(p, mu=True, d0=True)
    p.set_defaults(func=cmd_build_fan)

    p = sub.add_parser("locate", help="locate a positive point in the fan")
    add_common(p, mu=True, d0=True)
    p.add_argument("--point", required=True, help="edge lengths, canonical edge order")
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("dual-hilbert", help="dual rays and dual-monoid basis")
    p.add_argument("--rays", help="semicolon-separated integer rays, e.g. '1,1,1;1,2,2'")
    p.add_argument("--graph", help="graph JSON file (with --pair)")
    p.add_argument("--mu", help="polarization values")
    p.add_argument("--D0", dest="d0", help="base divisor values")
    p.add_argument("--pair", type=int, default=0, help="admissible-pair index")
    p.add_argument("--cap", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_dual_hilbert)

    p = sub.add_parser("icap-check", help="ray-power intersection identity at an edge")
    add_common(p, mu=True, d0=True)
    p.add_argument("--pair", type=int, required=True, help="admissible-pair index")
    p.add_argument("--edge", required=True)
    p.set_defaults(func=cmd_icap_check)

    p = sub.add_parser("symbolic-power", help="symbolic power at a ray, or in the model ring")
    p.add_argument("--graph")
    p.add_argument("--mu")
    p.add_argument("--D0", dest="d0")
    p.add_argument("--pair", type=int, default=0)
    p.add_argument("--edge")
    p.add_argument("--ray", type=int, default=0, help="ray index of the pair's cone")
    p.add_argument("--power", "-n", type=int, required=True)
    p.add_argument("--model-t", dest="model_t", type=int, help="use the one-ray model ring with this relation exponent")
    p.add_argument("--cap", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_symbolic_power)

    p = sub.add_parser("drl", help="double-ramification cones of a weight sequence")
    p.add_argument("--graph", required=True)
    p.add_argument("--A", dest="weights", required=True, help="weights a_0..a_n,m")
    p.add_argument("--cap", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_drl)

    p = sub.add_parser("verify", help="run the invariant suites on an instance")
    add_common(p, mu=True, d0=True)
    p.add_argument("--points", type=int, default=200, help="sampled points for the partition check")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs", type=int, default=1, help="sampling chunks (chunk i uses seed + i), run one after another"
    )
    p.add_argument("--skip-pairwise", action="store_true", help="skip pairwise fan intersections")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "paper-examples",
        help="replay the bundled worked examples and diff against golden files",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_examples)

    return parser


def _attach_number_lists(argv):
    """Join a number list that starts with "-" to its option, so that
    `--D0 -4,4` reads as `--D0=-4,4`; argparse would take the separate
    value for an option, since it is not a single negative number."""
    out = []
    i = 0
    while i < len(argv):
        if argv[i] in NUMBER_LIST_OPTIONS and i + 1 < len(argv) and re.match(r"-\d", argv[i + 1]):
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None):
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(_attach_number_lists(argv))
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; that slot is reserved
        # for the desk-scale cap, so usage problems map to 1
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DeskScaleError as exc:
        print(f"desk-scale cap: {exc}", file=sys.stderr)
        return 2
    except GoldenMismatch as exc:
        print(f"golden mismatch: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
