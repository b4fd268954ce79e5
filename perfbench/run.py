"""Benchmark runner: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload locate --seed 1 --seconds 25 --trace 0

It imports tropabel from the `src` directory beside this one and exits
with code 1, printing no result, when that is missing.  The measured phase
is a closed loop: each operation starts when the previous one returns.  It
runs whole passes over the workload's fixed case list and starts another
pass only while one more pass as long as the last fits in the seconds, so
every case is timed equally often and no run measures much beyond them.
The calibration kernel (calibrate.py) is timed before every operation and
after the last, and every time reported is scaled to the reference speed
by the kernel times around it, so that the machine's changes of speed
cancel out.
After the phase the answers are checked independently (checks.py).  The
last line of stdout is one JSON object: with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer metrics of a separate
traced run (tracing.py).
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction
from time import perf_counter

from calibrate import REFERENCE_S, time_kernel
from tracing import Tracer, per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

SETUP_REPEATS = 11
PROBE_KERNELS = 5
SCALE_FACTOR = Fraction(7, 3)
NAMES = ("locate", "abel", "fan", "ideal")


def _import_workloads():
    if not os.path.isfile(os.path.join(SRC, "tropabel", "__init__.py")):
        raise SystemExit(f"error: no tropabel sources under {SRC}")
    sys.path.insert(0, SRC)
    import tropabel

    if not os.path.abspath(tropabel.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported tropabel from {tropabel.__file__}, not {SRC}")
    import workloads

    return workloads.WORKLOADS


def setup_probe(name, seed):
    """Time a fresh interpreter's import of tropabel plus building and
    validating the workload's inputs; print the seconds and the median
    kernel time taken right after."""
    start = perf_counter()
    _import_workloads()[name](seed)
    elapsed = perf_counter() - start
    kernel = statistics.median(time_kernel() for _ in range(PROBE_KERNELS))
    print(repr(elapsed), repr(kernel))


def measure_setup(name, seed):
    """Median over fresh interpreters of the scaled set-up time: one import
    varies by about 25%.  Returns it and the (seconds, kernel) pairs."""
    probes = []
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{done.stderr}")
        elapsed, kernel = map(float, done.stdout.strip().splitlines()[-1].split())
        probes.append((elapsed, kernel))
    return statistics.median(t * REFERENCE_S / k for t, k in probes), probes


def scale_factors(kernels, n_ops):
    """REFERENCE_S over the local kernel time of each operation slot.

    kernels[j] was timed just before slot j and kernels[j + 1] just after
    it; the local time is the median of kernels[j - 3 .. j + 4], so one
    kernel call slowed by an interruption moves no operation's time much.
    """
    out = []
    for j in range(n_ops):
        window = kernels[max(0, j - 3): j + 5]
        out.append(REFERENCE_S / statistics.median(window))
    return out


def tail_case(means):
    """The highest percentile of the per-case means with at least ten cases
    beyond it: the 11th largest.  Returns (value, percentile)."""
    ordered = sorted(means)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measured_phase(wl, seconds, tracer):
    """Whole passes over the case list.

    The first answer of each case is kept for the checks; a later pass only
    compares its answer's fingerprint with the first one, so memory does not
    grow with the number of passes.  Before every operation the garbage
    collector runs, untimed, so that the collections inside an operation do
    not depend on what ran before it, and the kernel is timed; it is timed
    once more after the last operation.  Returns samples, first answers, the
    cases whose answer changed, the number of failed operations, the
    phase's wall time and the kernel times.
    """
    collect = getattr(wl, "collect", None)
    samples = []  # (case index, raw seconds, operation slot)
    kernels = []  # kernels[j] timed just before slot j
    answers = {}  # case index -> first answer
    prints = {}  # case index -> fingerprint of the first answer
    changed = []
    failed = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for i, case in enumerate(wl.cases):
            slot = len(kernels)
            gc.collect()  # every operation starts from the same collector state
            kernels.append(time_kernel())
            try:
                if tracer is None:
                    t0 = perf_counter()
                    answer = wl.op(case)
                    duration = perf_counter() - t0
                else:
                    answer, duration = tracer.run_op(i, wl.op, case)
                if collect is not None:
                    answer = collect(answer)
            except Exception:  # a failing operation is counted, the run goes on
                failed += 1
                if failed <= 3:
                    print(f"operation on case {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
                continue
            samples.append((i, duration, slot))
            if i not in answers:
                answers[i] = answer
                prints[i] = wl.fingerprint(answer)
            elif wl.fingerprint(answer) != prints[i]:
                changed.append(i)
        now = perf_counter()
        if now - start + (now - pass_start) > seconds:
            kernels.append(time_kernel())
            return samples, answers, changed, failed, now - start, kernels


def check_answers(wl, answers, changed):
    """Run every independent check; returns the list of failures."""
    problems = [f"case {i}: answer differs between passes" for i in changed]
    for i, answer in sorted(answers.items()):
        try:
            wl.check(wl.cases[i], answer)
        except Exception as exc:  # a wrong or malformed answer fails the run
            problems.append(f"case {i}: {type(exc).__name__}: {exc}")
    scale = getattr(wl, "scale_check", None)
    if scale is not None:
        for i in sorted(answers)[: wl.SCALE_CHECKS]:
            try:
                scale(wl.cases[i], answers[i], SCALE_FACTOR)
            except Exception as exc:
                problems.append(f"case {i} scaled: {type(exc).__name__}: {exc}")
    return problems


def run(name, seed, seconds, trace, cases=None):
    """One benchmark run; returns the result object."""
    if not trace:
        setup_s, setup_times = measure_setup(name, seed)
    wl = _import_workloads()[name](seed)
    if cases is not None:
        wl.cases = wl.cases[:cases]
    os.makedirs(RESULTS, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS)
    tracer = Tracer() if trace else None
    try:
        if hasattr(wl, "prepare"):
            wl.prepare(workdir)
        warm = wl.op(wl.cases[0])  # lazy imports and caches fill here, untimed
        if hasattr(wl, "collect"):
            wl.collect(warm)
        if tracer is not None:
            tracer.install()
        try:
            samples, answers, changed, failed, phase_s, kernels = measured_phase(wl, seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = check_answers(wl, answers, changed)
    for p in problems[:10]:
        print(f"check failed: {p}", file=sys.stderr)
    attempted = len(samples) + failed
    n_ops = len(samples)
    if n_ops == 0:
        raise SystemExit("error: every operation failed")
    passes = attempted // len(wl.cases)
    factors = scale_factors(kernels, attempted)
    scaled = [(i, d * factors[j]) for i, d, j in samples]
    busy_s = sum(d for _, d in scaled)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "cases": len(wl.cases), "passes": passes, "phase_s": phase_s,
              "reference_s": REFERENCE_S, "kernel_median_s": statistics.median(kernels)}
    if trace:
        metrics = {}
        units = {m[0]: m[1] for m in per_layer_metrics()}
        # layer times are summed over the run, so they take the run's median factor
        scale = REFERENCE_S / statistics.median(kernels)
        for key, value in tracer.metrics(n_ops, scale, busy_s).items():
            metrics[key] = {"value": value, "unit": units[key]}
        tracer.dump(os.path.join(RESULTS, f"trace-{name}-seed{seed}.json"), detail)
    else:
        by_case = {}
        for i, duration in scaled:
            by_case.setdefault(i, []).append(duration)
        means = [statistics.fmean(v) for v in by_case.values()]
        tail, percentile = tail_case(means) if len(means) >= 11 else (max(means), 100.0)
        metrics = {
            "ops_per_s": {"value": n_ops / busy_s, "unit": "1/s"},
            "latency_p50_s": {"value": statistics.median(means), "unit": "s"},
            "latency_tail_s": {"value": tail, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        detail.update({"tail_percentile": percentile, "setup_probes": setup_times})
    detail.update({"samples": samples, "kernels": kernels})
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail["result"] = result
    suffix = "-trace" if trace else ""
    with open(os.path.join(RESULTS, f"{name}-seed{seed}{suffix}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, args.trace)
    for key, m in result["metrics"].items():
        print(f"{args.workload} {key} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {result['attempted']} failed = {result['failed']} "
          f"correct = {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
