"""Tests of the benchmark itself: `python3 -m pytest perfbench -q`.

Each answer check must reject a corrupted answer, a shortened run of every
workload must complete with correct answers, traced runs must count the same
work twice, and the runner must refuse to run without the library sources.
"""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from tropabel.flow import enumerate_admissible  # noqa: E402


@pytest.fixture(scope="module")
def located():
    wl = WORKLOADS["locate"](1)
    case = wl.cases[0]
    answer = wl.op(case)
    wl.check(case, answer)
    return wl, case, answer


def test_locate_check_rejects_a_split_off_by_one(located):
    wl, case, (cone, split) = located
    e = sorted(cone.provenance.eset)[0]
    bad = dict(split)
    bad[f"{e}:a"] += 1
    bad[f"{e}:b"] -= 1
    with pytest.raises(CheckFailed):
        wl.check(case, (cone, bad))


def test_locate_check_rejects_a_split_that_misses_the_length(located):
    wl, case, (cone, split) = located
    bad = dict(split)
    e = sorted(cone.provenance.eset)[0]
    bad[f"{e}:a"] += 1
    with pytest.raises(CheckFailed):
        wl.check(case, (cone, bad))


def test_locate_check_rejects_a_neighbouring_pair(located):
    wl, case, (cone, split) = located
    pairs = enumerate_admissible(wl.g, wl.v0, wl.mu, wl.d0)
    keys = [p.canonical_key() for p in pairs]
    i = keys.index(cone.provenance.canonical_key())
    for j in (i - 1, i + 1):
        if 0 <= j < len(pairs):
            other = type(cone)(**{**cone.__dict__, "provenance": pairs[j]})
            with pytest.raises(CheckFailed):
                wl.check(case, (other, split))


def test_abel_check_rejects_a_split_off_by_one():
    wl = WORKLOADS["abel"](1)
    case = wl.cases[0]
    answer = wl.op(case)
    wl.check(case, answer)
    split = dict(answer.split_values)
    halves = sorted(h for h in split if ":" in h)
    split[halves[0]] += 1
    split[halves[1]] -= 1
    bad = type(answer)(**{**answer.__dict__, "split_values": tuple(sorted(split.items()))})
    with pytest.raises(CheckFailed):
        wl.check(case, bad)


def _drop_cone(doc, j):
    """The fan without cone j, ids and references renumbered."""
    renum = {i: i - (i > j) for i in range(len(doc["cones"])) if i != j}
    cones = []
    for c in doc["cones"]:
        if c["id"] == j:
            continue
        c = dict(c, id=renum[c["id"]], faces=[renum[f] for f in c["faces"] if f != j])
        cones.append(c)
    return dict(doc, cones=cones, maximal=[renum[i] for i in doc["maximal"] if i != j])


def test_fan_check_rejects_a_dropped_cone(tmp_path):
    wl = WORKLOADS["fan"](1)
    wl.prepare(str(tmp_path))
    case = wl.cases[0]
    text = wl.collect(wl.op(case))
    wl.check(case, text)
    doc = json.loads(text)
    for j in (doc["maximal"][0], doc["maximal"][-1], 0):
        with pytest.raises(CheckFailed):
            wl.check(case, json.dumps(_drop_cone(doc, j)))


def test_ideal_check_rejects_a_dropped_generator():
    wl = WORKLOADS["ideal"](1)
    case = next(c for c in wl.cases if len(c[0].eset) == 2)
    lhs, rhs = wl.op(case)
    wl.check(case, (lhs, rhs))
    assert len(lhs.gens) >= 2
    for k in range(len(lhs.gens)):
        fewer = type(lhs)(lhs.ring, lhs.gens[:k] + lhs.gens[k + 1:])
        with pytest.raises(CheckFailed):
            wl.check(case, (fewer, rhs))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shortened_run_completes(name):
    result = run.run(name, 5, 0.01, 0, cases=3)
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (3, 0)
    assert set(result["metrics"]) == {
        "ops_per_s", "latency_p50_s", "latency_tail_s", "setup_s", "peak_rss_mb"
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_count_the_same_work(name):
    first = run.run(name, 7, 0.01, 1, cases=3)
    second = run.run(name, 7, 0.01, 1, cases=3)
    names = [m[0] for m in run.per_layer_metrics()]
    assert list(first["metrics"]) == names
    counts = [n for n, unit, _ in run.per_layer_metrics() if unit != "s/op" and unit != "1/s"]
    assert counts
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["correct"] and second["correct"]


def test_without_library_sources_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "locate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_checks_survive_python_O(tmp_path):
    code = (
        "import sys; sys.path.insert(0, %r)\n"
        "from checks import CheckFailed, check_scaled\n"
        "try:\n"
        "    check_scaled((1, {'e': 1}), (2, {'e': 2}), 2)\n"
        "except CheckFailed:\n"
        "    print('rejected')\n" % HERE
    )
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert done.stdout.strip() == "rejected"


def test_scaled_times_follow_the_kernel():
    slow = [2 * run.REFERENCE_S] * 12
    assert run.scale_factors(slow, 11) == [0.5] * 11
    # one kernel call slowed by an interruption moves no factor
    slow[5] = 40 * run.REFERENCE_S
    assert run.scale_factors(slow, 11) == [0.5] * 11


def test_calibration_kernel_answer_is_fixed():
    from calibrate import EXPECTED, kernel

    assert kernel() == EXPECTED
    assert run.time_kernel() > 0


def test_tail_is_the_eleventh_largest_case():
    means = [Fraction(i) for i in range(40)]
    value, percentile = run.tail_case(means)
    assert value == 29 and percentile == 75.0
