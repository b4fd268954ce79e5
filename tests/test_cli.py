import json
import subprocess
import sys

import pytest

from tropabel.cli import main


@pytest.fixture
def theta_file(tmp_path, theta):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta.to_json()))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_locate_command(capsys, theta_file):
    code, out, err = _run(
        capsys,
        [
            "locate",
            "--graph",
            theta_file,
            "--D0",
            "4,-4",
            "--mu",
            "0",
            "--point",
            "1,1,1",
        ],
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["pair"]["E"] == []
    assert data["pair"]["phi"] == {"e0": 1, "e1": 1, "e2": 1}
    assert data["divisor"]["D"] == {"v0": 1, "v1": -1}
    assert data["splits"] == {"e0": "1", "e1": "1", "e2": "1"}


def test_locate_fractional_point(capsys, theta_file):
    code, out, _ = _run(
        capsys,
        [
            "locate",
            "--graph",
            theta_file,
            "--D0",
            "4,-4",
            "--mu",
            "0",
            "--point",
            "2,2,3",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["pair"]["E"] == ["e0", "e1"]
    assert data["splits"]["e0:a"] == "1"


def test_byte_identical_output(theta_file, tmp_path):
    args = [
        "locate",
        "--graph",
        theta_file,
        "--D0",
        "4,-4",
        "--mu",
        "0",
        "--point",
        "5/2,2,3",
    ]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_quasistable_poset_command(capsys, theta_file):
    code, out, _ = _run(
        capsys, ["quasistable-poset", "--graph", theta_file, "--mu", "0"]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["elements"]) == 12


def test_admissible_command(capsys, theta_file):
    code, out, _ = _run(
        capsys, ["admissible", "--graph", theta_file, "--mu", "0", "--D0", "4,-4"]
    )
    assert code == 0
    data = json.loads(out)
    assert len(data["pairs"]) == 55


def test_build_fan_command_faces_structure(capsys, theta_file):
    code, out, _ = _run(
        capsys, ["build-fan", "--graph", theta_file, "--mu", "0", "--D0", "4,-4"]
    )
    assert code == 0
    data = json.loads(out)
    n = len(data["cones"])
    assert n == 62 and len(data["maximal"]) == 55
    assert data["edge_order"] == ["e0", "e1", "e2"]
    for cone in data["cones"]:
        assert cone["id"] in cone["faces"]
        assert all(0 <= f < n for f in cone["faces"])
    want = sorted([[1, 1, 1], [1, 2, 2], [2, 1, 2], [1, 1, 2]])
    worked = next(c for c in data["cones"] if sorted(c["rays"]) == want)
    assert len(worked["faces"]) == 10


def test_dual_hilbert_command(capsys):
    code, out, _ = _run(capsys, ["dual-hilbert", "--rays", "1,1,1;1,2,2;2,1,2;1,1,2"])
    assert code == 0
    data = json.loads(out)
    assert sorted(data["dual_rays"]) == sorted(
        [[0, -1, 1], [2, 0, -1], [0, 2, -1], [-1, 0, 1]]
    )
    assert [1, 1, -1] in data["hilbert_basis"]
    assert len(data["hilbert_basis"]) == 5


def test_symbolic_power_model_command(capsys):
    code, out, _ = _run(capsys, ["symbolic-power", "--model-t", "2", "-n", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == ["y χ{0}"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--model-t", "-2", "--power", "2"], "t >= 1, got -2"),
        (["--model-t", "0", "--power", "2"], "t >= 1, got 0"),
        (["--model-t", "2", "--power", "-1"], "n >= 0, got -1"),
        (["--power", "2"], "needs --graph"),
    ],
)
def test_symbolic_power_model_rejects_bad_input(capsys, argv, message):
    code, out, err = _run(capsys, ["symbolic-power"] + argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_symbolic_power_rejects_negative_power(capsys, theta_file):
    base = ["symbolic-power", "--graph", theta_file, "--mu", "0", "--D0", "4,-4", "--edge", "e0"]
    code, out, err = _run(capsys, base + ["--power", "-1"])
    assert code == 1 and out == ""
    assert err == "error: a symbolic power needs an exponent n >= 0, got -1\n"
    code, out, err = _run(capsys, base + ["--power", "1"])
    assert code == 0, err
    assert json.loads(out)["generators"]


def test_drl_command(capsys, tmp_path):
    g = {
        "vertices": [{"id": "a", "weight": 1}, {"id": "b", "weight": 1}],
        "edges": [
            {"id": "e0", "ends": ["a", "b"]},
            {"id": "e1", "ends": ["a", "b"]},
        ],
        "legs": {"0": "a", "1": "b"},
    }
    path = tmp_path / "banana.json"
    path.write_text(json.dumps(g))
    code, out, _ = _run(capsys, ["drl", "--graph", str(path), "--A", "2,-2,0"])
    assert code == 0
    data = json.loads(out)
    assert len(data["cones"]) == 1


def test_verify_command(capsys, theta_file):
    code, out, _ = _run(
        capsys,
        [
            "verify",
            "--graph",
            theta_file,
            "--mu",
            "0",
            "--D0",
            "4,-4",
            "--points",
            "60",
            "--seed",
            "3",
            "--skip-pairwise",
        ],
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["partition"]["failures"] == 0
    assert data["ray_shapes"] == {"loop": 3, "proportional": 10}


def test_verify_parallel_jobs(capsys, theta_file):
    code, out, _ = _run(
        capsys,
        [
            "verify",
            "--graph",
            theta_file,
            "--mu",
            "0",
            "--D0",
            "4,-4",
            "--points",
            "40",
            "--seed",
            "1",
            "--jobs",
            "2",
            "--skip-pairwise",
        ],
    )
    assert code == 0
    assert json.loads(out)["partition"]["failures"] == 0


VERIFY_THETA_4 = """{
  "admissible_pairs": 55,
  "dimension_formula": {
    "cones": 55,
    "failures": 0
  },
  "fan": {
    "axioms": "ok",
    "cones": 62,
    "maximal": 55
  },
  "ok": true,
  "partition": {
    "failures": 0,
    "points": 10
  },
  "ray_shapes": {
    "loop": 3,
    "proportional": 10
  },
  "split_roundtrip": {
    "failures": 0
  }
}
"""


def test_verify_serial_sampler_reuses_cones(capsys, theta_file, monkeypatch):
    """With one job every check uses the cones of the fan cmd_verify built
    first: the command builds at most one merged cone per fan cone, the
    sampler and the face checks build none, and the report is unchanged."""
    import tropabel.abelfan as abelfan
    import tropabel.cli as cli

    calls = []
    for module in (cli, abelfan):
        real = module.merged_cone
        monkeypatch.setattr(
            module, "merged_cone", lambda *a, real=real, **k: calls.append(1) or real(*a, **k)
        )
    argv = ["verify", "--graph", theta_file, "--mu", "0", "--D0", "4,-4"]
    code, out, _ = _run(capsys, argv + ["--points", "10", "--skip-pairwise"])
    assert code == 0
    assert out == VERIFY_THETA_4
    assert len(calls) <= json.loads(out)["fan"]["cones"] == 62


def test_verify_jobs_keeps_chunks_and_bounds_processes(capsys, theta_file, monkeypatch):
    """--jobs N samples N chunks of the seed space, so the report does not
    depend on the machine; only the chunks with points are sent, to at most
    os.cpu_count() processes and no more than there are such chunks.  The
    chunks sample the Cones of the fan's maximal cones.  A --jobs below 1
    is an input error."""
    import multiprocessing
    import os

    from tropabel.cone import Cone

    pools, chunks = [], []

    class FakePool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, work):
            chunks.extend(work)
            return [fn(*args) for args in work]

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ["verify", "--graph", theta_file, "--mu", "0", "--D0", "4,-4"]
    argv += ["--points", "10", "--skip-pairwise", "--jobs"]
    code, out, _ = _run(capsys, argv + ["64"])
    assert (code, out) == (0, VERIFY_THETA_4)
    assert [c[2:] for c in chunks] == [(63, 10)]
    cones = chunks[0][0]
    assert len(cones) == 55 and all(isinstance(c, Cone) for c in cones)
    code, out, _ = _run(capsys, argv + ["2"])
    assert (code, out) == (0, VERIFY_THETA_4)
    assert [c[2:] for c in chunks[1:]] == [(0, 5), (1, 5)]
    code, out, _ = _run(capsys, argv + ["5"])
    assert (code, out) == (0, VERIFY_THETA_4)
    assert pools == [1, 2, 3]
    # no chunk has points: no pool is started
    code, out, _ = _run(capsys, argv[:-3] + ["0", "--skip-pairwise", "--jobs", "2"])
    assert code == 0 and json.loads(out)["partition"] == {"points": 0, "failures": 0}
    for jobs in ("0", "-2"):
        error = f"error: --jobs must be at least 1, got {jobs}\n"
        assert _run(capsys, argv + [jobs]) == (1, "", error)
    assert pools == [1, 2, 3]


def test_examples_command(capsys):
    code, out, _ = _run(capsys, ["paper-examples"])
    assert code == 0
    data = json.loads(out)
    assert data["mismatches"] == []
    assert set(data["reports"]) == {"poset", "cone", "fan", "ideal"}
    assert all(v == "ok" for v in data["reports"].values())


def test_malformed_json_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out, err = _run(
        capsys, ["quasistable-poset", "--graph", str(bad), "--mu", "0"]
    )
    assert code == 1
    assert "line 1" in err and "column" in err


def test_validation_exit_code(capsys, theta_file):
    code, _, err = _run(
        capsys,
        ["locate", "--graph", theta_file, "--D0", "4,-4", "--mu", "0", "--point=-1,1,1"],
    )
    assert code == 1
    assert "negative" in err


@pytest.mark.parametrize("point", ["0.5,1,1", "1/0,1,1", "x,1,1", "1/2/3,1,1"])
def test_bad_rational_point_exit_code(capsys, theta_file, point):
    code, out, err = _run(
        capsys, ["locate", "--graph", theta_file, "--D0", "4,-4", "--mu", "0", "--point", point]
    )
    assert (code, out) == (1, "")
    assert err == f"error: bad rational {point.split(',')[0]!r}\n"


def test_cap_exit_code(capsys, theta_file):
    code, _, err = _run(
        capsys,
        ["admissible", "--graph", theta_file, "--mu", "0", "--D0", "4,-4", "--cap", "3"],
    )
    assert code == 2
    assert "cap" in err.lower()


def test_admissible_cap_counts_emitted_pairs(capsys, theta_file):
    """Theta (64,-64) has 23,815 admissible pairs; under a cap of 1000 the
    enumeration stops at the 1001st pair and names its stage."""
    code, out, err = _run(
        capsys,
        ["admissible", "--graph", theta_file, "--mu", "0", "--D0", "64,-64", "--cap", "1000"],
    )
    assert (code, out) == (2, "")
    assert err == "desk-scale cap: admissible pairs: 1001 pairs exceed the cap of 1000\n"


def test_locate_cap_counts_candidates_and_lattice_points(capsys, theta_file):
    """Locating a point enumerates no pairs: on theta (64,-64) the walk
    stops in the second edge set it tries, after 2 candidate checks and 2
    lattice points, so a cap of 4 gives the default-cap bytes and a cap of 3
    stops the locate stage, which names both counts."""
    argv = ["locate", "--graph", theta_file, "--mu", "0", "--D0", "64,-64", "--point", "3,5,7"]
    code, out, err = _run(capsys, argv + ["--cap", "4"])
    assert (code, err) == (0, "")
    assert json.loads(out)["pair"]["E"] == ["e0", "e2"]
    assert _run(capsys, argv) == (0, out, "")
    code, out, err = _run(capsys, argv + ["--cap", "3"])
    assert (code, out) == (2, "")
    assert err == (
        "desk-scale cap: locate: 2 candidate checks and 2 lattice points exceed the cap of 3\n"
    )


def test_build_fan_cap_counts_face_specializations(capsys, tmp_path, theta):
    """On theta (8,-8) the pair enumeration fits under a cap of 500, but the
    fan's face specializations do not: the command stops at the stage that
    passed the cap and says how far it got."""
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(theta.to_json()))
    argv = ["build-fan", "--graph", str(path), "--mu", "0", "--D0", "8,-8"]
    assert main(["admissible"] + argv[1:] + ["--cap", "500"]) == 0
    capsys.readouterr()
    code, out, err = _run(capsys, argv + ["--cap", "500"])
    assert (code, out) == (2, "")
    assert err == "desk-scale cap: fan faces: 501 face specializations exceed the cap of 500\n"


def test_env_cap_override(capsys, theta_file, monkeypatch):
    monkeypatch.setenv("TAK_CAP", "3")
    code, _, _ = _run(
        capsys, ["admissible", "--graph", theta_file, "--mu", "0", "--D0", "4,-4"]
    )
    assert code == 2


def test_usage_error_maps_to_one(capsys):
    code, _, _ = _run(capsys, ["locate", "--point", "1,1,1"])
    assert code == 1


def test_console_entry_point(theta_file):
    proc = subprocess.run(
        [sys.executable, "-m", "tropabel", "quasistable-poset", "--graph", theta_file, "--mu", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)["elements"]) == 12


@pytest.fixture
def banana_file(tmp_path):
    g = {
        "vertices": [{"id": "a", "weight": 1}, {"id": "b", "weight": 1}],
        "edges": [{"id": "e0", "ends": ["a", "b"]}, {"id": "e1", "ends": ["a", "b"]}],
        "legs": {"0": "a", "1": "b"},
    }
    path = tmp_path / "banana.json"
    path.write_text(json.dumps(g))
    return str(path)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["locate", "--mu", "-1/3,1/3", "--D0", "-4,4", "--point", "1,2,3"], 0),
        (["locate", "--mu", "0", "--D0", "4,-4", "--point", "-1,2,3"], 1),
        (["build-fan", "--mu", "-1/3,1/3", "--D0", "-2,2"], 0),
        (["drl", "--A", "-2,2,0"], 0),
        (["dual-hilbert", "--rays", "-1,1,1;1,-1,1;1,1,-1"], 0),
    ],
)
def test_negative_values_in_separated_form(capsys, theta_file, banana_file, argv, code):
    """`--opt -1,...` reads like `--opt=-1,...`: same bytes, same exit code."""
    graph = [] if argv[0] == "dual-hilbert" else ["--graph", banana_file if argv[0] == "drl" else theta_file]
    joined = list(argv[:1])
    for opt, value in zip(argv[1::2], argv[2::2]):
        joined.append(f"{opt}={value}")
    separated = _run(capsys, argv + graph)
    assert separated == _run(capsys, joined + graph)
    assert separated[0] == code, separated[2]
    assert bool(separated[1]) == (code == 0)
