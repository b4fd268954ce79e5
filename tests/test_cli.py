import json
import subprocess
import sys

import pytest

from tropabel.cli import main

from conftest import graph_json


@pytest.fixture
def theta_file(tmp_path, theta):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(graph_json(theta)))
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


def test_dual_hilbert_lists_each_ray_direction_once(capsys):
    """Rays are made primitive and kept once per direction: 5,5,5 and
    1,1,1 give one ray [1, 1, 1]."""
    code, out, _ = _run(capsys, ["dual-hilbert", "--rays", "1,0,0;0,1,0;0,0,1;1,1,1;5,5,5"])
    assert code == 0
    assert json.loads(out) == {
        "rays": [[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]],
        "dual_rays": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
        "hilbert_basis": [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
    }


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--rays", "1,1;1"], "same number of coordinates"),
        (["--rays", "1,x"], "must be integers"),
        (["--rays", ""], "no rays given"),
        ([], "needs --rays, or --graph, --mu and --D0"),
        (["--graph", "GRAPH"], "needs --rays, or --graph, --mu and --D0"),
        (["--graph", "GRAPH", "--mu", "0"], "needs --rays, or --graph, --mu and --D0"),
    ],
)
def test_dual_hilbert_rejects_bad_input(capsys, theta_file, argv, message):
    argv = [theta_file if a == "GRAPH" else a for a in argv]
    code, out, err = _run(capsys, ["dual-hilbert"] + argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err


def test_dual_hilbert_of_a_pair(capsys, theta_file):
    """The graph route reads the pair's merged cone; a pair index outside
    the pair list is an input error."""
    base = ["dual-hilbert", "--graph", theta_file, "--mu", "0", "--D0", "4,-4"]
    code, out, err = _run(capsys, base + ["--pair", "20"])
    assert code == 0, err
    assert len(json.loads(out)["rays"]) == 3
    code, out, err = _run(capsys, base + ["--pair", "99"])
    assert (code, out) == (1, "")
    assert err == "error: pair index out of range 0..54\n"


@pytest.mark.parametrize(
    "vertex, legs, message",
    [
        ({"id": "v0", "weight": 1.5}, {"0": "v0"}, "error: bad integer 1.5\n"),
        ({"id": "v0", "weight": "x"}, {"0": "v0"}, "error: bad integer 'x'\n"),
        ({"id": "v0", "weight": "2"}, {"0": "v0"}, "error: bad integer '2'\n"),
        (
            {"id": "v0", "weight": 0},
            {"a": "v0"},
            "error: leg indices must be integers: invalid literal for int() with base 10: 'a'\n",
        ),
        (
            {"id": "v0", "weight": 0},
            ["v0"],
            "error: legs must be an object from leg index to vertex id\n",
        ),
    ],
)
def test_quasistable_poset_rejects_malformed_graph(capsys, tmp_path, vertex, legs, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": [vertex], "edges": [], "legs": legs}))
    code, out, err = _run(capsys, ["quasistable-poset", "--graph", str(path), "--mu", "0"])
    assert (code, out, err) == (1, "", message)


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


def test_verify_rejects_negative_points(capsys, theta_file):
    argv = ["verify", "--graph", theta_file, "--mu", "0", "--D0", "4,-4", "--points", "-5"]
    assert _run(capsys, argv) == (1, "", "error: --points must be at least 0, got -5\n")


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


def test_verify_jobs_samples_chunks_in_process(capsys, theta_file, monkeypatch):
    """--jobs N samples N chunks of the seed space, so the report does not
    depend on the machine: chunk i draws with seed + i, and only the chunks
    with points are sampled, one after another in the command's process.
    A --jobs below 1 is an input error."""
    import multiprocessing

    from tropabel import cli
    from tropabel.cone import Cone

    calls = []
    real = cli._sample_partition

    def spy(cones, n_edges, seed, count):
        assert len(cones) == 55 and all(isinstance(c, Cone) for c in cones)
        calls.append((n_edges, seed, count))
        return real(cones, n_edges, seed, count)

    def no_pool(*args, **kwargs):
        raise AssertionError("verify started a process pool")

    monkeypatch.setattr(cli, "_sample_partition", spy)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    argv = ["verify", "--graph", theta_file, "--mu", "0", "--D0", "4,-4"]
    argv += ["--points", "10", "--skip-pairwise", "--jobs"]
    assert _run(capsys, argv + ["64"]) == (0, VERIFY_THETA_4, "")
    assert calls == [(3, 63, 10)]
    assert _run(capsys, argv + ["2"]) == (0, VERIFY_THETA_4, "")
    assert calls[1:] == [(3, 0, 5), (3, 1, 5)]
    assert _run(capsys, argv + ["4"]) == (0, VERIFY_THETA_4, "")
    assert calls[3:] == [(3, 0, 2), (3, 1, 2), (3, 2, 2), (3, 3, 4)]
    # no chunk has points: the sampler is not called
    del calls[:]
    code, out, _ = _run(capsys, argv[:-3] + ["0", "--skip-pairwise", "--jobs", "2"])
    assert code == 0 and json.loads(out)["partition"] == {"points": 0, "failures": 0}
    assert calls == []
    for jobs in ("0", "-2"):
        error = f"error: --jobs must be at least 1, got {jobs}\n"
        assert _run(capsys, argv + [jobs]) == (1, "", error)
    assert calls == []


def test_sampler_counts_points_outside_exactly_one_open_cone():
    """Each draw that lies in no open cone or in two counts as a failure."""
    from tropabel.cli import _sample_partition
    from tropabel.cone import Cone

    orthant, diagonal = Cone.from_rays(2, [(1, 0), (0, 1)]), Cone.from_rays(2, [(1, 1)])
    assert _sample_partition([orthant], 2, 5, 30) == 0
    assert _sample_partition([orthant, orthant], 2, 5, 30) == 30
    on_diagonal = _sample_partition([orthant, diagonal], 2, 5, 30)  # two hits
    assert 0 < on_diagonal < 30 and _sample_partition([diagonal], 2, 5, 30) == 30 - on_diagonal


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


def test_undecodable_graph_file_exit_code(capsys, tmp_path):
    """Bytes that are not text end in one error line, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    code, out, err = _run(capsys, ["build-fan", "--graph", str(bad), "--mu", "0", "--D0", "1"])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


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


def test_icap_check_answers_where_a_pairwise_join_exceeded_the_bound(capsys, theta_file):
    """Pair 114 of theta (8,-8) at e1: intersecting the ray-wise powers by
    pairwise joins stopped at a join search deeper than the bound of 12
    (exit 2, "desk-scale cap: ideal intersection: search bound 12
    exceeded"); the chain of threshold searches answers it, and the answer
    meets the closed form."""
    code, out, err = _run(
        capsys,
        ["icap-check", "--graph", theta_file, "--mu=0,0", "--D0=8,-8", "--pair", "114", "--edge", "e1"],
    )
    assert code == 0, err
    data = json.loads(out)
    assert data["equal"] is True
    assert data["intersection"] == data["closed_form"] == ["y^2 χ{0,3,-4}", "y^3 χ{0,0,0}"]


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


def test_unwritable_out_is_an_input_error(capsys, theta_file, tmp_path):
    """An --out path in a missing directory exits 1 with one error line,
    and writes nothing to stdout."""
    out = tmp_path / "missing" / "fan.json"
    argv = ["build-fan", "--graph", theta_file, "--mu", "0", "--D0", "4,-4", "--out", str(out)]
    code, stdout, err = _run(capsys, argv)
    assert (code, stdout) == (1, "")
    assert err.startswith("error: cannot write output file: ")
    assert err.count("\n") == 1 and str(out) in err
    assert not out.parent.exists()


def test_build_fan_cap_counts_face_specializations(capsys, tmp_path, theta):
    """On theta (8,-8) the pair enumeration fits under a cap of 500, but the
    fan's face work does not: the command stops at the stage that passed
    the cap and says how far it got."""
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(graph_json(theta)))
    argv = ["build-fan", "--graph", str(path), "--mu", "0", "--D0", "8,-8"]
    assert main(["admissible"] + argv[1:] + ["--cap", "500"]) == 0
    capsys.readouterr()
    code, out, err = _run(capsys, argv + ["--cap", "500"])
    assert (code, out) == (2, "")
    assert err == (
        "desk-scale cap: fan faces: 251 face specializations and 250 face containment tests"
        " exceed the cap of 500\n"
    )
    # only the maximal cones' faces are specialized (1,478), and each cone's
    # face map takes one containment test per face of its maximal cone (2,036)
    code, out, err = _run(capsys, argv + ["--cap", "3514"])
    assert (code, err) == (0, "")
    assert out == _run(capsys, argv)[1]
    code, out, err = _run(capsys, argv + ["--cap", "3513"])
    assert (code, out) == (2, "")
    assert err == (
        "desk-scale cap: fan faces: 1478 face specializations and 2036 face containment tests"
        " exceed the cap of 3513\n"
    )


@pytest.mark.parametrize(
    "cap, env, message",
    [
        ("0", None, "--cap must be at least 1, got 0"),
        ("-1", None, "--cap must be at least 1, got -1"),
        ("0", "5", "--cap must be at least 1, got 0"),
        (None, "0", "TAK_CAP must be at least 1, got 0"),
        (None, "-3", "TAK_CAP must be at least 1, got -3"),
    ],
    ids=["cap-0", "cap-minus-1", "cap-0-over-env-5", "env-0", "env-minus-3"],
)
def test_cap_below_one_is_an_input_error(capsys, theta_file, monkeypatch, cap, env, message):
    """A cap of 0 is a cap, not a missing one, and a cap below 1 from
    either source exits 1 naming that source; a cap of 1 is a real cap."""
    base = ["build-fan", "--graph", theta_file, "--mu", "0", "--D0", "4,-4"]
    argv = list(base)
    if env is None:
        monkeypatch.delenv("TAK_CAP", raising=False)
    else:
        monkeypatch.setenv("TAK_CAP", env)
    if cap is not None:
        argv += ["--cap", cap]
    assert _run(capsys, argv) == (1, "", f"error: {message}\n")
    code, out, _ = _run(capsys, base + ["--cap", "1"])
    assert (code, out) == (2, "")


def test_env_cap_override(capsys, theta_file, monkeypatch):
    monkeypatch.setenv("TAK_CAP", "3")
    code, _, _ = _run(
        capsys, ["admissible", "--graph", theta_file, "--mu", "0", "--D0", "4,-4"]
    )
    assert code == 2


def test_usage_error_maps_to_one(capsys):
    code, _, _ = _run(capsys, ["locate", "--point", "1,1,1"])
    assert code == 1


def test_one_process_answers_like_fresh_ones(capsys, theta_file):
    """The parser is built once per process and reused: a usage error, a
    valid build-fan and a bad --cap, called in turn in this process, give
    the stdout, stderr and exit codes of separate fresh interpreters."""
    fan = ["build-fan", "--graph", theta_file, "--mu", "0", "--D0", "4,-4"]
    calls = [["locate", "--point", "1,1,1"], fan, fan + ["--cap", "0"]]
    here = [_run(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "tropabel", *argv], capture_output=True, text=True
        )
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert here == fresh
    assert [code for code, _, _ in here] == [1, 0, 1]


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
