"""End-to-end command line checks via subprocess.

Input files are written from the documented schemas by hand rather
than through the library's serializers, so these tests also pin the
on-disk formats.
"""

import concurrent.futures
import json
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperdp import cli, graphs, measures


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "hyperdp", *map(str, argv)],
        capture_output=True,
        text=True,
    )


def measure_dict(variables, domains, points):
    return {
        "variables": list(variables),
        "domains": {v: list(d) for v, d in domains.items()},
        "points": [
            {"assignment": dict(zip(variables, x)), "mass": repr(float(m))}
            for x, m in points.items()
        ],
    }


UNIFORM_IJ = measure_dict(
    ("I", "J"), {"I": (0, 1), "J": (0, 1)},
    {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25},
)
COPY_JK = measure_dict(("J", "K"), {"J": (0, 1), "K": (0, 1)}, {(0, 0): 0.5, (1, 1): 0.5})
UNIFORM_JK = measure_dict(
    ("J", "K"), {"J": (0, 1), "K": (0, 1)},
    {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25},
)
SKEW_IJ = measure_dict(
    ("I", "J"), {"I": (0, 1), "J": (0, 1)},
    {(0, 0): 0.3, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.2},
)
PATH_GRAPH = {"vertices": ["I", "J", "K"], "edges": [["I", "J"], ["J", "K"]]}


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


@pytest.fixture
def good_spec(tmp_path):
    return write_json(
        tmp_path, "spec.json",
        {"graph": PATH_GRAPH, "nu": 4.0, "clique_bases": [UNIFORM_IJ, COPY_JK]},
    )


@pytest.fixture
def bad_spec(tmp_path):
    return write_json(
        tmp_path, "bad_spec.json",
        {"graph": PATH_GRAPH, "nu": 4.0, "clique_bases": [UNIFORM_IJ, UNIFORM_JK]},
    )


# ---------------------------------------------------------------- commands


def test_check_graph(tmp_path):
    path = write_json(tmp_path, "graph.json", PATH_GRAPH)
    proc = run_cli("check-graph", path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["decomposable"] is True
    assert out["connected"] is True
    assert out["cliques"] == [["I", "J"], ["J", "K"]]
    assert out["separators"] == [["J"]]


def test_check_graph_negative_is_still_a_report(tmp_path):
    square = {"vertices": [1, 2, 3, 4], "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]}
    proc = run_cli("check-graph", write_json(tmp_path, "square.json", square))
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["decomposable"] is False
    assert "cliques" not in out


_SEARCH_AND_WALK = ["_reachable", "mcs_order"]


@pytest.mark.parametrize(
    "graph, verdict, calls",
    [
        ("graph_chordal_120.json", None, _SEARCH_AND_WALK),
        ("graph_clique_tree.json", None, _SEARCH_AND_WALK),
        ("graph_disconnected.json", {"decomposable": True, "connected": False}, _SEARCH_AND_WALK),
        ("graph_square.json", {"decomposable": False, "connected": True}, _SEARCH_AND_WALK),
        pytest.param(
            {"vertices": [1, 2, 3, 4, 5], "edges": [[1, 2], [2, 3], [3, 4], [4, 1]]},
            {"decomposable": False, "connected": False},
            _SEARCH_AND_WALK,
            id="square_and_lone_vertex",
        ),
        pytest.param(
            {"vertices": [], "edges": []},
            {"decomposable": True, "connected": False},
            [],
            id="no_vertices",
        ),
    ],
)
def test_check_graph_searches_once_and_walks_once(
    tmp_path, monkeypatch, capsys, graph, verdict, calls
):
    if isinstance(graph, dict):
        path = write_json(tmp_path, "graph.json", graph)
    else:
        path = pathlib.Path(__file__).parent / "golden" / "specs" / graph
    seen = []
    for name in _SEARCH_AND_WALK:
        fn = getattr(graphs, name)
        monkeypatch.setattr(graphs, name, lambda *a, fn=fn, name=name: seen.append(name) or fn(*a))
    assert cli.main(["check-graph", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert sorted(seen) == calls
    if verdict is None:
        assert out["decomposable"] is out["connected"] is True and "cliques" in out
    else:
        assert out == verdict


def test_combine(tmp_path):
    mu = write_json(tmp_path, "mu.json", UNIFORM_IJ)
    lam = write_json(tmp_path, "lam.json", COPY_JK)
    proc = run_cli("combine", "--mu", mu, "--lambda", lam)
    assert proc.returncode == 0, proc.stdout
    out = json.loads(proc.stdout)
    assert out["variables"] == ["I", "J", "K"]
    assert len(out["points"]) == 4
    assert all(p["mass"] == "0.25" for p in out["points"])


def test_combine_inconsistent_fails(tmp_path):
    mu = write_json(tmp_path, "mu.json", UNIFORM_IJ)
    lam = write_json(
        tmp_path, "lam.json",
        measure_dict(("J", "K"), {"J": (0, 1), "K": (0, 1)}, {(0, 0): 0.7, (1, 1): 0.3}),
    )
    proc = run_cli("combine", "--mu", mu, "--lambda", lam)
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["error"] == "Inconsistent"


def _strict_json(text):
    """``json.loads`` that refuses the non-JSON constants NaN and Infinity."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_zero_mass_reports_print_valid_json(tmp_path):
    # one zero measure leaves the overlap marginals without a finite gap;
    # the report says null where json.dumps would write Infinity
    mu = write_json(tmp_path, "mu.json", COPY_JK)
    zero = measure_dict(("J", "K"), {"J": (0, 1), "K": (0, 1)}, {(0, 0): 0.0, (1, 1): 0.0})
    lam = write_json(tmp_path, "lam.json", zero)
    combined = run_cli("combine", "--mu", mu, "--lambda", lam)
    assert combined.returncode == 1
    error = _strict_json(combined.stdout)
    assert error["error"] == "Inconsistent" and "pair" not in error
    assert error["report"]["marginal_gap"] is None and error["report"]["mass_gap"] == 1.0
    checked = run_cli("check-consistency", "--mu", mu, "--lambda", lam)
    assert checked.returncode == 0
    assert {k: v for k, v in _strict_json(checked.stdout).items() if k != "tol"} == error["report"]


def test_check_consistency(tmp_path):
    mu = write_json(tmp_path, "mu.json", UNIFORM_IJ)
    lam = write_json(tmp_path, "lam.json", COPY_JK)
    proc = run_cli("check-consistency", "--mu", mu, "--lambda", lam, "--tol", "1e-9")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["consistent"] is True
    assert out["overlap"] == ["J"]
    assert out["tol"] == 1e-9


@pytest.mark.parametrize("command", ["combine", "check-consistency"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-09"])
def test_bad_tolerance_is_refused(tmp_path, command, tol):
    # a NaN tol printed "tol": NaN and called equal measures inconsistent;
    # an infinite one accepted anything
    mu = write_json(tmp_path, "mu.json", UNIFORM_IJ)
    lam = write_json(tmp_path, "lam.json", COPY_JK)
    proc = run_cli(command, "--mu", mu, "--lambda", lam, f"--tol={tol}")
    assert proc.returncode == 1
    out = _strict_json(proc.stdout)
    assert out["error"] == "ValueError"
    assert out["detail"].startswith("tol must be finite and nonnegative")


@pytest.mark.parametrize("command", ["combine", "check-consistency"])
def test_zero_tolerance_is_legal(tmp_path, command):
    mu = write_json(tmp_path, "mu.json", UNIFORM_IJ)
    lam = write_json(tmp_path, "lam.json", COPY_JK)
    proc = run_cli(command, "--mu", mu, "--lambda", lam, "--tol", "0")
    assert proc.returncode == 0, proc.stdout


def test_sample_lines_and_determinism(tmp_path):
    base = write_json(tmp_path, "base.json", UNIFORM_IJ)
    argv = ("sample", "--base", base, "--nu", "2.0", "--replicates", "3", "--seed", "11")
    first = run_cli(*argv)
    assert first.returncode == 0
    lines = first.stdout.strip().split("\n")
    assert len(lines) == 3
    for r, line in enumerate(lines):
        obj = json.loads(line)
        assert obj["replicate"] == r and obj["seed"] == 11
        assert abs(sum(obj["weights"]) - 1.0) < 1e-9
        assert all(a in ([0, 0], [0, 1], [1, 0], [1, 1]) for a in obj["atoms"])
    assert run_cli(*argv).stdout == first.stdout


def test_sample_parallel_bytes_match_serial(tmp_path):
    base = write_json(tmp_path, "base.json", UNIFORM_IJ)
    argv = ["sample", "--base", base, "--nu", "3.0", "--replicates", "4", "--seed", "9"]
    serial = run_cli(*argv)
    parallel = run_cli(*argv, "--parallel", "2")
    assert parallel.returncode == 0
    assert parallel.stdout == serial.stdout


@pytest.mark.parametrize("replicates", [7, 130])
def test_chunked_parallel_bytes_match_serial(tmp_path, replicates):
    # 130 replicates over two workers come in chunks of several, the last one short
    base = write_json(tmp_path, "base.json", UNIFORM_IJ)
    argv = ["sample", "--base", base, "--nu", "3.0", "--replicates", replicates, "--seed", "9"]
    serial, parallel = run_cli(*argv), run_cli(*argv, "--parallel", "2")
    assert serial.returncode == parallel.returncode == 0
    assert len(serial.stdout.splitlines()) == replicates
    assert parallel.stdout == serial.stdout


SEEDED_SPECS = pathlib.Path(__file__).parent / "golden" / "specs"
SEEDED_COMMANDS = {
    "sample": ["sample", "--base", SEEDED_SPECS / "mixture_base.json", "--nu", "2"],
    "sample-hdp": ["sample-hdp", "--spec", SEEDED_SPECS / "good.json", "--replicates", "2"],
    "mixture": [
        "mixture", "--data", SEEDED_SPECS / "mixture_data.csv",
        "--base", SEEDED_SPECS / "mixture_base.json", "--a", "1", "--sweeps", "1",
    ],
    "diagnose": ["diagnose", "--spec", SEEDED_SPECS / "good.json", "--samples", "2"],
}


@pytest.mark.parametrize("command", list(SEEDED_COMMANDS))
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seeds_at_either_end_of_64_bits_are_accepted(capsys, command, seed):
    assert cli.main([*map(str, SEEDED_COMMANDS[command]), "--seed", str(seed)]) == 0


@pytest.mark.parametrize("command", list(SEEDED_COMMANDS))
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_64_bits_are_a_named_error(capsys, command, seed):
    # they used to be masked into range: -1 drew as 2**64 - 1, and 2**64 as 0
    assert cli.main([*map(str, SEEDED_COMMANDS[command]), "--seed", str(seed)]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "ValueError",
        "detail": f"seed must lie in [0, 2**64), got {seed}",
    }


def test_sample_writes_each_draw_before_making_the_next(monkeypatch, capsys):
    golden = pathlib.Path(__file__).parent / "golden"
    argv = ["sample", "--base", str(golden / "specs" / "mixture_base.json"), "--nu", "2",
            "--replicates", "5", "--seed", "3"]
    written = []  # what stdout has received each time a draw starts
    sample_dp = cli.sample_dp

    def spy(params, cfg, replicate=0):
        written.append(capsys.readouterr().out)
        return sample_dp(params, cfg, replicate)

    monkeypatch.setattr(cli, "sample_dp", spy)
    assert cli.main(argv) == 0
    written.append(capsys.readouterr().out)
    assert written[0] == ""
    for r, chunk in enumerate(written[1:]):
        assert chunk.endswith("\n") and chunk.count("\n") == 1
        assert json.loads(chunk)["replicate"] == r
    assert "".join(written) == (golden / "sample_good.stdout").read_text(encoding="utf-8")


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_sample_rejects_fewer_than_one_worker(tmp_path, workers):
    base = write_json(tmp_path, "base.json", UNIFORM_IJ)
    proc = run_cli("sample", "--base", base, "--nu", "1", "--seed", "1", "--parallel", workers)
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["error"] == "ValueError" and "--parallel" in out["detail"]


def test_parallel_workers_are_capped(tmp_path, monkeypatch, capsys):
    # a recorder stands in for the pool, so no worker process is started
    created, chunks = [], []

    class Recorder:
        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        @staticmethod
        def map(fn, iterable, chunksize):
            chunks.append(chunksize)
            return map(fn, iterable)

    base = write_json(tmp_path, "base.json", UNIFORM_IJ)
    argv = ["sample", "--base", str(base), "--nu", "3.0", "--replicates", "3", "--seed", "9"]
    assert cli.main(argv) == 0
    serial = capsys.readouterr().out
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    assert cli.main([*argv, "--parallel", str(10**6)]) == 0
    assert created == [min(3, cli.os.cpu_count() or 1)] and chunks == [1]
    assert capsys.readouterr().out == serial


def test_diagnose_reports_atom_budget_hits_on_stderr():
    golden = pathlib.Path(__file__).parent / "golden"
    argv = ("diagnose", "--spec", golden / "specs" / "good.json", "--samples", "5", "--seed", "3")
    plain, capped = run_cli(*argv), run_cli(*argv, "--max-atoms", "2")
    assert plain.returncode == capped.returncode == 0
    assert plain.stdout == (golden / "diagnose_good.stdout").read_text(encoding="utf-8")
    assert plain.stderr == ""
    prefix = (
        "hyperdp: 5 of 5 draws ran out of the 2-atom budget (--max-atoms); "
        "the largest leftover folded into one atom was "
    )
    assert capped.stderr.startswith(prefix) and capped.stderr.endswith("\n")
    assert 0.0 < float(capped.stderr[len(prefix):]) < 1.0


def test_sample_rejects_zero_replicates(tmp_path):
    base = write_json(tmp_path, "base.json", UNIFORM_IJ)
    proc = run_cli("sample", "--base", base, "--nu", "1", "--replicates", "0", "--seed", "1")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == "ValueError"


def test_atom_budget_hits_are_reported_on_stderr():
    golden = pathlib.Path(__file__).parent / "golden"
    argv = ("sample", "--base", golden / "specs" / "mixture_base.json", "--nu", "2000",
            "--max-atoms", "40", "--replicates", "3", "--seed", "3")
    expected = (golden / "sample_budget_hit_good.stdout").read_text(encoding="utf-8")
    largest = max(json.loads(line)["residual"] for line in expected.splitlines())
    serial, parallel = run_cli(*argv), run_cli(*argv, "--parallel", "2")
    for proc in (serial, parallel):
        assert proc.returncode == 0
        assert proc.stdout == expected
        assert proc.stderr == (
            "hyperdp: 3 of 3 draws ran out of the 40-atom budget (--max-atoms); "
            f"the largest leftover folded into one atom was {largest!r}\n"
        )
    coarse = (*argv[:3], "--nu", "2", "--eps", "0.01", "--replicates", "5", "--seed", "3")
    # draws that stop at eps report nothing
    quiet = run_cli(*coarse)
    assert quiet.returncode == 0 and quiet.stderr == ""
    # with 11 slots, two draws fill the budget but reach eps with their last
    # stick; only the fifth stops with 0.026 left over
    mixed = run_cli(*coarse, "--max-atoms", "11")
    assert mixed.returncode == 0
    assert mixed.stderr == (
        "hyperdp: 1 of 5 draws ran out of the 11-atom budget (--max-atoms); "
        "the largest leftover folded into one atom was 0.026239705677819962\n"
    )


def test_posterior(tmp_path):
    base = write_json(
        tmp_path, "base.json",
        measure_dict(("X",), {"X": (0, 1)}, {(0,): 0.5, (1,): 0.5}),
    )
    data = tmp_path / "data.csv"
    data.write_text("X\n0\n0\n", encoding="utf-8")
    proc = run_cli("posterior", "--base", base, "--nu", "1.0", "--data", data)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["nu"] == 3.0
    masses = {p["assignment"]["X"]: float(p["mass"]) for p in out["base"]["points"]}
    assert masses[0] == 2.5 / 3
    assert masses[1] == 0.5 / 3


def test_build_hdp(good_spec):
    proc = run_cli("build-hdp", "--spec", good_spec)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["nu"] == 4.0
    assert out["decomposition"]["separators"] == [["J"]]
    points = {
        tuple(p["assignment"][v] for v in "IJK"): p["mass"]
        for p in out["combined_base"]["points"]
    }
    assert points == {(0, 0, 0): "0.25", (0, 1, 1): "0.25", (1, 0, 0): "0.25", (1, 1, 1): "0.25"}


def test_build_hdp_bad_spec(bad_spec):
    proc = run_cli("build-hdp", "--spec", bad_spec)
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["error"] == "RefinementViolated"
    assert out["witness"] == {"J": 0}


def test_sample_hdp(good_spec):
    proc = run_cli("sample-hdp", "--spec", good_spec, "--replicates", "2", "--seed", "5")
    assert proc.returncode == 0
    for line in proc.stdout.strip().split("\n"):
        obj = json.loads(line)
        assert all(len(a) == 3 and a[1] == a[2] for a in obj["atoms"])


def test_posterior_hdp_round_trips(good_spec, tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("I,J,K\n0,0,0\n1,1,1\n", encoding="utf-8")
    proc = run_cli("posterior-hdp", "--spec", good_spec, "--data", data)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["nu"] == 6.0
    # the emitted spec is itself valid build-hdp input
    again = run_cli("build-hdp", "--spec", write_json(tmp_path, "post.json", out))
    assert again.returncode == 0
    assert json.loads(again.stdout)["nu"] == 6.0


def test_posterior_hdp_unsupported_observation(good_spec, tmp_path):
    data = tmp_path / "obs.csv"
    data.write_text("I,J,K\n0,0,1\n", encoding="utf-8")
    proc = run_cli("posterior-hdp", "--spec", good_spec, "--data", data)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == "ObservationViolatesSupport"


def test_diagnose_good_spec(good_spec):
    proc = run_cli("diagnose", "--spec", good_spec, "--samples", "5", "--seed", "3")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["passed"] is True
    names = [c["name"] for c in out["checks"]]
    assert "graph" in names
    sampled = [c for c in out["checks"] if "passing" in c]
    assert len(sampled) == 2
    assert all(c["passing"] == 5 for c in sampled)


def test_diagnose_refuses_a_negative_sample_count(good_spec):
    # it used to pass silently, skipping the sampled checks
    proc = run_cli("diagnose", "--spec", good_spec, "--samples", "-4")
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out == {"error": "ValueError", "detail": "--samples must be at least 0"}
    zero = run_cli("diagnose", "--spec", good_spec, "--samples", "0")
    assert zero.returncode == 0
    assert not [c for c in json.loads(zero.stdout)["checks"] if "passing" in c]


def test_diagnose_bad_spec(bad_spec):
    proc = run_cli("diagnose", "--spec", bad_spec)
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["passed"] is False
    assert out["error"] == "RefinementViolated"
    assert out["witness"] == {"J": 0}
    failing = [c for c in out["checks"] if not c["passed"]]
    assert failing and failing[0]["witness"] == {"J": 0}
    # stdout carries exactly one JSON document, nothing partial
    assert proc.stdout.strip().count("\n") == 0


HEAVY_IJ = {**UNIFORM_IJ, "points": [{**p, "mass": "0.5"} for p in UNIFORM_IJ["points"]]}
HEAVY_JK = {**COPY_JK, "points": [{**p, "mass": "1.0"} for p in COPY_JK["points"]]}


@pytest.mark.parametrize(
    "bases",
    [[UNIFORM_IJ], [UNIFORM_IJ, COPY_JK, COPY_JK], [HEAVY_IJ, HEAVY_JK], [UNIFORM_IJ, HEAVY_JK]],
    ids=["one-base", "three-bases", "both-total-2", "second-totals-2"],
)
def test_diagnose_malformed_spec_fails_like_build_hdp(tmp_path, bases):
    spec = write_json(tmp_path, "spec.json", {"graph": PATH_GRAPH, "nu": 4.0, "clique_bases": bases})
    built = run_cli("build-hdp", "--spec", spec)
    diagnosed = run_cli("diagnose", "--spec", spec, "--samples", "2", "--seed", "1")
    assert built.returncode == diagnosed.returncode == 1
    assert json.loads(built.stdout)["error"] == "ValueError"
    assert diagnosed.stdout == built.stdout


def _path_spec(bases):
    """A binary path graph with one base per edge, each given as its points."""
    verts = [chr(ord("A") + i) for i in range(len(bases) + 1)]
    return {
        "graph": {"vertices": verts, "edges": [list(e) for e in zip(verts, verts[1:])]},
        "nu": 1.0,
        "clique_bases": [
            measure_dict((a, b), {a: (0, 1), b: (0, 1)}, points)
            for (a, b), points in zip(zip(verts, verts[1:]), bases)
        ],
    }


# Every pair of bases passes the consistency check, but the fold along
# the path drops the mass that each pair's gap hides: once at the end
# (A-B-C), or at every step until the running fold fails the check
# against the next base (a six-vertex path, 4e-10 dropped per step).
# Or it keeps the mass but adds up the pairs' overlap gaps of 9e-10
# (A-B-C-D), until the fold's law of C is 1.8e-9 from the last base's.
DRIFT_SPECS = {
    "lost-at-the-end": _path_spec(
        [{(0, 0): 0.9999999999, (1, 1): 1e-10}, {(0, 0): 1.0}]
    ),
    "lost-step-by-step": _path_spec([{(0, 0): 1 - 4e-10, (0, 1): 4e-10}] * 5),
    "drifted": _path_spec(
        [{(0, 0): 0.5 + d, (1, 1): 0.5 - d} for d in (9e-10, 0.0, -9e-10)]
    ),
}
DRIFT_DETAILS = {
    "lost-at-the-end": "lost 1.000e-10 of mass",
    "lost-step-by-step": "lost 1.200e-09 of mass",
    "drifted": "drifted their overlap marginals 1.800e-09 apart",
}


@pytest.mark.parametrize("spec", sorted(DRIFT_SPECS))
def test_fold_drift_fails_the_audit_as_inconsistent(tmp_path, spec):
    path = write_json(tmp_path, "spec.json", DRIFT_SPECS[spec])
    built = run_cli("build-hdp", "--spec", path)
    diagnosed = run_cli("diagnose", "--spec", path)
    assert built.returncode == diagnosed.returncode == 1
    error = json.loads(built.stdout)
    assert error["error"] == "Inconsistent"
    assert DRIFT_DETAILS[spec] in error["detail"]
    out = json.loads(diagnosed.stdout)
    assert out["passed"] is False and out["error"] == "Inconsistent"
    failing = [c for c in out["checks"] if not c["passed"]]
    assert len(failing) == 1 and out["checks"][-1] is failing[0]
    assert failing[0]["detail"] == error["detail"]
    assert all(c["passed"] for c in out["checks"] if c["name"].startswith("consistency"))


@pytest.mark.parametrize("spec", ["inconsistent", *sorted(DRIFT_SPECS)])
def test_diagnose_inconsistent_carries_the_build_hdp_report(tmp_path, spec):
    if spec in DRIFT_SPECS:
        path = write_json(tmp_path, "spec.json", DRIFT_SPECS[spec])
    else:
        path = pathlib.Path(__file__).parent / "golden" / "specs" / f"{spec}.json"
    error = json.loads(run_cli("build-hdp", "--spec", path).stdout)
    out = json.loads(run_cli("diagnose", "--spec", path).stdout)
    assert error["error"] == out["error"] == "Inconsistent"
    for key in ("pair", "report"):
        assert out.get(key) == error.get(key)


def test_diagnose_checks_each_pair_of_bases_once(good_spec, monkeypatch, capsys):
    calls = []
    original = measures.is_consistent

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (cli, measures):
        monkeypatch.setattr(module, "is_consistent", counted)
    assert cli.main(["diagnose", "--spec", str(good_spec)]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    # one check of the only pair, one inside the Markov combination step
    assert len(calls) == 2


def test_reconcile_average_defaults_gamma(tmp_path):
    mu = write_json(tmp_path, "mu.json", SKEW_IJ)
    lam = write_json(tmp_path, "lam.json", UNIFORM_JK)
    proc = run_cli("reconcile", "--mu", mu, "--lambda", lam, "--strategy", "average")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["strategy"] == "weighted-average"
    assert out["gamma"] == 0.5
    j_mass = {0: 0.0, 1: 0.0}
    for p in out["measure"]["points"]:
        j_mass[p["assignment"]["J"]] += float(p["mass"])
    assert j_mass[0] == pytest.approx(0.55)
    assert j_mass[1] == pytest.approx(0.45)


def test_reconcile_rescale(tmp_path):
    double = {**UNIFORM_IJ, "points": [{**p, "mass": "0.5"} for p in UNIFORM_IJ["points"]]}
    mu = write_json(tmp_path, "mu.json", double)
    lam = write_json(tmp_path, "lam.json", UNIFORM_JK)
    proc = run_cli("reconcile", "--mu", mu, "--lambda", lam, "--strategy", "rescale-min")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert "mu" in out and "lambda" in out
    assert sum(float(p["mass"]) for p in out["mu"]["points"]) == pytest.approx(1.0)
    missing = run_cli("reconcile", "--mu", mu, "--lambda", lam, "--strategy", "rescale-convex")
    assert missing.returncode == 1
    assert json.loads(missing.stdout)["error"] == "ValueError"


@pytest.mark.parametrize(
    "args, detail",
    [
        (("--strategy", "rescale-min"), "cannot rescale measures with zero total mass"),
        (
            ("--strategy", "rescale-convex", "--gamma", "0.5"),
            "cannot rescale measures with zero total mass",
        ),
        (
            ("--strategy", "average"),
            "cannot suggest a mixing weight for two measures with zero total mass",
        ),
        (("--strategy", "kl"), "cannot normalize a measure with zero total mass"),
    ],
)
def test_reconcile_of_zero_measures_exits_with_zero_mass(tmp_path, args, detail):
    mu = write_json(tmp_path, "mu.json", {**UNIFORM_IJ, "points": []})
    lam = write_json(tmp_path, "lam.json", {**UNIFORM_JK, "points": []})
    proc = run_cli("reconcile", "--mu", mu, "--lambda", lam, *args)
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout) == {"error": "ZeroMass", "detail": detail}


def test_reconcile_average_suggests_half_for_two_huge_equal_masses(tmp_path, capsys):
    # tm + tl overflows to inf, and tm / inf would print a gamma of 0.0
    huge_ij = measure_dict(("I", "J"), {"I": (0,), "J": (0,)}, {(0, 0): 1.5e308})
    huge_jk = measure_dict(("J", "K"), {"J": (0,), "K": (0,)}, {(0, 0): 1.5e308})
    mu, lam = write_json(tmp_path, "mu.json", huge_ij), write_json(tmp_path, "lam.json", huge_jk)
    argv = ["reconcile", "--mu", str(mu), "--lambda", str(lam), "--strategy", "average"]
    assert cli.main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["gamma"] == 0.5
    point = {"assignment": {"I": 0, "J": 0, "K": 0}, "mass": "1.5e+308"}
    assert out["measure"]["points"] == [point]


@pytest.mark.parametrize("strategy", ["average", "kl"])
def test_reconcile_of_a_measure_whose_total_overflows_is_a_named_error(
    tmp_path, capsys, strategy
):
    huge = measure_dict(("I", "J"), {"I": (0, 1), "J": (0,)}, {(0, 0): 1e308, (1, 0): 1e308})
    point = measure_dict(("J", "K"), {"J": (0,), "K": (0,)}, {(0, 0): 1.0})
    mu, lam = write_json(tmp_path, "mu.json", huge), write_json(tmp_path, "lam.json", point)
    argv = ["reconcile", "--mu", str(mu), "--lambda", str(lam), "--strategy", strategy]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "OverflowError",
        "detail": "intermediate overflow in fsum",
    }


def test_reconcile_condition_a(tmp_path):
    mu = write_json(tmp_path, "mu.json", SKEW_IJ)
    lam = write_json(tmp_path, "lam.json", UNIFORM_JK)
    proc = run_cli("reconcile", "--mu", mu, "--lambda", lam, "--strategy", "condition-a")
    out = json.loads(proc.stdout)
    assert out["strategy"] == "condition-on-a"
    assert "gamma" not in out
    got = {
        tuple(p["assignment"][v] for v in "IJK"): float(p["mass"])
        for p in out["measure"]["points"]
    }
    assert got[(0, 0, 0)] == pytest.approx(0.15)
    assert got[(0, 1, 0)] == pytest.approx(0.10)


@pytest.mark.parametrize(
    "strategy, gamma, detail",
    [
        ("condition-a", "0.3", "takes no gamma"),
        ("condition-b", "0.3", "takes no gamma"),
        ("kl", "7", "takes no gamma"),
        ("rescale-min", "0.5", "takes no gamma"),
        ("average", "7", "gamma must lie in [0, 1]"),
        ("average", "nan", "gamma must lie in [0, 1]"),
        ("rescale-convex", "-0.1", "gamma must lie in [0, 1]"),
    ],
)
def test_reconcile_rejects_a_gamma_the_strategy_cannot_use(
    tmp_path, capsys, strategy, gamma, detail
):
    mu = write_json(tmp_path, "mu.json", UNIFORM_IJ)
    lam = write_json(tmp_path, "lam.json", UNIFORM_JK)
    argv = ["reconcile", "--mu", str(mu), "--lambda", str(lam), "--strategy", strategy]
    assert cli.main([*argv, "--gamma", gamma]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "ValueError" and detail in out["detail"]


def test_reconcile_rejects_a_negative_mass_hidden_by_a_duplicate(tmp_path, capsys):
    split = measure_dict(("J", "K"), {"J": (0, 1), "K": (0, 1)}, {})
    split["points"] = [
        {"assignment": {"J": 0, "K": 0}, "mass": "-0.25"},
        {"assignment": {"J": 0, "K": 0}, "mass": "0.75"},
        {"assignment": {"J": 1, "K": 1}, "mass": "0.5"},
    ]
    mu = write_json(tmp_path, "mu.json", UNIFORM_IJ)
    lam = write_json(tmp_path, "lam.json", split)
    argv = ["reconcile", "--mu", str(mu), "--lambda", str(lam), "--strategy", "condition-a"]
    assert cli.main(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "ValueError" and out["detail"].startswith("point 1 ")


def test_sample_rejects_a_negative_mass_hidden_by_a_duplicate(tmp_path):
    base = measure_dict(("A",), {"A": (0, 1)}, {})
    base["points"] = [
        {"assignment": {"A": 0}, "mass": "-1.0"},
        {"assignment": {"A": 0}, "mass": "1.5"},
        {"assignment": {"A": 1}, "mass": "0.5"},
    ]
    path = write_json(tmp_path, "base.json", base)
    proc = run_cli("sample", "--base", path, "--nu", "1", "--replicates", "2", "--seed", "1")
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["error"] == "ValueError" and "point 1 " in out["detail"]


def test_mixture(tmp_path):
    base = write_json(
        tmp_path, "base.json",
        measure_dict(("X",), {"X": (0, 1)}, {(0,): 0.5, (1,): 0.5}),
    )
    data = tmp_path / "data.csv"
    data.write_text("X\n0\n1\n0\n", encoding="utf-8")
    plot = tmp_path / "hist.csv"
    argv = (
        "mixture", "--data", data, "--base", base, "--a", "1.0",
        "--sweeps", "4", "--seed", "2", "--plot-csv", plot,
    )
    proc = run_cli(*argv)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    # identity likelihood pins every class to its observed value
    assert out["assignments"] == [0, 1, 0]
    assert out["class_counts"] == [2, 1]
    assert out["classes"][0] == {"label": 0, "size": 2, "value": {"X": 0}}
    lines = plot.read_text().strip().split("\n")
    assert lines[0] == "n_classes,sweeps"
    assert sum(int(row.split(",")[1]) for row in lines[1:]) == 4
    assert run_cli(*argv).stdout == proc.stdout


def test_cdf_estimate_single(tmp_path):
    base = write_json(
        tmp_path, "base.json",
        measure_dict(("X",), {"X": (0, 1, 2)}, {(0,): 0.2, (1,): 0.3, (2,): 0.5}),
    )
    data = tmp_path / "data.csv"
    data.write_text("X\n0\n2\n2\n", encoding="utf-8")
    proc = run_cli("cdf-estimate", "--base", base, "--nu", "2.0", "--data", data, "--t", "1")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["estimate"] == pytest.approx(0.4)


def test_cdf_estimate_grid_and_plot(tmp_path):
    base = write_json(
        tmp_path, "base.json",
        measure_dict(("X",), {"X": (0, 1, 2)}, {(0,): 0.2, (1,): 0.3, (2,): 0.5}),
    )
    data = tmp_path / "data.csv"
    data.write_text("X\n0\n2\n2\n", encoding="utf-8")
    plot = tmp_path / "curve.csv"
    proc = run_cli(
        "cdf-estimate", "--base", base, "--nu", "2.0", "--data", data,
        "--t-grid=-0.5:2.5:7", "--plot-csv", plot,
    )
    assert proc.returncode == 0
    points = json.loads(proc.stdout)["points"]
    assert len(points) == 7
    estimates = [p["estimate"] for p in points]
    assert all(b >= a for a, b in zip(estimates, estimates[1:]))
    assert estimates[-1] == pytest.approx(1.0)
    lines = plot.read_text().strip().split("\n")
    assert lines[0] == "t,estimate"
    assert len(lines) == 8
    # plot cells round trip to the JSON values bit for bit
    for row, p in zip(lines[1:], points):
        t_cell, est_cell = row.split(",")
        assert float(t_cell) == p["t"] and float(est_cell) == p["estimate"]


def test_cdf_estimate_requires_threshold(tmp_path):
    base = write_json(
        tmp_path, "base.json",
        measure_dict(("X",), {"X": (0, 1)}, {(0,): 0.5, (1,): 0.5}),
    )
    data = tmp_path / "data.csv"
    data.write_text("X\n0\n", encoding="utf-8")
    proc = run_cli("cdf-estimate", "--base", base, "--nu", "1.0", "--data", data)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == "ValueError"


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@settings(max_examples=500, deadline=None)
@given(
    lo=st.floats(allow_nan=False, allow_infinity=False),
    hi=st.floats(allow_nan=False, allow_infinity=False),
    steps=st.integers(2, 60),
)
@example(lo=0.0, hi=5e-324, steps=3)  # the step underflows to zero
@example(lo=-5e-324, hi=1e-323, steps=7)  # subnormal step
@example(lo=1.0, hi=1.0000000000000002, steps=9)  # a one-ulp span
@example(lo=-1.7e308, hi=1.7e308, steps=5)  # the span overflows
@example(lo=-1e300, hi=1e300, steps=60)  # huge but finite span
def test_t_grid_matches_numpy_linspace_bit_for_bit(lo, hi, steps):
    with np.errstate(all="ignore"):  # an overflowing span is part of the contract
        expected = _bits(np.linspace(lo, hi, steps).tolist())
    assert _bits(cli._linspace(lo, hi, steps)) == expected
    if hi > lo:
        assert _bits(cli._parse_grid(f"{lo!r}:{hi!r}:{steps}")) == expected


@pytest.mark.parametrize(
    "rows, flags",
    [
        ("0\nnan\n", ("--t", "1")),
        ("0\ninf\n", ("--t", "1")),
        ("0\n", ("--t", "nan")),
        ("0\n", ("--t", "inf")),
        ("0\n", ("--t-grid", "0:nan:3")),
        ("0\n", ("--t-grid=-inf:1:3",)),
    ],
    ids=["nan-row", "inf-row", "t-nan", "t-inf", "grid-hi-nan", "grid-lo-inf"],
)
def test_cdf_estimate_rejects_non_finite_input(tmp_path, rows, flags):
    base = write_json(
        tmp_path, "base.json",
        measure_dict(("X",), {"X": (0, 1)}, {(0,): 0.5, (1,): 0.5}),
    )
    data = tmp_path / "data.csv"
    data.write_text("X\n" + rows, encoding="utf-8")
    proc = run_cli("cdf-estimate", "--base", base, "--nu", "1.0", "--data", data, *flags)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == "ValueError"


def test_mixture_rejects_non_finite_likelihood(tmp_path):
    base = write_json(
        tmp_path, "base.json",
        measure_dict(("X",), {"X": (0, 1)}, {(0,): 0.5, (1,): 0.5}),
    )
    table = write_json(
        tmp_path, "lik.json",
        {"entries": [{"x": {"X": 0}, "pi": {"X": 0}, "prob": "nan"}]},
    )
    data = tmp_path / "data.csv"
    data.write_text("X\n0\n1\n", encoding="utf-8")
    proc = run_cli(
        "mixture", "--data", data, "--base", base, "--a", "1.0",
        "--sweeps", "2", "--seed", "1", "--likelihood", table,
    )
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["error"] == "ValueError" and "entry 1" in out["detail"]


@pytest.mark.parametrize(
    "flags, detail",
    [
        (("--a", "nan", "--sweeps", "2"), "precision a must be finite and positive"),
        (("--a", "inf", "--sweeps", "2"), "precision a must be finite and positive"),
        (("--a", "-0.5", "--sweeps", "2"), "precision a must be finite and positive"),
        (("--a", "0", "--sweeps", "2"), "precision a must be finite and positive"),
        (("--a", "1.0", "--sweeps", "-3"), "sweeps must be nonnegative"),
    ],
    ids=["a-nan", "a-inf", "a-negative", "a-zero", "sweeps-negative"],
)
def test_mixture_rejects_bad_precision_and_sweeps(tmp_path, flags, detail):
    base = write_json(
        tmp_path, "base.json",
        measure_dict(("X",), {"X": (0, 1)}, {(0,): 0.5, (1,): 0.5}),
    )
    data = tmp_path / "data.csv"
    data.write_text("X\n0\n1\n", encoding="utf-8")
    proc = run_cli("mixture", "--data", data, "--base", base, "--seed", "1", *flags)
    assert proc.returncode == 1
    out = json.loads(proc.stdout)
    assert out["error"] == "ValueError" and detail in out["detail"]


def test_mixture_zero_sweeps_prints_the_start_state(tmp_path):
    base = write_json(
        tmp_path, "base.json",
        measure_dict(("X",), {"X": (0, 1)}, {(0,): 0.5, (1,): 0.5}),
    )
    data = tmp_path / "data.csv"
    data.write_text("X\n0\n1\n0\n", encoding="utf-8")
    proc = run_cli(
        "mixture", "--data", data, "--base", base, "--a", "1.0", "--sweeps", "0", "--seed", "1",
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["assignments"] == [0, 0, 0] and out["class_counts"] == [3]


# ------------------------------------------------------------- exit codes


def test_missing_file_exits_2(tmp_path):
    proc = run_cli("check-graph", tmp_path / "nope.json")
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "IOError"


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    proc = run_cli("check-graph", path)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == "IOError"


BASE_X = measure_dict(("X",), {"X": (0, 1)}, {(0,): 0.5, (1,): 0.5})
NO_MASS_X = {**BASE_X, "points": [{"assignment": {"X": 0}}]}


@pytest.mark.parametrize(
    "kind, obj, key",
    [
        ("graph", {"vertices": ["I"]}, "edges"),
        ("spec", {}, "graph"),
        ("measure", {k: v for k, v in BASE_X.items() if k != "points"}, "points"),
        ("measure", {**BASE_X, "domains": {}}, "X"),
        ("point", NO_MASS_X, "mass"),
        ("likelihood", {"entries": [{"x": {"X": 0}, "pi": {"X": 0}}]}, "prob"),
    ],
    ids=["graph", "spec", "measure", "domains", "point", "likelihood"],
)
def test_a_missing_key_is_a_named_error(tmp_path, kind, obj, key):
    path = write_json(tmp_path, "input.json", obj)
    base = write_json(tmp_path, "base.json", BASE_X)
    data = tmp_path / "data.csv"
    data.write_text("X\n0\n", encoding="utf-8")
    argv = {
        "graph": ("check-graph", path),
        "spec": ("build-hdp", "--spec", path),
        "measure": ("sample", "--base", path, "--nu", "1", "--seed", "1"),
        "point": ("sample", "--base", path, "--nu", "1", "--seed", "1"),
        "likelihood": (
            "mixture", "--data", data, "--base", base, "--a", "1", "--sweeps", "1",
            "--seed", "1", "--likelihood", path,
        ),
    }[kind]
    proc = run_cli(*argv)
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {"error": "ValueError", "detail": f"input has no {key!r} key"}
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, text, detail",
    [
        ("posterior-hdp", "I,J,K,I\n0,0,0,1\n", "line 1: the header repeats column 'I'"),
        ("posterior-hdp", "I,J,K\n0,0,0\n0,0,0,7\n", "line 3: more cells than the header's 3"),
        ("posterior-hdp", "I,J,K\n0,0\n", "line 2: fewer cells than the header's 3"),
        ("cdf-estimate", "X,Y,X\n0,1,2\n", "line 1: the header repeats column 'X'"),
        ("cdf-estimate", "X\n0\n\n1,2\n", "line 4: more cells than the header's 1"),
        ("cdf-estimate", "X,Y\n0\n", "line 2: fewer cells than the header's 2"),
    ],
    ids=["hdp-repeated", "hdp-long", "hdp-short", "cdf-repeated", "cdf-long", "cdf-short"],
)
def test_a_data_csv_that_contradicts_its_header_is_a_named_error(
    tmp_path, capsys, command, text, detail
):
    data = tmp_path / "data.csv"
    data.write_text(text, encoding="utf-8")
    if command == "posterior-hdp":
        spec = pathlib.Path(__file__).parent / "golden" / "specs" / "good.json"
        argv = ["posterior-hdp", "--spec", str(spec), "--data", str(data)]
    else:
        base = write_json(tmp_path, "base.json", BASE_X)
        argv = ["cdf-estimate", "--base", str(base), "--nu", "1", "--data", str(data), "--t", "0"]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "ValueError", "detail": detail}


@pytest.mark.parametrize(
    "text, detail",
    [
        ("X\n0\nabc\n", "line 3: could not convert string to float: 'abc'"),
        ("X\n0\n\nnan\n", "line 4: observations must be finite real numbers, got nan"),
        ('X\n"0\n"\n-inf\n', "line 4: observations must be finite real numbers, got -inf"),
    ],
    ids=["not-a-number", "nan", "inf-after-a-two-line-record"],
)
def test_a_cdf_cell_that_is_not_a_finite_number_names_its_line(tmp_path, capsys, text, detail):
    data = tmp_path / "data.csv"
    data.write_text(text, encoding="utf-8")
    base = write_json(tmp_path, "base.json", BASE_X)
    argv = ["cdf-estimate", "--base", str(base), "--nu", "1", "--data", str(data), "--t", "0"]
    assert cli.main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "ValueError", "detail": detail}


@pytest.mark.parametrize(
    "command, plain, padded",
    [
        ("posterior-hdp", "I,J,K\n0,0,0\n1,1,1\n", "I,,J,K,\n0,,0,0,\n1,,1,1,\n"),
        ("cdf-estimate", "X\n0\n1\n", "X,,\n0,,\n1,,\n"),
    ],
)
def test_a_data_csv_may_repeat_a_column_it_does_not_read(tmp_path, capsys, command, plain, padded):
    # spreadsheet exports pad rows with empty, unnamed cells
    outs = []
    for name, text in (("plain.csv", plain), ("padded.csv", padded)):
        data = tmp_path / name
        data.write_text(text, encoding="utf-8")
        if command == "posterior-hdp":
            spec = pathlib.Path(__file__).parent / "golden" / "specs" / "good.json"
            argv = ["posterior-hdp", "--spec", str(spec), "--data", str(data)]
        else:
            base = write_json(tmp_path, "base.json", BASE_X)
            argv = ["cdf-estimate", "--base", str(base), "--nu", "1", "--data", str(data), "--t", "0"]
        assert cli.main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_a_likelihood_pair_listed_twice_is_a_named_error(tmp_path, capsys):
    base = write_json(tmp_path, "base.json", BASE_X)
    entry = {"x": {"X": 0}, "pi": {"X": 1}, "prob": "0.5"}
    other = {"x": {"X": 1}, "pi": {"X": 1}, "prob": "1"}
    table = write_json(tmp_path, "lik.json", {"entries": [entry, other, {**entry, "prob": "0.25"}]})
    data = tmp_path / "data.csv"
    data.write_text("X\n0\n1\n", encoding="utf-8")
    argv = [
        "mixture", "--data", str(data), "--base", str(base), "--a", "1.0",
        "--sweeps", "2", "--seed", "1", "--likelihood", str(table),
    ]
    assert cli.main(argv) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "ValueError"
    assert out["detail"].startswith("likelihood entry 3 ") and "listed twice" in out["detail"]


def test_failed_run_writes_no_plot_file(tmp_path):
    base = write_json(
        tmp_path, "base.json",
        measure_dict(("X",), {"X": (0, 1)}, {(0,): 0.5, (1,): 0.5}),
    )
    data = tmp_path / "data.csv"
    data.write_text("X\nbanana\n", encoding="utf-8")  # not a real number
    plot = tmp_path / "never.csv"
    proc = run_cli(
        "cdf-estimate", "--base", base, "--nu", "1.0", "--data", data,
        "--t-grid", "0:1:3", "--plot-csv", plot,
    )
    assert proc.returncode == 1
    assert not plot.exists()


def _loaded_modules(runs, names):
    """Which of ``names`` are imported after ``import hyperdp.cli`` and after each run.

    The runs go through ``cli.main`` one after another in one fresh
    interpreter; each must exit 0.
    """
    script = f"""
import contextlib, io, json, sys
import hyperdp.cli
names = {list(names)!r}
loaded = [[n for n in names if n in sys.modules]]
for argv in {[[str(a) for a in argv] for argv in runs]!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert hyperdp.cli.main(argv) == 0, argv
    loaded.append([n for n in names if n in sys.modules])
print(json.dumps(loaded))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_without_random_draws_never_import_numpy(tmp_path):
    specs = pathlib.Path(__file__).parent / "golden" / "specs"
    base = write_json(
        tmp_path, "base.json",
        measure_dict(("X",), {"X": (0, 1, 2)}, {(0,): 0.2, (1,): 0.3, (2,): 0.5}),
    )
    data = tmp_path / "data.csv"
    data.write_text("X\n0\n2\n2\n", encoding="utf-8")
    runs = [
        ["reconcile", "--mu", specs / "reconcile_mu.json",
         "--lambda", specs / "reconcile_lambda_disagree.json", "--strategy", "average"],
        ["posterior-hdp", "--spec", specs / "good.json", "--data", specs / "good_data.csv"],
        ["cdf-estimate", "--base", base, "--nu", "2.0", "--data", data, "--t-grid=-0.5:2.5:7"],
    ]
    assert _loaded_modules(runs, ["numpy"]) == [[], [], [], []]


def test_mixture_draws_without_numpy_or_a_process_pool():
    # the Gibbs chain needs only uniforms, which rng.uniforms computes in
    # plain Python; only --parallel N>1 imports concurrent.futures
    specs = pathlib.Path(__file__).parent / "golden" / "specs"
    mixture = ["mixture", "--data", specs / "mixture_data.csv",
               "--base", specs / "mixture_base.json", "--a", "1.5", "--sweeps", "3", "--seed", "5"]
    runs = [mixture, [*mixture, "--likelihood", specs / "mixture_likelihood.json"]]
    assert _loaded_modules(runs, ["numpy", "concurrent.futures"]) == [[], [], []]
