"""Self-checks of the benchmark itself:  python3 -m pytest -q bench

They cover the generator, the pinned-digest gate, the tracer and the
file that declares the metrics; the program's own tests live in tests/.
"""

import importlib
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl
from tracer import LAYERS, Tracer


@pytest.mark.parametrize("name", wl.NAMES)
def test_same_seed_same_input_bytes_other_seed_other_bytes(name):
    assert wl.generate(name, 5).digest() == wl.generate(name, 5).digest()
    assert wl.generate(name, 5).digest() != wl.generate(name, 6).digest()
    assert wl.generate(name, wl.DEFAULT_SEED).digest() == wl.PINNED[name]["inputs"]


def test_wrong_pinned_digest_fails_the_run(monkeypatch):
    name = "gibbs_mixture"
    monkeypatch.setitem(wl.PINNED, name, dict(wl.PINNED[name], stdout="0" * 64))
    result, lines = run.measure(name, wl.DEFAULT_SEED + 1, seconds=0, trace=0)
    assert not result["correct"]
    assert result["failed"] == 1 and result["failed"] / result["attempted"] > 0
    assert any("differs from the reference" in line for line in lines)


def test_semantic_check_rejects_a_wrong_answer():
    inputs = wl.generate("gibbs_mixture", 3)
    n = inputs.meta["n"]
    good = {"assignments": [0] * n, "class_counts": [n], "classes": []}
    wl.check_output("gibbs_mixture", json.dumps(good).encode(), inputs)
    bad = dict(good, class_counts=[n - 1])
    with pytest.raises(ValueError):
        wl.check_output("gibbs_mixture", json.dumps(bad).encode(), inputs)


def _bindings():
    modules = [importlib.import_module("hyperdp"), importlib.import_module("hyperdp.cli")]
    modules += [importlib.import_module(f"hyperdp.{layer}") for layer in LAYERS]
    measures = importlib.import_module("hyperdp.measures")
    owners = modules + [measures.ProductSpace, measures.DiscreteMeasure]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()}


def test_tracer_restores_every_wrapped_name(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    before = _bindings()
    tracer = Tracer()
    patched = tracer.install()
    assert patched > 50
    during = _bindings()
    assert sum(during[k] is not v for k, v in before.items()) == patched
    tracer.uninstall()
    assert tracer.restored()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_run_reproduces_stdout_and_reports_every_layer_metric():
    result, _ = run.measure("gibbs_mixture", 4, seconds=0, trace=1)
    assert result["correct"], result
    assert list(result["metrics"]) == [name for name, _ in run.PER_LAYER]
    assert result["metrics"]["mixture.reassign_calls"]["value"] == 5 * 400


def test_benchmark_json_declares_the_metrics_run_py_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sample_draws", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == b""
