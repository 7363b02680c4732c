"""Benchmark of the ``hyperdp`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the program is imported from ``src/`` and is
not modified.  The load is a closed loop with one client: each CLI run
(a fresh interpreter, ``python3 -m hyperdp ...``, stdout captured) starts
after the previous one ended, with a set-up probe after every other CLI
run, while the next iteration still fits into S seconds (counted from the
warm-up run below).  ``--parallel`` stays 1.

Every run is checked.  Before timing, the default seed's inputs are run
once and their stdout must match the digest pinned from the unmodified
program; for any seed, every run must repeat the first run's bytes and
pass the workload's semantic check.  A nonzero exit or a failed check
counts as a failed run.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians): wall_s, cpu_s (child user+sys), setup_s (fresh interpreter,
import, read and validate the inputs, exit) and peak_rss_mb; the failed
ratio is ``failed``/``attempted``.  With ``--trace 1`` the same loop runs
for the first half of S, then the command runs twice more under
bench/tracer.py and the last line reports the per-layer metrics.  Lines
before the last one give quartiles, sample counts, unscaled times, the
environment and the slowest traced functions.

The box these numbers come from is shared, and its speed drifts by 20%
or more within minutes.  So the benchmark and its children share one
CPU, a fixed pure-Python loop (``calibration_s``) is timed on it before
and after each program run, and each run's times are multiplied by
CALIBRATION_REF_S / (mean of the two loop times).  wall_s, cpu_s and
setup_s are therefore seconds at the reference speed; the unscaled
medians are printed too.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

MIN_RUNS = 3            # timed CLI runs even when --seconds is shorter
CALIBRATION_LOOPS = 200_000
CALIBRATION_REF_S = 0.05  # calibration_s() at the reference speed, about its median here
TRACED_RUNS = 2         # counts must repeat exactly between these
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 120   # a child still running after this is killed

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
LAYERS = ("graphs", "measures", "dp", "hdp", "reconcile", "mixture", "rng", "serialize")
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("graphs.self_s", "s"),
    ("graphs.calls", "count"),
    ("measures.self_s", "s"),
    ("measures.is_markov_s", "s"),
    ("measures.is_markov_calls", "count"),
    ("measures.as_tuple_calls", "count"),
    ("measures.sort_key_calls", "count"),
    ("measures.measure_builds", "count"),
    ("measures.consistency_checks", "count"),
    ("hdp.self_s", "s"),
    ("hdp.refinement_checks", "count"),
    ("dp.self_s", "s"),
    ("dp.draws", "count"),
    ("dp.atoms", "count"),
    ("dp.us_per_atom", "us"),
    ("dp.budget_hits", "count"),
    ("rng.self_s", "s"),
    ("rng.beta_calls", "count"),
    ("rng.streams", "count"),
    ("mixture.self_s", "s"),
    ("mixture.reassign_calls", "count"),
    ("mixture.likelihood_calls", "count"),
    ("mixture.nonzero_likelihood_ratio", "ratio"),
    ("reconcile.self_s", "s"),
    ("reconcile.cells_out", "count"),
    ("serialize.self_s", "s"),
    ("serialize.calls", "count"),
    ("trace.overhead_s", "s"),
)


def calibration_s():
    """Time of a fixed pure-Python loop (dict stores, int and float arithmetic).

    Timed on the benchmark's CPU right before and after each program run,
    it measures how fast the shared box is running at that moment."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(CALIBRATION_LOOPS):
        table[i & 4095] = acc
        acc += (i * i % 7) * 0.5
    return time.perf_counter() - start


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def run_child(args, cwd, work):
    """Run ``python3 ARGS`` in ``cwd``; wall time, rusage and output of that child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    err_path = work / "child.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, out, err_path.read_bytes())


@dataclass
class Tally:
    """Attempted and failed program runs, with a reason per failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, problem, what):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")
        return problem is None


class OutputGate:
    """Every run must print the reference bytes and pass the semantic check.

    The reference is the pinned digest when one is given, otherwise the
    digest of the first run that passes the check."""

    def __init__(self, workload, inputs, reference=None):
        self.workload = workload
        self.inputs = inputs
        self.reference = reference
        self.checked = False

    def problem(self, proc):
        if proc.code != 0:
            detail = (proc.stdout[-300:] + proc.stderr[-300:]).decode("utf-8", "replace")
            return f"exit code {proc.code}: {detail.strip()}"
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if self.reference is not None and digest != self.reference:
            return f"stdout sha256 {digest} differs from the reference {self.reference}"
        if not self.checked:
            try:
                wl.check_output(self.workload, proc.stdout, self.inputs)
            except (ValueError, KeyError, TypeError) as exc:
                return f"output check failed: {exc}"
            self.checked = True
            self.reference = digest
        return None


def write_inputs(inputs, directory):
    directory.mkdir(parents=True)
    for name, data in inputs.files.items():
        (directory / name).write_bytes(data)
    return directory


def golden_gate(workload, work, tally):
    """Run the default seed once against its pinned digests (also the warm-up)."""
    inputs = wl.generate(workload, wl.DEFAULT_SEED)
    directory = write_inputs(inputs, work / "golden")
    pinned = wl.PINNED[workload]
    gate = OutputGate(workload, inputs, pinned["stdout"])
    proc = run_child(["-m", "hyperdp", *inputs.argv], directory, work)
    problem = gate.problem(proc)
    if problem is None and inputs.digest() != pinned["inputs"]:
        problem = (f"generated inputs sha256 {inputs.digest()} differ from the pinned "
                   f"{pinned['inputs']}, so the pinned stdout does not apply")
    tally.record(problem, f"default seed {wl.DEFAULT_SEED} (pinned digest)")
    return inputs, directory, gate


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _git_commit():
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = ROOT / ".git" / ref
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    record = {"python": platform.python_version()}
    try:
        record["numpy"] = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        record["numpy"] = None
    record["nproc"] = os.cpu_count()
    record["pinned_cpus"] = sorted(os.sched_getaffinity(0))
    record["cpu_model"] = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    record["git_commit"] = _git_commit()
    program = hashlib.sha256()
    for path in sorted((SRC / "hyperdp").glob("*.py")):
        program.update(path.name.encode() + b"\0" + path.read_bytes())
    record["program_sha256"] = program.hexdigest()
    try:
        with open("/proc/loadavg", encoding="utf-8") as fh:
            record["loadavg_1m"] = float(fh.read().split()[0])
    except OSError:
        record["loadavg_1m"] = None
    return record


def layer_values(report, import_s, stdout_bytes, traced_wall, untraced_wall):
    """Per-layer metrics of one traced run, keyed as in PER_LAYER."""
    spans = {(s["layer"], s["function"]): s for s in report["spans"]}
    counters = report["counters"]

    def calls(layer, function):
        return spans.get((layer, function), {}).get("calls", 0)

    def layer_sum(layer, key):
        return sum(s[key] for (lay, _), s in spans.items() if lay == layer)

    self_s = {layer: layer_sum(layer, "self_s") for layer in LAYERS}
    atoms = counters["dp.atoms"]
    likelihood_calls = counters["mixture.likelihood_calls"]
    values = {
        "cli.import_s": import_s,
        "cli.self_s": report["main_s"] - sum(self_s.values()),
        "cli.stdout_bytes": stdout_bytes,
        "graphs.calls": layer_sum("graphs", "calls"),
        "measures.is_markov_s": spans.get(("measures", "is_markov"), {}).get("total_s", 0.0),
        "measures.is_markov_calls": calls("measures", "is_markov"),
        "measures.as_tuple_calls": calls("measures", "ProductSpace.as_tuple"),
        "measures.sort_key_calls": calls("measures", "ProductSpace.sort_key"),
        "measures.measure_builds": calls("measures", "DiscreteMeasure.__post_init__"),
        "measures.consistency_checks": calls("measures", "is_consistent"),
        "hdp.refinement_checks": calls("hdp", "check_refinement"),
        "dp.draws": calls("dp", "sample_dp"),
        "dp.atoms": atoms,
        "dp.us_per_atom": 1e6 * (self_s["dp"] + self_s["rng"]) / atoms if atoms else 0.0,
        "dp.budget_hits": counters["dp.budget_hits"],
        "rng.beta_calls": calls("rng", "beta_variate"),
        "rng.streams": calls("rng", "stream"),
        "mixture.reassign_calls": calls("mixture", "gibbs_reassign"),
        "mixture.likelihood_calls": likelihood_calls,
        "mixture.nonzero_likelihood_ratio": (
            counters["mixture.likelihood_nonzero"] / likelihood_calls if likelihood_calls else 0.0
        ),
        "reconcile.cells_out": counters["reconcile.cells_out"],
        "serialize.calls": layer_sum("serialize", "calls"),
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    values.update({f"{layer}.self_s": s for layer, s in self_s.items()})
    return values


def count_signature(report):
    return (sorted((s["layer"], s["function"], s["calls"]) for s in report["spans"]),
            sorted(report["counters"].items()))


def traced_runs(inputs, directory, gate, work, tally, untraced_wall):
    """Per-layer metrics (medians over TRACED_RUNS) and the slowest functions."""
    imports = []
    for _ in range(IMPORT_PROBES):
        proc = run_child(["-c", "import hyperdp"], directory, work)
        if tally.record(None if proc.code == 0 else f"exit code {proc.code}", "import probe"):
            imports.append(proc.wall_s)
    import_s = statistics.median(imports) if imports else 0.0
    runs, reports = [], []
    for i in range(TRACED_RUNS):
        stats_path = work / f"trace-{i}.json"
        proc = run_child([str(CHILD), "trace", str(stats_path), *inputs.argv], directory, work)
        problem = gate.problem(proc)
        if problem is None:
            report = json.loads(stats_path.read_text())
            if reports and count_signature(report) != count_signature(reports[0]):
                problem = "call counts differ from the first traced run"
        else:
            problem = "traced run: " + problem
        if tally.record(problem, f"traced run {i}"):
            reports.append(report)
            runs.append(layer_values(report, import_s, len(proc.stdout), proc.wall_s,
                                     untraced_wall))
    if not runs:
        return None, []
    # counts repeat exactly (checked above), so only the times need a median
    medians = {name: runs[0][name] if unit in ("count", "bytes")
               else statistics.median(r[name] for r in runs) for name, unit in PER_LAYER}
    top = sorted(reports[0]["spans"], key=lambda s: -s["self_s"])[:12]
    return medians, top


def measure(workload, seed, seconds, trace):
    """One benchmark run; returns (result dict, lines to print before it)."""
    env = environment()
    lines = [f"workload {workload}  seed {seed}  seconds {seconds}  trace {trace}",
             f"why: {wl.WHY[workload]}", "env: " + json.dumps(env)]
    tally = Tally()
    work = BENCH / ".work" / f"{workload}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.perf_counter() + seconds
    try:
        inputs, directory, gate = golden_gate(workload, work, tally)
        if seed != wl.DEFAULT_SEED:
            inputs = wl.generate(workload, seed)
            directory = write_inputs(inputs, work / "run")
            gate = OutputGate(workload, inputs)
        cli = ["-m", "hyperdp", *inputs.argv]
        samples = {name: [] for name, _ in END_TO_END}
        raw = {"wall_s": [], "cpu_s": [], "setup_s": []}
        speeds = []
        before = calibration_s()

        def scaled_run(args):
            """Run a child; times scale by the box's speed around the run."""
            nonlocal before
            proc = run_child(args, directory, work)
            after = calibration_s()
            speeds.append(CALIBRATION_REF_S / ((before + after) / 2))
            before = after
            return proc, speeds[-1]

        # the traced runs take the second half of a --trace 1 run
        loop_deadline = deadline - (seconds / 2 if trace else 0.0)
        runs, iteration_s = 0, 0.0
        while runs < MIN_RUNS or time.perf_counter() + iteration_s <= loop_deadline:
            runs += 1
            started = time.perf_counter()
            proc, speed = scaled_run(cli)
            if tally.record(gate.problem(proc), f"run {runs}"):
                raw["wall_s"].append(proc.wall_s)
                raw["cpu_s"].append(proc.cpu_s)
                samples["wall_s"].append(proc.wall_s * speed)
                samples["cpu_s"].append(proc.cpu_s * speed)
                samples["peak_rss_mb"].append(proc.rss_mb)
            if runs % 2:  # a probe after every other CLI run leaves more time for CLI samples
                probe, speed = scaled_run([str(CHILD), "setup", workload])
                problem = (None if probe.code == 0
                           else f"exit code {probe.code}: {probe.stderr[-300:]!r}")
                if tally.record(problem, f"set-up probe {runs}"):
                    raw["setup_s"].append(probe.wall_s)
                    samples["setup_s"].append(probe.wall_s * speed)
            iteration_s = time.perf_counter() - started
        if not all(samples.values()):
            raise RuntimeError("no successful run: " + "; ".join(tally.problems[:5]))
        medians = {name: statistics.median(v) for name, v in samples.items()}
        for name, unit in END_TO_END:
            q1, q3 = quartiles(samples[name])
            lines.append(f"{name:<12} median {medians[name]:.4f} {unit}  "
                         f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(samples[name])}")
        for name, values in raw.items():
            q1, q3 = quartiles(values)
            lines.append(f"unscaled {name:<7} median {statistics.median(values):.4f} s  "
                         f"q1 {q1:.4f}  q3 {q3:.4f}")
        q1, q3 = quartiles(speeds)
        lines.append(f"speed factor median {statistics.median(speeds):.4f}  q1 {q1:.4f}  "
                     f"q3 {q3:.4f}  min {min(speeds):.4f}  max {max(speeds):.4f}")
        if trace:
            values, top = traced_runs(inputs, directory, gate, work, tally,
                                      statistics.median(raw["wall_s"]))
            if values is None:
                raise RuntimeError("no successful traced run: " + "; ".join(tally.problems[:5]))
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
            lines += [f"{name:<34} {values[name]:.6g} {unit}" for name, unit in PER_LAYER]
            lines.append("slowest traced functions by self time (first traced run):")
            lines += [f"  {s['layer'] + '.' + s['function']:<42} self {s['self_s']:.4f} s  "
                      f"total {s['total_s']:.4f} s  calls {s['calls']}" for s in top]
        else:
            metrics = {name: {"value": medians[name], "unit": unit} for name, unit in END_TO_END}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    lines.append(f"failed_ratio {tally.failed}/{tally.attempted} = "
                 f"{tally.failed / tally.attempted:.4g}")
    lines += [f"FAILED {p}" for p in tally.problems]
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.NAMES)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit so the finally blocks stop the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # one CPU for the benchmark and its children, so that the calibration
    # loop measures the core the program runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "hyperdp" / "__init__.py").is_file():
        print(f"bench: no program source at {SRC / 'hyperdp'}; run from a hyperdp checkout",
              file=sys.stderr)
        return 2
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
