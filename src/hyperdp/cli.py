"""Command line front end.

Every randomized command takes ``--seed`` and produces byte-identical
output for identical inputs and flags.  Output is assembled in full
before anything is written, so a failing run never emits a partial
artifact.  The exceptions are ``sample`` and ``sample-hdp``: once their
inputs pass every check, they write each draw as soon as it is made.
Exit codes: 0 success, 1 validation or model errors (the symbolic error
name appears in the JSON output), 2 I/O errors, among them a stdout that
cannot be written (help text too): a closed pipe or a full disk gives one
``hyperdp: cannot write output: ...`` line on stderr and no traceback.

``COMMANDS`` holds each command's help line, handler, flags and the
package modules it loads.  ``main`` builds the subparser of the command
that ``argv`` names alone, and handlers reach the library through the
package root, which imports a module at the first use of one of its names.

``main(argv)`` runs one command and returns its exit code.  ``run()``,
the entry point of the ``hyperdp`` script and ``python -m hyperdp``,
imports the command's modules and freezes the heap that import built, so
the collector's full passes skip it, calls ``main``, flushes stdout and
stderr and ends the process with ``os._exit``: the interpreter's teardown
(clear every module, collect, free every object) only delays the exit of
a process whose output is written.  What escapes ``main`` (argparse's
``SystemExit``, a traceback, ``KeyboardInterrupt``) still takes the
normal exit path.
"""

import argparse
import functools
import gc
import importlib
import json
import math
import os
import re
import sys

import hyperdp

from ._record import record
from .errors import HyperDPError
from . import serialize as ser

# short aliases of the reconcile.KINDS names that differ from them
_STRATEGY_ALIASES = {
    "condition-a": "condition-on-a",
    "condition-b": "condition-on-b",
    "average": "weighted-average",
    "kl": "kl-compromise",
}


class _Failure(Exception):
    """A fully-formed report whose verdict is negative."""

    def __init__(self, text):
        super().__init__("diagnostics failed")
        self.text = text


def _sampler_config(args):
    return hyperdp.SamplerConfig(seed=args.seed, eps=args.eps, max_atoms=args.max_atoms)


def _report_budget_hits(residuals, cfg):
    """Tell stderr how many draws the atom budget cut short, if any."""
    # the loop stops with at least eps left over only when the budget stopped it
    hits = [r for r in residuals if r >= cfg.eps]
    if hits:
        sys.stderr.write(
            f"hyperdp: {len(hits)} of {len(residuals)} draws ran out of the "
            f"{cfg.max_atoms}-atom budget (--max-atoms); the largest leftover folded "
            f"into one atom was {max(hits)!r}\n"
        )


def _replicate_line(params, cfg, seed, replicate):
    theta = hyperdp.sample_dp(params, cfg, replicate)
    return ser.atoms_to_json_line(theta, seed, replicate), theta.truncation_residual


def _write_lines(results, cfg):
    """Write each ``(line, residual)`` as it comes, then report budget hits."""
    residuals = []
    for line, residual in results:
        sys.stdout.write(line + "\n")
        residuals.append(residual)
    sys.stdout.flush()  # a stdout that cannot take the last lines fails inside main
    _report_budget_hits(residuals, cfg)


def _sample_lines(params, args):
    """Write one JSON line per replicate to stdout as soon as it is drawn."""
    if args.replicates < 1:
        raise ValueError("--replicates must be at least 1")
    if args.parallel < 1:
        raise ValueError("--parallel must be at least 1")
    cfg = _sampler_config(args)
    replicate_line = functools.partial(_replicate_line, params, cfg, args.seed)
    reps = range(args.replicates)
    if args.parallel > 1:
        import concurrent.futures  # loaded here so that serial runs skip it

        workers = min(args.parallel, args.replicates, os.cpu_count() or 1)
        # about eight chunks per worker, as a task per replicate costs more in
        # round trips to the pool than its draw; map yields in order
        chunksize = max(1, args.replicates // (8 * workers))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            try:
                _write_lines(pool.map(replicate_line, reps, chunksize=chunksize), cfg)
            except BaseException:  # a closed stdout, say: drop the chunks not yet started
                pool.shutdown(cancel_futures=True)
                raise
    else:
        _write_lines(map(replicate_line, reps), cfg)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_check_graph(args):
    g = ser.graph_from_dict(ser.load_json(args.graph))
    # perfect_ordering sweeps once, then walks once if the graph is chordal;
    # only a graph that is not chordal needs a walk of its own
    try:
        decomp = hyperdp.perfect_ordering(g)
    except hyperdp.NotConnected:  # also the graph with no vertices
        out = {"decomposable": True, "connected": False}
    except hyperdp.NotDecomposable:
        out = {"decomposable": False, "connected": hyperdp.is_connected(g)}
    else:
        out = {"decomposable": True, "connected": True, **ser.decomposition_to_dict(decomp)}
    return json.dumps(out)


def cmd_combine(args):
    mu = ser.measure_from_dict(ser.load_json(args.mu))
    lam = ser.measure_from_dict(ser.load_json(args.lam))
    return ser.measure_json(hyperdp.markov_combination(mu, lam, args.tol))


def cmd_check_consistency(args):
    mu = ser.measure_from_dict(ser.load_json(args.mu))
    lam = ser.measure_from_dict(ser.load_json(args.lam))
    report = hyperdp.is_consistent(mu, lam, args.tol)
    out = report.as_dict()
    out["tol"] = args.tol
    return json.dumps(out)


def cmd_sample(args):
    base = ser.measure_from_dict(ser.load_json(args.base))
    _sample_lines(hyperdp.DPParams(args.nu, base), args)


def cmd_posterior(args):
    base = ser.measure_from_dict(ser.load_json(args.base))
    params = hyperdp.DPParams(args.nu, base)
    data = ser.load_data_csv(args.data, base.space)
    post = hyperdp.dp_posterior(params, data)
    return ser.object_json({"nu": json.dumps(post.nu), "base": ser.measure_json(post.base)})


def cmd_build_hdp(args):
    graph, nu, bases = ser.hdp_spec_from_dict(ser.load_json(args.spec))
    spec = hyperdp.build_hdp(graph, bases, nu)
    return ser.object_json(
        {
            "nu": json.dumps(spec.nu),
            "decomposition": json.dumps(ser.decomposition_to_dict(spec.decomposition)),
            "combined_base": ser.measure_json(spec.combined.base),
        }
    )


def cmd_sample_hdp(args):
    graph, nu, bases = ser.hdp_spec_from_dict(ser.load_json(args.spec))
    spec = hyperdp.build_hdp(graph, bases, nu)
    _sample_lines(spec.combined, args)


def cmd_posterior_hdp(args):
    graph, nu, bases = ser.hdp_spec_from_dict(ser.load_json(args.spec))
    spec = hyperdp.build_hdp(graph, bases, nu)
    data = ser.load_data_csv(args.data, spec.combined.base.space)
    post = hyperdp.hdp_posterior(spec, data)
    return ser.hdp_spec_json(post.graph, post.nu, post.clique_bases)


def cmd_diagnose(args):
    if args.samples < 0:
        raise ValueError("--samples must be at least 0")
    cfg = _sampler_config(args)
    graph, nu, bases = ser.hdp_spec_from_dict(ser.load_json(args.spec))
    audit = hyperdp.audit_hdp(graph, bases)
    checks = list(audit.checks)
    if audit.failure is None and args.samples > 0:
        decomp = audit.decomposition
        params = hyperdp.DPParams(nu, audit.combined)
        draws = [hyperdp.sample_dp(params, cfg, r) for r in range(args.samples)]
        _report_budget_hits([t.truncation_residual for t in draws], cfg)
        blocks = list(zip(decomp.separators, decomp.cliques[1:]))
        passing = {
            "sampled measures factorize": sum(
                hyperdp.verify_sample_markov(t, decomp) for t in draws
            ),
            "sampled atoms respect degeneracy": sum(
                all(hyperdp.verify_sample_refinement(t, s, c) for s, c in blocks) for t in draws
            ),
        }
        checks += [
            {"name": f"{name} ({args.samples} draws)", "passed": ok == args.samples, "passing": ok}
            for name, ok in passing.items()
        ]
    passed = all(c["passed"] for c in checks)
    out = {"passed": passed, "checks": checks}
    if not passed:
        if audit.failure is not None:
            payload = audit.failure.payload()
            keys = ("error", "witness", "pair", "report")
            out.update((key, payload[key]) for key in keys if key in payload)
        raise _Failure(json.dumps(out))
    return json.dumps(out)


def cmd_reconcile(args):
    mu = ser.measure_from_dict(ser.load_json(args.mu))
    lam = ser.measure_from_dict(ser.load_json(args.lam))
    kind = _STRATEGY_ALIASES.get(args.strategy, args.strategy)
    gamma = args.gamma
    if kind == "weighted-average" and gamma is None:
        gamma = hyperdp.suggested_gamma(mu, lam)
    result = hyperdp.reconcile.reconcile(mu, lam, hyperdp.ReconcileStrategy(kind, gamma))
    out = {"strategy": json.dumps(kind)}
    if isinstance(result, tuple):
        out["mu"], out["lambda"] = map(ser.measure_json, result)
    else:
        out["measure"] = ser.measure_json(result)
    if gamma is not None:
        out["gamma"] = json.dumps(gamma)
    return ser.object_json(out)


def cmd_mixture(args):
    base = ser.measure_from_dict(ser.load_json(args.base))
    data = ser.load_data_csv(args.data, base.space)
    if args.likelihood is not None:
        table = ser.load_json(args.likelihood)
        likelihood = ser.likelihood_from_dict(table, base.space, base.space)
    else:
        likelihood = hyperdp.identity_likelihood
    cfg = hyperdp.SamplerConfig(seed=args.seed)
    values, history = hyperdp.gibbs_chain(data, likelihood, args.a, base, args.sweeps, cfg)
    labels = {}
    assignments = [labels.setdefault(v, len(labels)) for v in values]
    sizes = [0] * len(labels)
    for label in assignments:
        sizes[label] += 1
    classes = [
        {"label": label, "size": sizes[label], "value": dict(zip(base.space.variables, value))}
        for value, label in labels.items()
    ]
    out = json.dumps(
        {
            "assignments": assignments,
            "class_counts": sizes,
            "classes": classes,
        }
    )
    if args.plot_csv:
        counts = {}
        for sweep_labels in history:
            k = len(set(sweep_labels))
            counts[k] = counts.get(k, 0) + 1
        lines = ["n_classes,sweeps"]
        lines += [f"{k},{counts[k]}" for k in sorted(counts)]
        _write_text(args.plot_csv, "\n".join(lines) + "\n")
    return out


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--t-grid must look like LO:HI:STEPS")
    lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("--t-grid needs finite LO and HI")
    if steps < 2 or hi <= lo:
        raise ValueError("--t-grid needs HI > LO and at least 2 steps")
    return _linspace(lo, hi, steps)


def _linspace(lo, hi, steps):
    """``numpy.linspace(lo, hi, steps)`` for ``steps >= 2``, bit for bit."""
    div = steps - 1
    delta = hi - lo
    step = delta / div
    if step == 0.0:  # the step underflowed: scale before multiplying
        points = [i / div * delta + lo for i in range(steps)]
    else:
        points = [i * step + lo for i in range(steps)]
    points[-1] = hi
    return points


# sign, ASCII digits, point, exponent; a quoted cell that runs onto the
# next line may end in its line break (compiled on first use, by ``re``'s cache)
_DECIMAL = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?:\r\n|\r|\n)?"


def _finite_float(cell):
    """A cell as a finite float, if it is a plain decimal literal: ``float``
    alone would also take ``1_0``, `` 0.5`` and non-ASCII digits."""
    x = float(cell)
    if not math.isfinite(x):
        raise ValueError(f"observations must be finite real numbers, got {x!r}")
    if not re.fullmatch(_DECIMAL, cell):
        raise ValueError(f"{cell!r} is not a plain decimal number")
    return x


def cmd_cdf_estimate(args):
    if args.t is None and args.t_grid is None:
        raise ValueError("one of --t or --t-grid is required")
    if args.t is not None and args.t_grid is not None:
        raise ValueError("--t and --t-grid cannot be used together")
    if args.plot_csv and args.t_grid is None:
        raise ValueError("--plot-csv needs --t-grid")
    base = ser.measure_from_dict(ser.load_json(args.base))
    if len(base.space.variables) != 1:
        raise ValueError("cdf estimates need a base over exactly one variable")
    params = hyperdp.DPParams(args.nu, base)
    data = [x for (x,) in ser.load_csv_columns(args.data, base.space.variables, [_finite_float])]
    if args.t is not None:
        return json.dumps({"t": args.t, "estimate": hyperdp.bayes_cdf(params, data, args.t)})
    grid = _parse_grid(args.t_grid)
    points = [{"t": t, "estimate": hyperdp.bayes_cdf(params, data, t)} for t in grid]
    if args.plot_csv:
        lines = ["t,estimate"] + [f"{p['t']!r},{p['estimate']!r}" for p in points]
        _write_text(args.plot_csv, "\n".join(lines) + "\n")
    return json.dumps({"points": points})


@record
class _Command:
    """A row of the command table: ``flags`` adds the command's arguments to its
    subparser, and the command loads ``modules`` beyond those ``cli`` imports."""

    help: str
    handler: object
    flags: object
    modules: tuple


COMMANDS = {}  # name -> _Command, in the order that --help lists them
_DP = ("measures", "dp")
_HDP = (*_DP, "graphs", "hdp")


def _command(name, help, handler, modules):
    """Enter ``name`` in ``COMMANDS``, with the decorated function as its flags."""
    return lambda flags: COMMANDS.setdefault(name, _Command(help, handler, flags, modules)).flags


def _sampling_flags(p):
    p.add_argument("--replicates", type=int, default=1, help="number of draws")
    p.add_argument("--seed", type=int, required=True, help="64-bit stream seed")
    sampler = hyperdp.SamplerConfig
    p.add_argument("--eps", type=float, default=sampler.eps, help="leftover-mass cutoff")
    p.add_argument("--max-atoms", type=int, default=sampler.max_atoms, help="atoms per draw")
    p.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes, at most one per replicate and per CPU; replicate r "
        "always uses the (seed, r) stream, so output bytes do not depend on N",
    )


@_command("check-graph", "decomposability report for a graph JSON", cmd_check_graph, ("graphs",))
def _check_graph_flags(p):
    p.add_argument("graph", help="graph JSON: {vertices: [...], edges: [[u, v], ...]}")


@_command("combine", "fuse two consistent measures", cmd_combine, ("measures",))
def _combine_flags(p):
    p.add_argument("--mu", required=True, help="first measure JSON")
    p.add_argument("--lambda", dest="lam", required=True, help="second measure JSON")
    p.add_argument("--tol", type=float, default=hyperdp.measures.CONSISTENCY_TOL)


@_command(
    "check-consistency", "agreement report for two measures", cmd_check_consistency, ("measures",)
)
def _check_consistency_flags(p):
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--tol", type=float, default=hyperdp.measures.CONSISTENCY_TOL)


@_command(
    "sample",
    'stick-breaking draws; JSONL, one {"atoms", "weights", "residual", "seed", "replicate"} '
    "object per line",
    cmd_sample,
    (*_DP, "rng"),
)
def _sample_flags(p):
    p.add_argument("--base", required=True, help="base measure JSON")
    p.add_argument("--nu", type=float, required=True, help="precision")
    _sampling_flags(p)


@_command("posterior", "conjugate update of one process", cmd_posterior, _DP)
def _posterior_flags(p):
    p.add_argument("--base", required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--data", required=True, help="CSV, one column per variable")


@_command("build-hdp", "validate clique bases and fuse them", cmd_build_hdp, _HDP)
def _build_hdp_flags(p):
    p.add_argument(
        "--spec",
        required=True,
        help="spec JSON: {graph, nu, clique_bases: [measure, ...]} in perfect order",
    )


@_command("sample-hdp", "draws from a graph-structured prior", cmd_sample_hdp, (*_HDP, "rng"))
def _sample_hdp_flags(p):
    p.add_argument("--spec", required=True)
    _sampling_flags(p)


@_command("posterior-hdp", "clique-wise conjugate update", cmd_posterior_hdp, _HDP)
def _posterior_hdp_flags(p):
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True, help="CSV, one column per vertex variable")


@_command("diagnose", "full validation report for a spec", cmd_diagnose, (*_HDP, "rng"))
def _diagnose_flags(p):
    p.add_argument("--spec", required=True)
    p.add_argument("--samples", type=int, default=0, help="extra sampled-draw checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=hyperdp.SamplerConfig.eps)
    p.add_argument("--max-atoms", type=int, default=hyperdp.SamplerConfig.max_atoms)


@_command("reconcile", "merge two disagreeing measures", cmd_reconcile, ("measures", "reconcile"))
def _reconcile_flags(p):
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument(
        "--strategy", required=True, choices=sorted({*hyperdp.reconcile.KINDS, *_STRATEGY_ALIASES})
    )
    p.add_argument(
        "--gamma",
        type=float,
        default=None,
        help="mixing weight; for weighted-average (alias average) it defaults to the "
        "mass-proportional one",
    )


@_command(
    "mixture", "latent-class assignment by collapsed sweeps", cmd_mixture, (*_DP, "rng", "mixture")
)
def _mixture_flags(p):
    p.add_argument("--data", required=True, help="CSV, one column per variable")
    p.add_argument("--base", required=True, help="base measure JSON")
    p.add_argument("--a", type=float, required=True, help="precision")
    p.add_argument("--sweeps", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--likelihood",
        default=None,
        help='table JSON {"entries": [{"x", "pi", "prob"}, ...]}; '
        "default: observation equals the latent value",
    )
    p.add_argument(
        "--plot-csv",
        default=None,
        help="write a per-sweep class-count histogram (columns: n_classes,sweeps)",
    )


@_command("cdf-estimate", "posterior-mean distribution function estimates", cmd_cdf_estimate, _DP)
def _cdf_estimate_flags(p):
    p.add_argument("--base", required=True, help="one-variable base measure JSON")
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--data", required=True, help="CSV with the variable's column")
    p.add_argument("--t", type=float, default=None, help="single threshold")
    p.add_argument("--t-grid", default=None, help="LO:HI:STEPS evaluation grid")
    p.add_argument(
        "--plot-csv",
        default=None,
        help="write the grid estimates (columns: t,estimate)",
    )


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):  # argparse's own drops an OSError
        if message:
            print(message, end="", file=file or sys.stderr, flush=True)


def build_parser(names=None):
    """The parser with the subparsers of the commands ``names``, by default
    all of them.  With fewer, the usage line still lists every command."""
    parser = _Parser(
        prog="hyperdp",
        description="Dirichlet process priors with graph-structured base measures.",
    )
    metavar = None if names is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if names is None else names:
        command = COMMANDS[name]
        p = sub.add_parser(name, help=command.help)
        command.flags(p)
        p.set_defaults(func=command.handler)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # help, a missing or an unknown command get every subparser, and so
    # argparse's own text
    names = argv[:1] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(names).parse_args(argv)
        code, text = 0, args.func(args)
    except _Failure as failure:
        code, text = 1, failure.text
    except HyperDPError as exc:
        code, text = 1, json.dumps(exc.payload())
    except (OSError, json.JSONDecodeError) as exc:
        code, text = 2, json.dumps({"error": "IOError", "detail": str(exc)})
    except (ValueError, TypeError, ArithmeticError) as exc:
        code, text = 1, json.dumps({"error": type(exc).__name__, "detail": str(exc)})
    if text is not None:
        try:
            print(text, flush=True)
        except OSError as exc:  # a stdout that failed under the command fails again
            try:
                sys.stderr.write(f"hyperdp: cannot write output: {exc}\n")
            except OSError:
                pass
            return 2
    return code


def run():
    """Run ``main`` on ``sys.argv`` and end the process with its exit code."""
    argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS:  # so that the freeze takes what these imports build
        for module in COMMANDS[argv[0]].modules:
            importlib.import_module(f"hyperdp.{module}")
    gc.freeze()
    code = main(argv)
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:  # main has reported stdout's failure; stderr cannot report its own
            code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
