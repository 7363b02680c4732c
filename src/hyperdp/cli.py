"""Command line front end.

Every randomized command takes ``--seed`` and produces byte-identical
output for identical inputs and flags.  Output is assembled in full
before anything is written, so a failing run never emits a partial
artifact.  The exceptions are ``sample`` and ``sample-hdp``: once their
inputs pass every check, they write each draw as soon as it is made.
Exit codes: 0 success, 1 validation or model errors (the symbolic error
name appears in the JSON output), 2 I/O errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

from .dp import DPParams, SamplerConfig, bayes_cdf, dp_posterior, sample_dp
from .errors import HyperDPError, NotConnected, NotDecomposable
from .graphs import is_connected, perfect_ordering
from .hdp import (
    audit_hdp,
    build_hdp,
    hdp_posterior,
    verify_sample_markov,
    verify_sample_refinement,
)
from .measures import CONSISTENCY_TOL, is_consistent, markov_combination
from .mixture import gibbs_chain, identity_likelihood
from .reconcile import KINDS, ReconcileStrategy, reconcile, suggested_gamma
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
    return SamplerConfig(seed=args.seed, eps=args.eps, max_atoms=args.max_atoms)


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
    theta = sample_dp(params, cfg, replicate)
    return ser.atoms_to_json_line(theta, seed, replicate), theta.truncation_residual


def _write_lines(results, cfg):
    """Write each ``(line, residual)`` as it comes, then report budget hits."""
    residuals = []
    for line, residual in results:
        sys.stdout.write(line + "\n")
        residuals.append(residual)
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
            _write_lines(pool.map(replicate_line, reps, chunksize=chunksize), cfg)
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
        decomp = perfect_ordering(g)
    except NotConnected:  # also the graph with no vertices
        out = {"decomposable": True, "connected": False}
    except NotDecomposable:
        out = {"decomposable": False, "connected": is_connected(g)}
    else:
        out = {"decomposable": True, "connected": True, **ser.decomposition_to_dict(decomp)}
    return json.dumps(out)


def cmd_combine(args):
    mu = ser.measure_from_dict(ser.load_json(args.mu))
    lam = ser.measure_from_dict(ser.load_json(args.lam))
    return ser.measure_json(markov_combination(mu, lam, args.tol))


def cmd_check_consistency(args):
    mu = ser.measure_from_dict(ser.load_json(args.mu))
    lam = ser.measure_from_dict(ser.load_json(args.lam))
    report = is_consistent(mu, lam, args.tol)
    out = report.as_dict()
    out["tol"] = args.tol
    return json.dumps(out)


def cmd_sample(args):
    base = ser.measure_from_dict(ser.load_json(args.base))
    _sample_lines(DPParams(args.nu, base), args)


def cmd_posterior(args):
    base = ser.measure_from_dict(ser.load_json(args.base))
    params = DPParams(args.nu, base)
    data = ser.load_data_csv(args.data, base.space)
    post = dp_posterior(params, data)
    return ser.object_json({"nu": json.dumps(post.nu), "base": ser.measure_json(post.base)})


def cmd_build_hdp(args):
    graph, nu, bases = ser.hdp_spec_from_dict(ser.load_json(args.spec))
    spec = build_hdp(graph, bases, nu)
    return ser.object_json(
        {
            "nu": json.dumps(spec.nu),
            "decomposition": json.dumps(ser.decomposition_to_dict(spec.decomposition)),
            "combined_base": ser.measure_json(spec.combined.base),
        }
    )


def cmd_sample_hdp(args):
    graph, nu, bases = ser.hdp_spec_from_dict(ser.load_json(args.spec))
    spec = build_hdp(graph, bases, nu)
    _sample_lines(spec.combined, args)


def cmd_posterior_hdp(args):
    graph, nu, bases = ser.hdp_spec_from_dict(ser.load_json(args.spec))
    spec = build_hdp(graph, bases, nu)
    data = ser.load_data_csv(args.data, spec.combined.base.space)
    post = hdp_posterior(spec, data)
    return ser.hdp_spec_json(post.graph, post.nu, post.clique_bases)


def cmd_diagnose(args):
    if args.samples < 0:
        raise ValueError("--samples must be at least 0")
    graph, nu, bases = ser.hdp_spec_from_dict(ser.load_json(args.spec))
    audit = audit_hdp(graph, bases)
    checks = list(audit.checks)
    if audit.failure is None and args.samples > 0:
        decomp = audit.decomposition
        params, cfg = DPParams(nu, audit.combined), _sampler_config(args)
        draws = [sample_dp(params, cfg, r) for r in range(args.samples)]
        _report_budget_hits([t.truncation_residual for t in draws], cfg)
        blocks = list(zip(decomp.separators, decomp.cliques[1:]))
        passing = {
            "sampled measures factorize": sum(verify_sample_markov(t, decomp) for t in draws),
            "sampled atoms respect degeneracy": sum(
                all(verify_sample_refinement(t, s, c) for s, c in blocks) for t in draws
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
        gamma = suggested_gamma(mu, lam)
    result = reconcile(mu, lam, ReconcileStrategy(kind, gamma))
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
        likelihood = identity_likelihood
    cfg = SamplerConfig(seed=args.seed)
    values, history = gibbs_chain(data, likelihood, args.a, base, args.sweeps, cfg)
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


def cmd_cdf_estimate(args):
    if args.t is None and args.t_grid is None:
        raise ValueError("one of --t or --t-grid is required")
    base = ser.measure_from_dict(ser.load_json(args.base))
    if len(base.space.variables) != 1:
        raise ValueError("cdf estimates need a base over exactly one variable")
    params = DPParams(args.nu, base)
    var = base.space.variables[0]
    with open(args.data, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or var not in reader.fieldnames:
            raise ValueError(f"data CSV needs a column named {var!r}")
        data = []
        for row in ser.csv_records(reader, (var,)):
            try:
                x = float(row[var])
                if not math.isfinite(x):
                    raise ValueError(f"observations must be finite real numbers, got {x!r}")
            except ValueError as exc:
                raise ValueError(f"line {reader.line_num}: {exc}") from None
            data.append(x)
    if args.t is not None:
        return json.dumps({"t": args.t, "estimate": bayes_cdf(params, data, args.t)})
    grid = _parse_grid(args.t_grid)
    points = [{"t": t, "estimate": bayes_cdf(params, data, t)} for t in grid]
    if args.plot_csv:
        lines = ["t,estimate"] + [f"{p['t']!r},{p['estimate']!r}" for p in points]
        _write_text(args.plot_csv, "\n".join(lines) + "\n")
    return json.dumps({"points": points})


def _add_sampling_flags(p):
    p.add_argument("--replicates", type=int, default=1, help="number of draws")
    p.add_argument("--seed", type=int, required=True, help="64-bit stream seed")
    p.add_argument("--eps", type=float, default=SamplerConfig.eps, help="leftover-mass cutoff")
    p.add_argument("--max-atoms", type=int, default=SamplerConfig.max_atoms, help="atoms per draw")
    p.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="worker processes, at most one per replicate and per CPU; replicate r "
        "always uses the (seed, r) stream, so output bytes do not depend on N",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperdp",
        description="Dirichlet process priors with graph-structured base measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-graph", help="decomposability report for a graph JSON")
    p.add_argument("graph", help="graph JSON: {vertices: [...], edges: [[u, v], ...]}")
    p.set_defaults(func=cmd_check_graph)

    p = sub.add_parser("combine", help="fuse two consistent measures")
    p.add_argument("--mu", required=True, help="first measure JSON")
    p.add_argument("--lambda", dest="lam", required=True, help="second measure JSON")
    p.add_argument("--tol", type=float, default=CONSISTENCY_TOL)
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("check-consistency", help="agreement report for two measures")
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--tol", type=float, default=CONSISTENCY_TOL)
    p.set_defaults(func=cmd_check_consistency)

    p = sub.add_parser(
        "sample",
        help="stick-breaking draws; JSONL, one "
        '{"atoms", "weights", "residual", "seed", "replicate"} object per line',
    )
    p.add_argument("--base", required=True, help="base measure JSON")
    p.add_argument("--nu", type=float, required=True, help="precision")
    _add_sampling_flags(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("posterior", help="conjugate update of one process")
    p.add_argument("--base", required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--data", required=True, help="CSV, one column per variable")
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("build-hdp", help="validate clique bases and fuse them")
    p.add_argument(
        "--spec",
        required=True,
        help="spec JSON: {graph, nu, clique_bases: [measure, ...]} in perfect order",
    )
    p.set_defaults(func=cmd_build_hdp)

    p = sub.add_parser("sample-hdp", help="draws from a graph-structured prior")
    p.add_argument("--spec", required=True)
    _add_sampling_flags(p)
    p.set_defaults(func=cmd_sample_hdp)

    p = sub.add_parser("posterior-hdp", help="clique-wise conjugate update")
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True, help="CSV, one column per vertex variable")
    p.set_defaults(func=cmd_posterior_hdp)

    p = sub.add_parser("diagnose", help="full validation report for a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--samples", type=int, default=0, help="extra sampled-draw checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=SamplerConfig.eps)
    p.add_argument("--max-atoms", type=int, default=SamplerConfig.max_atoms)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("reconcile", help="merge two disagreeing measures")
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument(
        "--strategy", required=True, choices=sorted({*KINDS, *_STRATEGY_ALIASES})
    )
    p.add_argument(
        "--gamma",
        type=float,
        default=None,
        help="mixing weight; for weighted-average (alias average) it defaults to the "
        "mass-proportional one",
    )
    p.set_defaults(func=cmd_reconcile)

    p = sub.add_parser("mixture", help="latent-class assignment by collapsed sweeps")
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
    p.set_defaults(func=cmd_mixture)

    p = sub.add_parser(
        "cdf-estimate", help="posterior-mean distribution function estimates"
    )
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
    p.set_defaults(func=cmd_cdf_estimate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        text = args.func(args)
    except _Failure as failure:
        print(failure.text)
        return 1
    except HyperDPError as exc:
        print(json.dumps(exc.payload()))
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": "IOError", "detail": str(exc)}))
        return 2
    except (ValueError, TypeError, ArithmeticError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return 1
    if text is not None:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
