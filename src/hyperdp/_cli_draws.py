"""The commands that draw: ``sample``, ``sample-hdp`` and ``diagnose``."""

import functools
import json
import os
import sys

import hyperdp

from . import serialize as ser
from .cli import _Failure


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
    return hyperdp.atoms_to_json_line(theta, seed, replicate), theta.truncation_residual


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


def cmd_sample(args):
    base = ser.measure_from_dict(ser.load_json(args.base))
    _sample_lines(hyperdp.DPParams(args.nu, base), args)


def cmd_sample_hdp(args):
    graph, nu, bases = ser.hdp_spec_from_dict(ser.load_json(args.spec))
    spec = hyperdp.build_hdp(graph, bases, nu)
    _sample_lines(spec.combined, args)


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


def _sample_flags(p):
    p.add_argument("--base", required=True, help="base measure JSON")
    p.add_argument("--nu", type=float, required=True, help="precision")
    _sampling_flags(p)


def _sample_hdp_flags(p):
    p.add_argument("--spec", required=True)
    _sampling_flags(p)


def _diagnose_flags(p):
    p.add_argument("--spec", required=True)
    p.add_argument("--samples", type=int, default=0, help="extra sampled-draw checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--eps", type=float, default=hyperdp.SamplerConfig.eps)
    p.add_argument("--max-atoms", type=int, default=hyperdp.SamplerConfig.max_atoms)
