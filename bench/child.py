"""Child processes of the benchmark; run with the workload's input
directory as the working directory and ``src`` on ``PYTHONPATH``.

  python3 child.py setup WORKLOAD
      import hyperdp, read and validate the inputs through public
      functions, and exit before the command's main work.
  python3 child.py trace STATS_JSON CLI_ARG...
      run ``hyperdp.cli.main`` under the span tracer; stdout is the
      CLI's own, the aggregates go to STATS_JSON.  Exits 3 if the tracer
      fails to restore a wrapped name.
"""

import json
import sys
import time


def _setup_hdp_spec(hyperdp):
    graph, nu, bases = hyperdp.hdp_spec_from_dict(hyperdp.load_json("spec.json"))
    return hyperdp.build_hdp(graph, bases, nu)


def _setup_posterior_chain(hyperdp):
    spec = _setup_hdp_spec(hyperdp)
    hyperdp.load_data_csv("data.csv", spec.combined.base.space)


def _setup_gibbs_mixture(hyperdp):
    base = hyperdp.measure_from_dict(hyperdp.load_json("base.json"))
    hyperdp.load_data_csv("data.csv", base.space)
    hyperdp.likelihood_from_dict(hyperdp.load_json("likelihood.json"), base.space, base.space)


def _setup_reconcile_tables(hyperdp):
    hyperdp.measure_from_dict(hyperdp.load_json("mu.json"))
    hyperdp.measure_from_dict(hyperdp.load_json("lambda.json"))


SETUP = {
    "sample_draws": _setup_hdp_spec,
    "posterior_chain": _setup_posterior_chain,
    "gibbs_mixture": _setup_gibbs_mixture,
    "reconcile_tables": _setup_reconcile_tables,
}


def setup(workload):
    import hyperdp

    SETUP[workload](hyperdp)
    return 0


def trace(stats_path, argv):
    from tracer import Tracer

    import hyperdp.cli

    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        code = hyperdp.cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        tracer.uninstall()
    sys.stdout.flush()
    report = tracer.report(main_s)
    report["restored"] = tracer.restored()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code if report["restored"] else 3


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        sys.exit(setup(sys.argv[2]))
    sys.exit(trace(sys.argv[2], sys.argv[3:]))
