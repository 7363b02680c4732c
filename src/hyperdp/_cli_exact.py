"""The commands that check, fuse and update measures and priors, drawing nothing."""

import json

import hyperdp

from . import serialize as ser


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


def cmd_posterior_hdp(args):
    graph, nu, bases = ser.hdp_spec_from_dict(ser.load_json(args.spec))
    spec = hyperdp.build_hdp(graph, bases, nu)
    data = ser.load_data_csv(args.data, spec.combined.base.space)
    post = hyperdp.hdp_posterior(spec, data)
    return ser.hdp_spec_json(post.graph, post.nu, post.clique_bases)


def _check_graph_flags(p):
    p.add_argument("graph", help="graph JSON: {vertices: [...], edges: [[u, v], ...]}")


def _combine_flags(p):
    p.add_argument("--mu", required=True, help="first measure JSON")
    p.add_argument("--lambda", dest="lam", required=True, help="second measure JSON")
    p.add_argument("--tol", type=float, default=hyperdp.measures.CONSISTENCY_TOL)


def _check_consistency_flags(p):
    p.add_argument("--mu", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--tol", type=float, default=hyperdp.measures.CONSISTENCY_TOL)


def _posterior_flags(p):
    p.add_argument("--base", required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--data", required=True, help="CSV, one column per variable")


def _build_hdp_flags(p):
    p.add_argument(
        "--spec",
        required=True,
        help="spec JSON: {graph, nu, clique_bases: [measure, ...]} in perfect order",
    )


def _posterior_hdp_flags(p):
    p.add_argument("--spec", required=True)
    p.add_argument("--data", required=True, help="CSV, one column per vertex variable")
