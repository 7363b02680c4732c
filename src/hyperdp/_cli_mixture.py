"""The ``mixture`` command."""

import json

import hyperdp

from . import serialize as ser


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
        ser.write_text(args.plot_csv, "\n".join(lines) + "\n")
    return out


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
