"""The ``reconcile`` command."""

import json

import hyperdp

from . import serialize as ser

# short aliases of the reconcile.KINDS names that differ from them
_STRATEGY_ALIASES = {
    "condition-a": "condition-on-a",
    "condition-b": "condition-on-b",
    "average": "weighted-average",
    "kl": "kl-compromise",
}


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
