"""The ``cdf-estimate`` command, with its grid and its reading of decimal cells."""

import json
import math
import re

import hyperdp

from . import serialize as ser


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
        ser.write_text(args.plot_csv, "\n".join(lines) + "\n")
    return json.dumps({"points": points})


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
