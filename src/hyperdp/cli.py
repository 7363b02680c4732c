"""Command line front end: the command table and its dispatcher.

Every randomized command takes ``--seed`` and produces byte-identical
output for identical inputs and flags.  Output is assembled in full
before anything is written, so a failing run never emits a partial
artifact.  The exceptions are ``sample`` and ``sample-hdp``: once their
inputs pass every check, they write each draw as soon as it is made.
Exit codes: 0 success, 1 validation or model errors (the symbolic error
name appears in the JSON output), 2 I/O errors, among them a stdout that
cannot be written (help text too): a closed pipe or a full disk gives one
``hyperdp: cannot write output: ...`` line on stderr and no traceback.

``COMMANDS`` holds each command's help line, its command module, which
defines ``_a_b_flags(p)`` (its arguments) and ``cmd_a_b(args)`` (its
handler) for a command ``a-b``, and the package modules it loads.
``main`` imports the command module of the command that ``argv`` names
and builds its subparser alone, so a run compiles no other family's
handlers; a handler reaches the library through the lazy package root.

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
import gc
import importlib
import json
import os
import sys

from ._record import record
from .errors import HyperDPError


class _Failure(Exception):
    """A fully-formed report whose verdict is negative."""

    def __init__(self, text):
        super().__init__("diagnostics failed")
        self.text = text


@record
class _Command:
    """A command's help line, command module, and the package modules it loads
    beyond ``cli``'s own and ``serialize``, which every command module imports."""

    help: str
    module: str
    modules: tuple


_DP = ("measures", "dp")
_HDP = ("measures", "algebra", "dp", "graphs", "hdp")
_DRAWS = ("rng", "stick")

# name -> _Command, in the order that --help lists them
COMMANDS = {
    "check-graph": _Command("decomposability report for a graph JSON", "_cli_exact", ("graphs",)),
    "combine": _Command("fuse two consistent measures", "_cli_exact", ("measures", "algebra")),
    "check-consistency": _Command(
        "agreement report for two measures", "_cli_exact", ("measures", "algebra")
    ),
    "sample": _Command(
        'stick-breaking draws; JSONL, one {"atoms", "weights", "residual", "seed", "replicate"} '
        "object per line",
        "_cli_draws",
        (*_DP, *_DRAWS),
    ),
    "posterior": _Command("conjugate update of one process", "_cli_exact", _DP),
    "build-hdp": _Command("validate clique bases and fuse them", "_cli_exact", _HDP),
    "sample-hdp": _Command("draws from a graph-structured prior", "_cli_draws", (*_HDP, *_DRAWS)),
    "posterior-hdp": _Command("clique-wise conjugate update", "_cli_exact", _HDP),
    "diagnose": _Command("full validation report for a spec", "_cli_draws", (*_HDP, *_DRAWS)),
    "reconcile": _Command(
        "merge two disagreeing measures", "_cli_reconcile", ("measures", "algebra", "reconcile")
    ),
    "mixture": _Command(
        "latent-class assignment by collapsed sweeps", "_cli_mixture", (*_DP, "rng", "mixture")
    ),
    "cdf-estimate": _Command("posterior-mean distribution function estimates", "_cli_cdf", _DP),
}


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
        module = importlib.import_module(f"{__package__}.{command.module}")
        stem = name.replace("-", "_")
        p = sub.add_parser(name, help=command.help)
        getattr(module, f"_{stem}_flags")(p)
        p.set_defaults(func=getattr(module, f"cmd_{stem}"))
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
        command = COMMANDS[argv[0]]
        for module in (command.module, *command.modules):
            importlib.import_module(f"{__package__}.{module}")
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
