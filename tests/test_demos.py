"""Every script in ``demos/`` runs to completion without writing to stderr
and leaves nothing behind in the temporary directory, and every name the
package exports is reached from outside the tests."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hyperdp

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PACKAGE = ROOT / "src" / "hyperdp"


def test_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    src = str(ROOT / "src")
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        "TMPDIR": str(tmpdir),
    }
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert list(tmpdir.iterdir()) == []


def _code_names(path):
    """Every name ``path`` reads, imports or takes as an attribute."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_exported_name_is_reached_from_outside_the_tests():
    # a public function that only its own tests call is a path to delete,
    # or to move into tests/ as an oracle
    # the package root's name table: every name it exports, each found in its module
    init = PACKAGE / "__init__.py"
    exported = set(hyperdp._HOME)
    assert len(exported) > 70 and set(hyperdp.__all__) == exported | hyperdp._SUBMODULES
    for name, module in hyperdp._HOME.items():
        assert name in vars(importlib.import_module(f"hyperdp.{module}")), name
    reached = set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    for path in [*PACKAGE.glob("*.py"), *DEMOS]:
        if path != init:
            reached.update(_code_names(path))
    assert sorted(exported - reached) == []
