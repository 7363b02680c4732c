"""Run the checked-in mutants of ``tools/mutants.json`` against the tests.

    python tools/mutants.py [NAME ...]

Each mutant replaces one text that occurs exactly once in one source
file.  It runs in a temporary copy of the repository, on the test files
its entry names, with ``pytest -x``; a failing test kills it.  The
script prints one line per mutant and the killed and surviving counts,
and exits 1 if any mutant survived.  Standard library only; it is not
part of the test suite, as a surviving mutant runs its whole test files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants.json"
COPIED = ("src", "tests", "demos", "README.md", "pyproject.toml")
TIMEOUT_S = 1800


def load():
    return json.loads(MUTANTS.read_text(encoding="utf-8"))


def run(mutant):
    """``killed``, ``survived`` or ``error`` (the text is missing, or pytest
    did not get to run the tests), and the seconds the run took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
                shutil.copytree(source, copy / name, ignore=ignore)
            else:
                shutil.copy2(source, copy / name)
        path = copy / mutant["file"]
        text = path.read_text(encoding="utf-8")
        if text.count(mutant["old"]) != 1:
            return "error", 0.0
        path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                *mutant["tests"]]
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=copy, env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error", time.perf_counter() - start
        elapsed = time.perf_counter() - start
    # pytest exits 1 when a test failed and 2 when a test file failed to import
    return {0: "survived", 1: "killed", 2: "killed"}.get(proc.returncode, "error"), elapsed


def main(names):
    mutants = [m for m in load() if not names or m["name"] in names]
    tally = {"killed": 0, "survived": 0, "error": 0}
    for mutant in mutants:
        verdict, elapsed = run(mutant)
        tally[verdict] += 1
        print(f"{verdict:8} {elapsed:6.1f}s  {mutant['name']}  ({mutant['file']})", flush=True)
    print(f"{len(mutants)} mutants: {tally['killed']} killed, {tally['survived']} survived, "
          f"{tally['error']} errors")
    return 1 if tally["survived"] or tally["error"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
