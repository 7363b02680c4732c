"""The checked-in mutant list of ``tools/mutants.py`` stays applicable: each
mutant's text occurs exactly once in its file, so the harness mutates what
the list says.  Running the mutants is not part of the suite."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MUTANTS = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))


def test_mutant_names_are_unique():
    names = [m["name"] for m in MUTANTS]
    assert len(names) == len(set(names)) >= 4


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m["name"])
def test_each_mutant_text_occurs_exactly_once(mutant):
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]
    assert mutant["tests"] and all((ROOT / t).is_file() for t in mutant["tests"])
