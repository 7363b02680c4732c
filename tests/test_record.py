"""Frozen records against ``@dataclass(frozen=True)`` twins, and start-up cost.

Each record class of the package is rebuilt here as a real frozen
dataclass from the same namespace (annotations, defaults, methods and
``__post_init__``).  On sample values the twin and the record must agree
on ``repr``, equality, hashing, immutability, constructor errors and
defaults, and the record must survive a pickle round trip.
"""

import dataclasses
import importlib
import math
import operator
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from hyperdp import dp, hdp, measures

# by import path: the package's ``reconcile`` is the function of that name
MODULES = tuple(
    importlib.import_module(f"hyperdp.{name}")
    for name in ("dp", "graphs", "hdp", "measures", "mixture", "reconcile")
)
RECORD_METHODS = {
    "__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__", "__match_args__",
}


def _records():
    found = {}
    for mod in MODULES:
        for name, obj in vars(mod).items():
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                if getattr(obj.__init__, "__module__", None) == "hyperdp._record":
                    found[name] = obj
    return found


RECORDS = _records()


def _twin(cls):
    """The class as ``@dataclass(frozen=True)`` would have made it."""
    namespace = {
        name: value
        for name, value in vars(cls).items()
        if name not in RECORD_METHODS | {"__dict__", "__weakref__"}
    }
    twin = type(cls.__name__, (), namespace)
    twin.__qualname__ = cls.__qualname__
    return dataclasses.dataclass(frozen=True)(twin)


TWINS = {name: _twin(cls) for name, cls in RECORDS.items()}


def _samples():
    """Constructor arguments per record: a list of (args, kwargs)."""
    space = measures.ProductSpace(("A", "B"), ((0, 1), ("x", "y")))
    base = measures.DiscreteMeasure(space, {(0, "x"): 0.5, (1, "y"): 0.5})
    params = dp.DPParams(2.0, base)
    check = hdp.SeparatorCheck(("J",), ("J", "K"), False, {"J": 0}, {"(0, 0)": 0.5})
    return {
        "ProductSpace": [((("A", "B"), ((0, 1), ("x", "y"))), {}), ((("C",), ((True,),)), {})],
        "DiscreteMeasure": [((space, {(0, "x"): 0.25, (1, "y"): 0.75}), {})],
        "ConsistencyReport": [((("J",), True, False, 0.0, 0.25), {})],
        "ContinuousBase": [((abs,), {}), ((abs, math.erf, False, "erf"), {})],
        "DPParams": [((3, base), {})],
        "SamplerConfig": [((7,), {}), ((7, 0.5, 3), {})],
        "WeightedAtoms": [
            (((0.25, 0.5), (0.5, 0.5), 0.0), {}),
            ((((0, "x"),), (1.0,), 1e-12, space), {}),
        ],
        "SeparatorCheck": [((("J",), ("J", "K"), True), {}), (tuple(vars(check).values()), {})],
        "RefinementReport": [(((check,),), {})],
        "HDPSpec": [(("graph", "decomposition", (base,), 2.0, params), {})],
        "HDPAudit": [((({"name": "graph", "passed": True},),), {}), (((), "d", base), {})],
        "ReconcileStrategy": [(("kl-compromise",), {}), (("weighted-average", 0.25), {})],
        "_UnionLayout": [
            ((space, ("A",), ("B",), ("C",), operator.itemgetter(1, 0), sorted), {}),
        ],
        "Graph": [((("a", "b"), frozenset({("a", "b")})), {})],
        "CliqueDecomposition": [((("a", "b"), (("a", "b"),), (), (("a", "b"),), ()), {})],
        "UrnState": [((((0, "x"),), 1.5, base), {})],
    }


SAMPLES = _samples()
CASES = [(name, i) for name in sorted(SAMPLES) for i in range(len(SAMPLES[name]))]


def _outcome(call):
    """The value of ``call()``, or the class and text of what it raised."""
    try:
        return call()
    except Exception as exc:  # the outcome itself is under test
        return type(exc), str(exc)


def test_every_record_has_samples():
    assert len(RECORDS) == 16
    assert set(RECORDS) == set(SAMPLES)


@pytest.mark.parametrize("name, i", CASES)
def test_record_agrees_with_its_dataclass_twin(name, i):
    cls, twin = RECORDS[name], TWINS[name]
    args, kwargs = SAMPLES[name][i]
    rec, tw = cls(*args, **kwargs), twin(*args, **kwargs)
    assert repr(rec) == repr(tw)
    assert cls.__match_args__ == twin.__match_args__
    assert _outcome(lambda: hash(rec)) == _outcome(lambda: hash(tw))
    # equality is per class, over the field tuple
    assert rec == cls(*args, **kwargs) and tw == twin(*args, **kwargs)
    assert not rec != cls(*args, **kwargs)
    assert rec.__eq__(tw) is NotImplemented and tw.__eq__(rec) is NotImplemented
    assert rec != tw and rec != args
    for other, other_kwargs in SAMPLES[name][:i] + SAMPLES[name][i + 1:]:
        assert (rec == cls(*other, **other_kwargs)) == (tw == twin(*other, **other_kwargs))
    # by keyword, the same record
    by_name = dict(zip(cls.__match_args__, args), **kwargs)
    assert cls(**by_name) == rec and repr(twin(**by_name)) == repr(tw)


@pytest.mark.parametrize("name, i", CASES)
def test_record_is_immutable_like_its_twin(name, i):
    args, kwargs = SAMPLES[name][i]
    rec, tw = RECORDS[name](*args, **kwargs), TWINS[name](*args, **kwargs)
    for attr in (RECORDS[name].__match_args__[0], "not_a_field"):
        for change in (lambda obj: setattr(obj, attr, 1), lambda obj: delattr(obj, attr)):
            messages = []
            for obj in (rec, tw):
                with pytest.raises(AttributeError) as err:
                    change(obj)
                messages.append(str(err.value))
            assert messages[0] == messages[1]
    assert repr(rec) == repr(tw)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_constructor_errors_match_its_twin(name):
    cls, twin = RECORDS[name], TWINS[name]
    args, _ = SAMPLES[name][0]
    first = cls.__match_args__[0]
    bad_calls = [
        ((), {}),                                  # missing
        (args, {"no_such_field": 1}),              # unknown
        (args, {first: args[0]}),                  # repeated
        (args + (None,) * (len(cls.__match_args__) + 1 - len(args)), {}),  # too many
    ]
    for bad_args, bad_kwargs in bad_calls:
        with pytest.raises(TypeError):
            cls(*bad_args, **bad_kwargs)
        with pytest.raises(TypeError):
            twin(*bad_args, **bad_kwargs)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_record_applies_the_defaults_of_its_twin(name):
    cls, twin = RECORDS[name], TWINS[name]
    fields = dataclasses.fields(twin)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    values = dict(zip(cls.__match_args__, SAMPLES[name][0][0]))
    given = {key: values[key] for key in required}
    rec = cls(**given)
    assert repr(rec) == repr(twin(**given))
    assert repr(cls(*given.values())) == repr(rec)
    for f in fields:
        if f.default is not dataclasses.MISSING:
            assert getattr(rec, f.name) is f.default


@pytest.mark.parametrize("name, i", CASES)
def test_record_survives_a_pickle_round_trip(name, i):
    args, kwargs = SAMPLES[name][i]
    rec = RECORDS[name](*args, **kwargs)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is type(rec)
    assert repr(back) == repr(rec)
    assert list(vars(back)) == list(vars(rec))
    if name != "_UnionLayout":  # an unpickled itemgetter is a new, unequal one
        assert back == rec


def test_plain_attributes_stay_out_of_equality_hash_and_repr():
    space = measures.ProductSpace(("A",), ((0, 1),))
    twin = TWINS["ProductSpace"](("A",), ((0, 1),))
    assert space._category_index == ({0: 0, 1: 1},)
    assert repr(space) == repr(twin)
    assert hash(space) == hash((("A",), ((0, 1),)))
    assert list(vars(pickle.loads(pickle.dumps(space)))) == [
        "variables", "domains", "_category_index", "_category_rank",
    ]


def test_post_init_patched_after_decoration_is_the_one_that_runs(monkeypatch):
    cls = measures.DiscreteMeasure
    original = vars(cls)["__post_init__"]
    calls = []

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    space = measures.ProductSpace(("A",), ((0, 1),))
    m = cls(space, {(0,): 1.0})
    assert calls == [m]
    assert m.total == 1.0


def test_records_are_not_dataclasses():
    space = measures.ProductSpace(("A",), ((0, 1),))
    assert not dataclasses.is_dataclass(space)
    with pytest.raises(TypeError):
        dataclasses.fields(space)


def test_importing_the_cli_generates_no_code_and_loads_no_numpy():
    # without site, so that only what the package itself imports is loaded
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = "import sys, hyperdp.cli; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "hyperdp.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "typing", "numpy"} == set()
