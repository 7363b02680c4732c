"""Interchange formats: bit-exact mass strings, JSON dicts, CSV data."""

import ast
import enum
import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdp import (
    DiscreteMeasure,
    ProductSpace,
    WeightedAtoms,
    atoms_to_json_line,
    build_graph,
    decomposition_to_dict,
    graph_from_dict,
    graph_to_dict,
    hdp_spec_from_dict,
    hdp_spec_json,
    likelihood_from_dict,
    load_data_csv,
    load_json,
    measure_from_dict,
    measure_json,
    perfect_ordering,
)
from hyperdp import serialize
from hyperdp.serialize import object_json, read_csv_columns

from conftest import (
    equal_twin,
    hdp_spec_to_dict,
    looped_measure_from_dict,
    looped_read_csv_columns,
    measure_to_dict,
)


AWKWARD = [0.1, 1 / 3, 0.30000000000000004, 1e-300, 2e17, 5e-324]


def test_mass_strings_round_trip_bit_exact():
    sp = ProductSpace.from_domains(("X",), {"X": (0,)})
    for v in AWKWARD:
        (point,) = json.loads(measure_json(DiscreteMeasure(sp, {(0,): v})))["points"]
        assert float(point["mass"]) == v
        assert point["mass"] == repr(v)


def test_graph_round_trip():
    g = build_graph((3, 1, 2), [(1, 2), (2, 3)])
    d = graph_to_dict(g)
    assert d["vertices"] == [3, 1, 2]
    # pairs are ordered, and listed, by declaration index; 3 came first
    assert d["edges"] == [[3, 2], [1, 2]]
    assert graph_from_dict(d) == g
    assert json.dumps(d) == json.dumps(graph_to_dict(g))


def test_decomposition_to_dict(path_graph):
    d = decomposition_to_dict(perfect_ordering(path_graph))
    assert d["cliques"] == [["I", "J"], ["J", "K"]]
    assert d["separators"] == [["J"]]
    assert d["histories"] == [["I", "J"], ["I", "J", "K"]]
    assert d["residuals"] == [["K"]]


def test_measure_round_trip_preserves_bits():
    sp = ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})
    m = DiscreteMeasure(sp, {(0, 0): 0.1, (0, 1): 1 / 3, (1, 1): 1e-300})
    d = json.loads(measure_json(m))
    assert d["points"][0] == {"assignment": {"I": 0, "J": 0}, "mass": "0.1"}
    assert measure_from_dict(d) == m


def test_measure_from_dict_accumulates_duplicates():
    d = {
        "variables": ["X"],
        "domains": {"X": [0, 1]},
        "points": [
            {"assignment": {"X": 0}, "mass": "0.25"},
            {"assignment": {"X": 0}, "mass": "0.25"},
        ],
    }
    assert measure_from_dict(d).mass == {(0,): 0.5}


@pytest.mark.parametrize("bad", ["-1.0", "nan", "inf", "-inf"])
def test_measure_from_dict_rejects_a_bad_mass_before_merging(bad):
    d = {
        "variables": ["A"],
        "domains": {"A": [0, 1]},
        "points": [
            {"assignment": {"A": 0}, "mass": "1.5"},
            {"assignment": {"A": 0}, "mass": bad},
            {"assignment": {"A": 1}, "mass": "0.5"},
        ],
    }
    with pytest.raises(ValueError, match="^point 2 .*finite and nonnegative"):
        measure_from_dict(d)


@pytest.mark.parametrize("bad", [{"X": 0}, {"X": 0, "Z": 1}, {"X": 7}])
def test_loading_a_measure_validates_each_point_once(tmp_path, monkeypatch, bad):
    points = [{"assignment": {"X": x, "Y": y}, "mass": "0.125"} for x in (0, 1) for y in "ab"]
    points.append(dict(points[0]))  # a duplicate is validated again, as its own point
    d = {"variables": ["X", "Y"], "domains": {"X": [0, 1], "Y": ["a", "b"]}, "points": points}
    calls = []
    as_tuple = ProductSpace.as_tuple
    monkeypatch.setattr(
        ProductSpace, "as_tuple", lambda self, a: calls.append(a) or as_tuple(self, a)
    )
    path = tmp_path / "measure.json"
    path.write_text(json.dumps(d), encoding="utf-8")
    m = measure_from_dict(load_json(path))
    assert len(calls) == len(points) == 5
    assert m.mass[(0, "a")] == 0.25
    # a bad point is still named by the one validation it gets
    calls.clear()
    d["points"][2] = {"assignment": bad, "mass": "0.125"}
    with pytest.raises(ValueError):
        measure_from_dict(d)
    assert len(calls) == 3


def test_loading_a_clean_measure_checks_no_point_on_its_own(monkeypatch):
    # distinct valid points are read a column at a time: as_tuple never runs
    refuse = lambda self, a: pytest.fail("a point was checked on its own")  # noqa: E731
    monkeypatch.setattr(ProductSpace, "as_tuple", refuse)
    points = [{"assignment": {"Y": y, "X": x}, "mass": "0.125"} for x in (0, 1) for y in "ab"]
    d = {"variables": ["X", "Y"], "domains": {"X": [0, 1], "Y": ["a", "b"]}, "points": points}
    assert measure_from_dict(d).mass == {(x, y): 0.125 for x in (0, 1) for y in "ab"}


# Points that exercise every branch of the loader: repeated and twin
# categories (1, True and 1.0), masses that are negative, NaN, out of
# range or not numbers, missing keys, missing and unknown variables,
# categories off the domain or unhashable, and points or assignments
# that are not JSON objects.
LOADER_CATEGORIES = (0, 1, 2, 300, -7, "a", "1", 2.5, None)
LOADER_MASSES = (
    "0.5", "0.25", "1e-300", "5e-324", "0", "-0.0", 0.5, 3, True,
    "-1", "nan", "inf", "1e400", "abc", None, [1],
)


@st.composite
def measure_objects(draw):
    variables = draw(st.lists(st.sampled_from("ABC"), max_size=3, unique=True))
    domains = {
        v: draw(st.lists(st.sampled_from(LOADER_CATEGORIES), min_size=1, max_size=3, unique=True))
        for v in variables
    }

    def value(v):
        kind = draw(st.integers(0, 15))
        if kind == 0:
            return draw(st.sampled_from((7, "zz", [0], 1.25)))  # off the domain or unhashable
        c = draw(st.sampled_from(domains[v]))
        return equal_twin(c) if kind == 1 else c

    def point():
        assignment = {v: value(v) for v in variables}
        kind = draw(st.integers(0, 24))
        if kind == 0 and variables:
            del assignment[draw(st.sampled_from(variables))]
        elif kind == 1:
            assignment["Z"] = 0
        elif kind == 2:
            assignment = list(assignment.values())
        elif kind == 3:
            assignment = draw(st.sampled_from(("A", None, 0)))
        p = {"assignment": assignment, "mass": draw(st.sampled_from(LOADER_MASSES[:6]))}
        kind = draw(st.integers(0, 24))
        if kind == 0:
            p["mass"] = draw(st.sampled_from(LOADER_MASSES))
        elif kind == 1:
            del p[draw(st.sampled_from(("assignment", "mass")))]
        elif kind == 2:
            p = draw(st.sampled_from(([0], "p", None)))
        return p

    points = [point() for _ in range(draw(st.integers(0, 6)))]
    return {"variables": variables, "domains": domains, "points": points}


def _loaded(load, obj):
    """The measure as (space, [(typed key, mass bits)]), or the error as (class, text)."""
    try:
        m = load(obj)
    except Exception as exc:  # differential tests compare errors too
        return type(exc), str(exc)
    typed = [(tuple((type(c), repr(c)) for c in x), v.hex()) for x, v in m.mass.items()]
    return m.space, typed


@settings(max_examples=500, deadline=None)
@given(obj=measure_objects(), as_file=st.booleans())
def test_measure_from_dict_matches_the_per_point_loop(obj, as_file):
    # as read from a file, a missing key is a ValueError, not a KeyError
    if as_file:
        obj = json.loads(json.dumps(obj), object_pairs_hook=serialize._Fields)
    assert _loaded(measure_from_dict, obj) == _loaded(looped_measure_from_dict, obj)


def test_hdp_spec_round_trip(path_graph, uniform_ij, copy_jk):
    text = hdp_spec_json(path_graph, 4.0, [uniform_ij, copy_jk])
    graph, nu, bases = hdp_spec_from_dict(json.loads(text))
    assert graph == path_graph
    assert nu == 4.0
    assert bases == [uniform_ij, copy_jk]


def _tupled(obj):
    if isinstance(obj, list):
        return tuple(map(_tupled, obj))
    if isinstance(obj, dict):
        return {k: _tupled(v) for k, v in obj.items()}
    return obj


def test_the_loaders_take_tuples_from_python_but_no_string(path_graph, uniform_ij, copy_jk):
    # a JSON file gives lists, but a Python caller may give tuples
    spec = json.loads(hdp_spec_json(path_graph, 4.0, [uniform_ij, copy_jk]))
    assert hdp_spec_from_dict(_tupled(spec)) == hdp_spec_from_dict(spec)
    sp = ProductSpace.from_domains(("X",), {"X": (0, 1)})
    table = {"entries": [{"x": {"X": 1}, "pi": {"X": 0}, "prob": 0.5}]}
    assert likelihood_from_dict(_tupled(table), sp, sp)((1,), (0,)) == 0.5
    with pytest.raises(ValueError, match="^vertices must be a JSON array$"):
        graph_from_dict({"vertices": "IJK", "edges": []})
    with pytest.raises(ValueError, match="^variables must be a JSON array$"):
        measure_from_dict({"variables": "X", "domains": {"X": [0]}, "points": []})


def test_atoms_json_line_schema_and_round_trip():
    sp = ProductSpace.from_domains(("X",), {"X": (0, 1)})
    theta = WeightedAtoms(((0,), (1,)), (0.75, 0.25), 1e-11, sp)
    line = atoms_to_json_line(theta, seed=7, replicate=2)
    obj = json.loads(line)
    assert set(obj) == {"atoms", "weights", "residual", "seed", "replicate"}
    assert obj["atoms"] == [[0], [1]]
    assert obj["seed"] == 7 and obj["replicate"] == 2
    rebuilt = WeightedAtoms(
        tuple(tuple(a) for a in obj["atoms"]), tuple(obj["weights"]), obj["residual"], sp
    )
    assert rebuilt == theta


def test_atoms_json_line_scalar_atoms():
    theta = WeightedAtoms((0.125, 0.875), (0.5, 0.5), 0.0, None)
    obj = json.loads(atoms_to_json_line(theta, seed=1, replicate=0))
    assert obj["atoms"] == [0.125, 0.875]


def _dumped_record(theta, seed, replicate):
    return json.dumps(
        {
            "atoms": theta.atoms,
            "weights": theta.weights,
            "residual": theta.truncation_residual,
            "seed": seed,
            "replicate": replicate,
        }
    )


def test_atoms_json_line_equals_json_dumps_of_the_record():
    texts = ("é\n", 'say "hi"\\', "\u2028\x00")
    sp = ProductSpace.from_domains(("X",), {"X": (1, *texts)})
    one, true, real = (1,), (True,), (1.0,)
    assert one == true == real  # equal keys, three different texts
    atoms = (one, true, real, one, (texts[0],), (texts[1],), (texts[0],), (texts[2],))
    weights = (0.25, 0.125, 0.125, 0.0625, 0.0625, 0.1, 0.2, 0.075)
    theta = WeightedAtoms(atoms, weights, 0.075, sp)
    assert atoms_to_json_line(theta, 2**64 - 1, 12) == _dumped_record(theta, 2**64 - 1, 12)
    continuous = WeightedAtoms((0.5, -0.0, 1e300), (0.5, 0.25, 0.25), 0.0, None)
    assert atoms_to_json_line(continuous, 0, 0) == _dumped_record(continuous, 0, 0)


# Labels and categories that print in ways easy to get wrong: non-ASCII and
# escaped text, a '%', null, booleans, floats (NaN among the categories),
# and ints, floats and booleans that are equal but print differently.
TEXT = st.text(
    alphabet=st.sampled_from(["a", "%", "é", "日", '"', "\\", "\n", "\u2028", "\x00", "\ud800"]),
    max_size=3,
)
LABELS = st.one_of(TEXT, st.integers(-3, 3), st.floats(-2.0, 2.0), st.none(), st.booleans())
CATEGORIES = st.one_of(
    TEXT, st.integers(-3, 300), st.floats(), st.just(float("nan")), st.none(), st.booleans()
)


@st.composite
def measures(draw):
    variables = draw(st.lists(LABELS, max_size=3, unique=True))
    domains = [draw(st.lists(CATEGORIES, min_size=1, max_size=4, unique=True)) for _ in variables]
    sp = ProductSpace(tuple(variables), tuple(map(tuple, domains)))
    category = [st.sampled_from(d).flatmap(lambda c: st.sampled_from((c, equal_twin(c)))) for d in domains]
    mass = st.one_of(st.floats(0.0, 1e308), st.floats(0.0, 1.0), st.sampled_from([5e-324, 0.1, 1 / 3]))
    return DiscreteMeasure(sp, draw(st.dictionaries(st.tuples(*category), mass, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(m=measures())
def test_measure_json_equals_json_dumps_of_the_dict(m):
    assert measure_json(m) == json.dumps(measure_to_dict(m))


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 300


class Loud(int):
    """An int that prints as text: ``json.dumps`` still writes the number."""

    def __str__(self):
        return "loud"


# Integer columns print without the identity pass when every object is an
# exact int; bool, IntEnum and other int subclasses in a column must not.
INT_COLUMNS = st.one_of(
    st.lists(st.integers(-(10**20), 10**20), min_size=1, max_size=4, unique=True),
    st.lists(st.one_of(st.integers(-300, 300), TEXT), min_size=1, max_size=4, unique=True),
    st.lists(st.booleans(), min_size=1, max_size=2, unique=True),
    st.lists(st.sampled_from([*Level, 0, 7]), min_size=1, max_size=3, unique=True),
    st.lists(st.integers(2, 500).map(Loud), min_size=1, max_size=3, unique=True),
)


@st.composite
def int_column_measures(draw):
    variables = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    domains = [tuple(draw(INT_COLUMNS)) for _ in variables]
    sp = ProductSpace(tuple(variables), tuple(domains))
    # the float twin of an int above 2**53 may round to another number
    twin = lambda c: equal_twin(c) if equal_twin(c) == c else c  # noqa: E731
    category = [st.sampled_from(d).flatmap(lambda c: st.sampled_from((c, twin(c)))) for d in domains]
    mass = st.floats(0.0, 1.0)
    return DiscreteMeasure(sp, draw(st.dictionaries(st.tuples(*category), mass, max_size=12)))


@settings(max_examples=300, deadline=None)
@given(m=int_column_measures())
def test_measure_json_prints_integer_columns_as_json_dumps_does(m):
    assert measure_json(m) == json.dumps(measure_to_dict(m))


GOLDEN_SPECS = pathlib.Path(__file__).parent / "golden" / "specs"


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN_SPECS.glob("*.json")))
def test_measure_json_on_the_golden_specs(name):
    obj = load_json(GOLDEN_SPECS / name)
    if "points" in obj:
        m = measure_from_dict(obj)
        assert measure_json(m) == json.dumps(measure_to_dict(m))
    elif "clique_bases" in obj:
        graph, nu, bases = hdp_spec_from_dict(obj)
        assert hdp_spec_json(graph, nu, bases) == json.dumps(hdp_spec_to_dict(graph, nu, bases))


def test_hdp_spec_json_and_object_json(path_graph, uniform_ij, copy_jk):
    want = json.dumps(hdp_spec_to_dict(path_graph, 4, [uniform_ij, copy_jk]))
    assert hdp_spec_json(path_graph, 4, [uniform_ij, copy_jk]) == want
    fields = {"é": 1, "nu": 2.5, "none": None, "list": [1, "x"]}
    assert object_json({k: json.dumps(v) for k, v in fields.items()}) == json.dumps(fields)


def test_load_json(tmp_path):
    path = tmp_path / "payload.json"
    path.write_text('{"nu": 2.5}', encoding="utf-8")
    assert load_json(path) == {"nu": 2.5}
    with pytest.raises(OSError):
        load_json(tmp_path / "missing.json")


# --------------------------------------------------------------------- csv


def csv_rows(text, space):
    """The observations of CSV ``text``, as the data files of commands are read."""
    parsers = map(serialize._category_parser, space.domains, space.variables)
    return read_csv_columns(io.StringIO(text, newline=""), space.variables, parsers)


def test_csv_parses_numeric_and_text_categories():
    sp = ProductSpace.from_domains(("I", "tag"), {"I": (0, 1), "tag": ("a", "b")})
    for end in ("\n", "\r\n", "\r"):
        rows = csv_rows(f"I,tag{end}0,a{end}1,b{end}{end}1,a{end}", sp)
        assert rows == [(0, "a"), (1, "b"), (1, "a")]


def test_csv_ignores_column_order_and_extras():
    sp = ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})
    rows = csv_rows("note,J,I\nx,1,0\ny,0,1\n", sp)
    assert rows == [(0, 1), (1, 0)]


def test_csv_errors():
    sp = ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})
    with pytest.raises(ValueError, match="missing columns"):
        csv_rows("I\n0\n", sp)
    with pytest.raises(ValueError, match="line 3"):
        csv_rows("I,J\n0,1\n2,0\n", sp)
    # a blank line is skipped, but still counted
    one = ProductSpace.from_domains(("X",), {"X": (0, 1)})
    with pytest.raises(ValueError, match="^line 4: value '7' "):
        csv_rows("X\n0\n\n7\n", one)
    with pytest.raises(ValueError, match=r"^line 3: field larger than field limit \(131072\)$"):
        csv_rows("X\n0\n" + "0" * 131_073 + "\n", one)
    with pytest.raises(ValueError, match="header"):
        csv_rows("", sp)
    clash = ProductSpace.from_domains(("X",), {"X": (1, "1")})
    with pytest.raises(ValueError, match="collide"):
        csv_rows("X\n1\n", clash)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["0,a", "1,b", "1,a", "0,a", "", '"1",b', '"0\n",a', "7,a", "1", "0,a,x", '1,"b"']
        ),
        max_size=12,
    ),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_csv_parses_each_distinct_row_once_as_the_row_loop_reads_them(rows, end):
    # a row's text is parsed at its first line alone, and an error still
    # names the line of the first bad row
    sp = ProductSpace.from_domains(("I", "tag"), {"I": (0, 1), "tag": ("a", "b")})
    text = end.join(["I,tag", *rows, ""])
    calls = []

    def counted(parse):
        return lambda cell: calls.append(cell) or parse(cell)

    def read(reader, wrap=lambda parse: parse):
        parsers = [wrap(p) for p in map(serialize._category_parser, sp.domains, sp.variables)]
        try:
            return reader(io.StringIO(text, newline=""), sp.variables, parsers)
        except ValueError as exc:
            return str(exc)

    got, want = read(read_csv_columns, counted), read(looped_read_csv_columns)
    assert got == want
    if isinstance(got, list):
        assert len(calls) == 2 * len(set(got)) <= 2 * len(got)


def _csv_module_uses(tree):
    """Lines that import the ``csv`` module or read one of its attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            yield node.lineno
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "csv":
            yield node.lineno


def test_every_data_csv_is_parsed_by_the_one_reader():
    # serialize.read_csv_columns is the one place a CSV file is parsed
    probe = "import csv\nfrom csv import reader\ncsv.reader(fh)\nargs.plot_csv\n"
    assert list(_csv_module_uses(ast.parse(probe))) == [1, 2, 3]
    src = pathlib.Path(serialize.__file__).parent
    users = [
        path.name for path in sorted(src.glob("*.py"))
        if list(_csv_module_uses(ast.parse(path.read_text(encoding="utf-8"))))
    ]
    assert users == ["serialize.py"]


def test_load_data_csv(tmp_path):
    sp = ProductSpace.from_domains(("I",), {"I": (0, 1)})
    path = tmp_path / "data.csv"
    path.write_text("I\n0\n1\n1\n", encoding="utf-8")
    assert load_data_csv(path, sp) == [(0,), (1,), (1,)]


def test_likelihood_from_dict():
    sp = ProductSpace.from_domains(("X",), {"X": (0, 1)})
    table = {
        "entries": [
            {"x": {"X": 0}, "pi": {"X": 0}, "prob": 0.9},
            {"x": {"X": 1}, "pi": {"X": 0}, "prob": 0.1},
        ]
    }
    f = likelihood_from_dict(table, sp, sp)
    assert f((0,), (0,)) == 0.9
    assert f([1], (0,)) == 0.1
    assert f((1,), (1,)) == 0.0
    with pytest.raises(ValueError):
        likelihood_from_dict(
            {"entries": [{"x": {"X": 9}, "pi": {"X": 0}, "prob": 1.0}]}, sp, sp
        )


@pytest.mark.parametrize("prob", ["nan", "inf", -0.1])
def test_likelihood_from_dict_rejects_bad_probabilities(prob):
    sp = ProductSpace.from_domains(("X",), {"X": (0, 1)})
    table = {
        "entries": [
            {"x": {"X": 0}, "pi": {"X": 0}, "prob": 0.9},
            {"x": {"X": 1}, "pi": {"X": 0}, "prob": prob},
        ]
    }
    with pytest.raises(ValueError, match="entry 2"):
        likelihood_from_dict(table, sp, sp)
