"""Interchange formats: bit-exact mass strings, JSON dicts, CSV data."""

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
    data_from_csv_text,
    decomposition_to_dict,
    graph_from_dict,
    graph_to_dict,
    hdp_spec_from_dict,
    hdp_spec_json,
    hdp_spec_to_dict,
    likelihood_from_dict,
    load_data_csv,
    load_json,
    mass_str,
    measure_from_dict,
    measure_json,
    measure_to_dict,
    perfect_ordering,
)
from hyperdp.serialize import object_json

from conftest import equal_twin


AWKWARD = [0.1, 1 / 3, 0.30000000000000004, 1e-300, 2e17, 5e-324]


def test_mass_strings_round_trip_bit_exact():
    for v in AWKWARD:
        assert float(mass_str(v)) == v
    assert mass_str(0.1) == "0.1"


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
    d = measure_to_dict(m)
    assert d["points"][0] == {"assignment": {"I": 0, "J": 0}, "mass": "0.1"}
    assert measure_from_dict(d) == m
    # a pass through actual JSON text changes nothing
    assert measure_from_dict(json.loads(json.dumps(d))) == m


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


def test_hdp_spec_round_trip(path_graph, uniform_ij, copy_jk):
    d = hdp_spec_to_dict(path_graph, 4.0, [uniform_ij, copy_jk])
    graph, nu, bases = hdp_spec_from_dict(json.loads(json.dumps(d)))
    assert graph == path_graph
    assert nu == 4.0
    assert bases == [uniform_ij, copy_jk]


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


def test_csv_parses_numeric_and_text_categories():
    sp = ProductSpace.from_domains(("I", "tag"), {"I": (0, 1), "tag": ("a", "b")})
    rows = data_from_csv_text("I,tag\n0,a\n1,b\n1,a\n", sp)
    assert rows == [(0, "a"), (1, "b"), (1, "a")]


def test_csv_ignores_column_order_and_extras():
    sp = ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})
    rows = data_from_csv_text("note,J,I\nx,1,0\ny,0,1\n", sp)
    assert rows == [(0, 1), (1, 0)]


def test_csv_errors():
    sp = ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})
    with pytest.raises(ValueError, match="missing columns"):
        data_from_csv_text("I\n0\n", sp)
    with pytest.raises(ValueError, match="line 3"):
        data_from_csv_text("I,J\n0,1\n2,0\n", sp)
    # a blank line is skipped, but still counted
    one = ProductSpace.from_domains(("X",), {"X": (0, 1)})
    with pytest.raises(ValueError, match="^line 4: value '7' "):
        data_from_csv_text("X\n0\n\n7\n", one)
    with pytest.raises(ValueError, match="header"):
        data_from_csv_text("", sp)
    clash = ProductSpace.from_domains(("X",), {"X": (1, "1")})
    with pytest.raises(ValueError, match="collide"):
        data_from_csv_text("X\n1\n", clash)


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
