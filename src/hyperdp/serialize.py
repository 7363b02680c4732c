"""JSON and CSV interchange for graphs, measures, and samples.

Masses travel as decimal strings produced by ``repr`` on the float, so
a serialize/parse round trip is bit exact on any platform.  All emitted
key orders are fixed by construction, which keeps byte-level output
deterministic.

``measure_json`` writes every measure the command line prints;
``measure_to_dict`` is the dict form for library callers.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math

from .graphs import build_graph
from .measures import DiscreteMeasure, ProductSpace


def mass_str(value):
    return repr(float(value))


def graph_to_dict(g):
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.sorted_edges()],
    }


def graph_from_dict(obj):
    return build_graph(obj["vertices"], [tuple(e) for e in obj["edges"]])


def decomposition_to_dict(decomp):
    return {
        "cliques": [list(c) for c in decomp.cliques],
        "separators": [list(s) for s in decomp.separators],
        "histories": [list(h) for h in decomp.histories],
        "residuals": [list(r) for r in decomp.residuals],
    }


def measure_to_dict(m):
    return {
        "variables": list(m.space.variables),
        "domains": {v: list(dom) for v, dom in zip(m.space.variables, m.space.domains)},
        "points": [
            {
                "assignment": dict(zip(m.space.variables, x)),
                "mass": mass_str(v),
            }
            for x, v in m.mass.items()
        ],
    }


def _key_text(key):
    """The text ``json.dumps`` writes for ``key`` as a dict key."""
    if isinstance(key, str):
        return json.dumps(key)
    return json.dumps({key: None})[1:-len(": null}")]


def _texts_by_identity(values):
    """``json.dumps`` of each value, once per distinct object.

    Keyed by identity: ``1``, ``True`` and ``1.0`` are equal but print
    differently.
    """
    ids = list(map(id, values))
    text = {i: json.dumps(v) for i, v in dict(zip(ids, values)).items()}
    return map(text.__getitem__, ids)


def object_json(fields):
    """``json.dumps`` of a dict with string keys, given each value's JSON text."""
    return "{" + ", ".join(f"{json.dumps(k)}: {text}" for k, text in fields.items()) + "}"


def measure_json(m):
    """``json.dumps(measure_to_dict(m))``, written a column at a time and
    formatted in one ``%`` pass over every cell's category texts and mass."""
    variables = m.space.variables
    head = json.dumps(
        {
            "variables": list(variables),
            "domains": {v: list(d) for v, d in zip(variables, m.space.domains)},
        }
    )
    # one %s per variable's category text, then the mass's float.__repr__
    fields = ", ".join(_key_text(v).replace("%", "%%") + ": %s" for v in variables)
    point = '{"assignment": {' + fields + '}, "mass": "%r"}'
    columns = [_texts_by_identity(c) for c in zip(*m.mass)]
    flat = tuple(itertools.chain.from_iterable(zip(*columns, m.mass.values())))
    points = ", ".join(itertools.repeat(point, len(m.mass))) % flat
    return f'{head[:-1]}, "points": [{points}]}}'


def measure_from_dict(obj):
    space = ProductSpace.from_domains(obj["variables"], obj["domains"])
    mass = {}
    for k, point in enumerate(obj["points"], start=1):
        x = space.as_tuple(point["assignment"])
        v = float(point["mass"])
        # checked per point: merging duplicates first could hide a negative mass
        if v < 0.0 or not math.isfinite(v):
            raise ValueError(f"point {k} {point!r}: mass must be finite and nonnegative")
        mass[x] = mass.get(x, 0.0) + v
    return DiscreteMeasure(space, mass)


def hdp_spec_to_dict(graph, nu, clique_bases):
    return {
        "graph": graph_to_dict(graph),
        "nu": float(nu),
        "clique_bases": [measure_to_dict(b) for b in clique_bases],
    }


def hdp_spec_json(graph, nu, clique_bases):
    """``json.dumps(hdp_spec_to_dict(graph, nu, clique_bases))``."""
    return object_json(
        {
            "graph": json.dumps(graph_to_dict(graph)),
            "nu": json.dumps(float(nu)),
            "clique_bases": "[" + ", ".join(map(measure_json, clique_bases)) + "]",
        }
    )


def hdp_spec_from_dict(obj):
    """Parse the raw pieces; validation happens when they are assembled."""
    graph = graph_from_dict(obj["graph"])
    nu = float(obj["nu"])
    bases = [measure_from_dict(b) for b in obj["clique_bases"]]
    return graph, nu, bases


def atoms_to_json_line(theta, seed, replicate):
    """One draw as a compact JSON line with reproducibility metadata.

    The same bytes as ``json.dumps`` of the whole record.  A discrete
    draw repeats few distinct atom objects, so each is encoded once.
    """
    if theta.space is None:
        atoms = json.dumps(theta.atoms)
    else:
        atoms = "[" + ", ".join(_texts_by_identity(theta.atoms)) + "]"
    return (
        f'{{"atoms": {atoms}, "weights": {json.dumps(theta.weights)}, '
        f'"residual": {json.dumps(theta.truncation_residual)}, '
        f'"seed": {json.dumps(seed)}, "replicate": {json.dumps(replicate)}}}'
    )


class _Fields(dict):
    """A JSON object of an input file: a key it lacks is a ValueError."""

    def __missing__(self, key):
        raise ValueError(f"input has no {key!r} key")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_Fields)


def _category_parser(domain, var):
    by_str = {}
    for cat in domain:
        key = str(cat)
        if key in by_str:
            raise ValueError(
                f"variable {var!r} has categories that collide as text: {key!r}"
            )
        by_str[key] = cat
    return by_str


def data_from_csv_text(text, space):
    """Observations from CSV with one column per variable.

    Cell text is matched against the string form of each category, so
    numeric and string categories both round trip.
    """
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None:
        raise ValueError("data CSV has no header row")
    missing = [v for v in space.variables if v not in reader.fieldnames]
    if missing:
        raise ValueError(f"data CSV is missing columns {missing!r}")
    parsers = {
        v: _category_parser(space.domain(v), v) for v in space.variables
    }
    rows = []
    for row in csv_records(reader, space.variables):
        values = []
        for v in space.variables:
            cell = row[v]
            if cell not in parsers[v]:
                raise ValueError(
                    f"line {reader.line_num}: value {cell!r} is not a category of {v!r}"
                )
            values.append(parsers[v][cell])
        rows.append(tuple(values))
    return rows


def csv_records(reader, columns):
    """The records of a ``csv.DictReader`` that reads ``columns``.

    A header that repeats one of ``columns``, or a record with more or
    fewer cells than the header, is an error.
    """
    names = reader.fieldnames
    for name in columns:
        if names.count(name) > 1:
            raise ValueError(f"line {reader.line_num}: the header repeats column {name!r}")
    for row in reader:
        if None in row or None in row.values():
            more = "more" if None in row else "fewer"
            raise ValueError(f"line {reader.line_num}: {more} cells than the header's {len(names)}")
        yield row


def load_data_csv(path, space):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return data_from_csv_text(fh.read(), space)


def likelihood_from_dict(obj, data_space, base_space):
    """Sparse likelihood table f(x | value); absent pairs mean zero."""
    table = {}
    for k, entry in enumerate(obj["entries"], start=1):
        x = data_space.as_tuple(entry["x"])
        pi = base_space.as_tuple(entry["pi"])
        prob = float(entry["prob"])
        if prob < 0.0 or not math.isfinite(prob):
            raise ValueError(f"likelihood entry {k} {entry!r}: prob must be finite and nonnegative")
        if (x, pi) in table:
            raise ValueError(f"likelihood entry {k} {entry!r}: its x and pi are listed twice")
        table[(x, pi)] = prob

    def f(x, pi):
        return table.get((tuple(x), tuple(pi)), 0.0)

    return f
