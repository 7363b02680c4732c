"""JSON and CSV interchange for graphs, measures, and samples.

Masses travel as decimal strings produced by ``repr`` on the float, so
a serialize/parse round trip is bit exact on any platform.  All emitted
key orders are fixed by construction, which keeps byte-level output
deterministic.

``measure_json`` writes every measure the command line prints and
``measure_from_dict`` reads one back from its parsed JSON;
``read_csv_columns`` parses every data CSV, with LF, CRLF or CR line endings.
"""

from __future__ import annotations

import csv
import itertools
import json
import math


def graph_to_dict(g):
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.sorted_edges()],
    }


def graph_from_dict(obj):
    from .graphs import build_graph  # here, so that a command that reads no graph skips it

    vertices = _array(obj["vertices"], "vertices")
    _refuse_infinite(vertices, "the graph's vertex list")
    edges = _array(obj["edges"], "edges")
    return build_graph(vertices, [tuple(_array(e, "edge {}", k)) for k, e in enumerate(edges, 1)])


def decomposition_to_dict(decomp):
    return {
        "cliques": [list(c) for c in decomp.cliques],
        "separators": [list(s) for s in decomp.separators],
        "histories": [list(h) for h in decomp.histories],
        "residuals": [list(r) for r in decomp.residuals],
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
    """The JSON object of ``m``: its ``variables``, its ``domains``, and a
    ``points`` list of each cell's ``assignment`` object and its ``mass`` as
    the float's ``repr``, in cell order, with the bytes ``json.dumps`` writes.
    It is written a column at a time and formatted in one ``%`` pass over
    every cell's category texts and mass."""
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
    # str(int) is json.dumps(int); bool and other int subclasses print otherwise
    columns = [c if set(map(type, c)) == {int} else _texts_by_identity(c) for c in zip(*m.mass)]
    flat = tuple(itertools.chain.from_iterable(zip(*columns, m.mass.values())))
    points = ", ".join(itertools.repeat(point, len(m.mass))) % flat
    return f'{head[:-1]}, "points": [{points}]}}'


def measure_from_dict(obj):
    """The measure of a parsed ``measure_json`` object; repeated points add up.

    The points are read a column at a time (``_columnar_cells``), and
    ``DiscreteMeasure``'s columnar check takes their categories and
    masses.  The per-point loop ``_point_cells`` runs only when either
    rejects a point or a point is repeated, so an error names the first
    bad point and repeated points merge in first-seen order.
    """
    from .measures import DiscreteMeasure, ProductSpace  # here, as check-graph reads no measure

    variables, domains = _array(obj["variables"], "variables"), obj["domains"]
    domains = {v: _array(domains[v], "the domain of {!r}", v) for v in variables}
    space = ProductSpace.from_domains(variables, domains)
    for var, domain in zip(space.variables, space.domains):
        _refuse_infinite(domain, f"the domain of {var!r}")
    points = _array(obj["points"], "points")
    cells = _columnar_cells(space, points)
    if cells is not None:
        try:
            return DiscreteMeasure(space, cells)
        except ValueError:  # a category off its domain, a mass negative or not finite
            pass
    return DiscreteMeasure(space, _point_cells(space, points))


def _columnar_cells(space, points):
    """``{assignment tuple: float mass}`` of ``points``, or None unless each
    is a JSON object whose mass ``float`` reads and whose assignment is an
    object naming each variable once, and no two name the same assignment."""
    from .measures import _projector

    try:
        assignments = [p["assignment"] for p in points]
        column = [p["mass"] for p in points]
        masses = list(map(float, column))
    except (KeyError, TypeError, ValueError, ArithmeticError):
        return None
    if bool in set(map(type, column)):  # float takes JSON's true and false
        return None
    if not set(map(type, assignments)) <= {dict, _Fields}:
        return None
    if not set(map(len, assignments)) <= {len(space.variables)}:
        return None
    try:
        keys = list(map(_projector(space.variables), assignments))
        cells = dict(zip(keys, masses))
    except (KeyError, TypeError, ValueError):  # a variable missing, a category unhashable
        return None
    return cells if len(cells) == len(keys) else None


def _refuse_infinite(values, owner):
    """Refuse a float that is not finite, as JSON has no such number."""
    bad = [v for v in values if isinstance(v, float) and not math.isfinite(v)]
    if bad:
        raise ValueError(f"{owner} has {bad[0]!r}, which is not a finite number")


def _array(value, field, *args):
    """``value`` if it is a JSON array, or a tuple from a Python caller.  A
    string or an object there would be read as its characters or its keys, so
    anything else is a ValueError that names the field, ``field.format(*args)``,
    formatted only then."""
    if type(value) in (list, tuple):
        return value
    raise ValueError(f"{field.format(*args)} must be a JSON array")


def _number(value, field, *args):
    """``float(value)``; a JSON ``true`` or ``false`` is a ValueError that names
    the field, ``field.format(*args)``, formatted only then."""
    if isinstance(value, bool):
        field = field.format(*args)
        raise ValueError(f"{field} is the JSON boolean {json.dumps(value)}, not a number")
    return float(value)


def _point_cells(space, points):
    """``points`` checked one by one, so that an error names the first bad
    point; repeated assignments are merged in first-seen order."""
    mass = {}
    for k, point in enumerate(points, start=1):
        x = point["assignment"]
        if not isinstance(x, dict):
            raise ValueError(f"point {k} {point!r}: the assignment must be a JSON object")
        x = space.as_tuple(x)
        v = _number(point["mass"], "point {} {!r}: mass", k, point)
        # checked per point: merging duplicates first could hide a negative mass
        if v < 0.0 or not math.isfinite(v):
            raise ValueError(f"point {k} {point!r}: mass must be finite and nonnegative")
        mass[x] = mass.get(x, 0.0) + v
    return mass


def hdp_spec_json(graph, nu, clique_bases):
    """The JSON object of a spec: its ``graph`` as ``graph_to_dict``, ``nu``
    as a float and its ``clique_bases`` as ``measure_json`` objects, with the
    bytes ``json.dumps`` writes."""
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
    nu = _number(obj["nu"], "nu")
    bases = [measure_from_dict(b) for b in _array(obj["clique_bases"], "clique_bases")]
    return graph, nu, bases


class _Fields(dict):
    """A JSON object of an input file: a key it lacks is a ValueError."""

    def __missing__(self, key):
        raise ValueError(f"input has no {key!r} key")


def _input_object(pairs):
    """The ``_Fields`` of one object's key-value pairs.  A key listed twice
    is a ValueError that names it; an object without one costs a single
    length comparison."""
    obj = _Fields(pairs)
    if len(obj) != len(pairs):
        keys = [k for k, _ in pairs]
        repeated = next(k for i, k in enumerate(keys) if k in keys[:i])
        raise ValueError(f"input repeats the key {repeated!r}")
    return obj


def _refuse_constant(name):
    """``parse_constant`` of every input: ``json.load`` takes ``NaN`` and ``Infinity``."""
    raise ValueError(f"input has {name}, which is not a JSON number")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_input_object, parse_constant=_refuse_constant)


def _category_parser(domain, var):
    by_str = {}
    for cat in domain:
        key = str(cat)
        if key in by_str:
            raise ValueError(
                f"variable {var!r} has categories that collide as text: {key!r}"
            )
        by_str[key] = cat

    def parse(cell):
        if cell in by_str:
            return by_str[cell]
        raise ValueError(f"value {cell!r} is not a category of {var!r}")

    return parse


def read_csv_columns(fh, columns, parsers):
    """The records of the CSV file ``fh`` (opened with ``newline=""``), each the tuple
    of its ``columns`` cells passed through their ``parsers``, which are read once
    the header names every column.  Each distinct row is parsed once, at its first
    line, and its record shared.  Blank lines are skipped but counted; a parser's
    ValueError and a ``csv.Error`` become a ValueError that starts ``line N: ``."""
    rows = csv.reader(fh)
    try:
        header = next(rows, None)
        if header is None:
            raise ValueError("data CSV has no header row")
        missing = [c for c in columns if c not in header]
        if missing:
            raise ValueError(f"data CSV is missing columns {missing!r}")
        fields = list(zip(parsers, map(header.index, columns)))
        for c in columns:
            if header.count(c) > 1:
                raise ValueError(f"line {rows.line_num}: the header repeats column {c!r}")
        width, records, parsed = len(header), [], {}
        for row in filter(None, rows):
            if len(row) != width:
                more = "more" if len(row) > width else "fewer"
                raise ValueError(f"line {rows.line_num}: {more} cells than the header's {width}")
            text = tuple(row)
            record = parsed.get(text)
            if record is None:
                try:
                    record = parsed[text] = tuple([parse(row[i]) for parse, i in fields])
                except ValueError as exc:
                    raise ValueError(f"line {rows.line_num}: {exc}") from None
            records.append(record)
    except csv.Error as exc:
        raise ValueError(f"line {rows.line_num}: {exc}") from None
    return records


def load_csv_columns(path, columns, parsers):
    """``read_csv_columns`` of the file at ``path``, without a UTF-8 byte-order mark."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return read_csv_columns(fh, columns, parsers)


def load_data_csv(path, space):
    parsers = map(_category_parser, space.domains, space.variables)
    return load_csv_columns(path, space.variables, parsers)


def write_text(path, text):
    """Write ``text`` to the file at ``path`` in UTF-8, its line ends as they are."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def likelihood_from_dict(obj, data_space, base_space):
    """Sparse likelihood table f(x | value); absent pairs mean zero."""
    table = {}
    for k, entry in enumerate(_array(obj["entries"], "entries"), start=1):
        x, pi = entry["x"], entry["pi"]
        if not (isinstance(x, dict) and isinstance(pi, dict)):
            raise ValueError(f"likelihood entry {k} {entry!r}: x and pi must be JSON objects")
        x = data_space.as_tuple(x)
        pi = base_space.as_tuple(pi)
        prob = _number(entry["prob"], "likelihood entry {} {!r}: prob", k, entry)
        if prob < 0.0 or not math.isfinite(prob):
            raise ValueError(f"likelihood entry {k} {entry!r}: prob must be finite and nonnegative")
        if (x, pi) in table:
            raise ValueError(f"likelihood entry {k} {entry!r}: its x and pi are listed twice")
        table[(x, pi)] = prob

    def f(x, pi):
        return table.get((tuple(x), tuple(pi)), 0.0)

    return f
