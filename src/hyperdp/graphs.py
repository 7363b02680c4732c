"""Undirected graphs, chordality, and perfect clique orderings.

One maximum cardinality search decides chordality and lists a chordal
graph's maximal cliques.  Every tie-break uses the lowest declaration
index, so all outputs are deterministic functions of the input.
"""

from __future__ import annotations

from ._record import record
from .errors import DuplicateVertex, NotConnected, NotDecomposable, UnknownVertex


@record
class Graph:
    """Loop-free undirected graph; edges stored as index-ordered pairs."""

    vertices: tuple
    edges: frozenset

    def __post_init__(self):
        # not a field; reversed so that, as in tuple.index, the first equal label wins
        index = {v: i for i, v in reversed(tuple(enumerate(self.vertices)))}
        object.__setattr__(self, "_vertex_index", index)

    def index(self, v):
        try:
            return self._vertex_index[v]
        except (KeyError, TypeError):
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def neighbors(self):
        adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def sorted_edges(self):
        return sorted(self.edges, key=lambda e: (self.index(e[0]), self.index(e[1])))


@record
class CliqueDecomposition:
    """A perfect ordering of the maximal cliques with its derived sets.

    ``separators[k]`` and ``residuals[k]`` pair with ``cliques[k + 1]``;
    ``histories[k]`` is the union of the first k + 1 cliques.  All vertex
    tuples are sorted by declaration index.
    """

    vertices: tuple
    cliques: tuple
    separators: tuple
    histories: tuple
    residuals: tuple


def build_graph(vertices, edges):
    """Validated graph; duplicate edges collapse, self-loops are dropped."""
    verts = tuple(vertices)
    if len(set(verts)) != len(verts):
        raise DuplicateVertex("vertex labels must be distinct")
    idx = {v: i for i, v in enumerate(verts)}
    norm = set()
    for u, v in edges:
        for w in (u, v):
            if w not in idx:
                raise UnknownVertex(f"edge endpoint {w!r} is not a declared vertex")
        if u == v:
            continue
        norm.add((u, v) if idx[u] < idx[v] else (v, u))
    return Graph(verts, frozenset(norm))


def mcs_order(g):
    """Maximum cardinality search visit order (ties: lowest declaration index)."""
    adj = g.neighbors()
    weight = dict.fromkeys(g.vertices, 0)  # declaration order: max keeps the first of equals
    order = []
    while weight:
        z = max(weight, key=weight.__getitem__)
        del weight[z]
        order.append(z)
        for u in adj[z]:
            if u in weight:
                weight[u] += 1
    return order


def _visited_cliques(g):
    """Each vertex with its visited neighbors, in search order, or None at
    the first such set that is not a clique, for then the graph is not
    chordal.  Each set is tested against its last-visited member only
    (Tarjan & Yannakakis 1984).  Components are swept in turn.
    """
    adj = g.neighbors()
    visited = {}  # vertex -> visit position
    sets = []
    for v in mcs_order(g):
        earlier = adj[v] & visited.keys()
        last = max(earlier, key=visited.__getitem__, default=v)
        if not earlier - {last} <= adj[last]:
            return None
        sets.append(earlier | {v})
        visited[v] = len(visited)
    return sets


def is_decomposable(g):
    """True iff every cycle of four or more vertices has a chord."""
    return _visited_cliques(g) is not None


def _reachable(g, start):
    """``start`` and every vertex a path from it reaches."""
    adj = g.neighbors()
    seen = frontier = set(start)
    while frontier:
        frontier = {u for v in frontier for u in adj[v]} - seen
        seen |= frontier
    return seen


def is_connected(g):
    return bool(g.vertices) and len(_reachable(g, g.vertices[:1])) == len(g.vertices)


def maximal_cliques(g):
    """Maximal cliques of a chordal graph as index-sorted tuples, in
    lexicographic order (``[()]`` for no vertices).  A visited set is
    maximal unless the next one is larger (Blair & Peyton 1993).
    """
    sets = _visited_cliques(g)
    if sets is None:
        raise NotDecomposable("graph has a chordless cycle of length four or more")
    maximal = [c for c, nxt in zip(sets, sets[1:] + [()]) if len(nxt) <= len(c)]
    out = [tuple(sorted(c, key=g.index)) for c in maximal]
    return sorted(out, key=lambda c: tuple(g.index(v) for v in c)) or [()]


def _junction_order(cliques):
    # Prim's maximum-weight spanning tree over overlap sizes is a junction tree of
    # a connected chordal graph, attached in perfect order.  ``best`` maps each
    # unplaced clique to its largest overlap with a placed one, in the given
    # lexicographic order, so ties fall to the smallest clique.
    sets = [set(c) for c in cliques]
    best = dict.fromkeys(range(1, len(cliques)), 0)
    order = [0]
    while best:
        last = sets[order[-1]]
        for j in best:
            best[j] = max(best[j], len(sets[j] & last))
        nxt = max(best, key=best.__getitem__)
        del best[nxt]
        order.append(nxt)
    return [cliques[j] for j in order]


def ordering_from_cliques(g, cliques):
    """Decomposition built from an explicit clique order.

    The graph must be chordal, the cliques exactly its maximal cliques,
    and the order perfect: each clique's intersection with the history
    of earlier cliques has to sit inside one single earlier clique.
    """
    given = [tuple(sorted(c, key=g.index)) for c in cliques]
    expected = set(maximal_cliques(g))
    if len(given) != len(expected) or set(given) != expected:
        raise ValueError("cliques must be exactly the graph's maximal cliques")
    return _decomposition(g, given)


def _decomposition(g, given):
    """Decomposition of the index-sorted maximal cliques in a perfect order."""

    def key(vs):
        return tuple(sorted(vs, key=g.index))

    sets = [set(c) for c in given]
    history = set(given[0])
    histories = [key(history)]
    separators, residuals = [], []
    for k, cset in enumerate(sets[1:], start=2):
        sep = cset & history
        if not any(sep <= prev for prev in sets[: k - 1]):
            raise ValueError(f"ordering is not perfect at clique {k}")
        residuals.append(key(cset - history))
        separators.append(key(sep))
        history |= cset
        histories.append(key(history))
    vertices = tuple(v for v in g.vertices if v in history)
    return CliqueDecomposition(
        vertices, tuple(given), tuple(separators), tuple(histories), tuple(residuals)
    )


def perfect_ordering(g):
    """Perfect ordering of the maximal cliques of a connected chordal graph."""
    if not g.vertices:
        raise NotConnected("graph has no vertices")
    cliques = maximal_cliques(g)
    if not is_connected(g):
        raise NotConnected("graph is not connected")
    return _decomposition(g, _junction_order(cliques))
