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

    def index(self, v):
        try:
            return self.vertices.index(v)
        except ValueError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def has_edge(self, u, v):
        i, j = self.index(u), self.index(v)
        if i == j:
            return False
        return (u, v) in self.edges if i < j else (v, u) in self.edges

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
        if u not in idx:
            raise UnknownVertex(f"edge endpoint {u!r} is not a declared vertex")
        if v not in idx:
            raise UnknownVertex(f"edge endpoint {v!r} is not a declared vertex")
        if u == v:
            continue
        norm.add((u, v) if idx[u] < idx[v] else (v, u))
    return Graph(verts, frozenset(norm))


def mcs_order(g):
    """Maximum cardinality search visit order (ties: lowest declaration index)."""
    adj = g.neighbors()
    weight = {v: 0 for v in g.vertices}
    remaining = set(g.vertices)
    order = []
    while remaining:
        z = max(remaining, key=lambda v: (weight[v], -g.index(v)))
        remaining.discard(z)
        order.append(z)
        for u in adj[z]:
            if u in remaining:
                weight[u] += 1
    return order


def _visited_cliques(g):
    """Each vertex with its visited neighbors, in search order, or None at
    the first such set that is not a clique, for then the graph is not
    chordal (Tarjan & Yannakakis 1984).  Components are swept in turn.
    """
    adj = g.neighbors()
    visited = set()
    sets = []
    for v in mcs_order(g):
        earlier = adj[v] & visited
        if any(not earlier <= adj[u] | {u} for u in earlier):
            return None
        sets.append(earlier | {v})
        visited.add(v)
    return sets


def is_decomposable(g):
    """True iff every cycle of four or more vertices has a chord."""
    return _visited_cliques(g) is not None


def is_connected(g):
    if not g.vertices:
        return False
    adj = g.neighbors()
    seen = {g.vertices[0]}
    stack = [g.vertices[0]]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == len(g.vertices)


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


def _junction_order(g, cliques):
    # Greedy maximum-weight attachment (weights are overlap sizes) builds a
    # junction tree for a connected chordal graph; the attachment order is
    # then a perfect ordering.  Ties fall to the lexicographically
    # smallest clique so the result is reproducible.
    chosen = [cliques[0]]
    rest = list(cliques[1:])
    while rest:
        def rank(c):
            w = max(len(set(c) & set(t)) for t in chosen)
            return (-w, tuple(g.index(v) for v in c))

        nxt = min(rest, key=rank)
        rest.remove(nxt)
        chosen.append(nxt)
    return chosen


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

    def key(vs):
        return tuple(sorted(vs, key=g.index))

    history = set(given[0])
    cliques_out = [given[0]]
    histories = [key(history)]
    separators = []
    residuals = []
    for k, c in enumerate(given[1:], start=2):
        cset = set(c)
        sep = cset & history
        if not any(sep <= set(prev) for prev in given[: k - 1]):
            raise ValueError(f"ordering is not perfect at clique {k}")
        residuals.append(key(cset - history))
        separators.append(key(sep))
        history |= cset
        cliques_out.append(c)
        histories.append(key(history))
    return CliqueDecomposition(
        vertices=tuple(v for v in g.vertices if v in history),
        cliques=tuple(cliques_out),
        separators=tuple(separators),
        histories=tuple(histories),
        residuals=tuple(residuals),
    )


def perfect_ordering(g):
    """Perfect ordering of the maximal cliques of a connected chordal graph."""
    if not g.vertices:
        raise NotConnected("graph has no vertices")
    cliques = maximal_cliques(g)
    if not is_connected(g):
        raise NotConnected("graph is not connected")
    return ordering_from_cliques(g, _junction_order(g, cliques))


def separates(g, a, b, c):
    """True iff every path from the set ``a`` to the set ``b`` meets ``c``."""
    aset, bset, cset = set(a), set(b), set(c)
    for v in aset | bset | cset:
        g.index(v)
    if not aset or not bset:
        raise ValueError("both endpoint sets must be nonempty")
    if aset & cset or bset & cset:
        raise ValueError("endpoint sets must be disjoint from the separating set")
    adj = g.neighbors()
    seen = set(aset)
    stack = list(aset)
    while stack:
        v = stack.pop()
        if v in bset:
            return False
        for u in adj[v]:
            if u not in seen and u not in cset:
                seen.add(u)
                stack.append(u)
    return True
