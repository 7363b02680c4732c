"""Undirected graphs, chordality, and perfect clique orderings.

Vertices keep their declaration order and every tie-break below uses
the lowest declaration index, so all outputs are deterministic
functions of the input.
"""

from __future__ import annotations

import itertools

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


def is_decomposable(g):
    """True iff every cycle of four or more vertices has a chord.

    Uses the classic search-order characterization: the graph is chordal
    exactly when each vertex's already-visited neighbors form a clique
    along the maximum cardinality search order.  Disconnected graphs are
    answered component by component by the same sweep.
    """
    adj = g.neighbors()
    order = mcs_order(g)
    pos = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        earlier = [u for u in adj[v] if pos[u] < i]
        for a, b in itertools.combinations(earlier, 2):
            if b not in adj[a]:
                return False
    return True


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
    """All maximal cliques as index-sorted tuples, in lexicographic order."""
    adj = g.neighbors()
    out = []

    def expand(grown, candidates, excluded):
        if not candidates and not excluded:
            out.append(tuple(sorted(grown, key=g.index)))
            return
        for v in sorted(candidates, key=g.index):
            expand(grown | {v}, candidates & adj[v], excluded & adj[v])
            candidates = candidates - {v}
            excluded = excluded | {v}

    expand(set(), set(g.vertices), set())
    return sorted(out, key=lambda c: tuple(g.index(v) for v in c))


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

    The cliques must be exactly the graph's maximal cliques and the order
    must be perfect: each clique's intersection with the history of
    earlier cliques has to sit inside one single earlier clique.
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
    if not is_decomposable(g):
        raise NotDecomposable("graph has a chordless cycle of length four or more")
    if not is_connected(g):
        raise NotConnected("graph is not connected")
    return ordering_from_cliques(g, _junction_order(g, maximal_cliques(g)))


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
