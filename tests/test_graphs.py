import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdp import (
    DuplicateVertex,
    NotConnected,
    NotDecomposable,
    UnknownVertex,
    build_graph,
    is_connected,
    is_decomposable,
    maximal_cliques,
    mcs_order,
    ordering_from_cliques,
    perfect_ordering,
    separates,
)
from hyperdp import graphs

from conftest import (
    all_graphs,
    bron_kerbosch_cliques,
    chordal_graphs,
    ranked_junction_order,
    scan_mcs_order,
    walk_is_connected,
    walk_separates,
)


# ---------------------------------------------------------------- oracles


def oracle_chordal(g):
    """Brute force: no cycle of length >= 4 without a chord.

    Enumerates every vertex subset of size >= 4 and every cyclic
    arrangement of it; independent of the search-order implementation.
    """
    adj = g.neighbors()
    verts = list(g.vertices)
    for k in range(4, len(verts) + 1):
        for subset in itertools.combinations(verts, k):
            first, rest = subset[0], subset[1:]
            for perm in itertools.permutations(rest):
                cycle = (first,) + perm
                ok = all(
                    cycle[(i + 1) % k] in adj[cycle[i]] for i in range(k)
                )
                if not ok:
                    continue
                chord = any(
                    cycle[j] in adj[cycle[i]]
                    for i in range(k)
                    for j in range(i + 2, k)
                    if not (i == 0 and j == k - 1)
                )
                if not chord:
                    return False
    return True


def oracle_maximal_cliques(g):
    adj = g.neighbors()
    verts = list(g.vertices)
    complete = []
    for k in range(1, len(verts) + 1):
        for subset in itertools.combinations(verts, k):
            if all(b in adj[a] for a, b in itertools.combinations(subset, 2)):
                complete.append(set(subset))
    return {
        frozenset(c)
        for c in complete
        if not any(c < other for other in complete)
    }


def oracle_paths_avoid(g, start, goals, blocked):
    """Path existence by exhaustive depth-first enumeration."""
    adj = g.neighbors()
    goals = set(goals)
    blocked = set(blocked)

    def walk(v, visited):
        if v in goals:
            return True
        return any(
            walk(u, visited | {u})
            for u in adj[v]
            if u not in visited and u not in blocked
        )

    return any(walk(s, {s}) for s in start if s not in blocked)


def assert_valid_decomposition(g, decomp):
    """Re-derive every invariant of a perfect ordering from scratch."""
    assert set(decomp.cliques) == set(maximal_cliques(g))
    assert oracle_maximal_cliques(g) == {frozenset(c) for c in decomp.cliques}
    history = set(decomp.cliques[0])
    assert set(decomp.histories[0]) == history
    for k, clique in enumerate(decomp.cliques[1:], start=1):
        cset = set(clique)
        sep = cset & history
        assert set(decomp.separators[k - 1]) == sep
        assert set(decomp.residuals[k - 1]) == cset - history
        assert any(sep <= set(prev) for prev in decomp.cliques[:k])
        history |= cset
        assert set(decomp.histories[k]) == history
    assert history == set(decomp.vertices) == set(g.vertices)
    for vs in decomp.cliques + decomp.histories:
        assert list(vs) == sorted(vs, key=g.index)


# ---------------------------------------------------------- construction


def test_build_graph_normalizes_edges():
    g = build_graph(("a", "b", "c"), [("b", "a"), ("a", "b"), ("c", "c")])
    assert g.edges == frozenset({("a", "b")})
    assert g.has_edge("b", "a")
    assert not g.has_edge("a", "c")


def test_index_behaves_like_tuple_index():
    g = build_graph((0, 1, "a", None), [(0, 1), (1, "a")])
    for label in (0, 1, "a", None, 1.0, True, False, 0.0):
        assert g.index(label) == g.vertices.index(label)
    for label in ("b", 2, "1", [1], {"a": 1}):  # unknown, then unhashable
        with pytest.raises(UnknownVertex, match="^unknown vertex "):
            g.index(label)
    # a graph built without build_graph may repeat a label: the first index wins
    twice = graphs.Graph((1, 2, 1.0), frozenset())
    assert twice.index(1.0) == twice.index(1) == twice.vertices.index(1.0) == 0


def test_build_graph_rejects_duplicates_and_strays():
    with pytest.raises(DuplicateVertex):
        build_graph(("a", "a"), [])
    with pytest.raises(UnknownVertex):
        build_graph(("a", "b"), [("a", "z")])


def test_single_vertex_is_trivially_fine():
    g = build_graph(("A",), [])
    assert is_decomposable(g)
    d = perfect_ordering(g)
    assert d.cliques == (("A",),)
    assert d.separators == ()


# --------------------------------------------------------- decomposability


def test_triangle_and_small_examples():
    tri = build_graph((1, 2, 3), [(1, 2), (2, 3), (1, 3)])
    assert is_decomposable(tri)
    four_cycle = build_graph((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4), (4, 1)])
    assert not is_decomposable(four_cycle)
    chorded = build_graph((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    assert is_decomposable(chorded)


def test_decomposability_answers_for_disconnected_inputs():
    g = build_graph((1, 2, 3, 4, 5, 6, 7, 8), [(1, 2), (5, 6), (6, 7), (7, 8), (8, 5)])
    assert not is_decomposable(g)  # the second component is a chordless square
    g2 = build_graph((1, 2, 3, 4), [(1, 2), (3, 4)])
    assert is_decomposable(g2)
    assert not is_connected(g2)


def test_exhaustive_four_vertex_against_oracle():
    for g in all_graphs(4):
        assert is_decomposable(g) == oracle_chordal(g)


def test_exhaustive_five_vertex_against_oracle():
    # the search tests each visited set against its last-visited member only
    for g in all_graphs(5):
        chordal = oracle_chordal(g)
        assert is_decomposable(g) == chordal
        assert is_decomposable(build_graph(g.vertices[::-1], g.edges)) == chordal


@settings(max_examples=60, deadline=None)
@given(st.lists(st.booleans(), min_size=15, max_size=15))
def test_random_six_vertex_against_oracle(bits):
    pairs = list(itertools.combinations(range(6), 2))
    g = build_graph(tuple(range(6)), [p for p, b in zip(pairs, bits) if b])
    assert is_decomposable(g) == oracle_chordal(g)


# --------------------------------------------------------- perfect ordering


def test_path_graph_ordering(path_graph):
    d = perfect_ordering(path_graph)
    assert d.cliques == (("I", "J"), ("J", "K"))
    assert d.separators == (("J",),)
    assert d.residuals == (("K",),)
    assert d.histories == (("I", "J"), ("I", "J", "K"))
    assert_valid_decomposition(path_graph, d)


def test_chorded_square_ordering():
    g = build_graph((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
    d = perfect_ordering(g)
    assert d.cliques == ((1, 2, 3), (1, 3, 4))
    assert d.separators == ((1, 3),)
    assert_valid_decomposition(g, d)


def test_complete_graph_single_clique():
    g = build_graph(("A", "B", "C"), [("A", "B"), ("B", "C"), ("A", "C")])
    d = perfect_ordering(g)
    assert d.cliques == (("A", "B", "C"),)
    assert d.separators == () and d.residuals == ()


def test_perfect_ordering_rejects_bad_graphs():
    with pytest.raises(NotDecomposable):
        perfect_ordering(build_graph((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4), (4, 1)]))
    with pytest.raises(NotConnected):
        perfect_ordering(build_graph((1, 2, 3), [(1, 2)]))


def test_perfect_ordering_is_deterministic():
    g = build_graph(
        tuple("abcdef"),
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e"), ("e", "f")],
    )
    first = perfect_ordering(g)
    for _ in range(5):
        assert perfect_ordering(g) == first
    assert_valid_decomposition(g, first)


def test_random_chordal_graphs_yield_valid_decompositions():
    rng = np.random.default_rng(20260814)
    found = 0
    while found < 40:
        n = int(rng.integers(2, 7))
        verts = tuple(range(n))
        pairs = list(itertools.combinations(verts, 2))
        edges = [p for p in pairs if rng.random() < 0.55]
        g = build_graph(verts, edges)
        if not (is_decomposable(g) and is_connected(g)):
            continue
        found += 1
        assert_valid_decomposition(g, perfect_ordering(g))


def test_ordering_from_explicit_cliques_chain():
    g = build_graph(("I", "J", "K", "L"), [("I", "J"), ("J", "K"), ("K", "L")])
    cliques = maximal_cliques(g)
    forward = ordering_from_cliques(g, cliques)
    backward = ordering_from_cliques(g, cliques[::-1])
    assert_valid_decomposition(g, forward)
    assert_valid_decomposition(g, backward)
    with pytest.raises(ValueError):
        # the middle clique cannot come after both ends have been placed
        ordering_from_cliques(g, (cliques[0], cliques[2], cliques[1]))
    with pytest.raises(ValueError):
        ordering_from_cliques(g, (cliques[0], cliques[1]))


@settings(max_examples=300, deadline=None)
@given(chordal_graphs(), st.data())
def test_clique_sweep_matches_bron_kerbosch(g, data):
    """The graph layer against the oracles it replaced, on chordal graphs
    whose declaration order is permuted."""
    assert mcs_order(g) == scan_mcs_order(g)
    oracle = bron_kerbosch_cliques(g)
    assert is_decomposable(g)
    assert maximal_cliques(g) == oracle
    assert is_connected(g) == walk_is_connected(g)
    if is_connected(g):
        got = perfect_ordering(g)
        want = ordering_from_cliques(g, ranked_junction_order(g, oracle))
        for field in ("vertices", "cliques", "separators", "histories", "residuals"):
            assert getattr(got, field) == getattr(want, field)
    # each vertex goes to a, b, c or none of them
    n = len(g.vertices)
    roles = data.draw(st.lists(st.sampled_from("abc-"), min_size=n, max_size=n))
    a, b, c = ({v for v, r in zip(g.vertices, roles) if r == role} for role in "abc")
    if a and b:
        assert separates(g, a, b, c) == walk_separates(g, a, b, c)


def test_perfect_ordering_runs_one_search(monkeypatch):
    calls = []
    search = graphs.mcs_order
    monkeypatch.setattr(graphs, "mcs_order", lambda g: calls.append(g) or search(g))
    g = build_graph(
        tuple("abcdef"),
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("e", "f"), ("d", "e")],
    )
    perfect_ordering(g)
    assert calls == [g]


def test_forty_vertex_complete_graph_is_one_clique():
    verts = tuple(range(40))[::-1]
    d = perfect_ordering(build_graph(verts, itertools.combinations(verts, 2)))
    assert d.cliques == d.histories == (verts,)
    assert d.separators == d.residuals == ()


def test_graph_without_vertices_has_one_empty_clique():
    assert maximal_cliques(build_graph((), [])) == [()]


def test_cliques_of_a_chordless_square_are_refused():
    square = build_graph((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4), (4, 1)])
    message = "^graph has a chordless cycle of length four or more$"
    with pytest.raises(NotDecomposable, match=message):
        maximal_cliques(square)
    with pytest.raises(NotDecomposable, match=message):
        ordering_from_cliques(square, [(1, 2), (2, 3), (3, 4), (1, 4)])


def test_mcs_breaks_ties_by_declaration_order():
    g = build_graph(("x", "y", "z"), [("x", "y"), ("y", "z")])
    assert mcs_order(g) == ["x", "y", "z"]
    g2 = build_graph(("z", "y", "x"), [("x", "y"), ("y", "z")])
    assert mcs_order(g2) == ["z", "y", "x"]


# ----------------------------------------------------------------- separation


def test_separates_examples(path_graph):
    assert separates(path_graph, {"I"}, {"K"}, {"J"})
    assert not separates(path_graph, {"I"}, {"K"}, set())


def test_separates_validation(path_graph):
    with pytest.raises(ValueError):
        separates(path_graph, set(), {"K"}, {"J"})
    with pytest.raises(ValueError):
        separates(path_graph, {"I", "J"}, {"K"}, {"J"})
    with pytest.raises(UnknownVertex):
        separates(path_graph, {"Q"}, {"K"}, {"J"})


def test_separates_agrees_with_path_enumeration():
    rng = np.random.default_rng(7)
    pairs5 = list(itertools.combinations(range(5), 2))
    for _ in range(25):
        edges = [p for p in pairs5 if rng.random() < 0.5]
        g = build_graph(tuple(range(5)), edges)
        verts = set(g.vertices)
        for a, b in itertools.combinations(sorted(verts), 2):
            others = sorted(verts - {a, b})
            for k in range(len(others) + 1):
                for c in itertools.combinations(others, k):
                    expected = not oracle_paths_avoid(g, {a}, {b}, set(c))
                    assert separates(g, {a}, {b}, set(c)) == expected


def test_separation_is_monotone_in_the_blocking_set():
    # once a set separates, any superset (still disjoint from A, B) does too
    g = build_graph(tuple(range(6)), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)])
    a, b = {0}, {5}
    others = sorted(set(g.vertices) - a - b)
    for k in range(len(others) + 1):
        for c in itertools.combinations(others, k):
            if not separates(g, a, b, set(c)):
                continue
            for extra in others:
                if extra in c:
                    continue
                assert separates(g, a, b, set(c) | {extra})
