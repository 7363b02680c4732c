import bisect
import csv
import functools
import itertools
import math

import pytest
from hypothesis import strategies as st

from hyperdp import (
    DiscreteMeasure,
    DomainMismatch,
    DPParams,
    Inconsistent,
    NotMarkov,
    ObservationViolatesSupport,
    ProductSpace,
    RefinementViolated,
    UnknownVariable,
    WeightedAtoms,
    ZeroConditional,
    ZeroMass,
    build_graph,
    build_hdp,
    graph_to_dict,
    marginalize,
    normalize,
    perfect_ordering,
)
from hyperdp.algebra import (
    _check_tol,
    _sup_gap,
    _union_space,
    is_consistent,
    markov_combination,
)
from hyperdp.dp import _counted, _posterior, _tally
from hyperdp.errors import OutsideDomain
from hyperdp.hdp import HDPSpec, RefinementReport, SeparatorCheck, check_refinement
from hyperdp.measures import CONSISTENCY_TOL
from hyperdp.rng import stream


@pytest.fixture
def path_graph():
    return build_graph(("I", "J", "K"), [("I", "J"), ("J", "K")])


@pytest.fixture
def path_decomp(path_graph):
    return perfect_ordering(path_graph)


@pytest.fixture
def space_ij():
    return ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})


@pytest.fixture
def space_jk():
    return ProductSpace.from_domains(("J", "K"), {"J": (0, 1), "K": (0, 1)})


@pytest.fixture
def space_ijk():
    return ProductSpace.from_domains(
        ("I", "J", "K"), {"I": (0, 1), "J": (0, 1), "K": (0, 1)}
    )


@pytest.fixture
def uniform_ij(space_ij):
    return DiscreteMeasure(space_ij, {x: 0.25 for x in space_ij.assignments()})


@pytest.fixture
def copy_jk(space_jk):
    # K repeats J, so the J-value pins down the whole clique
    return DiscreteMeasure(space_jk, {(0, 0): 0.5, (1, 1): 0.5})


def random_joint(rng, variables, domain_sizes):
    """A strictly positive random measure on the given product space."""
    space = ProductSpace.from_domains(
        tuple(variables),
        {v: tuple(range(k)) for v, k in zip(variables, domain_sizes)},
    )
    mass = {x: float(rng.uniform(0.1, 1.0)) for x in space.assignments()}
    return DiscreteMeasure(space, mass)


def all_graphs(n):
    """Every labeled graph on vertices 0..n-1."""
    verts = tuple(range(n))
    pairs = list(itertools.combinations(verts, 2))
    for bits in itertools.product((False, True), repeat=len(pairs)):
        edges = [p for p, b in zip(pairs, bits) if b]
        yield build_graph(verts, edges)


def bron_kerbosch_cliques(g):
    """Oracle for ``graphs.maximal_cliques``: the unpivoted Bron-Kerbosch
    recursion, exponential on one big clique but valid on any graph."""
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


def scan_mcs_order(g):
    """Oracle for ``graphs.mcs_order``: each step scans every remaining
    vertex and ranks it by ``(weight, -declaration index)``."""
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


def ranked_junction_order(g, cliques):
    """Oracle for ``graphs._junction_order``: each step ranks every
    remaining clique against every chosen one."""
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


def walk_is_connected(g):
    """Oracle for ``graphs.is_connected``: a depth-first walk from the
    first declared vertex."""
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


@st.composite
def chordal_graphs(draw, max_vertices=30, max_clique=10):
    """Random chordal graphs, disconnected ones included.

    Each new vertex joins a random subset (of at most ``max_clique - 1``
    vertices) of the clique that one earlier vertex formed with its
    earlier neighbors, or of none; read backwards, the insertion order
    is a perfect elimination ordering.  The labels and the declaration
    order are permuted.
    """
    n = draw(st.integers(1, max_vertices))
    cliques, edges = [], []
    for v in range(n):
        base = draw(st.sampled_from([()] + cliques))
        bits = draw(st.lists(st.booleans(), min_size=len(base), max_size=len(base)))
        joined = tuple(u for u, b in zip(base, bits) if b)[: max_clique - 1]
        edges += [(u, v) for u in joined]
        cliques.append(joined + (v,))
    label = draw(st.permutations(range(n)))
    declared = draw(st.permutations(label))
    return build_graph(declared, [(label[u], label[v]) for u, v in edges])


def exact_partition_law(data, likelihood, a, base):
    """Posterior over label patterns by brute enumeration of value vectors.

    Feasible only for tiny problems: the sum runs over |support| ** n
    latent vectors, scoring each by the sequential urn prior times the
    likelihood, then aggregating vectors into first-appearance label
    patterns.
    """
    support = list(base.mass)
    out = {}
    for vec in itertools.product(support, repeat=len(data)):
        weight = 1.0
        for i, v in enumerate(vec):
            repeats = sum(1 for w in vec[:i] if w == v)
            weight *= (a * base.mass_at(v) + repeats) / (a + i)
        for x, v in zip(data, vec):
            weight *= likelihood(x, v)
        labels = {}
        pattern = tuple(labels.setdefault(v, len(labels)) for v in vec)
        out[pattern] = out.get(pattern, 0.0) + weight
    total = sum(out.values())
    return {k: v / total for k, v in out.items() if v > 0.0}


def dense_is_markov(theta, decomp, tol=CONSISTENCY_TOL):
    """Oracle for ``is_markov`` that walks every full assignment.

    Checks, for every full assignment, that the product of clique
    marginals equals the measure times the product of separator
    marginals, up to ``tol`` in absolute terms.  Its cost grows with the
    whole product space, so it only suits small spaces.
    """
    if set(theta.space.variables) != set(decomp.vertices):
        raise DomainMismatch(
            "measure variables do not match the decomposition's vertex set"
        )
    if not theta.is_probability():
        raise ValueError("a probability measure is required")

    def projector(vars_):
        sub = [theta.space.index(v) for v in theta.space.variables if v in set(vars_)]
        return tuple(sub)

    clique_idx = [projector(c) for c in decomp.cliques]
    sep_idx = [projector(s) for s in decomp.separators]
    clique_mass = [marginalize(theta, c).mass for c in decomp.cliques]
    sep_mass = [marginalize(theta, s).mass for s in decomp.separators]
    for x in theta.space.assignments():
        lhs = theta.mass.get(x, 0.0)
        for idx, mass in zip(sep_idx, sep_mass):
            lhs *= mass.get(tuple(x[i] for i in idx), 0.0)
        rhs = 1.0
        for idx, mass in zip(clique_idx, clique_mass):
            rhs *= mass.get(tuple(x[i] for i in idx), 0.0)
        if abs(lhs - rhs) > tol:
            return False
    return True


# The O(n) recount step that ``gibbs_chain`` replaced with running counts,
# and the key-based weights and draw that it replaced with support positions.


def _urn_weights(x, counts, likelihood, a, base):
    """Candidate values and their unnormalized weights for observation ``x``.

    ``counts`` maps each value held by the other observations to how
    many hold it.  Candidates are the base's support in its order, then
    the counted values off the support.
    """
    candidates = list(base.mass)
    for key in counts:
        if key not in base.mass:
            candidates.append(key)
    weights = []
    for cand in candidates:
        predictive = a * base.mass.get(cand, 0.0) + counts.get(cand, 0.0)
        weights.append(predictive * float(likelihood(x, cand)))
    return candidates, weights


def _draw_candidate(candidates, weights, rng):
    for cand, w in zip(candidates, weights):
        if not 0.0 <= w < math.inf:
            raise ValueError(
                f"candidate value {cand!r} has weight {w!r}; the likelihood must "
                "give finite nonnegative values"
            )
    total = math.fsum(weights)
    if total <= 0.0:
        raise ZeroMass(
            "every candidate value has zero reweighted mass; the likelihood "
            "table does not cover the data"
        )
    u = rng.random() * total
    acc = 0.0
    for cand, w in zip(candidates, weights):
        acc += w
        if u < acc:
            return cand
    return [cand for cand, w in zip(candidates, weights) if w > 0.0][-1]


def _gibbs_weights(i, assignments, data, likelihood, a, base):
    """Candidate values and their unnormalized reassignment weights."""
    if not isinstance(base, DiscreteMeasure):
        raise TypeError("collapsed reassignment requires a discrete base")
    counts = {}
    for j, p in enumerate(assignments):
        if j != i:
            key = base.space.as_tuple(p)
            counts[key] = counts.get(key, 0.0) + 1.0
    return _urn_weights(data[i], counts, likelihood, a, base)


def gibbs_reassign(i, assignments, data, likelihood, a, base, rng):
    """Redraw the latent value of observation ``i`` given all the others.

    The urn predictive built from the remaining values is reweighted by
    the likelihood of the observation under each candidate value.
    """
    candidates, weights = _gibbs_weights(i, assignments, data, likelihood, a, base)
    return _draw_candidate(candidates, weights, rng)


def beta_variate(rng, a, b):
    """Beta draw built from two gamma draws.

    The ratio construction keeps the draw well defined for any positive
    shape pair; the loop guards the measure-zero event of both gamma
    draws underflowing to zero.
    """
    while True:
        x = rng.standard_gamma(a)
        y = rng.standard_gamma(b)
        if x + y > 0.0:
            return x / (x + y)


def beta_moments(a, b):
    """Mean, variance and fourth central moment of Beta(a, b), from its raw
    moments E[X^k] = prod_{i<k} (a + i) / (a + b + i)."""
    raw = [1.0]
    for i in range(4):
        raw.append(raw[-1] * (a + i) / (a + b + i))
    m = raw[1]
    return m, raw[2] - m * m, raw[4] - 4 * m * raw[3] + 6 * m * m * raw[2] - 3 * m**4


def _atom_index(cum, u):
    """Index of the first running sum in ``cum`` above ``u``, clamped to
    the last atom."""
    return min(bisect.bisect_right(cum, u), len(cum) - 1)


def _discrete_sampler(measure):
    support = list(measure.mass)
    cum = list(itertools.accumulate(measure.mass.values()))

    def draw(rng):
        return support[_atom_index(cum, rng.random() * cum[-1])]

    return draw


def looped_sample_dp(params, cfg, replicate=0):
    """Oracle for ``sample_dp``: one ``beta_variate`` call per stick.

    Each fraction comes from two ``standard_gamma`` calls and each
    discrete atom from ``_discrete_sampler`` above.
    """
    rng = stream(cfg.seed, replicate)
    if isinstance(params.base, DiscreteMeasure):
        draw, space = _discrete_sampler(params.base), params.base.space
    else:
        draw, space = params.base.sampler, None
    atoms, weights = [], []
    remaining = 1.0
    while len(atoms) < cfg.max_atoms - 1 and remaining >= cfg.eps:
        p = beta_variate(rng, 1.0, params.nu)
        w = p * remaining
        if w > 0.0:
            atoms.append(draw(rng))
            weights.append(w)
            remaining -= w
    if remaining > 0.0:
        atoms.append(draw(rng))
        weights.append(remaining)
        residual = remaining
    else:
        residual = 0.0
    return WeightedAtoms(tuple(atoms), tuple(weights), residual, space)


def recount_gibbs_chain(data, likelihood, a, base, sweeps, cfg, replicate=0):
    """Oracle for ``gibbs_chain`` that recounts the other values at every step.

    Each reassignment goes through ``gibbs_reassign`` above, which
    rebuilds the urn counts of the other n-1 values from scratch, so one
    sweep costs O(n^2) validated lookups.  It draws from numpy's Philox
    (``rng.stream``), so it also checks the plain-Python ``rng.uniforms``
    stream that ``gibbs_chain`` draws from.
    """
    rng = stream(cfg.seed, replicate)
    assignments = [_discrete_sampler(base)(rng)] * len(data)
    history = []
    for _ in range(sweeps):
        for i in range(len(data)):
            assignments[i] = gibbs_reassign(i, assignments, data, likelihood, a, base, rng)
        labels = {}
        history.append([labels.setdefault(v, len(labels)) for v in assignments])
    return assignments, history


def looped_measure_mass(space, mass):
    """Oracle for ``DiscreteMeasure`` construction: the per-cell loop it replaced.

    Each cell goes through ``as_tuple`` and ``float`` in turn, so an error
    names the first bad cell; the cleaned cells are then sorted with one
    ``sort_key`` call each.
    """
    cleaned = {}
    for assignment, value in mass.items():
        x = space.as_tuple(assignment)
        v = float(value)
        if v < 0.0 or not math.isfinite(v):
            raise ValueError(f"mass at {x!r} must be finite and nonnegative")
        if v > 0.0:
            cleaned[x] = cleaned.get(x, 0.0) + v
    return {x: cleaned[x] for x in sorted(cleaned, key=space.sort_key)}


def looped_measure_from_dict(obj):
    """Oracle for ``serialize.measure_from_dict``: the per-point loop it
    replaced.  Each point's assignment must be a JSON object and goes
    through ``as_tuple``, and its mass through ``float``, in turn, so an
    error names the first bad point; repeated points are merged in
    first-seen order.  A JSON ``true`` or ``false`` is not a number."""
    space = ProductSpace.from_domains(obj["variables"], obj["domains"])
    mass = {}
    for k, point in enumerate(obj["points"], start=1):
        if not isinstance(point["assignment"], dict):
            raise ValueError(f"point {k} {point!r}: the assignment must be a JSON object")
        x = space.as_tuple(point["assignment"])
        if point["mass"] is True or point["mass"] is False:
            text = "true" if point["mass"] else "false"
            raise ValueError(f"point {k} {point!r}: mass is the JSON boolean {text}, not a number")
        v = float(point["mass"])
        if v < 0.0 or not math.isfinite(v):
            raise ValueError(f"point {k} {point!r}: mass must be finite and nonnegative")
        mass[x] = mass.get(x, 0.0) + v
    return DiscreteMeasure(space, mass)


def measure_to_dict(m):
    """Oracle for ``serialize.measure_json``: the dict form of a measure,
    whose ``json.dumps`` is the bytes it writes."""
    return {
        "variables": list(m.space.variables),
        "domains": {v: list(dom) for v, dom in zip(m.space.variables, m.space.domains)},
        "points": [
            {"assignment": dict(zip(m.space.variables, x)), "mass": repr(float(v))}
            for x, v in m.mass.items()
        ],
    }


def hdp_spec_to_dict(graph, nu, clique_bases):
    """Oracle for ``serialize.hdp_spec_json``: the dict form of a spec."""
    return {
        "graph": graph_to_dict(graph),
        "nu": float(nu),
        "clique_bases": [measure_to_dict(b) for b in clique_bases],
    }


def looped_glue(cells, at, grouped, arrange, mass=None):
    """Oracle for ``algebra._glue``: the per-cell loop it replaced, which
    divides once per output cell and calls ``mass(c, w, wo, d)`` there."""
    groups, totals = grouped
    glued = {}
    for x, w in cells.items():
        c = at(x)
        d = totals.get(c, 0.0)
        if d > 0.0:
            for b, wo in groups[c]:
                glued[arrange(x + b)] = w * (wo / d) if mass is None else mass(c, w, wo, d)
    return glued


def equal_twin(c):
    """A value equal to category ``c`` but of another type, if there is one.

    ``1``, ``True`` and ``1.0`` find the same category but print
    differently.
    """
    if isinstance(c, bool) or (isinstance(c, float) and c.is_integer()):
        return int(c)
    if isinstance(c, int):
        return float(c) if c not in (0, 1) else bool(c)
    return c


def scan_as_tuple(space, assignment):
    """Oracle for ``ProductSpace.as_tuple`` that scans each domain tuple."""
    if isinstance(assignment, dict):
        missing = [v for v in space.variables if v not in assignment]
        if missing:
            raise ValueError(f"assignment missing variables {missing!r}")
        extra = [v for v in assignment if v not in space.variables]
        if extra:
            raise UnknownVariable(f"assignment names unknown variables {extra!r}")
        assignment = tuple(assignment[v] for v in space.variables)
    else:
        assignment = tuple(assignment)
    if len(assignment) != len(space.variables):
        raise ValueError("assignment length does not match the variable count")
    for var, dom, val in zip(space.variables, space.domains, assignment):
        if val not in dom:
            raise ValueError(f"value {val!r} is not in the domain of {var!r}")
    return assignment


def scan_sort_key(space, assignment):
    """Oracle for ``ProductSpace.sort_key`` that scans each domain tuple."""
    return tuple(space.domains[i].index(x) for i, x in enumerate(assignment))


# Union-cell assembly as it was before the shared layout helper: every
# strategy fills a fresh list per cell, one variable block at a time.
# ``assembled_kl_compromise`` also rekeys the second measure's overlap
# marginal into the overlap's order, which the original omitted.


def _assembled_grouped(measure, overlap, rest):
    o_idx = tuple(measure.space.index(v) for v in overlap)
    r_idx = tuple(measure.space.index(v) for v in rest)
    groups = {}
    for x, w in measure.mass.items():
        c = tuple(x[i] for i in o_idx)
        groups.setdefault(c, []).append((tuple(x[i] for i in r_idx), w))
    totals = {c: math.fsum(w for _, w in g) for c, g in groups.items()}
    return groups, totals


def assembled_complete_via(mu, lam, side):
    """Oracle for ``reconcile.complete_via``."""
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    overlap = tuple(v for v in mu.space.variables if v in set(lam.space.variables))
    union, extra = _union_space(mu, lam)
    mu_only = tuple(v for v in mu.space.variables if v not in set(overlap))
    lam_groups, lam_totals = _assembled_grouped(lam, overlap, extra)
    mu_groups, mu_totals = _assembled_grouped(mu, overlap, mu_only)
    mu_pos = tuple(union.index(v) for v in mu.space.variables)
    lam_extra_pos = tuple(union.index(v) for v in extra)
    out = {}
    if side == "A":
        for x, w in mu.mass.items():
            c = tuple(x[mu.space.index(v)] for v in overlap)
            denom = lam_totals.get(c, 0.0)
            if denom <= 0.0:
                raise ZeroConditional(
                    f"the trusted measure puts mass on overlap value {c!r} "
                    "where the other measure has none"
                )
            for b, wl in lam_groups[c]:
                cell = [None] * len(union.variables)
                for pos, val in zip(mu_pos, x):
                    cell[pos] = val
                for pos, val in zip(lam_extra_pos, b):
                    cell[pos] = val
                out[tuple(cell)] = w * (wl / denom)
    else:
        mu_only_pos = tuple(union.index(v) for v in mu_only)
        o_pos = tuple(union.index(v) for v in overlap)
        for y, w in lam.mass.items():
            c = tuple(y[lam.space.index(v)] for v in overlap)
            denom = mu_totals.get(c, 0.0)
            if denom <= 0.0:
                raise ZeroConditional(
                    f"the trusted measure puts mass on overlap value {c!r} "
                    "where the other measure has none"
                )
            b = tuple(y[lam.space.index(v)] for v in extra)
            for u, wm in mu_groups[c]:
                cell = [None] * len(union.variables)
                for pos, val in zip(mu_only_pos, u):
                    cell[pos] = val
                for pos, val in zip(o_pos, c):
                    cell[pos] = val
                for pos, val in zip(lam_extra_pos, b):
                    cell[pos] = val
                out[tuple(cell)] = w * (wm / denom)
    return DiscreteMeasure(union, out)


def assembled_weighted_average(mu, lam, gamma):
    """Oracle for ``reconcile.weighted_average``: two full completions, then a blend."""
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1]")
    via_a = assembled_complete_via(mu, lam, "A")
    via_b = assembled_complete_via(mu, lam, "B")
    keys = set(via_a.mass) | set(via_b.mass)
    out = {
        k: gamma * via_a.mass.get(k, 0.0) + (1.0 - gamma) * via_b.mass.get(k, 0.0)
        for k in keys
    }
    return DiscreteMeasure(via_a.space, out)


def assembled_kl_compromise(mu, lam):
    """Oracle for ``reconcile.kl_compromise``."""
    overlap = tuple(v for v in mu.space.variables if v in set(lam.space.variables))
    union, extra = _union_space(mu, lam)
    mu_only = tuple(v for v in mu.space.variables if v not in set(overlap))
    mu_c = marginalize(normalize(mu), overlap)
    lam_c = marginalize(normalize(lam), overlap)
    lam_order = tuple(lam_c.space.index(v) for v in overlap)
    lam_law = {tuple(c[i] for i in lam_order): w for c, w in lam_c.mass.items()}
    # overlap values as the first measure's support reaches them, then the second's
    reached = [
        tuple(x[m.space.index(v)] for v in overlap) for m in (mu, lam) for x in m.mass
    ]
    keys = dict.fromkeys(reached)
    compromise = {
        c: 0.5 * (mu_c.mass.get(c, 0.0) + lam_law.get(c, 0.0)) for c in keys
    }
    mu_groups, mu_totals = _assembled_grouped(mu, overlap, mu_only)
    lam_groups, lam_totals = _assembled_grouped(lam, overlap, extra)
    mu_only_pos = tuple(union.index(v) for v in mu_only)
    o_pos = tuple(union.index(v) for v in overlap)
    extra_pos = tuple(union.index(v) for v in extra)
    out = {}
    for c, w_c in compromise.items():
        if w_c <= 0.0:
            continue
        if mu_totals.get(c, 0.0) <= 0.0:
            raise ZeroConditional(
                f"the first measure has no conditional at overlap value {c!r}"
            )
        if lam_totals.get(c, 0.0) <= 0.0:
            raise ZeroConditional(
                f"the second measure has no conditional at overlap value {c!r}"
            )
        for u, wm in mu_groups[c]:
            p_u = wm / mu_totals[c]
            for b, wl in lam_groups[c]:
                cell = [None] * len(union.variables)
                for pos, val in zip(mu_only_pos, u):
                    cell[pos] = val
                for pos, val in zip(o_pos, c):
                    cell[pos] = val
                for pos, val in zip(extra_pos, b):
                    cell[pos] = val
                out[tuple(cell)] = p_u * w_c * (wl / lam_totals[c])
    return DiscreteMeasure(union, out)


def rekeyed_overlap_law(m, overlap, total):
    """Oracle for ``algebra._overlap_law``: normalize, marginalize, re-key.

    ``marginalize`` keys cells in the measure's own variable order, so
    two measures that list the shared variables differently are only
    comparable after this reordering.  ``total`` is ignored: ``normalize``
    sums the masses itself, so a wrong total passed in shows as a mismatch.
    """
    marginal = marginalize(normalize(m), overlap)
    order = tuple(marginal.space.index(v) for v in overlap)
    return {tuple(c[i] for i in order): w for c, w in marginal.mass.items()}


def outcome(fn, *args):
    """A measure-valued call's result as (space, cells), or its error as (class, message)."""
    try:
        m = fn(*args)
    except Exception as exc:  # differential tests compare errors too
        return type(exc), str(exc)
    return m.space, list(m.mass.items())


# Grouping and gluing as they were written out by hand before the shared
# ``algebra._grouped`` / ``algebra._glue`` loops.


def looped_condition(m, given):
    """Oracle for ``algebra.condition``: filter every cell, then group."""
    given = dict(given)
    checks = []
    for var, val in given.items():
        i = m.space.index(var)
        if val not in m.space.domains[i]:
            raise ValueError(f"value {val!r} is not in the domain of {var!r}")
        checks.append((i, val))
    sub = m.space.subspace(v for v in m.space.variables if v not in given)
    kidx = tuple(m.space.index(v) for v in sub.variables)
    cells = {}
    for x, v in m.mass.items():
        if all(x[i] == val for i, val in checks):
            cells.setdefault(tuple(x[i] for i in kidx), []).append(v)
    if not cells:
        raise ZeroConditional(f"conditioning event {given!r} has zero mass")
    return normalize(DiscreteMeasure(sub, {k: math.fsum(vs) for k, vs in cells.items()}))


def assembled_markov_combination(mu, lam, tol=CONSISTENCY_TOL):
    """Oracle for ``algebra.markov_combination``."""
    report = is_consistent(mu, lam, tol)
    if not report.consistent:
        failing = (
            "overlap marginals are not proportional (condition 1)"
            if not report.proportional_marginals
            else "total masses differ (condition 2)"
        )
        raise Inconsistent(f"measures cannot be combined: {failing}", report)
    union, extra = _union_space(mu, lam)
    o_lam = tuple(lam.space.index(v) for v in report.overlap)
    b_lam = tuple(lam.space.index(v) for v in extra)
    groups = {}
    for y, w in lam.mass.items():
        c = tuple(y[i] for i in o_lam)
        groups.setdefault(c, []).append((tuple(y[i] for i in b_lam), w))
    denom = {c: math.fsum(w for _, w in g) for c, g in groups.items()}
    o_mu = tuple(mu.space.index(v) for v in report.overlap)
    out = {}
    for x, v in mu.mass.items():
        c = tuple(x[i] for i in o_mu)
        d = denom.get(c, 0.0)
        if d <= 0.0:
            continue
        for b, w in groups[c]:
            out[x + b] = v * (w / d)
    return DiscreteMeasure(union, out)


def _coerce_data(space, data):
    """The rows of ``data`` checked one by one, as the conjugate updates did
    before they counted each distinct row once (``dp._counted``)."""
    out = []
    for obs in data:
        try:
            out.append(space.as_tuple(obs))
        except (ValueError, KeyError) as exc:
            raise OutsideDomain(f"observation {obs!r} is outside the base's space: {exc}") from None
    return out


def reaudited_hdp_posterior(spec, data, tol=CONSISTENCY_TOL):
    """Oracle for ``hdp.hdp_posterior``, as it was written before it took
    the conjugate update of the combined base directly.

    Each clique base absorbs the observations' projections; the ensemble
    is then revalidated and cross-checked against the plain posterior of
    the combined base, which it must reproduce within 1e-12.
    """
    _check_tol(tol)
    space = spec.combined.base.space
    obs = _coerce_data(space, data)
    if not obs:
        return spec
    new_bases = []
    for clique, base in zip(spec.decomposition.cliques, spec.clique_bases):
        idx = tuple(space.index(v) for v in base.space.variables)
        projected = [tuple(x[i] for i in idx) for x in obs]
        new_bases.append(looped_dp_posterior(DPParams(spec.nu, base), projected).base)
    try:
        posterior = build_hdp(spec.graph, new_bases, spec.nu + len(obs), tol)
    except RefinementViolated as exc:
        raise ObservationViolatesSupport(
            "observations contradict the degeneracy structure of the base "
            f"({exc})",
            exc.report,
        ) from exc
    direct = looped_dp_posterior(spec.combined, obs).base
    fused = posterior.combined.base
    gap = _sup_gap(direct.mass, fused.mass)
    if gap > 1e-12:
        raise NotMarkov(
            f"internal error: clique-wise posterior deviates from the direct one by {gap:.3e}"
        )
    return posterior


# The pairwise loop and the fold that ``hdp.combine_clique_bases`` replaced
# with one table of overlap laws, a scan and one join; the degeneracy stage
# that checked every clique on the combined base; the posterior's stage that
# read the rows on the side and named its witness from a fold; and the
# per-row loops of the conjugate update and of the CSV reader that now take
# each distinct row once.


def folded_clique_bases(decomp, bases, tol=CONSISTENCY_TOL):
    """Oracle for ``hdp.combine_clique_bases``: ``is_consistent`` on every
    pair, in lexicographic order, then ``markov_combination`` folded along
    the perfect ordering.  ``pairs`` is a list."""
    if len(bases) != len(decomp.cliques):
        raise ValueError(
            f"{len(decomp.cliques)} cliques but {len(bases)} base measures"
        )
    for k, (clique, base) in enumerate(zip(decomp.cliques, bases), start=1):
        if not isinstance(base, DiscreteMeasure):
            raise TypeError("clique bases must be discrete measures")
        if set(base.space.variables) != set(clique):
            raise DomainMismatch(
                f"base {k} is not defined on exactly the clique {clique!r}"
            )
    pairs = [
        (i, j, is_consistent(bases[i], bases[j], tol))
        for i, j in itertools.combinations(range(len(bases)), 2)
    ]
    for i, j, report in pairs:
        if not report.consistent:
            failure = Inconsistent(
                f"clique bases {i + 1} and {j + 1} are not consistent", report, (i + 1, j + 1)
            )
            return pairs, None, failure
    combined = bases[0]
    for base in bases[1:]:
        try:
            combined = markov_combination(combined, base, tol)
        except Inconsistent as exc:
            return pairs, combined, exc
    return pairs, combined, None


def looped_degeneracy(combined, decomp):
    """Oracle for ``hdp._degeneracy``: ``check_refinement`` of the combined
    base on every clique.  Returns the report and the failure."""
    report = RefinementReport(
        tuple(
            check_refinement(combined, sep, clique).checks[0]
            for sep, clique in zip(decomp.separators, decomp.cliques[1:])
        )
    )
    failure = None
    if not report.passed:
        w = report.first_witness()
        failure = RefinementViolated(
            f"a separator value admits multiple completions (witness {w!r})",
            report,
        )
    return report, failure


def _seen_degeneracy(combined, decomp, bases, seen=None):
    """The degeneracy stage as ``seen_hdp_posterior`` ran it: a clique passes
    unchecked when its base's cells and the clique values ``seen`` holds for
    it pin each separator value.  Returns the failure or None."""
    checks = []
    steps = zip(decomp.separators, decomp.cliques[1:], bases[1:])
    for t, (sep, clique, base) in enumerate(steps, start=1):
        values = {*base.mass, *(seen[t] if seen else ())}
        if len(set(map(base.space.projector(sep), values))) == len(values):
            checks.append(SeparatorCheck(sep, clique, True))
        else:
            checks.append(check_refinement(combined, sep, clique).checks[0])
    report = RefinementReport(tuple(checks))
    if report.passed:
        return None
    w = report.first_witness()
    message = f"a separator value admits multiple completions (witness {w!r})"
    return RefinementViolated(message, report)


def seen_hdp_posterior(spec, data):
    """Oracle for ``hdp.hdp_posterior``, as it was written before its
    degeneracy stage took the posterior clique bases: the stage reads the
    prior bases and, on the side, the clique values of the rows, and a
    failure's witness comes from ``markov_combination`` folded along the
    perfect ordering."""
    space = spec.combined.base.space
    counts = _counted(space, data)
    if not counts:
        return spec
    projected = [_tally(counts, space.projector(b.space.variables)) for b in spec.clique_bases]
    bases = tuple(map(functools.partial(_posterior, spec.nu), spec.clique_bases, projected))
    nu, base = spec.combined.nu, spec.combined.base
    combined = DPParams(nu + sum(counts.values()), _posterior(nu, base, counts))
    failure = _seen_degeneracy(combined.base, spec.decomposition, spec.clique_bases, projected)
    if failure is not None:
        # the fold of the clique bases names the witness by their own
        # values: 1, True and 1.0 are equal but print differently
        fold = functools.reduce(markov_combination, bases)
        failure = _seen_degeneracy(fold, spec.decomposition, bases) or failure
        raise ObservationViolatesSupport(
            f"observations contradict the degeneracy structure of the base ({failure})",
            failure.report,
        )
    return HDPSpec(spec.graph, spec.decomposition, bases, combined.nu, combined)


def looped_dp_posterior(params, data):
    """Oracle for ``dp.dp_posterior``: every row checked, and added to its
    cell, in turn."""
    if not isinstance(params.base, DiscreteMeasure):
        raise TypeError("exact posterior updates require a discrete base")
    obs = _coerce_data(params.base.space, data)
    n = len(obs)
    if n == 0:
        return params
    scale = params.nu + n
    mass = {x: params.nu * v for x, v in params.base.mass.items()}
    for x in obs:
        mass[x] = mass.get(x, 0.0) + 1.0
    posterior = DiscreteMeasure(params.base.space, {x: v / scale for x, v in mass.items()})
    return DPParams(scale, posterior)


def looped_read_csv_columns(fh, columns, parsers):
    """Oracle for ``serialize.read_csv_columns``: every row parsed in turn."""
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
        width = len(header)
        records = []
        for row in filter(None, rows):
            if len(row) != width:
                more = "more" if len(row) > width else "fewer"
                raise ValueError(f"line {rows.line_num}: {more} cells than the header's {width}")
            try:
                records.append(tuple([parse(row[i]) for parse, i in fields]))
            except ValueError as exc:
                raise ValueError(f"line {rows.line_num}: {exc}") from None
    except csv.Error as exc:
        raise ValueError(f"line {rows.line_num}: {exc}") from None
    return records
