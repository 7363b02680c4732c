import itertools

import pytest

from hyperdp import (
    DiscreteMeasure,
    DomainMismatch,
    ProductSpace,
    build_graph,
    marginalize,
    perfect_ordering,
)
from hyperdp.dp import _discrete_sampler
from hyperdp.measures import CONSISTENCY_TOL
from hyperdp.mixture import gibbs_reassign
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


def recount_gibbs_chain(data, likelihood, a, base, sweeps, cfg, replicate=0):
    """Oracle for ``gibbs_chain`` that recounts the other values at every step.

    Each reassignment goes through the public ``gibbs_reassign``, which
    rebuilds the urn counts of the other n-1 values from scratch, so one
    sweep costs O(n^2) validated lookups.
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
