"""Stick-breaking draws from a Dirichlet process or a graph-structured prior,
and what is read off them: their measure, their checks and their JSON line."""

from __future__ import annotations

import bisect
import functools
import json
import math

from ._record import record
from .measures import CONSISTENCY_TOL, DiscreteMeasure, ProductSpace
from .rng import _lookup_table, _weighted_draw
from .serialize import _texts_by_identity


@record
class WeightedAtoms:
    """One sampled measure: atoms, their weights, and the folded residual.

    ``space`` is set for draws from a discrete base (atoms are full
    assignments) and ``None`` for opaque continuous draws.
    """

    atoms: tuple
    weights: tuple
    truncation_residual: float
    space: ProductSpace | None = None

    def __post_init__(self):
        if len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights must have equal length")
        if not self.atoms:
            raise ValueError("a sampled measure needs at least one atom")
        if not all(w > 0.0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")


def _base_lookup(base):
    """``_lookup_table`` of a discrete base's cells, built on its first draw
    and kept on the measure, as ``ProductSpace`` keeps its category maps."""
    table = base.__dict__.get("_lookup")
    if table is None:
        table = _lookup_table(base.mass, base.mass.values())
        object.__setattr__(base, "_lookup", table)
    return table


def sample_dp(params, cfg, replicate=0):
    """One stick-breaking draw, truncated by leftover mass or atom budget.

    Sticks are broken with Beta(1, nu) fractions x / (x + y), x ~ Gamma(1)
    and y ~ Gamma(nu); a fraction that leaves no weight is drawn again.
    When the leftover drops below ``cfg.eps`` (or one slot remains), the
    whole leftover is folded into a final fresh atom so weights always
    sum to one.  For nu > 1 numpy's ``beta(1, nu)`` makes each fraction
    in one call from the same two gamma draws (its Gamma(1) is a standard
    exponential), so it takes the same bits as the two calls that nu <= 1
    still needs, for there numpy's ``beta`` uses another algorithm.  The
    shapes go to numpy as 0-d arrays (``rng.scalars``), made once per draw.

    A continuous base's sampler gets the generator once per atom.  For a
    discrete base each atom takes one raw word ``w`` instead, looked up
    after the loop as ``(w >> 11) * 2**-53``: numpy's ``random()`` makes
    that double of the same word, so the atoms are ``_weighted_draw``'s.
    """
    from .rng import scalars, stream

    rng = stream(cfg.seed, replicate)
    base = params.base
    if isinstance(base, DiscreteMeasure):
        draw, space = rng.bit_generator.random_raw, base.space
    else:
        draw, space = functools.partial(base.sampler, rng), None
    nu, eps, slots = params.nu, cfg.eps, cfg.max_atoms - 1
    if nu > 1.0:
        fraction = functools.partial(rng.beta, *scalars(1.0, nu))
    else:
        exponential, gamma = rng.standard_exponential, rng.standard_gamma
        (shape,) = scalars(nu)

        def fraction():
            x, y = exponential(), gamma(shape)
            return x / (x + y) if x else 0.0  # x = 0 gives 0; the test spares a 0/0

    atoms, weights = [], []
    add_atom, add_weight = atoms.append, weights.append
    n, remaining = 0, 1.0
    while n < slots and remaining >= eps:
        # a zero fraction, or numpy's 0/0 = NaN when both gamma draws are
        # zero, fails the test below and the loop draws again
        w = fraction() * remaining
        if w > 0.0:
            add_atom(draw())
            add_weight(w)
            remaining -= w
            n += 1
    if remaining > 0.0:
        add_atom(draw())
        add_weight(remaining)
        residual = remaining
    else:
        residual = 0.0
    if space is not None:
        keys, cum = _base_lookup(base)
        # (word >> 11) * scale rounds once, as random() * total does: 2**-53 * total is exact
        scale, bisect_right = 2.0**-53 * cum[-1], bisect.bisect_right
        atoms = [keys[bisect_right(cum, (word >> 11) * scale)] for word in atoms]
    return WeightedAtoms(tuple(atoms), tuple(weights), residual, space)


def atoms_to_measure(theta):
    """Aggregate equal atoms into one discrete probability measure."""
    if theta.space is None:
        raise TypeError("only draws from a discrete base aggregate to a measure")
    agg = {}
    for a, w in zip(theta.atoms, theta.weights):
        agg[a] = agg.get(a, 0.0) + w
    return DiscreteMeasure(theta.space, agg)


def sample_from_atoms(theta, rng, size):
    """Independent draws from a sampled measure."""
    draw = _weighted_draw(theta.atoms, theta.weights)
    return [draw(rng) for _ in range(size)]


def sample_hdp(spec, cfg, replicate=0):
    """One draw from the prior; same truncation contract as ``sample_dp``."""
    return sample_dp(spec.combined, cfg, replicate)


def verify_sample_markov(theta, decomp, tol=CONSISTENCY_TOL):
    """Aggregate a draw's atoms and test the clique factorization."""
    from .algebra import is_markov  # here, so that `sample`, which checks no draw, skips algebra

    return is_markov(atoms_to_measure(theta), decomp, tol)


def verify_sample_refinement(theta, separator, clique):
    """Do atoms that share a separator value share the whole clique value?

    Then the separator values and the clique values group the weights
    into the same masses, which is the degeneracy condition on a draw.
    """
    if theta.space is None:
        raise TypeError("only draws from a discrete base can be audited")
    separator = tuple(separator)
    clique = tuple(clique)
    if not set(separator) <= set(clique):
        raise ValueError("the separator must be a subset of the clique")
    s_at, c_at = theta.space.projector(separator), theta.space.projector(clique)
    completion = {}
    for atom in theta.atoms:
        c = c_at(atom)
        if completion.setdefault(s_at(atom), c) != c:
            return False
    return True


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
