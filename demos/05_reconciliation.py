"""
Reconciling clique bases that refuse to glue
=============================================

Two tables from different sources rarely agree on their overlap.
This script shows the diagnostic report for a disagreeing pair and
each of the repair strategies: rescaling, trusting one side's
marginal, averaging, and the symmetric compromise.
"""

from hyperdp import (
    DiscreteMeasure,
    ProductSpace,
    ReconcileStrategy,
    is_consistent,
    marginalize,
    markov_combination,
    suggested_gamma,
)
from hyperdp.errors import Inconsistent
from hyperdp.reconcile import reconcile

sp_ij = ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})
sp_jk = ProductSpace.from_domains(("J", "K"), {"J": (0, 1), "K": (0, 1)})

# One source thinks J leans 0, the other thinks it is fair.
mu = DiscreteMeasure(sp_ij, {(0, 0): 0.3, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.2})
lam = DiscreteMeasure(sp_jk, {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25})

report = is_consistent(mu, lam)
print("consistent:", report.consistent)
print("marginal gap:", round(report.marginal_gap, 3))

try:
    markov_combination(mu, lam)
except Inconsistent as exc:
    print("direct gluing fails:", exc)

# Trust one side's overlap marginal and rebuild the other around it.
for kind in ("condition-on-a", "condition-on-b"):
    fixed = reconcile(mu, lam, ReconcileStrategy(kind))
    j = marginalize(fixed, ("J",))
    print(f"\n{kind}: J marginal -> {j.mass}")

# Or split the difference, with a weight suggested by relative mass.
gamma = suggested_gamma(mu, lam)
print("\nsuggested gamma:", gamma)
avg = reconcile(mu, lam, ReconcileStrategy("weighted-average", gamma=gamma))
print("weighted-average: J marginal ->", marginalize(avg, ("J",)).mass)

# The symmetric compromise works in probability terms.
comp = reconcile(mu, lam, ReconcileStrategy("kl-compromise"))
print("kl-compromise: J marginal ->", marginalize(comp, ("J",)).mass)
print("kl-compromise total mass:", sum(comp.mass.values()))

# Rescaling handles the easy case where only the total masses differ.
double = DiscreteMeasure(sp_jk, {k: 2 * v for k, v in lam.mass.items()})
pair = reconcile(lam, double, ReconcileStrategy("rescale-min"))
print("\nrescale-min totals:", sum(pair[0].mass.values()), sum(pair[1].mass.values()))
