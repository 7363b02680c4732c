"""Byte-for-byte command line output pinned by files under tests/golden/.

Each ``<case>.stdout`` holds the exact stdout of one ``hyperdp`` run on
the specs and data files in ``tests/golden/specs/``.  A refactor that changes a byte of
these outputs fails here; such a change must be deliberate and the file
re-recorded with it, never edited to match.
"""

import pathlib
import subprocess
import sys

import pytest

from hyperdp._cli_reconcile import _STRATEGY_ALIASES
from hyperdp.reconcile import KINDS

GOLDEN = pathlib.Path(__file__).parent / "golden"

# case -> CLI arguments; spec paths are relative to tests/golden/
CASES = {
    "diagnose_good": ("diagnose", "--spec", "specs/good.json", "--samples", "5", "--seed", "3"),
    "diagnose_refinement_violated": ("diagnose", "--spec", "specs/refinement_violated.json"),
    "diagnose_inconsistent": ("diagnose", "--spec", "specs/inconsistent.json"),
    "diagnose_non_decomposable": ("diagnose", "--spec", "specs/non_decomposable.json"),
    "diagnose_disconnected": ("diagnose", "--spec", "specs/disconnected.json"),
    # a five-vertex chain whose bases list the shared variable in another
    # order and whose decimal masses leave a nonzero but tolerated gap
    "diagnose_chain_gaps_good": ("diagnose", "--spec", "specs/chain_gaps.json"),
    # check-graph prints its verdicts with exit code 0 whatever they are.
    # A clique tree of triangles on a hub, so many overlaps tie, with
    # vertices and edge endpoints declared in a scrambled order:
    "check_graph_clique_tree_good": ("check-graph", "specs/graph_clique_tree.json"),
    # a connected random chordal graph on 120 vertices, labels and
    # declaration order permuted
    "check_graph_chordal_120_good": ("check-graph", "specs/graph_chordal_120.json"),
    "check_graph_square_good": ("check-graph", "specs/graph_square.json"),
    "check_graph_disconnected_good": ("check-graph", "specs/graph_disconnected.json"),
    "build_hdp_good": ("build-hdp", "--spec", "specs/good.json"),
    "build_hdp_refinement_violated": ("build-hdp", "--spec", "specs/refinement_violated.json"),
    "build_hdp_inconsistent": ("build-hdp", "--spec", "specs/inconsistent.json"),
    "build_hdp_non_decomposable": ("build-hdp", "--spec", "specs/non_decomposable.json"),
    # one clique of 12 binary variables, with vertices, edges and base
    # variables each listed in another order
    "build_hdp_one_clique_good": ("build-hdp", "--spec", "specs/one_clique.json"),
    "posterior_hdp_good": (
        "posterior-hdp", "--spec", "specs/good.json", "--data", "specs/good_data.csv",
    ),
    "posterior_hdp_observation_violates_support": (
        "posterior-hdp", "--spec", "specs/good.json", "--data", "specs/violating_data.csv",
    ),
    # clique bases keyed with true for the category 1: the update keeps
    # their keys, and the witness of a failure names J as the bases hold it
    "posterior_hdp_stand_in_good": (
        "posterior-hdp", "--spec", "specs/stand_in.json", "--data", "specs/stand_in_data.csv",
    ),
    "posterior_hdp_stand_in_observation_violates_support": (
        "posterior-hdp", "--spec", "specs/stand_in.json",
        "--data", "specs/stand_in_violating_data.csv",
    ),
    "sample_hdp_good": (
        "sample-hdp", "--spec", "specs/good.json", "--replicates", "5", "--seed", "3",
    ),
    "mixture_table_good": (
        "mixture", "--data", "specs/mixture_data.csv", "--base", "specs/mixture_base.json",
        "--a", "1.5", "--likelihood", "specs/mixture_likelihood.json", "--sweeps", "3", "--seed", "5",
    ),
    "mixture_identity_good": (
        "mixture", "--data", "specs/mixture_data.csv", "--base", "specs/mixture_base.json",
        "--a", "1.5", "--sweeps", "3", "--seed", "5",
    ),
    "mixture_zero_mass": (
        "mixture", "--data", "specs/mixture_data.csv", "--base", "specs/mixture_base.json",
        "--a", "1.5", "--likelihood", "specs/mixture_likelihood_partial.json",
        "--sweeps", "3", "--seed", "5",
    ),
    "sample_good": (
        "sample", "--base", "specs/mixture_base.json", "--nu", "2", "--replicates", "5",
        "--seed", "3",
    ),
    # every draw runs out of the 40-atom budget and folds a large leftover
    "sample_budget_hit_good": (
        "sample", "--base", "specs/mixture_base.json", "--nu", "2000", "--max-atoms", "40",
        "--replicates", "3", "--seed", "3",
    ),
    # draws stop at the coarse leftover-mass cutoff
    "sample_coarse_eps_good": (
        "sample", "--base", "specs/mixture_base.json", "--nu", "2", "--eps", "0.01",
        "--replicates", "5", "--seed", "3",
    ),
    # nu = 1 and nu < 1, where numpy's beta would switch to Johnk's
    # algorithm, so each stick fraction is drawn in two calls
    "sample_nu_one_good": (
        "sample", "--base", "specs/mixture_base.json", "--nu", "1", "--replicates", "5",
        "--seed", "3",
    ),
    "sample_nu_half_good": (
        "sample", "--base", "specs/mixture_base.json", "--nu", "0.5", "--replicates", "5",
        "--seed", "3",
    ),
    # mu on (A, B, C), lambda on (C, B, D): the two-variable overlap is listed
    # in a different order on each side; the *_bcd lambdas list it as mu does
    "reconcile_rescale_min_good": (
        "reconcile", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_scaled.json", "--strategy", "rescale-min",
    ),
    "reconcile_rescale_convex_good": (
        "reconcile", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_scaled.json", "--strategy", "rescale-convex",
        "--gamma", "0.25",
    ),
    "reconcile_rescale_convex_aligned_good": (
        "reconcile", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_scaled_bcd.json", "--strategy", "rescale-convex",
        "--gamma", "0.25",
    ),
    "reconcile_condition_a_good": (
        "reconcile", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_disagree.json", "--strategy", "condition-a",
    ),
    "reconcile_condition_b_good": (
        "reconcile", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_disagree.json", "--strategy", "condition-b",
    ),
    "reconcile_average_good": (
        "reconcile", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_disagree.json", "--strategy", "average",
    ),
    "reconcile_kl_good": (
        "reconcile", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_disagree.json", "--strategy", "kl",
    ),
    "reconcile_kl_aligned_good": (
        "reconcile", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_disagree_bcd.json", "--strategy", "kl",
    ),
    "reconcile_zero_conditional": (
        "reconcile", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_partial.json", "--strategy", "condition-a",
    ),
    "combine_good": (
        "combine", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_consistent.json",
    ),
    "combine_aligned_good": (
        "combine", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_consistent_bcd.json",
    ),
    "posterior_good": (
        "posterior", "--base", "specs/mixture_base.json", "--nu", "2",
        "--data", "specs/mixture_data.csv",
    ),
    # a report is printed with exit code 0 whatever its verdict
    "check_consistency_disagree_good": (
        "check-consistency", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_disagree.json",
    ),
    "check_consistency_scaled_good": (
        "check-consistency", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_scaled.json",
    ),
    "check_consistency_consistent_good": (
        "check-consistency", "--mu", "specs/reconcile_mu.json",
        "--lambda", "specs/reconcile_lambda_consistent.json",
    ),
    # edge_* specs: non-ASCII labels and categories, true/null and float
    # categories, and assignment values that equal a category of another type
    # (true, false and 1.0 against the domain [0, 1]), which print as given
    "combine_edge_good": (
        "combine", "--mu", "specs/edge_mu.json",
        "--lambda", "specs/edge_lambda_consistent.json",
    ),
    "reconcile_average_edge_good": (
        "reconcile", "--mu", "specs/edge_mu.json",
        "--lambda", "specs/edge_lambda_disagree.json", "--strategy", "average",
    ),
    # a one-variable base on int and float categories, and data cells in
    # every plain decimal form, with a column that is not read
    "cdf_estimate_t_good": (
        "cdf-estimate", "--base", "specs/cdf_base.json", "--nu", "3",
        "--data", "specs/cdf_data.csv", "--t", "0.25",
    ),
    "cdf_estimate_t_grid_good": (
        "cdf-estimate", "--base", "specs/cdf_base.json", "--nu", "3",
        "--data", "specs/cdf_data.csv", "--t-grid=-4:12:9",
    ),
}


def _check_golden(case, args):
    argv = [str(GOLDEN / a) if a.startswith("specs/") else a for a in args]
    proc = subprocess.run([sys.executable, "-m", "hyperdp", *argv], capture_output=True)
    assert proc.returncode == (0 if case.endswith("_good") else 1), proc.stderr
    assert proc.stdout == (GOLDEN / f"{case}.stdout").read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden_bytes(case):
    _check_golden(case, CASES[case])


@pytest.mark.parametrize("kind", KINDS)
def test_reconcile_strategy_names_match_their_aliases(kind):
    # each reconcile case, rerun with the full name of its strategy
    runs = 0
    for case, args in sorted(CASES.items()):
        if args[0] != "reconcile":
            continue
        at = args.index("--strategy") + 1
        if _STRATEGY_ALIASES.get(args[at], args[at]) == kind:
            _check_golden(case, args[:at] + (kind,) + args[at + 1:])
            runs += 1
    assert runs
