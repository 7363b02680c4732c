"""Dirichlet process priors with graph-structured base measures.

The library combines exact measure algebra on decomposable graphs with
stick-breaking samplers: clique-level base measures are fused into one
base whose Dirichlet process draws inherit the graph's independence
structure, and whose clique marginals update conjugately.

Names resolve on first use (PEP 562): ``import hyperdp`` loads no
submodule, ``hyperdp.build_hdp`` imports ``hyperdp.hdp``, and
``hyperdp.reconcile``, like every submodule's name, is the submodule.
"""

from importlib import import_module as _import_module

# the module that defines each name the package exports
_HOME = {
    name: module
    for module, names in {
        "algebra": "ConsistencyReport condition is_consistent is_markov marginalize "
        "markov_combination",
        "dp": "ContinuousBase DPParams bayes_cdf dp_posterior",
        "errors": "DomainMismatch DuplicateVertex HyperDPError Inconsistent NotConnected "
        "NotDecomposable NotMarkov ObservationViolatesSupport OutsideDomain "
        "RefinementViolated UnknownVariable UnknownVertex ZeroConditional ZeroMass",
        "graphs": "CliqueDecomposition Graph build_graph is_connected is_decomposable "
        "maximal_cliques mcs_order ordering_from_cliques perfect_ordering",
        "hdp": "HDPAudit HDPSpec RefinementReport SeparatorCheck audit_hdp build_hdp "
        "check_refinement hdp_posterior",
        "measures": "DiscreteMeasure ProductSpace normalize scale_measure uniform_measure",
        "mixture": "UrnState expected_clusters gibbs_chain identity_likelihood "
        "sample_partition urn_predictive",
        "reconcile": "ReconcileStrategy complete_via kl_compromise rescale suggested_gamma "
        "weighted_average",
        "rng": "SamplerConfig stream",
        "stick": "WeightedAtoms atoms_to_json_line atoms_to_measure sample_dp sample_from_atoms "
        "sample_hdp verify_sample_markov verify_sample_refinement",
        "serialize": "decomposition_to_dict graph_from_dict graph_to_dict "
        "hdp_spec_from_dict hdp_spec_json likelihood_from_dict load_data_csv load_json "
        "measure_from_dict measure_json",
    }.items()
    for name in names.split()
}
_SUBMODULES = {*_HOME.values(), "cli"}

__all__ = sorted(_HOME) + sorted(_SUBMODULES)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(_import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
