"""Dirichlet process priors with graph-structured base measures.

The library combines exact measure algebra on decomposable graphs with
stick-breaking samplers: clique-level base measures are fused into one
base whose Dirichlet process draws inherit the graph's independence
structure, and whose clique marginals update conjugately.
"""

from .dp import (
    ContinuousBase,
    DPParams,
    SamplerConfig,
    WeightedAtoms,
    atoms_to_measure,
    bayes_cdf,
    dp_marginal,
    dp_posterior,
    finite_partition_law,
    marginal_atoms,
    sample_dp,
    sample_from_atoms,
)
from .errors import (
    DomainMismatch,
    DuplicateVertex,
    HyperDPError,
    Inconsistent,
    NotConnected,
    NotDecomposable,
    NotMarkov,
    ObservationViolatesSupport,
    OutsideDomain,
    RefinementViolated,
    UnknownVariable,
    UnknownVertex,
    ZeroConditional,
    ZeroMass,
)
from .graphs import (
    CliqueDecomposition,
    Graph,
    build_graph,
    is_connected,
    is_decomposable,
    maximal_cliques,
    mcs_order,
    ordering_from_cliques,
    perfect_ordering,
    separates,
)
from .hdp import (
    HDPAudit,
    HDPSpec,
    RefinementReport,
    SeparatorCheck,
    audit_hdp,
    build_hdp,
    check_refinement,
    hdp_posterior,
    sample_hdp,
    verify_sample_markov,
    verify_sample_refinement,
)
from .measures import (
    ConsistencyReport,
    DiscreteMeasure,
    ProductSpace,
    condition,
    is_consistent,
    is_markov,
    marginalize,
    markov_combination,
    markov_combination_seq,
    normalize,
    point_mass,
    scale_measure,
    uniform_measure,
)
from .mixture import (
    UrnState,
    expected_clusters,
    gibbs_chain,
    identity_likelihood,
    sample_partition,
    urn_predictive,
)
from .reconcile import (
    ReconcileStrategy,
    complete_via,
    kl_compromise,
    rescale,
    suggested_gamma,
    weighted_average,
)
from .rng import stream
from .serialize import (
    atoms_to_json_line,
    data_from_csv_text,
    decomposition_to_dict,
    graph_from_dict,
    graph_to_dict,
    hdp_spec_from_dict,
    hdp_spec_json,
    hdp_spec_to_dict,
    likelihood_from_dict,
    load_data_csv,
    load_json,
    mass_str,
    measure_from_dict,
    measure_json,
    measure_to_dict,
)

__version__ = "0.1.0"
