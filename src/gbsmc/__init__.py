"""Markov-chain samplers over graph matchings and the photonic vertex-set
law they induce, plus chain-enhanced subgraph search.

The package has three layers:

* exact combinatorics — graphs, matchings, hafnians
  (:mod:`~gbsmc.graphs`, :mod:`~gbsmc.hafnian`);
* samplers — the single-loop matching chain, the perfect-matching chain,
  and the double-loop chain whose stationary vertex-set law is
  proportional to the squared hafnian
  (:mod:`~gbsmc.glauber`, :mod:`~gbsmc.pm_chain`, :mod:`~gbsmc.double_loop`);
* applications and verification — subgraph-search solvers, exact
  stationary laws and detailed-balance certificates, and the ``gbsmc``
  command line (:mod:`~gbsmc.solvers`, :mod:`~gbsmc.diagnostics`,
  :mod:`~gbsmc.cli`).
"""

from .diagnostics import (ExitTimeResult, GeometricFit, OracleGuardError,
                          check_detailed_balance, exact_stationary,
                          exit_probability, exit_time_experiment,
                          geometric_fit, mixing_profile, pm_stationary,
                          transition_kernel, tv_distance)
from .double_loop import (DoubleLoopConfig, InnerGuardError, InnerSamplerError,
                          InnerStats, RejectionCapError, vertex_set_histogram)
from .glauber import ChainConfig, ChainConfigError, sample_states
from .graphs import (EnumerationCapError, Graph, GraphError, GraphSpec,
                     Matching, enumerate_matchings, from_edge_list_text,
                     gen_graph, hard_instance_core_matching, load_edge_list,
                     to_edge_list_text)
from .hafnian import density, enumerate_perfect_matchings, hafnian_bits
from .pm_chain import (PMSampleBudgetError, PMSamplerConfig, PMStateError,
                       default_inner_steps, default_max_attempts,
                       sample_perfect_matching)
from .seeds import child_rng, derive_seed
from .solvers import (SAParams, SolverConfig, SolverConfigError, TrialRecord,
                      random_search, simulated_annealing, solver_for)

__version__ = "0.1.0"

__all__ = [
    "ChainConfig", "ChainConfigError", "DoubleLoopConfig",
    "EnumerationCapError", "ExitTimeResult", "GeometricFit", "Graph",
    "GraphError", "GraphSpec", "InnerGuardError", "InnerSamplerError",
    "InnerStats", "Matching", "OracleGuardError", "PMSampleBudgetError",
    "PMSamplerConfig", "PMStateError", "RejectionCapError", "SAParams",
    "SolverConfig", "SolverConfigError", "TrialRecord",
    "check_detailed_balance", "child_rng", "default_inner_steps",
    "default_max_attempts", "density", "derive_seed",
    "enumerate_matchings", "enumerate_perfect_matchings",
    "exact_stationary", "exit_probability", "exit_time_experiment",
    "from_edge_list_text", "gen_graph", "geometric_fit", "hafnian_bits",
    "hard_instance_core_matching", "load_edge_list", "mixing_profile",
    "pm_stationary", "random_search",
    "sample_perfect_matching", "sample_states", "simulated_annealing",
    "solver_for", "to_edge_list_text", "transition_kernel", "tv_distance",
    "vertex_set_histogram",
]
