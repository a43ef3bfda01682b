"""Tools for one-shot exact quantum state merging and splitting.

The package computes Koashi-Imoto decompositions of tripartite pure states,
derives achievability and converse bounds on the entanglement cost of exact
state merging and splitting, constructs explicit one-way LOCC protocols
realizing the achievable costs, and verifies those protocols branch by branch
by exact simulation.
"""

__version__ = "0.1.0"

from .errors import SolverError, ValidationError, VerificationError
from .statespace import TripartiteState, catalog, load_state, random_state, save_state
from .ki import KIBlock, KIDecomposition, ki_decompose
from .locc import OneWayProtocol, apply_protocol, verify_protocol
from .merge import (
    CostReport,
    achievable_cost,
    build_merge_protocol,
    qubit_optimal_merge,
    verify_merge,
)
from .bounds import (
    compare_bounds,
    converse_search,
    converse_simple,
    h_max_conditional,
    qutrit_counterexample_report,
)
from .split import build_split_protocol, split_cost, verify_split
from .approx import (
    best_smoothing_candidate,
    check_ensemble_certificate,
    verify_approximate_merge,
)

__all__ = [
    "CostReport",
    "KIBlock",
    "KIDecomposition",
    "OneWayProtocol",
    "SolverError",
    "TripartiteState",
    "ValidationError",
    "VerificationError",
    "__version__",
    "achievable_cost",
    "apply_protocol",
    "best_smoothing_candidate",
    "build_merge_protocol",
    "build_split_protocol",
    "catalog",
    "check_ensemble_certificate",
    "compare_bounds",
    "converse_search",
    "converse_simple",
    "h_max_conditional",
    "ki_decompose",
    "load_state",
    "qubit_optimal_merge",
    "qutrit_counterexample_report",
    "random_state",
    "save_state",
    "split_cost",
    "verify_approximate_merge",
    "verify_merge",
    "verify_protocol",
    "verify_split",
]
