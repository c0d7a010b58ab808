"""Certified detection of genuine multipartite entanglement of pure
n-qubit states via qubit-loss projections.

The workflow: project a state down one qubit at a time until the exact
2/3/4-qubit product tests apply; two genuinely entangled projections
certify the parent.  Alongside the detector live the projection operator
itself, the proportionality primitive, an entanglement measure counting
certified projections, and an independent brute-force oracle (bipartition
rank plus partial trace and a two-qubit PPT check) for cross-validation.
"""

from .base import (
    BaseVerdict,
    FactorizationWitness,
    all_factorizations,
    coefficient_groups,
    detect_2q,
    detect_3q,
    detect_4q,
    detect_base,
)
from .catalog import (
    CATALOG_KEYS,
    cluster4,
    dicke,
    example3_4q,
    ghz,
    named_state,
    phi4,
    w_state,
    wclass_3q,
)
from .detect import (
    Certificate,
    MeasureReport,
    SufficientCheck,
    SweepReport,
    TraceReport,
    Verdict,
    VerdictKind,
    detect,
    detect_with_trace,
    entanglement_measure,
    format_certificate,
    replay_certificate,
    sufficient_3q,
)
from .oracle import (
    MAX_SCAN_QUBITS,
    find_product_cut,
    numerical_rank,
    oracle_genuine,
    partial_trace,
    ppt_2qubit,
    unfold,
)
from .proportional import family_proportional, max_cross_minor, pair_proportional
from .stateio import dump_state, dumps_state, load_state, loads_state
from .states import (
    DEFAULT_ZERO_RTOL,
    MAX_QUBITS,
    Bipartition,
    ProjectionResult,
    StateVector,
    all_bipartitions,
    all_projections,
    basis_index,
    basis_state,
    equal_up_to_scale,
    lose_qubit,
    lose_qubit_set,
    product_state,
    random_product_state,
    random_state,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BaseVerdict",
    "Bipartition",
    "CATALOG_KEYS",
    "Certificate",
    "DEFAULT_ZERO_RTOL",
    "FactorizationWitness",
    "MAX_QUBITS",
    "MAX_SCAN_QUBITS",
    "MeasureReport",
    "ProjectionResult",
    "StateVector",
    "SufficientCheck",
    "SweepReport",
    "TraceReport",
    "Verdict",
    "VerdictKind",
    "all_bipartitions",
    "all_factorizations",
    "all_projections",
    "basis_index",
    "basis_state",
    "cluster4",
    "coefficient_groups",
    "detect",
    "detect_2q",
    "detect_3q",
    "detect_4q",
    "detect_base",
    "detect_with_trace",
    "dicke",
    "dump_state",
    "dumps_state",
    "entanglement_measure",
    "equal_up_to_scale",
    "example3_4q",
    "family_proportional",
    "find_product_cut",
    "format_certificate",
    "ghz",
    "load_state",
    "loads_state",
    "lose_qubit",
    "lose_qubit_set",
    "max_cross_minor",
    "named_state",
    "numerical_rank",
    "oracle_genuine",
    "pair_proportional",
    "partial_trace",
    "phi4",
    "ppt_2qubit",
    "product_state",
    "random_product_state",
    "random_state",
    "replay_certificate",
    "sufficient_3q",
    "tensor",
    "unfold",
    "w_state",
    "wclass_3q",
]
