"""monogamy_lab: exact qubit-register simulation of bipartite-entanglement
bounds and spin-squeezing based entanglement estimation."""

from .errors import (
    ConfigError,
    ContractViolationError,
    DimensionMismatchError,
    DomainError,
    ExtrapolationError,
    InvalidPartitionError,
    MonogamyLabError,
    ResourceCapError,
    UndefinedScoreError,
)
from .qcore import (
    DensityMatrix,
    Partition,
    PureState,
    SpectralPropagator,
    Spectrum,
    all_down_state,
    basis_state,
    dm_from_pure,
    evolve,
    expectation,
    fidelity,
    half_partition,
    hermitian_eigen,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    spectrum_of,
    tensor_product,
)
from .measures import (
    concurrence,
    linear_entropy,
    max_concurrence,
    max_negativity,
    negativity_2pn_from_spectrum,
    negativity_from_coefficients,
    negativity_normalized,
    negativity_normalized_pure,
    negativity_raw,
    negativity_raw_pure,
    tsallis_entropy,
)
from .spin import CollectiveSpinOps, SqueezingResult, collective_ops, squeezing_parameter, symmetric_ops
from .hamiltonians import Hamiltonian, HamiltonianKind, SymmetryReport, build as build_hamiltonian, symmetry_report
from .analytic import (
    GhzAnalytics,
    cmax_boundary,
    ghz_protocol_analytics,
    ghz_s_l_from_min_xi2,
    negative_eigs_2pn,
    nmax_boundary_2p1,
    nmax_boundary_rank2,
    spectrum_state_2pn,
    threshold_negativity,
    threshold_state,
    verify_threshold_region,
)
from .sampling import (
    Dataset,
    SampleClass,
    fig2_dataset,
    fig3_dataset,
    haar_random_pure,
    random_spectrum,
)
from .protocol import (
    AppendixBTrace,
    CalibrationCurve,
    ExplorationTrace,
    InversionResult,
    ProtocolConfig,
    ProtocolTrace,
    appendix_b_study,
    calibration,
    default_t_grid,
    default_tp_grid,
    explore_measure_vs_squeezing,
    invert,
    monotonicity_score,
    run_protocol,
    run_protocol_multi,
)

__version__ = "0.1.0"
