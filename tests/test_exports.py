"""The package's public surface, pinned: adding or dropping an export shows
up as an edit to this list."""

import types

import monogamy_lab

PUBLIC_NAMES = {
    # errors
    "ConfigError", "ContractViolationError", "DimensionMismatchError", "DomainError",
    "ExtrapolationError", "InvalidPartitionError", "MonogamyLabError", "ResourceCapError",
    "UndefinedScoreError",
    # qcore
    "DensityMatrix", "Partition", "PureState", "SpectralPropagator", "all_down_state",
    "dm_from_pure", "evolve", "half_partition", "hermitian_eigen", "hermitian_eigenvalues",
    "partial_trace", "partial_transpose", "tensor_product",
    # measures
    "concurrence", "linear_entropy", "max_concurrence", "max_negativity",
    "negativity_2pn_from_spectrum", "negativity_from_coefficients", "negativity_normalized",
    "negativity_normalized_pure", "negativity_raw", "negativity_raw_pure", "tsallis_entropy",
    # spin
    "CollectiveSpinOps", "SqueezingResult", "collective_ops", "squeezing_parameter", "symmetric_ops",
    # hamiltonians
    "HamiltonianKind", "SymmetryReport", "build_hamiltonian", "symmetry_report",
    # analytic
    "GhzAnalytics", "cmax_boundary", "ghz_protocol_analytics", "ghz_s_l_from_min_xi2",
    "negative_eigs_2pn", "nmax_boundary_2p1", "nmax_boundary_rank2", "spectrum_state_2pn",
    "threshold_negativity", "verify_threshold_region",
    # sampling
    "Dataset", "SampleClass", "fig2_dataset", "fig3_dataset", "haar_random_pure", "random_spectrum",
    # protocol
    "AppendixBTrace", "CalibrationCurve", "ExplorationTrace", "InversionResult", "ProtocolConfig",
    "ProtocolTrace", "appendix_b_study", "calibration", "default_t_grid", "default_tp_grid",
    "explore_measure_vs_squeezing", "invert", "monotonicity_score", "run_protocol",
    "run_protocol_multi",
}


def test_public_names_are_pinned():
    # submodules are left out: importing one (say `cli`) adds it to the
    # package namespace, so which ones appear depends on what ran first
    public = sorted(
        name
        for name in dir(monogamy_lab)
        if not name.startswith("_") and not isinstance(getattr(monogamy_lab, name), types.ModuleType)
    )
    assert public == sorted(PUBLIC_NAMES)
