"""The package's public surface, pinned: adding or dropping an export shows
up as an edit to this list. Also how it loads: `import monogamy_lab` runs
the package file only, and each name imports its submodule when first read."""

import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import monogamy_lab
from test_trace_targets import _load_tracing

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


# ---------------------------------------------------------------------------
# lazy loading: `import monogamy_lab` runs the package file only

# The modules that set-up never needs: none of them loads on a bare import.
HEAVY = ("protocol", "measures", "sampling", "spin", "analytic", "hamiltonians")
# What a fresh process has loaded (and what dir() lists) after a bare
# import, after reading hermitian_eigen, after reading a submodule's name,
# and after importing the CLI.
_SNAPSHOTS = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "numpy.random" or m.startswith("monogamy_lab"))
import monogamy_lab
snaps = {"bare": loaded(), "dir": dir(monogamy_lab)}
monogamy_lab.hermitian_eigen
snaps["probe"] = loaded()
snaps["submodule"] = monogamy_lab.protocol.__name__
import monogamy_lab.cli
snaps["cli"] = loaded()
print(json.dumps(snaps))
"""


@pytest.fixture(scope="module")
def snapshots():
    src = str(Path(monogamy_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _SNAPSHOTS], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def test_bare_import_loads_no_submodule(snapshots):
    assert not {f"monogamy_lab.{name}" for name in HEAVY} & set(snapshots["bare"])
    assert "numpy.random" not in snapshots["bare"]


def test_reading_hermitian_eigen_loads_only_its_modules(snapshots):
    added = set(snapshots["probe"]) - set(snapshots["bare"])
    assert added == {"monogamy_lab.qcore", "monogamy_lab._jacobi", "monogamy_lab.errors"}


def test_dir_lists_every_public_name_before_any_is_read(snapshots):
    assert PUBLIC_NAMES <= set(snapshots["dir"])


def test_submodule_resolves_after_a_bare_import(snapshots):
    assert snapshots["submodule"] == "monogamy_lab.protocol"


def test_cli_import_loads_every_traced_module(snapshots):
    # `_parallel` is the exception: no module imports it, and the tracer
    # imports it itself when it installs
    traced = {f"monogamy_lab.{module}" for module, *_ in _load_tracing().TARGETS}
    assert traced - {"monogamy_lab._parallel"} <= set(snapshots["cli"])


def test_each_public_name_is_its_defining_modules_object():
    # the defining module holds each object under the object's own name;
    # only build_hamiltonian is renamed (from hamiltonians.build)
    for name in sorted(PUBLIC_NAMES):
        obj = getattr(monogamy_lab, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("monogamy_lab."), name
        assert getattr(module, obj.__name__) is obj, name
        assert obj.__name__ == ("build" if name == "build_hamiltonian" else name)
    assert monogamy_lab.build_hamiltonian is importlib.import_module("monogamy_lab.hamiltonians").build


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from monogamy_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="'monogamy_lab' has no attribute 'no_such_name'"):
        monogamy_lab.no_such_name  # noqa: B018


def test_tracer_leaves_no_wrapper_on_the_package():
    from monogamy_lab import protocol

    original = protocol.run_protocol
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert monogamy_lab.run_protocol is protocol.run_protocol is not original
    finally:
        tracer.uninstall()
    assert monogamy_lab.run_protocol is protocol.run_protocol is original
