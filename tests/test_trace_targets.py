"""Every function the benchmark tracer wraps still exists.

``perfbench/tracing.py`` names its targets by module and attribute path. A
source change that deletes or renames one leaves the benchmark reporting zero
calls for that layer, so this runs the tracer's own installer and expects it
to find every target.
"""

import importlib.util
from pathlib import Path

import monogamy_lab.cli  # noqa: F401  (loads every module the targets name)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
    finally:
        tracer.uninstall()
