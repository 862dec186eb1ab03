"""The benchmark's own test, on tiny sizes.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_prints_with_its_unit(workload, trace, capsys):
    out = run.run(workload, seed=5, seconds=1, trace=trace, sizes=wl.WARM_SIZES[workload])
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == declared
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    lines = capsys.readouterr().out.splitlines()
    for name, unit in declared.items():
        assert any(ln.startswith(f"{workload} {name} ") and ln.endswith(f" {unit}") for ln in lines), name
    if trace:
        value = {name: m["value"] for name, m in out["metrics"].items()}
        eig_calls = sum(value[f"qcore.eig.{b}.calls"] for b in ("small", "mid", "large"))
        if workload == "fig3-spectra":
            assert eig_calls == 0 and value["measures.spectrum.calls"] > 0
        else:
            assert eig_calls > 0
        if workload == "study-8q":
            # protocol binds build by `from ... import`; it must be traced too.
            assert value["hamiltonians.build.calls"] > 0 and value["spin.xi2.refine_calls"] > 0


def test_corrupt_bound_hook_shows_as_failed(capsys):
    out = run.run("fig2-haar", seed=5, seconds=1, trace=False, sizes=wl.WARM_SIZES["fig2-haar"],
                  extra_args=("--test-corrupt-bound",))
    assert not out["correct"] and out["failed"] > 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if " failed_frac " in ln)
    assert float(line.split()[2]) > 0


def test_missing_trace_target_warns_and_counts_zero(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    import monogamy_lab.cli  # noqa: F401

    monkeypatch.setattr(tracing, "TARGETS",
                        [*tracing.TARGETS, ("measures", "deleted_function", "measures.negativity", None)])
    tracer = tracing.Tracer()
    with pytest.warns(UserWarning, match="deleted_function"):
        tracer.install()
    try:
        assert tracer.missing == ["measures.deleted_function"]
        assert tracer.pass_metrics()["measures.negativity.calls"] == 0
    finally:
        tracer.uninstall()


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig2-haar", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout
