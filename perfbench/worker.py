"""One workload process: runs timed passes of the CLI and checks every one.

Started by run.py with pinned BLAS/OpenMP thread counts; reads a JSON spec
and writes a JSON result. Usage: python3 perfbench/worker.py SPEC RESULT
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads as wl
from tracing import Tracer

MIN_PASSES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# setup_s: import plus a first 4x4 eigensolve, timed inside a fresh process.
# One probe per SETUP_EVERY_S of run time, between passes, so the median
# samples the whole run rather than one moment of it.
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import monogamy_lab, numpy as np; "
    "h = np.arange(16.0).reshape(4, 4); monogamy_lab.hermitian_eigen(h + h.T); "
    "print(time.perf_counter() - t0)"
)
SETUP_EVERY_S = 2.5
# On a shared VM the speed of identical work switches between levels up to
# 1.5x apart, every few seconds to minutes, for the program and this kernel
# alike. The kernel runs CALIB_RUNS times after every CLI command, and a
# phase's median pass time is scaled by CALIB_REF_S / (the phase's median
# kernel time): the pass time at the reference speed. CALIB_REF_S is the
# kernel's median on a 2-vCPU Intel Xeon VM at 2.1 GHz (Python 3.11,
# numpy 2.4, OpenBLAS 1 thread).
CALIB_REF_S = 0.044
CALIB_RUNS = 3


def calibration_s() -> float:
    """Time of a fixed mix of interpreted Python and small NumPy calls."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    a = np.eye(4) * 0.5
    for _ in range(3000):
        a = (a @ a + np.eye(4)) * 0.5
    return time.perf_counter() - start


def at_reference_speed(walls: list[float], calibs: list[float]) -> float:
    return statistics.median(walls) * CALIB_REF_S / statistics.median(calibs)


def setup_probe() -> float:
    return float(subprocess.run([sys.executable, "-c", SETUP_CODE], check=True,
                                capture_output=True, text=True, timeout=60).stdout)


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: {f: v.get(f) for f in ("name", "version")} for k, v in blas.items()},
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


class Runner:
    def __init__(self, spec: dict):
        from monogamy_lab import cli

        self.cli = cli
        self.spec = spec
        self.workload = spec["workload"]
        self.work = Path(spec["workdir"])
        self.attempted = 0
        self.failures: list[str] = []
        self.tracer: Tracer | None = None
        self.warm_failed = False
        self._first: tuple[str, list[str]] | None = None  # digest and failures of the first timed pass

    def _main(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                if self.tracer is None:
                    return self.cli.main(argv)
                return self.tracer.call("cli", self.cli.main, argv)
            except SystemExit as exc:  # argparse rejected the arguments
                return exc.code

    def run_pass(self, sizes: dict, seed: int, label: str, threads: int = 1,
                 calibs: list[float] | None = None) -> float:
        """Run one pass, check it, and return its wall time in seconds.

        With calibs, the calibration kernel runs (untimed) after every command.
        """
        out = self.work / label
        out.mkdir(parents=True, exist_ok=True)
        cmds = wl.commands(self.workload, sizes, seed, out, threads, tuple(self.spec["extra_args"]))
        rcs, fails, wall = [], [], 0.0
        try:
            for argv, _ in cmds:
                start = time.perf_counter()
                rcs.append(self._main(argv))
                wall += time.perf_counter() - start
                if calibs is not None:
                    calibs.extend(calibration_s() for _ in range(CALIB_RUNS))
        except Exception:  # a crash fails this pass, not the run
            fails.append(f"{cmds[len(rcs)][0][0]} raised: {traceback.format_exc(limit=-1)}")

        self.attempted += 1
        fails += [f"{argv[0]}: exit {rc}, expected {want}"
                  for (argv, want), rc in zip(cmds, rcs) if rc != want]
        if not fails:
            try:
                fails = self.check(sizes, seed, out, label)
            except (OSError, ValueError, KeyError) as exc:
                fails = [f"outputs unreadable: {exc!r}"]
        if fails:
            self.failures.append(f"pass {self.attempted} ({label}): " + "; ".join(fails))
            self.warm_failed |= label == "warm"
        return wall

    def check(self, sizes: dict, seed: int, out: Path, label: str) -> list[str]:
        fails = wl.check_gates(self.workload, sizes, out)
        if label == "warm":
            return fails + wl.check_reference(self.workload, sizes, out, seed)
        # fig2/fig3 outputs are checked against the oracle by run.py after
        # this process exits, so the check's memory stays out of peak_rss_mb.
        digest = wl.digest(wl.output_files(self.workload, out))
        if self._first is None:
            first = wl.check_reference(self.workload, sizes, out, seed) if self.workload == "study-8q" else []
            self._first = (digest, first)
            fails += first
        elif digest != self._first[0]:
            fails.append("outputs differ from the first timed pass of this run")
        elif self._first[1]:
            fails.append("same outputs as the first timed pass, which failed its check")
        return fails

    def timed(self, until: float, seed: int, label: str, threads: int = 1, least: int = 1,
              setups: list[float] | None = None) -> tuple[list[float], list[float]]:
        """Pass wall times until the clock reaches until (at least least passes),
        and the calibration kernel times around them."""
        walls, calibs = [], [calibration_s() for _ in range(CALIB_RUNS)]
        start = time.perf_counter()
        while len(walls) < least or time.perf_counter() < until:
            walls.append(self.run_pass(self.spec["sizes"], seed, label, threads, calibs))
            while setups is not None and len(setups) < (time.perf_counter() - start) / SETUP_EVERY_S:
                setups.append(setup_probe())
        return walls, calibs


def traced_metrics(runner: Runner, until: float, seed: int, untraced_s: float,
                   two_thread_s: float) -> dict[str, float]:
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    per_pass, walls, calibs = [], [], [calibration_s() for _ in range(CALIB_RUNS)]
    try:
        while not walls or time.perf_counter() < until:
            tracer.reset()
            walls.append(runner.run_pass(runner.spec["sizes"], seed, "traced", calibs=calibs))
            metrics = tracer.pass_metrics()
            out = runner.work / "traced"
            files = wl.output_files(runner.workload, out)
            metrics["cli.out_bytes"] = sum(p.stat().st_size for p in files)
            metrics["cli.out_rows"] = sum(p.read_text(encoding="utf-8").count("\n") - 1 for p in files)
            per_pass.append(metrics)
    finally:
        runner.tracer = None
        tracer.uninstall()
    tracer.write_spans(runner.work / "spans.csv")

    med = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    rows = med.pop("protocol.refine.rows")
    off_grid = med.pop("protocol.refine.off_grid")
    med["protocol.refine_win_ratio"] = off_grid / rows if rows else 0.0
    eig_calls = sum(med[f"qcore.eig.{b}.calls"] for b in ("small", "mid", "large"))
    med["qcore.eig.calls_per_item"] = eig_calls / wl.items(runner.workload, runner.spec["sizes"])
    med["parallel.speedup_2t"] = untraced_s / two_thread_s
    med["trace.overhead_frac"] = at_reference_speed(walls, calibs) / untraced_s - 1.0
    return med


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    seconds, seed = spec["seconds"], spec["seed"]
    runner = Runner(spec)
    runner.run_pass(spec["warm_sizes"], wl.REFERENCE_SEED, "warm")
    start = time.perf_counter()

    result = {"machine": machine_facts(), "sizes": spec["sizes"]}
    if not spec["trace"]:
        result["setups_s"] = []
        walls, calibs = runner.timed(start + seconds, seed, "timed", least=MIN_PASSES,
                                     setups=result["setups_s"])
    else:
        walls, calibs = runner.timed(start + seconds / 2, seed, "timed")
        two_thread = at_reference_speed(*runner.timed(0.0, seed, "timed2t", threads=2))
        result["per_layer"] = traced_metrics(runner, start + seconds, seed,
                                             at_reference_speed(walls, calibs), two_thread)
    result.update(walls_s=walls, calibs_s=calibs, wall_ref_s=at_reference_speed(walls, calibs))
    result.update(attempted=runner.attempted, failures=runner.failures, warm_failed=runner.warm_failed)
    Path(result_path).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
