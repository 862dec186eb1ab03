"""Benchmark of the monogamy-lab CLI on three fixed workloads.

    python3 perfbench/run.py --workload study-8q --seed 1 --seconds 20 --trace 0

Runs from the repository root and imports the package from ./src. A
worker process (worker.py) runs warm-up and timed passes of one workload
with BLAS/OpenMP pinned to one thread; fresh processes time the package's
set-up. Human-readable lines, with the machine facts, come first; the last
line of stdout is one JSON object with the end-to-end metrics (--trace 0)
or the per-layer metrics of a traced run (--trace 1). ``--workload all``
runs every workload in turn. Scratch output goes to ./.perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = tuple(wl.SIZES)
WORKER_TIMEOUT_S = 170
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{f"{layer}.{what}": unit for layer in tracing.LAYERS
       for what, unit in (("calls", "count"), ("self_s", "s"))},
    "spin.xi2.points": "count",
    "spin.xi2.refine_calls": "count",
    "spin.xi2.degenerate_points": "count",
    "protocol.refine_win_ratio": "ratio",
    "parallel.map.calls": "count",
    "parallel.map.items": "count",
    "parallel.map.busy_s": "s",
    "parallel.speedup_2t": "ratio",
    "cli.out_bytes": "bytes",
    "cli.out_rows": "count",
    "qcore.eig.calls_per_item": "calls/item",
    "trace.overhead_frac": "frac",
}


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "MONOGAMY_LAB_THREADS"}
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run(workload: str, seed: int, seconds: int, trace: bool,
        sizes: dict | None = None, extra_args: tuple[str, ...] = ()) -> dict:
    """One benchmark run; prints the human-readable lines, returns the result object."""
    work = ROOT / ".perfbench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "sizes": sizes or wl.SIZES[workload], "warm_sizes": wl.WARM_SIZES[workload],
        "extra_args": list(extra_args), "workdir": str(work),
    }
    (work / "spec.json").write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    with open(work / "worker.log", "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "spec.json"), str(work / "result.json")],
            env=child_env(), stdout=log, stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}; see {work / 'worker.log'}")
    # The worker (whose set-up probes are smaller) is the only child so far.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))

    attempted, failures, warm_failed = result["attempted"], result["failures"], result["warm_failed"]
    failed = len(failures)
    if workload != "study-8q" and failed == warm_failed:
        # Every pass after the warm-up matched the first timed pass byte for
        # byte, so one oracle check covers them all.
        oracle = wl.check_oracle(workload, spec["sizes"], work / "timed", seed)
        if oracle:
            failures = [*failures, "every pass after the warm-up: " + "; ".join(oracle)]
            failed = attempted - 1 + warm_failed
    if trace:
        layer = result["per_layer"]
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {"wall_s": result["wall_ref_s"],
                  "setup_s": statistics.median(result["setups_s"]),
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    print("machine", json.dumps(result["machine"], sort_keys=True))
    print(workload, "sizes", json.dumps(spec["sizes"], sort_keys=True))
    print(workload, "pass wall times (s)", json.dumps([round(w, 4) for w in result["walls_s"]]))
    print(workload, "calibration kernel times (s)", json.dumps([round(c, 4) for c in result["calibs_s"]]))
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"{workload} wall_raw_s {statistics.median(result['walls_s']):.6g} s (median, not scaled)")
    print(f"{workload} failed_frac {failed / attempted:.6g} frac ({failed} of {attempted} passes)")
    for line in failures:
        print(f"{workload} FAILED {line}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "monogamy_lab" / "cli.py").is_file():
        print(f"error: {SRC / 'monogamy_lab'} not found; run from a monogamy-lab checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so each peak_rss_mb is its own worker's.
        for workload in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)], check=True)
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
