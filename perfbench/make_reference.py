"""Regenerate the stored reference outputs under perfbench/reference/.

Run from the repository root, on the commit whose outputs are the
reference: python3 perfbench/make_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from monogamy_lab import cli  # noqa: E402


def make(workload: str, sizes: dict) -> None:
    ref = wl.reference_dir(workload, sizes)
    shutil.rmtree(ref, ignore_errors=True)
    ref.mkdir(parents=True)
    rcs = []
    for argv, _ in wl.commands(workload, sizes, wl.REFERENCE_SEED, ref):
        with contextlib.redirect_stdout(io.StringIO()):
            rcs.append(cli.main(argv))
    if workload == "study-8q":
        manifest = json.loads((ref / "protocol.csv.manifest.json").read_text(encoding="utf-8"))
        invert = json.loads((ref / "invert.json").read_text(encoding="utf-8"))
        summary = {
            "candidates": invert["candidates"],
            "p_state_rows": {k: v and v["index"] for k, v in manifest["p_states"].items()},
        }
        (ref / "invert.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    for path in ref.glob("*.manifest.json"):
        path.unlink()
    print(workload, ref.name, "exit codes", rcs)


if __name__ == "__main__":
    make("study-8q", wl.SIZES["study-8q"])
    for name in wl.WARM_SIZES:
        make(name, wl.WARM_SIZES[name])
