"""Write the CLI outputs whose bytes a change to the numerics must keep.

Usage: ``PYTHONPATH=src python tools/output_bytes.py OUTDIR``

Runs each command below in this process through ``monogamy_lab.cli.main``,
into its own folder under OUTDIR, and records every exit code in
OUTDIR/exit_codes.txt; exits 1 if any code is not the expected one. Two
trees made from two versions of the package hold the same bytes when

    diff -r --exclude='*.manifest.json' OLD NEW

prints nothing (manifests carry wall times, so they always differ).

The set: the benchmark's study-8q passes (warm and timed), its fig2 pass
under seeds 0 and 11 and its fig3 pass, all as ``perfbench/workloads.py``
lists them; fig2 at the CLI's defaults (3,000 samples, seed 0);
appendix-b at its defaults and at two larger sizes; a 3+2
GHZ protocol; and, outside the benchmark's sizes, a 3+2 OAT protocol (a
5-qubit entangler and A's engine, both solved in real arithmetic), a
3+3 TAT explore (a complex sym(A) engine) and an 8+8 TF explore (beyond
the protocol's 5 qubits a side).
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from monogamy_lab.cli import main

# The benchmark's own command lists (perfbench is not a package).
_spec = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# folder -> (benchmark workload, sizes, seed)
BENCHMARK_RUNS = {
    "study-8q-warm": ("study-8q", workloads.WARM_SIZES["study-8q"], workloads.REFERENCE_SEED),
    "study-8q-timed": ("study-8q", workloads.SIZES["study-8q"], workloads.REFERENCE_SEED),
    "fig2-seed0": ("fig2-haar", workloads.SIZES["fig2-haar"], 0),
    "fig2-seed11": ("fig2-haar", workloads.SIZES["fig2-haar"], 11),
    "fig3": ("fig3-spectra", workloads.SIZES["fig3-spectra"], 0),
}

# folder -> the arguments of one more command, before its --out
OTHER_RUNS = {
    "fig2-default": ["fig2"],
    "appendix-b": ["appendix-b"],
    "appendix-b-8-40": ["appendix-b", "--sizes", "8,40", "--steps", "201"],
    "protocol-3-2-ghz-tat": ["protocol", "--na", "3", "--nb", "2", "--hab", "ghz", "--ha", "tat",
                             "--t-steps", "41", "--tp-steps", "200"],
    "protocol-3-2-oat-oat": ["protocol", "--na", "3", "--nb", "2", "--hab", "oat", "--ha", "oat"],
    "explore-3-3-tat": ["explore", "--na", "3", "--nb", "3", "--ha", "tat"],
    "explore-8-8-tf": ["explore", "--na", "8", "--nb", "8", "--ha", "tf"],
}


def runs(outdir: Path) -> dict[Path, list[tuple[list[str], int]]]:
    """Each run's folder and its (argv, expected exit code) pairs, in order."""
    out = {outdir / name: workloads.commands(workload, sizes, seed, outdir / name)
           for name, (workload, sizes, seed) in BENCHMARK_RUNS.items()}
    for name, argv in OTHER_RUNS.items():
        out[outdir / name] = [([*argv, "--out", str(outdir / name / f"{argv[0]}.csv")], 0)]
    return out


def write_all(outdir: Path) -> bool:
    """Run every command into outdir; return whether each exit code was
    the expected one."""
    lines, ok = [], True
    for folder, commands in runs(outdir).items():
        folder.mkdir(parents=True, exist_ok=True)
        for argv, expected in commands:
            with contextlib.redirect_stdout(io.StringIO()):  # invert prints its JSON
                code = main(argv)
            ok &= code == expected
            lines.append(f"{folder.name} {argv[0]} {code} (expected {expected})")
    (outdir / "exit_codes.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))
    return ok


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(0 if write_all(Path(sys.argv[1])) else 1)
