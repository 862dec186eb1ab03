"""The benchmark's workloads: the CLI commands of one pass and their checks.

A pass is a closed loop of ``monogamy_lab.cli.main`` calls in one process;
each command starts when the previous one has returned. Checks compare the
outputs with stored references (made by ``make_reference.py``) or with an
independent NumPy/LAPACK oracle, within the tolerances below.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# 83*pi/400: row 83 of the default 401-row t grid, the p2 state of the
# 8-qubit run. Fixed here so the explore input cannot drift with the grid.
P2_PREP_T = 0.6518804756198822

# Timed sizes, scaled down from the CLI defaults so that a run holds several
# passes and its median is steady on a noisy machine. study-8q runs 81 of the
# default 401 t-rows (every fifth row, which still holds p1, p2 and p3) and
# 201 of 2001 explore steps; fig2 runs 1000 of 3000 samples and fig3 25000
# of 100000.
SIZES = {
    "study-8q": {"na": 4, "nb": 4, "t_steps": 81, "tp_steps": 2000, "explore_steps": 201,
                 "xi2": 0.8, "invert_exit": 4},
    "fig2-haar": {"samples": 1000},
    "fig3-spectra": {"samples": 25000},
}

# Warm-up pass, run once per run before timing at REFERENCE_SEED and
# checked against stored reference outputs.
WARM_SIZES = {
    "study-8q": {"na": 2, "nb": 2, "t_steps": 41, "tp_steps": 200, "explore_steps": 101,
                 "xi2": 0.8, "invert_exit": 4},
    "fig2-haar": {"samples": 200},
    "fig3-spectra": {"samples": 1000},
}
REFERENCE_SEED = 0

# Tolerances, absolute. Eigensolvers may disagree by EIG_TOL (LAPACK against
# the Jacobi solver: <= 5e-13 measured); quantities linear in eigenvalues get
# LINEAR_TOL, and concurrences, which take square roots of eigenvalues near
# zero, get SQRT_TOL >= 4*sqrt(EIG_TOL). argmin_tp is fixed only to the
# golden-section tolerance (1e-6), so it gets ten times that.
EIG_TOL = 1e-12
LINEAR_TOL = 1e-9
SQRT_TOL = 1e-5
ARGMIN_TOL = 1e-5
CANDIDATE_TOL = 1e-6
DRIFT_GATE = 1e-9
VIOLATION_SLACK = 1e-9

STUDY_TOLS = {
    "protocol.csv": {"t": EIG_TOL, "s_l_ab": LINEAR_TOL, "xi2_ab": LINEAR_TOL,
                     "min_xi2_a": LINEAR_TOL, "argmin_tp": ARGMIN_TOL, "nonmonotone_flag": 0.0},
    "explore.csv": {"tp": EIG_TOL, "xi2_a": LINEAR_TOL, "n_a": LINEAR_TOL},
}
FIG2_TOLS = {"c_ab": SQRT_TOL, "c_a1a2": SQRT_TOL, "bound": SQRT_TOL, "violation": 0.0}
FIG3_TOLS = {"l1": EIG_TOL, "l2": EIG_TOL, "l3": EIG_TOL, "l4": EIG_TOL,
             "n_ab": LINEAR_TOL, "n_max": LINEAR_TOL, "class": None}


def reference_dir(workload: str, sizes: dict) -> Path:
    for tag, table in (("timed", SIZES), ("warm", WARM_SIZES)):
        if table[workload] == sizes:
            return REFERENCE_DIR / workload / tag
    raise ValueError(f"no stored reference for {workload} at {sizes}")


def commands(workload: str, sizes: dict, seed: int, out: Path, threads: int = 1,
             extra: tuple[str, ...] = ()) -> list[tuple[list[str], int]]:
    """The CLI argument lists of one pass, each with its expected exit code."""
    th = ["--threads", str(threads)]
    if workload == "study-8q":
        reg = ["--na", str(sizes["na"]), "--nb", str(sizes["nb"]), "--hab", "oat", "--ha", "tf"]
        return [
            (["protocol", *reg, "--t-steps", str(sizes["t_steps"]), "--tp-steps",
              str(sizes["tp_steps"]), *th, "--out", str(out / "protocol.csv"), *extra], 0),
            (["invert", "--curve", str(out / "protocol.csv"), "--xi2", str(sizes["xi2"]), *th,
              "--out", str(out / "invert.json")], sizes["invert_exit"]),
            (["explore", *reg, "--prep-t", repr(P2_PREP_T), "--steps", str(sizes["explore_steps"]),
              *th, "--out", str(out / "explore.csv")], 0),
        ]
    if workload == "fig2-haar":
        return [(["fig2", "--samples", str(sizes["samples"]), "--seed", str(seed), *th,
                  "--out", str(out / "fig2.csv"), *extra], 0)]
    if workload == "fig3-spectra":
        return [(["fig3", "--samples", str(sizes["samples"]), "--seed", str(seed), *th,
                  "--out", str(out / "fig3.csv"), *extra], 0)]
    raise ValueError(f"unknown workload {workload!r}")


def items(workload: str, sizes: dict) -> int:
    """Base of qcore.eig.calls_per_item: samples, or t-rows plus explore steps."""
    if workload == "study-8q":
        return sizes["t_steps"] + sizes["explore_steps"]
    return sizes["samples"]


def output_files(workload: str, out: Path) -> list[Path]:
    names = {"study-8q": ["protocol.csv", "explore.csv"],
             "fig2-haar": ["fig2.csv"], "fig3-spectra": ["fig3.csv"]}[workload]
    return [out / n for n in names]


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# CSV comparison


def read_csv(path: Path) -> dict[str, list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    cols = list(zip(*(line.split(",") for line in lines[1:]))) or [()] * len(header)
    return {name: list(col) for name, col in zip(header, cols)}


def compare_columns(name: str, actual: dict[str, list], expected: dict[str, list],
                    tols: dict[str, float | None]) -> list[str]:
    """Failures of actual against expected, column by column.

    A tolerance of None compares strings exactly; a number is an absolute
    bound on the difference of the parsed floats.
    """
    if list(actual) != list(expected):
        return [f"{name}: columns {list(actual)} != {list(expected)}"]
    fails = []
    for col, tol in tols.items():
        a, e = actual[col], expected[col]
        if len(a) != len(e):
            return [f"{name}: {len(a)} rows, expected {len(e)}"]
        if tol is None:
            bad = sum(x != y for x, y in zip(a, e))
            worst = bad
        else:
            diff = np.abs(np.array(a, dtype=float) - np.array(e, dtype=float))
            bad = int(np.count_nonzero(~(diff <= tol)))
            worst = float(np.max(diff)) if diff.size else 0.0
        if bad:
            fails.append(f"{name}: {bad} rows of {col} off by up to {worst:.3g} (tolerance {tol})")
    return fails


# ---------------------------------------------------------------------------
# independent oracles for the seeded datasets


def _children(seed: int, n: int):
    return np.random.SeedSequence(seed).spawn(n)


def fig2_oracle(samples: int, seed: int) -> dict[str, np.ndarray]:
    """Expected fig2 columns from the same per-sample seeds, by batched LAPACK."""
    psi = np.empty((samples, 8), dtype=complex)
    for i, child in enumerate(_children(seed, samples)):
        rng = np.random.default_rng(child)
        psi[i] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    psi /= np.linalg.norm(psi, axis=1)[:, None]
    x = psi.reshape(samples, 4, 2)  # qubits (0,1) | qubit 2
    rho_ab = x @ x.conj().transpose(0, 2, 1)
    rho_c = x.transpose(0, 2, 1) @ x.conj()
    l1 = np.clip(np.linalg.eigvalsh(rho_c)[:, -1], 0.0, 1.0)
    c_ab = 2.0 * np.sqrt(l1 * (1.0 - l1))
    # Wootters concurrence through sqrt(rho) (Y.Y rho* Y.Y) sqrt(rho).
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])
    w, v = np.linalg.eigh(rho_ab)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().transpose(0, 2, 1)
    herm = sqrt_rho @ (yy @ rho_ab.conj() @ yy) @ sqrt_rho
    herm = 0.5 * (herm + herm.conj().transpose(0, 2, 1))
    mu = np.sqrt(np.clip(np.linalg.eigvalsh(herm), 0.0, None))[:, ::-1]
    c = np.clip(mu[:, 0] - mu[:, 1] - mu[:, 2] - mu[:, 3], 0.0, 1.0)
    bound = 0.5 * (1.0 + np.sqrt(1.0 - c_ab**2))
    return {"c_ab": c_ab, "c_a1a2": c, "bound": bound,
            "violation": (c > bound + VIOLATION_SLACK).astype(float)}


_FIG3_MARKERS = ((1.0, 0.0, 0.0, 0.0), (0.5, 0.5, 0.0, 0.0),
                 (1 / 3, 1 / 3, 1 / 3, 0.0), (0.25, 0.25, 0.25, 0.25))


def fig3_oracle(samples: int, seed: int) -> dict[str, np.ndarray]:
    """Expected fig3 columns: sample i draws a flat simplex point with i%3 zeros."""
    spec = np.zeros((samples + 4, 4))
    for i, child in enumerate(_children(seed, samples)):
        k = 4 - (2, 1, 0)[i % 3]
        draws = np.random.default_rng(child).standard_exponential(k)
        spec[i, :k] = draws / draws.sum()
    spec[samples:] = _FIG3_MARKERS
    spec = -np.sort(-spec, axis=1)
    l1, l2, l3, l4 = spec.T
    s = np.sqrt(spec).sum(axis=1)
    nonzero = np.count_nonzero(spec > 1e-12, axis=1)
    cls = np.where(nonzero <= 2, "two_nonzero", np.where(nonzero == 3, "three_nonzero", "four_nonzero"))
    cls[samples:] = "marker"
    return {"l1": l1, "l2": l2, "l3": l3, "l4": l4,
            "n_ab": np.clip((s * s - 1.0) / 3.0, 0.0, 1.0),
            "n_max": np.clip(np.hypot(l1 - l3, l2 - l4) - l2 - l4, 0.0, 1.0),
            "class": list(cls)}


# ---------------------------------------------------------------------------
# per-pass checks


def _manifest(path: Path) -> dict:
    return json.loads(path.with_name(path.name + ".manifest.json").read_text(encoding="utf-8"))


def check_reference(workload: str, sizes: dict, out: Path, seed: int) -> list[str]:
    """Compare a pass with the stored reference outputs of its sizes."""
    ref = reference_dir(workload, sizes)
    if workload == "study-8q":
        fails = []
        for name, tols in STUDY_TOLS.items():
            fails += compare_columns(name, read_csv(out / name), read_csv(ref / name), tols)
        expected = json.loads((ref / "invert.json").read_text(encoding="utf-8"))
        got = json.loads((out / "invert.json").read_text(encoding="utf-8"))["candidates"]
        if len(got) != len(expected["candidates"]):
            fails.append(f"invert: {len(got)} candidates, expected {len(expected['candidates'])}")
        elif not np.allclose(got, expected["candidates"], rtol=0.0, atol=CANDIDATE_TOL):
            fails.append(f"invert: candidates {got} differ from {expected['candidates']}")
        p_states = _manifest(out / "protocol.csv")["p_states"]
        rows = {k: v and v["index"] for k, v in p_states.items()}
        if rows != expected["p_state_rows"]:
            fails.append(f"protocol: p-state rows {rows}, expected {expected['p_state_rows']}")
        return fails
    name = {"fig2-haar": "fig2.csv", "fig3-spectra": "fig3.csv"}[workload]
    if seed != REFERENCE_SEED:
        raise ValueError("stored fig2/fig3 references are at the reference seed only")
    tols = FIG2_TOLS if workload == "fig2-haar" else FIG3_TOLS
    return compare_columns(name, read_csv(out / name), read_csv(ref / name), tols)


def check_oracle(workload: str, sizes: dict, out: Path, seed: int) -> list[str]:
    """Compare a fig2/fig3 pass with the independent oracle at its own seed."""
    if workload == "fig2-haar":
        return compare_columns("fig2.csv", read_csv(out / "fig2.csv"),
                               fig2_oracle(sizes["samples"], seed), FIG2_TOLS)
    return compare_columns("fig3.csv", read_csv(out / "fig3.csv"),
                           fig3_oracle(sizes["samples"], seed), FIG3_TOLS)


def check_gates(workload: str, sizes: dict, out: Path) -> list[str]:
    """Physics gates and row counts read from the manifests of a pass."""
    fails = []
    if workload == "study-8q":
        drift = _manifest(out / "protocol.csv")["max_negativity_drift"]
        if not drift < DRIFT_GATE:
            fails.append(f"protocol: negativity drift {drift:.3g} >= {DRIFT_GATE}")
        expect = {"protocol.csv": sizes["t_steps"], "explore.csv": sizes["explore_steps"]}
    else:
        name = {"fig2-haar": "fig2.csv", "fig3-spectra": "fig3.csv"}[workload]
        violations = _manifest(out / name)["violations"]
        if violations != 0:
            fails.append(f"{name}: {violations} bound violations")
        expect = {name: sizes["samples"] + (4 if workload == "fig3-spectra" else 0)}
    for name, rows in expect.items():
        got = _manifest(out / name)["outputs"][0]["rows"]
        if got != rows:
            fails.append(f"{name}: {got} rows, expected {rows}")
    return fails
