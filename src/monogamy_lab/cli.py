"""Command-line front end.

Every subcommand is deterministic given its flags, emits CSV files with
frozen column schemas, and writes a JSON manifest (``<out>.manifest.json``)
recording the resolved configuration, version, wall time, and a sha256
digest of each output file. Only the sampled datasets (``fig2``, ``fig3``)
take ``--seed``, and their manifests record it.

Exit codes: 0 success; 1 property violation in the generated data; 2 I/O,
parse, configuration, or query errors; 3 resource cap exceeded; 4 ambiguous
inversion.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, analytic, protocol, sampling
from ._parallel import THREADS_ENV_VAR, resolve_threads
from .errors import ExtrapolationError, MonogamyLabError, ResourceCapError
from .hamiltonians import HamiltonianKind

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_IO = 2
EXIT_RESOURCE = 3
EXIT_AMBIGUOUS = 4

VIOLATION_SLACK = 1e-9
# Options that count something and must be at least 1.
COUNT_OPTIONS = ("threads", "samples", "steps", "t_steps", "tp_steps")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows) -> int:
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
            count += 1
    return count


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_path: Path, command: str, config: dict, outputs: list[Path],
                    rows: dict[str, int], started: float, extra: dict | None = None) -> None:
    payload = {
        "schema_version": 1,
        "command": command,
        "config": config,
        "library_version": __version__,
        "wall_time_s": time.perf_counter() - started,
        "outputs": [
            {"path": str(p), "sha256": _sha256(p), "rows": rows.get(str(p))} for p in outputs
        ],
    }
    if extra:
        payload.update(extra)
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    manifest_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    cfg = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {line!r}")
        key, value = line.split("=", 1)
        cfg[key.strip().replace("-", "_")] = value.strip()
    return cfg


def _resolve(args, file_cfg: dict, name: str, default, cast):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in file_cfg:
        return cast(file_cfg[name])
    return default


def _check_counts(args, file_cfg: dict) -> None:
    """Reject a count below 1 from any subcommand's flags or config file, and
    resolve the worker count (flag, config file, then the environment)."""
    for name in COUNT_OPTIONS:
        if hasattr(args, name):
            value = _resolve(args, file_cfg, name, None, int)
            if value is not None and value < 1:
                raise ValueError(f"--{name.replace('_', '-')} must be >= 1")
    args.threads = resolve_threads(_resolve(args, file_cfg, "threads", None, int))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monogamy-lab",
        description="Entanglement-bound datasets and the squeezing-calibration protocol.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, metavar="FILE", help="key=value defaults file")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker count (fallback: ${THREADS_ENV_VAR}, then 1)")

    fig2 = sub.add_parser("fig2", help="Concurrence monogamy dataset for three-qubit states.")
    fig2.add_argument("--samples", type=int, default=None)
    fig2.add_argument("--seed", type=int, default=None)
    fig2.add_argument("--out", required=True, metavar="CSV")
    fig2.add_argument("--test-corrupt-bound", action="store_true", help=argparse.SUPPRESS)
    common(fig2)

    fig3 = sub.add_parser("fig3", help="Negativity bound-region dataset for 2+N spectra.")
    fig3.add_argument("--samples", type=int, default=None)
    fig3.add_argument("--seed", type=int, default=None)
    fig3.add_argument("--out", required=True, metavar="CSV")
    common(fig3)

    prot = sub.add_parser("protocol", help="Run the squeezing-calibration protocol.")
    prot.add_argument("--na", type=int, default=None)
    prot.add_argument("--nb", type=int, default=None)
    prot.add_argument("--hab", choices=["oat", "ghz"], default=None)
    prot.add_argument("--ha", choices=["oat", "tat", "tf", "ghz"], default=None)
    prot.add_argument("--t-steps", type=int, default=None)
    prot.add_argument("--tp-steps", type=int, default=None)
    prot.add_argument("--out", required=True, metavar="CSV")
    common(prot)

    exp = sub.add_parser("explore", help="Squeezing vs negativity trajectory for a prepared A.")
    exp.add_argument("--na", type=int, default=None)
    exp.add_argument("--nb", type=int, default=None)
    exp.add_argument("--hab", choices=["oat", "ghz"], default=None)
    exp.add_argument("--prep-t", type=float, default=None,
                     help="entangling time preparing the mixed state of A")
    exp.add_argument("--ha", choices=["oat", "tat", "tf", "ghz"], default=None)
    exp.add_argument("--t-max", type=float, default=None)
    exp.add_argument("--steps", type=int, default=None)
    exp.add_argument("--out", required=True, metavar="CSV")
    common(exp)

    appb = sub.add_parser("appendix-b", help="Pure-state squeezing study per subsystem size.")
    appb.add_argument("--sizes", default=None, help="comma list of even sizes, e.g. 2,4,6,8")
    appb.add_argument("--ha-kinds", default=None, help="comma list from oat,tat,tf")
    appb.add_argument("--t-max", type=float, default=None)
    appb.add_argument("--steps", type=int, default=None)
    appb.add_argument("--out", required=True, metavar="PREFIX",
                      help="output prefix; one CSV per (size, kind)")
    common(appb)

    inv = sub.add_parser("invert", help="Invert a calibration curve at a measured min xi2_A.")
    inv.add_argument("--curve", required=True, metavar="CSV", help="protocol output file")
    inv.add_argument("--xi2", type=float, required=True)
    inv.add_argument("--merge-tol", type=float, default=None,
                     help="candidates closer than this collapse into one")
    inv.add_argument("--out", default=None, metavar="JSON")
    common(inv)

    return parser


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fig2(args, file_cfg: dict) -> int:
    started = time.perf_counter()
    samples = int(_resolve(args, file_cfg, "samples", 3000, int))
    seed = int(_resolve(args, file_cfg, "seed", 0, int))

    ds = sampling.fig2_dataset(samples, seed, args.threads)
    x, y = ds.x, ds.y
    bound = analytic.cmax_boundary(x)
    if args.test_corrupt_bound:
        bound = 0.5 * bound
    violation = (y > bound + VIOLATION_SLACK).astype(int)

    out = Path(args.out)
    rows = (
        [_fmt(x[i]), _fmt(y[i]), _fmt(bound[i]), str(int(violation[i]))]
        for i in range(len(x))
    )
    count = _write_csv(out, ["c_ab", "c_a1a2", "bound", "violation"], rows)
    config = {"samples": samples, "seed": seed, "threads": args.threads,
              "corrupt_bound_test_hook": bool(args.test_corrupt_bound), **ds.metadata}
    _write_manifest(out, "fig2", config, [out], {str(out): count}, started,
                    extra={"seed": seed, "violations": int(violation.sum())})
    return EXIT_OK if int(violation.sum()) == 0 else EXIT_VIOLATION


def _cmd_fig3(args, file_cfg: dict) -> int:
    started = time.perf_counter()
    samples = int(_resolve(args, file_cfg, "samples", 100000, int))
    seed = int(_resolve(args, file_cfg, "seed", 0, int))

    ds = sampling.fig3_dataset(samples, seed, args.threads)
    threshold = analytic.threshold_negativity(verify=False)
    violations = int(np.count_nonzero((ds.x > threshold + VIOLATION_SLACK) & (ds.y > 1e-12)))

    out = Path(args.out)
    rows = (
        [*(_fmt(v) for v in vals), _fmt(x), _fmt(y), cls.value]
        for vals, x, y, cls in zip(ds.spectra.tolist(), ds.x.tolist(), ds.y.tolist(), ds.cls)
    )
    count = _write_csv(out, ["l1", "l2", "l3", "l4", "n_ab", "n_max", "class"], rows)
    config = {"samples": samples, "seed": seed, "threads": args.threads, **ds.metadata}
    _write_manifest(out, "fig3", config, [out], {str(out): count}, started,
                    extra={"seed": seed, "threshold": threshold, "violations": violations})
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def _check_subsystem_cap(n_a: int, n_b: int) -> None:
    if max(n_a, n_b) > protocol.MAX_SUBSYSTEM_QUBITS:
        raise ResourceCapError(
            f"per-subsystem size is capped at {protocol.MAX_SUBSYSTEM_QUBITS} qubits"
        )


def _cmd_protocol(args, file_cfg: dict) -> int:
    started = time.perf_counter()
    n_a = int(_resolve(args, file_cfg, "na", 2, int))
    n_b = int(_resolve(args, file_cfg, "nb", 2, int))
    hab = str(_resolve(args, file_cfg, "hab", "oat", str))
    ha = str(_resolve(args, file_cfg, "ha", "tf", str))
    t_steps = int(_resolve(args, file_cfg, "t_steps", 401, int))
    tp_steps = int(_resolve(args, file_cfg, "tp_steps", 2000, int))
    _check_subsystem_cap(n_a, n_b)

    cfg = protocol.ProtocolConfig(
        n_a=n_a,
        n_b=n_b,
        h_ab_kind=hab,
        h_a_kind=ha,
        t_grid=protocol.default_t_grid(hab, t_steps),
        tp_grid=protocol.default_tp_grid(ha, tp_steps),
    )
    score_kinds = []
    for kind in [HamiltonianKind(ha), HamiltonianKind.OAT, HamiltonianKind.TAT, HamiltonianKind.TF]:
        if kind not in score_kinds:
            score_kinds.append(kind)
    traces = protocol.run_protocol_multi(cfg, score_kinds, args.threads)
    trace = traces[HamiltonianKind(ha)]

    out = Path(args.out)
    rows = (
        [
            _fmt(trace.t[i]),
            _fmt(trace.s_l_ab[i]),
            _fmt(trace.xi2_ab[i]),
            _fmt(trace.min_xi2_a[i]),
            _fmt(trace.argmin_tp[i]),
            str(int(trace.nonmonotone[i])),
        ]
        for i in range(len(trace))
    )
    count = _write_csv(
        out, ["t", "s_l_ab", "xi2_ab", "min_xi2_a", "argmin_tp", "nonmonotone_flag"], rows
    )

    scores = {}
    for kind, tr in traces.items():
        try:
            scores[kind.value] = protocol.monotonicity_score(protocol.calibration(tr))
        except MonogamyLabError:
            scores[kind.value] = None
    config = {
        "na": n_a, "nb": n_b, "hab": hab, "ha": ha,
        "t_steps": t_steps, "tp_steps": tp_steps, "threads": args.threads,
    }
    _write_manifest(out, "protocol", config, [out], {str(out): count}, started,
                    extra={"monotonicity_scores": scores,
                           "p_states": trace.metadata["p_states"],
                           "max_negativity_drift": trace.metadata["max_negativity_drift"]})
    return EXIT_OK


def _cmd_explore(args, file_cfg: dict) -> int:
    started = time.perf_counter()
    n_a = int(_resolve(args, file_cfg, "na", 4, int))
    n_b = int(_resolve(args, file_cfg, "nb", 4, int))
    hab = str(_resolve(args, file_cfg, "hab", "oat", str))
    prep_t = float(_resolve(args, file_cfg, "prep_t", 0.2, float))
    ha = str(_resolve(args, file_cfg, "ha", "tf", str))
    t_max = float(_resolve(args, file_cfg, "t_max", 100.0, float))
    steps = int(_resolve(args, file_cfg, "steps", 2001, int))
    _check_subsystem_cap(n_a, n_b)

    cfg = protocol.ProtocolConfig(
        n_a=n_a, n_b=n_b, h_ab_kind=hab, h_a_kind=ha,
        t_grid=protocol.default_t_grid(hab), tp_grid=protocol.default_tp_grid(ha),
    )
    rho_a = protocol.reduced_a_at(cfg, prep_t)
    trace = protocol.explore_measure_vs_squeezing(rho_a, ha, t_max=t_max, steps=steps)

    out = Path(args.out)
    rows = (
        [_fmt(trace.tp[i]), _fmt(trace.xi2_a[i]), _fmt(trace.n_a[i])]
        for i in range(trace.tp.size)
    )
    count = _write_csv(out, ["tp", "xi2_a", "n_a"], rows)
    config = {"na": n_a, "nb": n_b, "hab": hab, "prep_t": prep_t, "ha": ha,
              "t_max": t_max, "steps": steps, **trace.metadata}
    _write_manifest(out, "explore", config, [out], {str(out): count}, started,
                    extra={"min_xi2": trace.min_xi2, "max_n_a": trace.max_n_a,
                           "n_a_at_min_xi2": trace.n_a_at_min_xi2})
    return EXIT_OK


def _cmd_appendix_b(args, file_cfg: dict) -> int:
    started = time.perf_counter()
    sizes_raw = str(_resolve(args, file_cfg, "sizes", "2,4,6,8", str))
    kinds_raw = str(_resolve(args, file_cfg, "ha_kinds", "oat,tat,tf", str))
    t_max = float(_resolve(args, file_cfg, "t_max", 100.0, float))
    steps = int(_resolve(args, file_cfg, "steps", 2001, int))
    sizes = [int(s) for s in sizes_raw.split(",") if s.strip()]
    kinds = [k.strip() for k in kinds_raw.split(",") if k.strip()]

    results = protocol.appendix_b_study(sizes, kinds, t_max=t_max, steps=steps)
    prefix = args.out[:-4] if args.out.endswith(".csv") else args.out
    outputs, rows_per_file = [], {}
    for (size, kind), tr in results.items():
        path = Path(f"{prefix}_size{size}_{kind.value}.csv")
        rows = (
            [_fmt(tr.t[i]), _fmt(tr.s_l_a[i]), _fmt(tr.xi2_a[i])] for i in range(tr.t.size)
        )
        rows_per_file[str(path)] = _write_csv(path, ["t", "s_l_a", "xi2_a"], rows)
        outputs.append(path)
    config = {"sizes": sizes, "ha_kinds": kinds, "t_max": t_max, "steps": steps}
    _write_manifest(Path(prefix + ".csv"), "appendix-b", config, outputs, rows_per_file, started)
    return EXIT_OK


def _read_curve_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError("empty curve file")
    header = lines[0].split(",")
    try:
        ix = header.index("min_xi2_a")
        iy = header.index("s_l_ab")
    except ValueError:
        raise ValueError("curve file must have min_xi2_a and s_l_ab columns") from None
    xs, ys = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        try:
            xs.append(float(parts[ix]))
            ys.append(float(parts[iy]))
        except (IndexError, ValueError):
            raise ValueError(f"{path}, line {lineno}: no number in column min_xi2_a or s_l_ab") from None
    if not xs:
        raise ValueError("curve file has no data rows")
    return np.array(xs), np.array(ys)


def _cmd_invert(args, file_cfg: dict) -> int:
    merge_tol = float(_resolve(args, file_cfg, "merge_tol", protocol.MERGE_TOL, float))
    if not merge_tol >= 0.0:
        raise ValueError("--merge-tol must be >= 0")
    curve_path = Path(args.curve)
    x, y = _read_curve_csv(curve_path)

    ghz_exact = False
    manifest_path = curve_path.with_name(curve_path.name + ".manifest.json")
    if manifest_path.exists():
        meta = json.loads(manifest_path.read_text(encoding="utf-8"))
        cfg = meta.get("config", {})
        ghz_exact = cfg.get("hab") == "ghz" and cfg.get("ha") == "ghz"

    curve = protocol.CalibrationCurve(
        x=x, y=y, segments=protocol._monotone_segments(x),
        merge_tol=merge_tol, ghz_exact=ghz_exact,
    )
    result = protocol.invert(curve, args.xi2)
    payload = {
        "measured_min_xi2": args.xi2,
        "candidates": list(result.candidates),
        "ambiguous": result.ambiguous,
        "ghz_exact": ghz_exact,
    }
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    return EXIT_AMBIGUOUS if result.ambiguous else EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fig2": _cmd_fig2,
        "fig3": _cmd_fig3,
        "protocol": _cmd_protocol,
        "explore": _cmd_explore,
        "appendix-b": _cmd_appendix_b,
        "invert": _cmd_invert,
    }
    try:
        file_cfg = _load_config_file(args.config)
        _check_counts(args, file_cfg)
        return handlers[args.command](args, file_cfg)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ExtrapolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (OSError, ValueError, MonogamyLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
