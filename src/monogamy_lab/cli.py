"""Command-line front end.

Every subcommand is deterministic given its flags, emits CSV files with
frozen column schemas, and writes a JSON manifest (``<out>.manifest.json``)
recording the resolved configuration, version, wall time, and a sha256
digest of each output file (``invert`` writes one only with ``--out``, and
records the curve's digest too). Only the sampled datasets (``fig2``,
``fig3``) take ``--seed``, and their manifests record it. Each gated
command's manifest also records its closest approach to the gate.

The output stage runs in bounded memory: `_write_csv` formats
CSV_BLOCK_ROWS rows at a time and `_sha256` hashes HASH_READ_BYTES at a
time, so neither holds a whole output.

Exit codes are the ``EXIT_*`` constants below; the README says when each
is returned, and a test keeps the two in step.
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
from .errors import MonogamyLabError, ResourceCapError
from .hamiltonians import HamiltonianKind

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_IO = 2
EXIT_RESOURCE = 3
EXIT_AMBIGUOUS = 4

VIOLATION_SLACK = 1e-9
# Options that count something and must be at least 1.
COUNT_OPTIONS = ("threads", "samples", "steps", "t_steps", "tp_steps")
# Rows that `_write_csv` converts to Python cells at a time. Set from a
# 100k-sample fig3 write (7 columns) on a 2-core VM: the write's tracemalloc
# peak reads 0.42 MiB at 1024 rows, 1.6 MiB at this size, 6.4 MiB at 16384
# and 19.8 MiB for the whole table at once, while its time stays within the
# run-to-run spread (0.34-0.40 s medians) from 256 rows to the whole table.
CSV_BLOCK_ROWS = 4096
# Bytes that `_sha256` reads at a time. On the same 10.8 MiB fig3.csv, the
# hash takes 11.6-11.9 ms (medians) at 64 KiB, 256 KiB and 1 MiB reads, and
# its tracemalloc peak reads 0.13 MiB at this size and 2.0 MiB at 1 MiB.
HASH_READ_BYTES = 64 * 1024


def _cells(column: np.ndarray) -> tuple[str, list]:
    """One column's printf conversion and cells: floats as ``%.17g``, bools
    and ints as integers, enums by their value."""
    kind = column.dtype.kind
    if kind == "f":
        return "%.17g", column.tolist()
    if kind == "O":
        return "%s", [v.value for v in column.tolist()]
    return "%d", column.tolist()


def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> int:
    """Write equal-length named columns; return the row count.

    Unequal lengths raise ValueError before any byte is written. The rows
    are then converted to Python cells and formatted CSV_BLOCK_ROWS at a
    time, each row one printf-style line streamed through ``writelines``,
    so the write holds one block of cells, not the whole table.
    """
    lengths = {name: len(column) for name, column in columns.items()}
    n_rows = next(iter(lengths.values()), 0)
    if any(n != n_rows for n in lengths.values()):
        raise ValueError(f"columns of unequal length: {lengths}")
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = (column[start:start + CSV_BLOCK_ROWS] for column in columns.values())
            conversions, cells = zip(*map(_cells, block))
            line = ",".join(conversions) + "\n"
            fh.writelines(line % row for row in zip(*cells))
    return n_rows


def _sha256(path: Path) -> str:
    """The file's sha256, read HASH_READ_BYTES at a time."""
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        while chunk := fh.read(HASH_READ_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_path: Path, command: str, config: dict, outputs: dict[Path, int],
                    started: float, extra: dict | None = None) -> None:
    """Write ``<out_path>.manifest.json``; ``outputs`` maps each file to its
    row count (for invert's JSON, its candidate count)."""
    payload = {
        "schema_version": 1,
        "command": command,
        "config": config,
        "library_version": __version__,
        "numpy_version": np.__version__,
        "wall_time_s": time.perf_counter() - started,
        "outputs": [
            {"path": str(p), "sha256": _sha256(p), "rows": rows} for p, rows in outputs.items()
        ],
    }
    if extra:
        payload.update(extra)
    manifest_path = out_path.with_name(out_path.name + ".manifest.json")
    manifest_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _options(args, *names: str) -> dict:
    return {name: getattr(args, name) for name in names}


def _load_config_file(path: str) -> dict:
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


def _apply_config_file(sub: argparse.ArgumentParser, path: str) -> None:
    """Make the file's values the subcommand's defaults, so a second parse
    casts them with each option's type and explicit flags still win.

    Only value-taking options are set; other keys, switches such as
    ``--test-corrupt-bound``, and the paths ``--config`` and ``--out`` are
    ignored.
    """
    settable = {a.dest for a in sub._actions if a.option_strings and a.nargs != 0}
    settable -= {"config", "out"}
    cfg = _load_config_file(path)
    sub.set_defaults(**{k: v for k, v in cfg.items() if k in settable})


def _check_counts(args) -> None:
    """Reject a count below 1 from any subcommand's flags or config file."""
    for name in COUNT_OPTIONS:
        value = getattr(args, name, None)
        if value is not None and value < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be >= 1")


def _int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def _str_list(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


class _HelpFormatter(argparse.HelpFormatter):
    """Shows each option's default after its help, unless it has none."""

    def _get_help_string(self, action):
        if action.default in (None, argparse.SUPPRESS):
            return action.help
        return f"{action.help} (default: %(default)s)"


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="monogamy-lab",
        description="Entanglement-bound datasets and the squeezing-calibration protocol.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        return sub.add_parser(name, help=help, formatter_class=_HelpFormatter)

    def common(p):
        p.add_argument("--config", metavar="FILE", help="key=value defaults file")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and checked >= 1; selects nothing")

    def dataset(p, samples):
        p.add_argument("--samples", type=int, default=samples, help="number of random samples")
        p.add_argument("--seed", type=int, default=0, help="root of the per-sample seeds")
        p.add_argument("--out", required=True, metavar="CSV")

    def register(p, size):
        p.add_argument("--na", type=int, default=size, help="qubits in subsystem A")
        p.add_argument("--nb", type=int, default=size, help="qubits in subsystem B")
        p.add_argument("--hab", choices=["oat", "ghz"], default="oat",
                       help="entangling Hamiltonian of A and B")

    def local_kind(p):
        p.add_argument("--ha", choices=["oat", "tat", "tf", "ghz"], default="tf",
                       help="local Hamiltonian of A")

    fig2 = command("fig2", "Concurrence monogamy dataset for three-qubit states.")
    dataset(fig2, 3000)
    fig2.add_argument("--test-corrupt-bound", action="store_true", help=argparse.SUPPRESS)
    common(fig2)

    fig3 = command("fig3", "Negativity bound-region dataset for 2+N spectra.")
    dataset(fig3, 100000)
    common(fig3)

    prot = command("protocol", "Run the squeezing-calibration protocol.")
    register(prot, 2)
    local_kind(prot)
    prot.add_argument("--t-steps", type=int, default=401, help="entangling-time grid points")
    prot.add_argument("--tp-steps", type=int, default=2000, help="local-time grid points")
    prot.add_argument("--out", required=True, metavar="CSV")
    common(prot)

    exp = command("explore", "Squeezing vs negativity trajectory for a prepared A.")
    register(exp, 4)
    exp.add_argument("--prep-t", type=float, default=0.2,
                     help="entangling time preparing the mixed state of A")
    local_kind(exp)
    exp.add_argument("--steps", type=int, default=2001, help="local-time grid points")
    exp.add_argument("--out", required=True, metavar="CSV")
    common(exp)

    appb = command("appendix-b", "Pure-state squeezing study per subsystem size.")
    appb.add_argument("--sizes", type=_int_list, default="2,4,6,8",
                      help="comma list of even sizes")
    appb.add_argument("--ha-kinds", type=_str_list, default="oat,tat,tf",
                      help="comma list from oat,tat,tf,ghz")
    appb.add_argument("--steps", type=int, default=2001, help="local-time grid points")
    appb.add_argument("--out", required=True, metavar="PREFIX",
                      help="output prefix; one CSV per (size, kind)")
    common(appb)

    inv = command("invert", "Invert a calibration curve at a measured min xi2_A.")
    inv.add_argument("--curve", required=True, metavar="CSV", help="protocol output file")
    inv.add_argument("--xi2", type=float, required=True)
    inv.add_argument("--merge-tol", type=float, default=protocol.MERGE_TOL,
                     help="candidates closer than this collapse into one")
    inv.add_argument("--out", metavar="JSON")
    common(inv)

    return parser, sub.choices


# ---------------------------------------------------------------------------
# subcommands


def _cmd_fig2(args) -> int:
    started = time.perf_counter()
    ds = sampling.fig2_dataset(args.samples, args.seed)
    bound = analytic.cmax_boundary(ds.x)
    if args.test_corrupt_bound:
        bound = 0.5 * bound
    violation = ds.y > bound + VIOLATION_SLACK
    violations = int(np.count_nonzero(violation))

    out = Path(args.out)
    tick = time.perf_counter()
    count = _write_csv(out, {"c_ab": ds.x, "c_a1a2": ds.y, "bound": bound, "violation": violation})
    stage_wall_s = {**ds.stage_wall_s, "write": time.perf_counter() - tick}
    config = {**_options(args, "samples", "seed"),
              "corrupt_bound_test_hook": args.test_corrupt_bound, **ds.metadata}
    _write_manifest(out, "fig2", config, {out: count}, started,
                    extra={"seed": args.seed, "violations": violations,
                           "max_c_a1a2_minus_bound": float(np.max(ds.y - bound)),
                           "stage_wall_s": stage_wall_s})
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def _cmd_fig3(args) -> int:
    started = time.perf_counter()
    ds = sampling.fig3_dataset(args.samples, args.seed)
    threshold = analytic.threshold_negativity()
    can_entangle = ds.y > 1e-12
    violations = int(np.count_nonzero((ds.x > threshold + VIOLATION_SLACK) & can_entangle))

    out = Path(args.out)
    tick = time.perf_counter()
    count = _write_csv(out, {**dict(zip(("l1", "l2", "l3", "l4"), ds.spectra.T)),
                             "n_ab": ds.x, "n_max": ds.y, "class": ds.cls})
    stage_wall_s = {**ds.stage_wall_s, "write": time.perf_counter() - tick}
    config = {**_options(args, "samples", "seed"), **ds.metadata}
    _write_manifest(out, "fig3", config, {out: count}, started,
                    extra={"seed": args.seed, "threshold": threshold, "violations": violations,
                           # the marker rows include a pure spectrum, so never empty
                           "max_n_ab_minus_threshold": float(np.max(ds.x[can_entangle] - threshold)),
                           "stage_wall_s": stage_wall_s})
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def _cmd_protocol(args) -> int:
    started = time.perf_counter()
    # One entangle stage, shared by every kind; each kind's sweep then runs
    # on that kind's own default tp grid, so its score does not depend on --ha.
    ha = HamiltonianKind(args.ha)
    cfg = protocol.ProtocolConfig(n_a=args.na, n_b=args.nb, h_ab_kind=args.hab, h_a_kind=ha,
                                  t_grid=protocol.default_t_grid(args.hab, args.t_steps),
                                  tp_grid=protocol.default_tp_grid(ha, args.tp_steps))
    tick = time.perf_counter()
    stage = protocol.entangle(cfg)
    stage_wall_s = {"entangle": time.perf_counter() - tick, **stage.stage_wall_s,
                    "sweep": {}, "grid": {}, "refine": {}, "probe": {}}
    traces = {}
    for kind in dict.fromkeys(map(HamiltonianKind, (args.ha, "oat", "tat", "tf"))):
        tick = time.perf_counter()
        traces[kind] = protocol.sweep(stage, kind, protocol.default_tp_grid(kind, args.tp_steps))
        stage_wall_s["sweep"][kind.value] = time.perf_counter() - tick
        for name, seconds in traces[kind].stage_wall_s.items():
            stage_wall_s[name][kind.value] = seconds
    trace = traces[ha]

    out = Path(args.out)
    tick = time.perf_counter()
    count = _write_csv(out, {
        "t": trace.t, "s_l_ab": trace.s_l_ab, "xi2_ab": trace.xi2_ab,
        "min_xi2_a": trace.min_xi2_a, "argmin_tp": trace.argmin_tp,
        "nonmonotone_flag": trace.nonmonotone,
    })
    stage_wall_s["write"] = time.perf_counter() - tick

    scores = {}
    for kind, tr in traces.items():
        try:
            scores[kind.value] = protocol.monotonicity_score(protocol.calibration(tr))
        except MonogamyLabError:
            scores[kind.value] = None
    config = _options(args, "na", "nb", "hab", "ha", "t_steps", "tp_steps")
    _write_manifest(out, "protocol", config, {out: count}, started,
                    extra={"monotonicity_scores": scores,
                           "stage_wall_s": stage_wall_s,
                           "p_states": trace.metadata["p_states"],
                           "flagged_rows": {kind.value: int(np.count_nonzero(tr.nonmonotone))
                                            for kind, tr in traces.items()},
                           "refine_points": {kind.value: tr.refine_points for kind, tr in traces.items()},
                           "degenerate_points": {kind.value: tr.metadata["degenerate_points"]
                                                 for kind, tr in traces.items()},
                           "max_negativity_drift": max(
                               tr.metadata["max_negativity_drift"] for tr in traces.values()),
                           "negativity_drift_gate": protocol.NEGATIVITY_DRIFT_TOL})
    return EXIT_OK


def _cmd_explore(args) -> int:
    started = time.perf_counter()
    cfg = protocol.ProtocolConfig(
        n_a=args.na, n_b=args.nb, h_ab_kind=args.hab, h_a_kind=args.ha,
        t_grid=protocol.default_t_grid(args.hab), tp_grid=protocol.default_tp_grid(args.ha),
    )
    rho_a = protocol.reduced_a_at(cfg, args.prep_t)
    trace = protocol.explore_measure_vs_squeezing(rho_a, args.ha, steps=args.steps)

    out = Path(args.out)
    count = _write_csv(out, {"tp": trace.tp, "xi2_a": trace.xi2_a, "n_a": trace.n_a})
    config = {**_options(args, "na", "nb", "hab", "prep_t", "ha", "steps"),
              **trace.metadata}
    _write_manifest(out, "explore", config, {out: count}, started,
                    extra={"min_xi2": trace.min_xi2, "max_n_a": trace.max_n_a,
                           "n_a_at_min_xi2": trace.n_a_at_min_xi2})
    return EXIT_OK


def _cmd_appendix_b(args) -> int:
    started = time.perf_counter()
    results = protocol.appendix_b_study(args.sizes, args.ha_kinds, steps=args.steps)
    prefix = args.out.removesuffix(".csv")
    outputs = {}
    for (size, kind), tr in results.items():
        path = Path(f"{prefix}_size{size}_{kind.value}.csv")
        outputs[path] = _write_csv(path, {"t": tr.t, "s_l_a": tr.s_l_a, "xi2_a": tr.xi2_a})
    config = _options(args, "sizes", "ha_kinds", "steps")
    _write_manifest(Path(prefix + ".csv"), "appendix-b", config, outputs, started)
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


def _cmd_invert(args) -> int:
    started = time.perf_counter()
    if not args.merge_tol >= 0.0:
        raise ValueError("--merge-tol must be >= 0")
    curve_path = Path(args.curve)
    x, y = _read_curve_csv(curve_path)

    ghz_exact = False
    manifest_path = curve_path.with_name(curve_path.name + ".manifest.json")
    if manifest_path.exists():
        meta = json.loads(manifest_path.read_text(encoding="utf-8"))
        cfg = meta.get("config", {})
        ghz_exact = cfg.get("hab") == "ghz" and cfg.get("ha") == "ghz"

    curve = protocol.CalibrationCurve(x=x, y=y, merge_tol=args.merge_tol, ghz_exact=ghz_exact)
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
        out = Path(args.out)
        out.write_text(text + "\n", encoding="utf-8")
        config = {"curve": str(curve_path), **_options(args, "xi2", "merge_tol")}
        _write_manifest(out, "invert", config, {out: len(result.candidates)}, started,
                        extra={"curve_sha256": _sha256(curve_path)})
    return EXIT_AMBIGUOUS if result.ambiguous else EXIT_OK


HANDLERS = {
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "protocol": _cmd_protocol,
    "explore": _cmd_explore,
    "appendix-b": _cmd_appendix_b,
    "invert": _cmd_invert,
}


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config_file(commands[args.command], args.config)
            args = parser.parse_args(argv)
        _check_counts(args)
        return HANDLERS[args.command](args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OSError, ValueError, MonogamyLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
