import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import monogamy_lab
from monogamy_lab import analytic, cli, protocol
from monogamy_lab.cli import _write_csv, main
from monogamy_lab.hamiltonians import HamiltonianKind
from monogamy_lab.sampling import SampleClass

from oracle_utils import write_csv_reference

REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"
README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_fig2_output_schema_and_exit(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["fig2", "--samples", "40", "--seed", "3", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["c_ab", "c_a1a2", "bound", "violation"]
    assert len(rows) == 40
    for row in rows:
        c_ab, c_a1a2, bound, violation = map(float, row)
        assert abs(bound - analytic.cmax_boundary(c_ab)) < 1e-12
        assert violation == 0.0
    manifest = json.loads((tmp_path / "fig2.csv.manifest.json").read_text())
    assert manifest["command"] == "fig2"
    assert manifest["violations"] == 0
    assert manifest["outputs"][0]["rows"] == 40
    assert len(manifest["outputs"][0]["sha256"]) == 64


def test_fig2_determinism_across_runs_and_threads(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    main(["fig2", "--samples", "60", "--seed", "5", "--out", str(a), "--threads", "1"])
    main(["fig2", "--samples", "60", "--seed", "5", "--out", str(b), "--threads", "1"])
    main(["fig2", "--samples", "60", "--seed", "5", "--out", str(c), "--threads", "4"])
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def _run_cli_process(argv, blas_threads):
    """Run the CLI in a fresh process with OpenBLAS pinned to blas_threads."""
    src = str(Path(monogamy_lab.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(blas_threads),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys; from monogamy_lab.cli import main; sys.exit(main())"
    subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True, capture_output=True)


@pytest.mark.parametrize("argv", [
    ["fig2", "--samples", "400", "--seed", "3"],
    ["protocol", "--na", "2", "--nb", "2", "--hab", "oat", "--ha", "tf",
     "--t-steps", "21", "--tp-steps", "200"],
    # the benchmark's register size, where LAPACK's eigh of a 256x256
    # generator already differs between one and two threads
    ["protocol", "--na", "4", "--nb", "4", "--hab", "oat", "--ha", "tf",
     "--t-steps", "9", "--tp-steps", "200"],
    ["explore", "--na", "4", "--nb", "4", "--hab", "oat", "--prep-t", "0.65", "--ha", "tf",
     "--steps", "51"],
], ids=["fig2", "protocol", "protocol-8q", "explore-8q"])
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, argv):
    # --threads selects nothing; the BLAS threads are the ones that can run.
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"{threads}.csv"
        _run_cli_process([*argv, "--out", str(out)], threads)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_fig2_corrupted_bound_hook_flags_violations(tmp_path):
    out = tmp_path / "bad.csv"
    code = main(["fig2", "--samples", "40", "--seed", "3", "--out", str(out), "--test-corrupt-bound"])
    assert code == 1
    _, rows = read_csv(out)
    assert any(row[3] == "1" for row in rows)


def test_fig3_output_and_markers(tmp_path):
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--samples", "90", "--seed", "4", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["l1", "l2", "l3", "l4", "n_ab", "n_max", "class"]
    assert len(rows) == 94
    markers = [r for r in rows if r[6] == "marker"]
    assert len(markers) == 4
    flat = markers[-1]
    assert [float(v) for v in flat[:4]] == [0.25, 0.25, 0.25, 0.25]
    assert float(flat[4]) == 1.0 and float(flat[5]) == 0.0
    th = analytic.threshold_negativity()
    for r in rows:
        if float(r[4]) > th + 1e-9:
            assert float(r[5]) <= 1e-12
        if r[6] == "two_nonzero":
            assert abs(float(r[5]) - analytic.nmax_boundary_rank2(float(r[4]))) < 1e-9


def test_fig3_thread_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["fig3", "--samples", "120", "--seed", "8", "--out", str(a), "--threads", "1"])
    main(["fig3", "--samples", "120", "--seed", "8", "--out", str(b), "--threads", "3"])
    assert a.read_bytes() == b.read_bytes()


def test_protocol_ghz_rows_satisfy_inversion_relation(tmp_path):
    out = tmp_path / "ghz.csv"
    code = main([
        "protocol", "--na", "2", "--nb", "2", "--hab", "ghz", "--ha", "ghz",
        "--t-steps", "41", "--tp-steps", "300", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "s_l_ab", "xi2_ab", "min_xi2_a", "argmin_tp", "nonmonotone_flag"]
    for row in rows:
        s_l, xi2_ab, min_xi2 = float(row[1]), float(row[2]), float(row[3])
        assert abs(xi2_ab - 1.0) < 1e-9
        assert abs(analytic.ghz_s_l_from_min_xi2(min_xi2) - s_l) < 1e-9
    manifest = json.loads((tmp_path / "ghz.csv.manifest.json").read_text())
    assert set(manifest["monotonicity_scores"]) == {"ghz", "oat", "tat", "tf"}
    assert manifest["max_negativity_drift"] < 1e-9


def test_protocol_manifest_drift_is_the_worst_over_every_kind(tmp_path, monkeypatch):
    sweep = protocol.sweep

    def sweep_with_a_drifting_kind(stage, kind, tp_grid):
        trace = sweep(stage, kind, tp_grid)
        if trace.config.h_a_kind is HamiltonianKind.OAT:
            trace.metadata["max_negativity_drift"] = 5e-10  # below the gate
        return trace

    monkeypatch.setattr(protocol, "sweep", sweep_with_a_drifting_kind)
    out = tmp_path / "p.csv"
    code = main([
        "protocol", "--na", "2", "--nb", "2", "--hab", "oat", "--ha", "tf",
        "--t-steps", "11", "--tp-steps", "100", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
    assert manifest["max_negativity_drift"] == 5e-10


def test_protocol_manifest_records_the_drift_gate_beside_the_drift(tmp_path):
    out = tmp_path / "p.csv"
    assert main(["protocol", "--na", "2", "--nb", "2", "--hab", "oat", "--ha", "tf",
                 "--t-steps", "11", "--tp-steps", "100", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
    assert manifest["negativity_drift_gate"] == protocol.NEGATIVITY_DRIFT_TOL
    assert 0.0 <= manifest["max_negativity_drift"] <= manifest["negativity_drift_gate"]


@pytest.mark.parametrize("corrupt", [False, True])
def test_fig2_manifest_records_the_closest_approach_to_the_bound(tmp_path, corrupt):
    out = tmp_path / "fig2.csv"
    code = main(["fig2", "--samples", "300", "--seed", "2", "--out", str(out),
                 *(["--test-corrupt-bound"] if corrupt else [])])
    manifest = json.loads((tmp_path / "fig2.csv.manifest.json").read_text())
    rows = np.genfromtxt(out, delimiter=",", names=True)
    margin = manifest["max_c_a1a2_minus_bound"]
    assert margin == np.max(rows["c_a1a2"] - rows["bound"])
    assert (margin > cli.VIOLATION_SLACK) == (manifest["violations"] > 0) == corrupt
    assert code == (cli.EXIT_VIOLATION if corrupt else cli.EXIT_OK)


@pytest.mark.parametrize("samples", [1, 400])
def test_fig3_manifest_records_the_closest_approach_to_the_threshold(tmp_path, samples):
    out = tmp_path / "fig3.csv"
    assert main(["fig3", "--samples", str(samples), "--seed", "4", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "fig3.csv.manifest.json").read_text())
    rows = np.genfromtxt(out, delimiter=",", names=True, dtype=None, encoding="utf-8")
    gated = rows["n_max"] > 1e-12
    assert np.count_nonzero(gated) > 0
    assert manifest["max_n_ab_minus_threshold"] == np.max(rows["n_ab"][gated] - manifest["threshold"])
    assert manifest["max_n_ab_minus_threshold"] <= cli.VIOLATION_SLACK


@pytest.mark.parametrize("ha", ["tf", "ghz"])
def test_protocol_manifest_counts_the_flagged_rows_of_every_kind(tmp_path, ha):
    out = tmp_path / "p.csv"
    assert main(["protocol", "--na", "2", "--nb", "2", "--hab", "oat", "--ha", ha,
                 "--t-steps", "41", "--tp-steps", "200", "--out", str(out)]) == 0
    flagged = json.loads((tmp_path / "p.csv.manifest.json").read_text())["flagged_rows"]
    assert set(flagged) == {ha, "oat", "tat", "tf"} and flagged["tf"] > 0
    assert all(type(n) is int and 0 <= n <= 41 for n in flagged.values())
    column = np.genfromtxt(out, delimiter=",", names=True)["nonmonotone_flag"]
    assert flagged[ha] == int(column.sum())


def test_protocol_manifest_records_stage_wall_times(tmp_path):
    out = tmp_path / "p.csv"
    code = main([
        "protocol", "--na", "2", "--nb", "2", "--hab", "oat", "--ha", "ghz",
        "--t-steps", "11", "--tp-steps", "100", "--out", str(out),
    ])
    assert code == 0
    manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
    stages = manifest["stage_wall_s"]
    kinds = {"ghz", "oat", "tat", "tf"}
    assert set(stages) == {"entangle", "eigensolve", "reduce", "sweep", "grid", "refine", "probe", "write"}
    times = [stages["entangle"], *stages["sweep"].values(), stages["write"]]
    assert all(s >= 0.0 for s in times) and stages["eigensolve"] >= 0.0 and stages["reduce"] >= 0.0
    assert stages["eigensolve"] + stages["reduce"] <= stages["entangle"]
    assert sum(times) <= manifest["wall_time_s"]
    # each kind's sweep splits into its grid, refine and probe stages
    for name in ("sweep", "grid", "refine", "probe"):
        assert set(stages[name]) == kinds
    for kind in kinds:
        parts = [stages[name][kind] for name in ("grid", "refine", "probe")]
        assert all(s >= 0.0 for s in parts) and sum(parts) <= stages["sweep"][kind]
    points = manifest["refine_points"]
    assert set(points) == kinds and all(type(n) is int and n > 0 for n in points.values())


@pytest.mark.parametrize("command", ["fig2", "fig3"])
def test_dataset_manifests_record_stage_wall_times(tmp_path, command):
    out = tmp_path / f"{command}.csv"
    assert main([command, "--samples", "50", "--seed", "2", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / f"{command}.csv.manifest.json").read_text())
    stages = manifest["stage_wall_s"]
    assert set(stages) == {"draw", "measures", "write"}
    assert all(s >= 0.0 for s in stages.values())
    assert sum(stages.values()) <= manifest["wall_time_s"]


@pytest.mark.parametrize("command", ["fig2", "fig3"])
def test_negative_seed_is_a_usage_error(tmp_path, command, capsys):
    out = tmp_path / f"{command}.csv"
    assert main([command, "--samples", "5", "--seed", "-1", "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("ha", ["ghz", "tf"])
def test_protocol_entangles_once_per_run(tmp_path, monkeypatch, ha):
    # under --ha ghz the kinds once ran in two groups by tp grid, each with
    # its own entangle stage
    entangle, calls = protocol.entangle, []

    def counting_entangle(cfg):
        calls.append(cfg)
        return entangle(cfg)

    monkeypatch.setattr(protocol, "entangle", counting_entangle)
    out = tmp_path / "p.csv"
    code = main([
        "protocol", "--na", "2", "--nb", "2", "--hab", "oat", "--ha", ha,
        "--t-steps", "11", "--tp-steps", "100", "--out", str(out),
    ])
    assert code == 0 and len(calls) == 1
    cfg = protocol.ProtocolConfig(2, 2, "oat", "tf", t_grid=protocol.default_t_grid("oat", 11),
                                  tp_grid=protocol.default_tp_grid("tf", 100))
    trace = protocol.run_protocol(replace(cfg, h_a_kind=ha, tp_grid=protocol.default_tp_grid(ha, 100)))
    ref = tmp_path / "ref.csv"
    _write_csv(ref, {
        "t": trace.t, "s_l_ab": trace.s_l_ab, "xi2_ab": trace.xi2_ab,
        "min_xi2_a": trace.min_xi2_a, "argmin_tp": trace.argmin_tp,
        "nonmonotone_flag": trace.nonmonotone,
    })
    assert out.read_bytes() == ref.read_bytes()


def test_protocol_manifest_scores_do_not_depend_on_ha(tmp_path):
    # each kind sweeps its own default tp grid: under --ha ghz, oat and tat
    # were once scored on ghz's [0, pi] grid instead of their [0, 100]
    scores = {}
    for ha in ("tf", "ghz"):
        out = tmp_path / f"{ha}.csv"
        code = main([
            "protocol", "--na", "2", "--nb", "2", "--hab", "oat", "--ha", ha,
            "--t-steps", "21", "--tp-steps", "100", "--out", str(out),
        ])
        assert code == 0
        scores[ha] = json.loads((tmp_path / f"{ha}.csv.manifest.json").read_text())["monotonicity_scores"]
    assert set(scores["ghz"]) == {"ghz", *scores["tf"]}
    for kind, score in scores["tf"].items():
        assert scores["ghz"][kind] == score, kind


def test_protocol_oat_ghz_point_for_each_local_kind(tmp_path):
    for ha in ("oat", "tat", "tf"):
        out = tmp_path / f"oat_{ha}.csv"
        code = main([
            "protocol", "--na", "2", "--nb", "2", "--hab", "oat", "--ha", ha,
            "--t-steps", "81", "--tp-steps", "400", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(out)
        ts = np.array([float(r[0]) for r in rows])
        i = int(np.argmin(np.abs(ts - np.pi / 2)))
        assert abs(float(rows[i][3]) - 1.0) < 1e-6


def test_readme_states_the_caps_and_exit_codes_of_the_code():
    text = " ".join(README.read_text(encoding="utf-8").split())
    exit_codes = text[text.index("Exit codes:"):].split(" ## ")[0]
    meaning = {"EXIT_OK": "success", "EXIT_VIOLATION": "a generated dataset violates",
               "EXIT_IO": "I/O", "EXIT_RESOURCE": "register size cap exceeded",
               "EXIT_AMBIGUOUS": "ambiguous inversion"}
    codes = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert set(codes) == set(meaning)
    assert {int(c) for c in re.findall(r"`(\d+)`", exit_codes)} == set(codes.values())
    for name, words in meaning.items():
        assert f"`{codes[name]}` {words}" in exit_codes
    assert {int(c) for c in re.findall(r"\bexits? (\d+)", text)} <= set(codes.values())
    # the two size caps, and no other qubit count
    side, sym = protocol.MAX_SUBSYSTEM_QUBITS, protocol.MAX_SYMMETRIC_QUBITS
    assert f"more than {side} qubits in A or in B" in exit_codes
    assert f"`appendix-b` size above {sym}" in exit_codes
    assert {int(n) for n in re.findall(r"(?<![+\d])(\d+) qubits", text)} == {side, sym}


def test_readme_names_every_key_of_the_protocol_manifest(tmp_path):
    out = tmp_path / "run.csv"
    assert main(["protocol", "--na", "1", "--nb", "1", "--t-steps", "3", "--tp-steps", "5",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    text = README.read_text(encoding="utf-8")
    example = text[text.index("monogamy-lab protocol "):].split("\n\n")[0]
    comment = " ".join(line.strip()[1:] for line in example.splitlines() if line.strip().startswith("#"))
    assert [key for key in manifest if key not in re.findall(r"\w+", comment)] == []


def test_readme_names_only_flags_the_parser_declares():
    parser, commands = cli._build_parser()
    declared = {flag for p in (parser, *commands.values()) for action in p._actions
                for flag in action.option_strings}
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI"):].split("\n## ")[0]
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert named and sorted(named - declared) == []


def test_explore_at_an_overflowing_prep_time_exits_2(tmp_path, capsys):
    # w t overflows at --prep-t 1e308; the time is refused before any phase is taken.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["explore", "--na", "2", "--nb", "2", "--prep-t", "1e308", "--steps", "11",
                     "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: time |t| = 1e+308 makes a phase w*t non-finite")
    assert list(tmp_path.iterdir()) == []


def test_protocol_resource_cap(tmp_path):
    for command in ("protocol", "explore"):
        for n_a, n_b in (("6", "2"), ("6", "5"), ("5", "6")):
            code = main([command, "--na", n_a, "--nb", n_b, "--out", str(tmp_path / "x.csv")])
            assert code == 3
    over_cap = str(protocol.MAX_SYMMETRIC_QUBITS + 2)  # the first even size above the cap
    assert main(["appendix-b", "--sizes", over_cap, "--out", str(tmp_path / "appb")]) == 3
    assert main(["appendix-b", "--sizes", "3", "--out", str(tmp_path / "appb")]) == 2
    assert main(["appendix-b", "--sizes", ",", "--out", str(tmp_path / "appb")]) == 2
    assert main(["appendix-b", "--ha-kinds", ",", "--out", str(tmp_path / "appb")]) == 2
    assert list(tmp_path.iterdir()) == []
    # a repeated size or kind is computed and written once
    prefix = tmp_path / "dup" / "appb"
    assert main(["appendix-b", "--sizes", "2,2", "--ha-kinds", "tf,tf", "--steps", "11",
                 "--out", str(prefix)]) == 0
    manifest = json.loads((tmp_path / "dup" / "appb.csv.manifest.json").read_text())
    assert [o["path"] for o in manifest["outputs"]] == [str(prefix) + "_size2_tf.csv"]


def test_invert_ghz_curve(tmp_path):
    out = tmp_path / "curve.csv"
    main([
        "protocol", "--na", "2", "--nb", "2", "--hab", "ghz", "--ha", "ghz",
        "--t-steps", "41", "--tp-steps", "300", "--out", str(out),
    ])
    code = main(["invert", "--curve", str(out), "--xi2", "1.0"])
    assert code == 0
    result = tmp_path / "res.json"
    main(["invert", "--curve", str(out), "--xi2", "1.0", "--out", str(result)])
    payload = json.loads(result.read_text())
    assert payload["ghz_exact"] is True
    assert abs(payload["candidates"][0] - 0.6667) < 1e-4
    assert payload["ambiguous"] is False


def test_invert_out_writes_a_manifest_with_the_curve_and_output_digests(tmp_path):
    curve = tmp_path / "curve.csv"
    main(["protocol", "--na", "2", "--nb", "2", "--hab", "ghz", "--ha", "ghz",
          "--t-steps", "41", "--tp-steps", "300", "--out", str(curve)])
    assert main(["invert", "--curve", str(curve), "--xi2", "1.0"]) == 0
    # no --out: no output and no manifest beside the curve's own
    assert [p.name for p in tmp_path.glob("*.json")] == ["curve.csv.manifest.json"]
    out = tmp_path / "res.json"
    assert main(["invert", "--curve", str(curve), "--xi2", "1.0", "--merge-tol", "0.01",
                 "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "res.json.manifest.json").read_text())

    def sha256(path):
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert manifest["command"] == "invert"
    assert manifest["config"] == {"curve": str(curve), "xi2": 1.0, "merge_tol": 0.01}
    assert manifest["curve_sha256"] == sha256(curve)
    assert manifest["outputs"] == [{"path": str(out), "sha256": sha256(out), "rows": 1}]
    assert manifest["library_version"] == monogamy_lab.__version__
    assert manifest["wall_time_s"] >= 0.0


def test_invert_ambiguous_curve(tmp_path):
    curve = tmp_path / "fold.csv"
    lines = ["t,s_l_ab,xi2_ab,min_xi2_a,argmin_tp,nonmonotone_flag"]
    xs = [0.0, 0.5, 1.0, 0.6, 0.2]
    ys = [0.0, 0.2, 0.4, 0.55, 0.7]
    for i, (x, y) in enumerate(zip(xs, ys)):
        lines.append(f"{float(i)},{y},{1.0},{x},{0.0},0")
    curve.write_text("\n".join(lines) + "\n")
    code = main(["invert", "--curve", str(curve), "--xi2", "0.4"])
    assert code == 4


def test_invert_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["invert", "--curve", str(bad), "--xi2", "0.5"]) == 2
    missing = tmp_path / "missing.csv"
    assert main(["invert", "--curve", str(missing), "--xi2", "0.5"]) == 2
    good = tmp_path / "good.csv"
    good.write_text("min_xi2_a,s_l_ab\n0.2,0.1\n0.8,0.5\n")
    assert main(["invert", "--curve", str(good), "--xi2", "0.5", "--merge-tol", "-1"]) == 2
    assert "error: --merge-tol" in capsys.readouterr().err
    short = tmp_path / "short.csv"
    short.write_text("t,s_l_ab,xi2_ab,min_xi2_a,argmin_tp,nonmonotone_flag\n0,0.1\n")
    assert main(["invert", "--curve", str(short), "--xi2", "0.5"]) == 2
    assert "line 2" in capsys.readouterr().err
    for text in ("min_xi2_a,s_l_ab\n0.2,0.1\n0.8,inf\n", "min_xi2_a,s_l_ab\n0.2,0.1\nnan,0.5\n"):
        curve = tmp_path / "nonfinite.csv"
        curve.write_text(text)
        assert main(["invert", "--curve", str(curve), "--xi2", "0.5"]) == 2
        captured = capsys.readouterr()
        assert "error: calibration" in captured.err and "non-finite" in captured.err
        assert captured.out == ""


def test_invert_extrapolation_error(tmp_path):
    out = tmp_path / "curve.csv"
    main([
        "protocol", "--na", "2", "--nb", "2", "--hab", "ghz", "--ha", "ghz",
        "--t-steps", "21", "--tp-steps", "200", "--out", str(out),
    ])
    for xi2 in ("3.0", "nan"):
        assert main(["invert", "--curve", str(out), "--xi2", xi2]) == 2


def test_explore_subcommand(tmp_path):
    out = tmp_path / "explore.csv"
    code = main([
        "explore", "--na", "2", "--nb", "2", "--hab", "oat", "--prep-t", "0.4",
        "--ha", "tf", "--steps", "101", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["tp", "xi2_a", "n_a"]
    assert [float(r[0]) for r in rows] == protocol.default_tp_grid("tf", 101).tolist()
    manifest = json.loads((tmp_path / "explore.csv.manifest.json").read_text())
    assert "min_xi2" in manifest and "n_a_at_min_xi2" in manifest
    assert sorted(manifest["config"]) == ["ha", "hab", "na", "nb", "prep_t", "split", "steps"]


def test_appendix_b_subcommand(tmp_path):
    prefix = tmp_path / "appb"
    code = main([
        "appendix-b", "--sizes", "2,4", "--ha-kinds", "oat,tf",
        "--steps", "101", "--out", str(prefix),
    ])
    assert code == 0
    for size in (2, 4):
        for kind in ("oat", "tf"):
            path = tmp_path / f"appb_size{size}_{kind}.csv"
            header, rows = read_csv(path)
            assert header == ["t", "s_l_a", "xi2_a"]
            assert [float(r[0]) for r in rows] == protocol.default_tp_grid(kind, 101).tolist()
    manifest = json.loads((tmp_path / "appb.csv.manifest.json").read_text())
    assert len(manifest["outputs"]) == 4
    assert sorted(manifest["config"]) == ["ha_kinds", "sizes", "steps"]


def _count_runs(tmp_path):
    curve = tmp_path / "curve.csv"
    curve.write_text("min_xi2_a,s_l_ab\n0.2,0.1\n0.8,0.5\n")
    return {
        "fig2": ["fig2", "--samples", "5", "--out", str(tmp_path / "fig2.csv")],
        "fig3": ["fig3", "--samples", "5", "--out", str(tmp_path / "fig3.csv")],
        "protocol": ["protocol", "--t-steps", "3", "--tp-steps", "20",
                     "--out", str(tmp_path / "protocol.csv")],
        "explore": ["explore", "--na", "2", "--nb", "2", "--steps", "11",
                    "--out", str(tmp_path / "explore.csv")],
        "appendix-b": ["appendix-b", "--sizes", "2", "--steps", "11",
                       "--out", str(tmp_path / "appb")],
        "invert": ["invert", "--curve", str(curve), "--xi2", "0.5",
                   "--out", str(tmp_path / "inv.json")],
    }


@pytest.mark.parametrize("command", ["fig2", "fig3", "protocol", "explore", "appendix-b", "invert"])
def test_every_manifest_records_the_numpy_version(tmp_path, command):
    # Output bits depend on numpy's SIMD loops.
    assert main(_count_runs(tmp_path)[command]) == 0
    [path] = tmp_path.glob("*.manifest.json")
    assert json.loads(path.read_text())["numpy_version"] == np.__version__


def test_counts_below_one_rejected_by_every_subcommand(tmp_path, capsys):
    runs = _count_runs(tmp_path)
    for command, argv in runs.items():
        assert main([*argv, "--threads", "0"]) == 2, command
        assert "error: --threads must be >= 1" in capsys.readouterr().err, command
    for command in ("explore", "appendix-b"):
        assert main([*runs[command], "--steps", "0"]) == 2, command
        assert "error: --steps must be >= 1" in capsys.readouterr().err, command
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv"]


def test_config_file_and_env_threads(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=25\nseed=9\n# comment\n")
    out1 = tmp_path / "one.csv"
    assert main(["fig2", "--config", str(cfg), "--out", str(out1)]) == 0
    _, rows = read_csv(out1)
    assert len(rows) == 25
    # explicit flag wins over the config file
    out2 = tmp_path / "two.csv"
    main(["fig2", "--config", str(cfg), "--samples", "10", "--out", str(out2)])
    assert len(read_csv(out2)[1]) == 10


@pytest.mark.parametrize("argv", [
    ["explore", "--na", "2", "--nb", "2", "--prep-t=nan"],
    ["explore", "--na", "2", "--nb", "2", "--prep-t=inf"],
], ids=lambda argv: f"{argv[0]}{argv[-1]}")
def test_bad_time_inputs_exit_2_before_any_output(tmp_path, capsys, argv):
    assert main([*argv, "--steps", "11", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err
    assert list(tmp_path.iterdir()) == []


def test_config_file_values_take_the_option_types(tmp_path):
    cfg = tmp_path / "explore.cfg"
    out = tmp_path / "explore.csv"
    manifest = tmp_path / "explore.csv.manifest.json"
    for key in ("prep-t", "prep_t"):  # either spelling names the option
        cfg.write_text(f"na=2\nnb=2\n{key}=1\nsteps=21\nno_such_option=7\n")
        assert main(["explore", "--config", str(cfg), "--out", str(out)]) == 0
        config = json.loads(manifest.read_text())["config"]
        assert (config["na"], config["prep_t"], config["steps"]) == (2, 1.0, 21)
        assert isinstance(config["prep_t"], float)
    _, rows = read_csv(out)
    assert len(rows) == 21
    # an explicit flag wins over the file; the rest of the file still applies
    assert main(["explore", "--config", str(cfg), "--prep-t", "0.5", "--out", str(out)]) == 0
    config = json.loads(manifest.read_text())["config"]
    assert (config["prep_t"], config["steps"]) == (0.5, 21)


def test_config_file_bad_values_and_switches(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    bad = tmp_path / "bad.cfg"
    bad.write_text("samples=abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["fig2", "--config", str(bad), "--out", str(out)])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err
    bad.write_text("threads=0\n")
    assert main(["fig2", "--config", str(bad), "--out", str(out)]) == 2
    assert "error: --threads must be >= 1" in capsys.readouterr().err
    assert not out.exists()
    # a switch cannot be set from a file
    cfg = tmp_path / "run.cfg"
    cfg.write_text("samples=20\nseed=3\ntest_corrupt_bound=1\ntest-corrupt-bound=1\n")
    assert main(["fig2", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "fig2.csv.manifest.json").read_text())
    assert manifest["config"]["corrupt_bound_test_hook"] is False
    plain = tmp_path / "plain.csv"
    assert main(["fig2", "--samples", "20", "--seed", "3", "--out", str(plain)]) == 0
    assert out.read_bytes() == plain.read_bytes()


def test_unwritable_output_is_io_error(tmp_path):
    target = tmp_path / "not_a_dir"
    target.write_text("file")
    out = target / "fig2.csv"  # parent is a file
    assert main(["fig2", "--samples", "5", "--seed", "1", "--out", str(out)]) == 2


def test_appendix_b_accepts_and_lists_ghz(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["appendix-b", "--help"])
    assert "oat,tat,tf,ghz" in capsys.readouterr().out
    prefix = tmp_path / "appb"
    assert main(["appendix-b", "--sizes", "2", "--ha-kinds", "ghz", "--steps", "11",
                 "--out", str(prefix)]) == 0
    header, rows = read_csv(tmp_path / "appb_size2_ghz.csv")
    assert header == ["t", "s_l_a", "xi2_a"]
    assert len(rows) == 11


# ---------------------------------------------------------------------------
# CSV writer


def _assert_writers_agree(tmp_path, columns):
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    count = _write_csv(new, columns)
    assert count == write_csv_reference(old, columns)
    assert new.read_bytes() == old.read_bytes()
    return new, count


def test_write_csv_matches_the_per_cell_writer(tmp_path):
    floats = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 0.1, 1e22, 2.0**53 + 1, 1.0, -2.5e-300])
    n = floats.size
    columns = {
        "x": floats,
        "neg": -floats,
        "flag": np.arange(n) % 2 == 0,
        "count": np.arange(n, dtype=np.int64) - 3,
        "class": np.array([list(SampleClass)[i % 4] for i in range(n)], dtype=object),
    }
    out, count = _assert_writers_agree(tmp_path, columns)
    assert count == n and out.read_text().splitlines()[1] == "-0,0,1,-3,two_nonzero"


def test_write_csv_with_zero_rows_writes_only_the_header(tmp_path):
    out, count = _assert_writers_agree(tmp_path, {"a": np.zeros(0), "b": np.zeros(0, dtype=bool)})
    assert count == 0 and out.read_text() == "a,b\n"


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        _write_csv(tmp_path / "x.csv", {"a": np.zeros(3), "b": np.zeros(2)})


def _mixed_columns(n):
    """n rows of the float, bool, int and enum columns the CLI writes."""
    rng = np.random.default_rng(n)
    return {
        "x": rng.standard_normal(n),
        "flag": rng.random(n) < 0.5,
        "count": np.arange(n, dtype=np.int64) - 3,
        "class": np.array([list(SampleClass)[i % 4] for i in range(n)], dtype=object),
    }


@pytest.mark.parametrize("n", [0, 2, 3, 4, 7])
def test_blocked_write_csv_matches_the_per_cell_writer(tmp_path, monkeypatch, n):
    """With blocks of 3 rows: 0, B-1, B, B+1 and 2B+1 rows."""
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
    _, count = _assert_writers_agree(tmp_path, _mixed_columns(n))
    assert count == n


def test_write_csv_refuses_unequal_columns_before_writing(tmp_path, monkeypatch):
    """The lengths differ only past the first block, and no file is left."""
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", 3)
    columns = _mixed_columns(7)
    columns["flag"] = columns["flag"][:5]
    out = tmp_path / "sub" / "x.csv"
    with pytest.raises(ValueError, match="unequal length"):
        _write_csv(out, columns)
    assert not out.exists()


@pytest.mark.parametrize("read_bytes", [4, cli.HASH_READ_BYTES])
def test_sha256_reads_in_blocks_and_matches_the_whole_file_digest(tmp_path, monkeypatch, read_bytes):
    monkeypatch.setattr(cli, "HASH_READ_BYTES", read_bytes)
    data = np.random.default_rng(1).bytes(read_bytes + 1)
    for size in (0, read_bytes - 1, read_bytes, read_bytes + 1):
        path = tmp_path / f"{size}.bin"
        path.write_bytes(data[:size])
        assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest(), size


def _write_peak_bytes(path, columns):
    tracemalloc.start()
    try:
        _write_csv(path, columns)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_memory_is_bounded_by_one_row_block(tmp_path, monkeypatch):
    """fig3's shape, 200k rows x 7 columns. A cell costs at most 32 B (a
    float object and its list slot); the bound allows two blocks of cells,
    the one being written and the next being built, and as much again for
    buffers. Converting all rows at once, as one block, exceeds it."""
    n = 200_000
    rng = np.random.default_rng(0)
    columns = {**{f"f{j}": rng.random(n) for j in range(6)},
               "class": np.array([list(SampleClass)[i % 4] for i in range(n)], dtype=object)}
    bound = 4 * cli.CSV_BLOCK_ROWS * len(columns) * 32
    assert _write_peak_bytes(tmp_path / "blocked.csv", columns) < bound
    monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", n)
    assert _write_peak_bytes(tmp_path / "one_shot.csv", columns) > bound


# The stored fig2 reference was made with C_A1A2 from measures.concurrence on
# the Jacobi solver, and fig2 now takes it in Wootters's rank-2 closed form:
# c_a1a2 agrees within 1e-9, since the eigensolver route takes square roots of
# eigenvalues down to 1e-13, which scale 1e-16 noise by up to 1.6e6. C_AB stays
# on Jacobi, so c_ab, the bound and the violation flags match exactly.
FIG2_REFERENCE_TOLS = {"c_ab": 0.0, "c_a1a2": 1e-9, "bound": 0.0, "violation": 0.0}


@pytest.mark.parametrize("command, samples", [("fig3", 1000), ("fig2", 200)])
def test_dataset_outputs_match_the_stored_references(tmp_path, command, samples):
    out = tmp_path / f"{command}.csv"
    assert main([command, "--samples", str(samples), "--seed", "0", "--out", str(out)]) == 0
    workload = {"fig3": "fig3-spectra", "fig2": "fig2-haar"}[command]
    ref = REFERENCE_DIR / workload / "warm" / out.name
    if command == "fig3":
        assert out.read_bytes() == ref.read_bytes()
        return
    got, want = (np.genfromtxt(p, delimiter=",", names=True) for p in (out, ref))
    assert got.dtype.names == want.dtype.names == tuple(FIG2_REFERENCE_TOLS)
    for column, tol in FIG2_REFERENCE_TOLS.items():
        assert np.max(np.abs(got[column] - want[column])) <= tol, column
