"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line per numbered criterion so the suite can
be skimmed from the pytest output (run with -s to see the lines as they
happen). A criterion with a time limit measures its own wall time with
``time.perf_counter`` and reports it on that line.
"""

import json
import time

import numpy as np
import pytest

import monogamy_lab as ml
from monogamy_lab import analytic, measures, qcore
from monogamy_lab.cli import main as cli_main
from monogamy_lab.hamiltonians import HamiltonianKind
from monogamy_lab.protocol import ProtocolConfig, default_t_grid, default_tp_grid, explore_state
from monogamy_lab.spin import collective_ops, squeezing_parameter

from oracle_utils import random_state, squeezing_scan

MAX_THREADS = 4


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"acceptance {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def eight_qubit_traces():
    cfg = ProtocolConfig(
        n_a=4,
        n_b=4,
        h_ab_kind="oat",
        h_a_kind="tf",
        t_grid=default_t_grid("oat"),
        tp_grid=default_tp_grid("tf"),
    )
    start = time.perf_counter()
    traces = ml.run_protocol_multi(cfg, ["tf", "oat", "tat"])
    return cfg, traces, time.perf_counter() - start


def test_criterion_1_ghz_analytic_suite():
    start = time.perf_counter()
    cfg = ProtocolConfig(
        n_a=2,
        n_b=2,
        h_ab_kind="ghz",
        h_a_kind="ghz",
        t_grid=np.linspace(0.0, np.pi / 2, 200),
        tp_grid=default_tp_grid("ghz"),
    )
    trace = ml.run_protocol(cfg)
    worst = np.zeros(4)
    for i, phi in enumerate(trace.t):
        ref = analytic.ghz_protocol_analytics(phi, 0.0)
        worst[0] = max(worst[0], abs(trace.xi2_ab[i] - 1.0))
        worst[1] = max(worst[1], abs(trace.s_l_ab[i] - ref.s_l_ab))
        worst[2] = max(worst[2], abs(trace.min_xi2_a[i] - ref.min_xi2_a))
        worst[3] = max(
            worst[3], abs(analytic.ghz_s_l_from_min_xi2(trace.min_xi2_a[i]) - trace.s_l_ab[i])
        )
    elapsed = time.perf_counter() - start
    ok = bool(np.all(worst < 1e-6) and elapsed < 10.0)
    assert report(
        1,
        ok,
        f"200-point exact-generator suite, worst deviations {worst.max():.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_monogamy_bound_datasets():
    start = time.perf_counter()
    ds2 = ml.fig2_dataset(3000, seed=0)
    violations2 = int(np.sum(ds2.y > analytic.cmax_boundary(ds2.x) + 1e-9))

    ds3 = ml.fig3_dataset(100000, seed=0)
    x, y = ds3.x, ds3.y
    analytic.verify_threshold_region()
    threshold = analytic.threshold_negativity()
    two = ds3.cls == ml.SampleClass.TWO_NONZERO
    curve_dev = float(np.max(np.abs(y[two] - analytic.nmax_boundary_rank2(x[two]))))
    threshold_violations = int(np.count_nonzero((x > threshold + 1e-9) & (y > 1e-12)))
    markers = ds3.cls == ml.SampleClass.MARKER
    expected_x, expected_y = np.array(
        [(0.0, 1.0), (1 / 3, (np.sqrt(2) - 1) / 2), (2 / 3, 0.0), (1.0, 0.0)]
    ).T
    marker_dev = float(
        np.max(np.maximum(np.abs(x[markers] - expected_x), np.abs(y[markers] - expected_y)))
    )
    elapsed = time.perf_counter() - start
    ok = (
        violations2 == 0
        and curve_dev < 1e-9
        and threshold_violations == 0
        and marker_dev < 1e-12
        and elapsed < 60.0
    )
    assert report(
        2,
        ok,
        f"concurrence bound violations {violations2}, rank-2 curve dev {curve_dev:.1e}, "
        f"threshold violations {threshold_violations}, marker dev {marker_dev:.1e}, {elapsed:.1f}s",
    )


def test_criterion_3_analytic_negativity_oracle(rng):
    worst_eig = 0.0
    worst_neg = 0.0
    for n_b in (2, 3, 4):
        for _ in range(100):
            spec = np.sort(rng.dirichlet(np.ones(4)))[::-1]
            psi = analytic.spectrum_state_2pn(spec, n_b)
            rho = qcore.dm_from_pure(psi)
            part = qcore.Partition((0, 1), tuple(range(2, 2 + n_b)))

            pt = rho.matrix.reshape(4, 2**n_b, 4, 2**n_b).transpose(2, 1, 0, 3)
            w = np.sort(np.linalg.eigvalsh(pt.reshape(rho.dim, rho.dim)))
            analytic_eigs = np.sort(analytic.negative_eigs_2pn(spec))
            worst_eig = max(worst_eig, float(np.max(np.abs(w[:6] - analytic_eigs))))

            raw = measures.negativity_raw(rho, part)
            closed = measures.negativity_2pn_from_spectrum(spec)
            worst_neg = max(worst_neg, abs(closed - raw / 1.5))
    ok = worst_eig < 1e-9 and worst_neg < 1e-9
    assert report(
        3,
        ok,
        f"analytic vs brute-force transpose eigenvalues dev {worst_eig:.1e}, "
        f"closed-form negativity dev {worst_neg:.1e}",
    )


def test_criterion_4_concurrence_convention(rng):
    worst = 0.0
    for _ in range(500):
        psi = qcore.PureState(2, random_state(4, rng))
        rho_a = qcore.reduced_state_matrix(psi, 2, (0,))
        det = max(np.real(np.linalg.det(rho_a)), 0.0)
        worst = max(worst, abs(measures.concurrence(qcore.dm_from_pure(psi)) - 2 * np.sqrt(det)))
    ok = worst < 1e-9
    assert report(4, ok, f"two-qubit pure-state convention check, worst dev {worst:.1e}")


def test_criterion_5_register_squeezing_ghz_point():
    h = ml.build_hamiltonian("oat", 4)
    psi = qcore.evolve(qcore.all_down_state(4), h, np.pi / 2)
    a0, a15 = psi.amplitudes[0], psi.amplitudes[-1]
    ghz_fid = (abs(a0) + abs(a15)) ** 2 / 2

    devs = []
    for ha in ("oat", "tat", "tf"):
        cfg = ProtocolConfig(
            2, 2, "oat", ha,
            t_grid=np.array([np.pi / 2]),
            tp_grid=default_tp_grid(ha),
        )
        trace = ml.run_protocol(cfg)
        devs.append(abs(trace.min_xi2_a[0] - 1.0))
    ok = ghz_fid > 1 - 1e-9 and max(devs) < 1e-6
    assert report(
        5,
        ok,
        f"maximal-superposition fidelity 1-{1 - ghz_fid:.1e}, blocked-squeezing dev {max(devs):.1e}",
    )


def test_criterion_6_local_hamiltonian_trend(eight_qubit_traces):
    cfg, traces, run_time = eight_qubit_traces
    start = time.perf_counter()
    scores = {
        kind: ml.monotonicity_score(ml.calibration(tr)) for kind, tr in traces.items()
    }
    trend_ok = (
        scores[HamiltonianKind.TF] > scores[HamiltonianKind.OAT]
        and scores[HamiltonianKind.TF] > scores[HamiltonianKind.TAT]
    )

    tf_trace = traces[HamiltonianKind.TF]
    p_states = tf_trace.metadata["p_states"]
    ratios = {}
    gaps = {}
    for name in ("p1", "p2"):
        assert p_states[name] is not None, f"{name} not found on the default grid"
        rho = explore_state(cfg.h_ab_kind, cfg.n_a, cfg.n_b, p_states[name]["t"])  # on sym(A)
        ex = ml.explore_measure_vs_squeezing(rho, "tf", steps=2001)
        ratios[name] = ex.n_a_at_min_xi2 / ex.max_n_a
        gaps[name] = ex.max_n_a - ex.n_a_at_min_xi2
    elapsed = run_time + time.perf_counter() - start

    trend_detail = (
        f"scores tf={scores[HamiltonianKind.TF]:.3f} oat={scores[HamiltonianKind.OAT]:.3f} "
        f"tat={scores[HamiltonianKind.TAT]:.3f}"
    )
    ratio_ok = all(r >= 0.9 for r in ratios.values())
    ok = trend_ok and ratio_ok and elapsed < 600.0
    assert report(
        6,
        ok,
        f"{trend_detail}; negativity-at-best-squeezing ratios "
        f"p1={ratios['p1']:.3f} p2={ratios['p2']:.3f} (need >= 0.9; "
        f"absolute gaps {gaps['p1']:.3f}/{gaps['p2']:.3f}); {elapsed:.0f}s",
    )


def test_criterion_7_invariance_suite(eight_qubit_traces, rng):
    _, traces, _ = eight_qubit_traces
    drift = max(float(np.max(tr.negativity_drift)) for tr in traces.values())

    ghz_trace = ml.run_protocol(
        ProtocolConfig(
            2, 2, "ghz", "ghz",
            t_grid=np.linspace(0, np.pi / 2, 50),
            tp_grid=default_tp_grid("ghz", 500),
        )
    )
    drift = max(drift, float(np.max(ghz_trace.negativity_drift)))

    ops = collective_ops(3)
    rot_dev = 0.0
    scan_dev = 0.0
    for _ in range(50):
        psi = random_state(8, rng)
        base = squeezing_parameter(qcore.PureState(3, psi), ops).xi2
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        gen = axis[0] * ops.jx + axis[1] * ops.jy + axis[2] * ops.jz
        rotated = qcore.SpectralPropagator(gen).apply(psi, rng.uniform(0, 2 * np.pi))
        rot_dev = max(rot_dev, abs(squeezing_parameter(qcore.PureState(3, rotated), ops).xi2 - base))
        scan_dev = max(scan_dev, abs(base - squeezing_scan(psi, ops)))
    ok = drift < 1e-9 and rot_dev < 1e-8 and scan_dev < 1e-8
    assert report(
        7,
        ok,
        f"cut-negativity drift {drift:.1e}, rotation invariance {rot_dev:.1e}, "
        f"scan agreement {scan_dev:.1e}",
    )


def test_criterion_8_cli_thread_determinism(tmp_path):
    def run_pair(name, extra):
        outs = []
        for threads in (1, MAX_THREADS):
            out = tmp_path / f"{name}_{threads}.csv"
            code = cli_main([*extra, "--out", str(out), "--threads", str(threads)])
            assert code == 0, f"{name} exited {code}"
            outs.append(out)
        return outs[0].read_bytes() == outs[1].read_bytes()

    results = {
        "fig2": run_pair("fig2", ["fig2", "--samples", "200", "--seed", "1"]),
        "fig3": run_pair("fig3", ["fig3", "--samples", "300", "--seed", "1"]),
        "protocol": run_pair(
            "protocol",
            ["protocol", "--na", "2", "--nb", "2", "--hab", "oat", "--ha", "tf",
             "--t-steps", "31", "--tp-steps", "200"],
        ),
        "explore": run_pair(
            "explore",
            ["explore", "--na", "2", "--nb", "2", "--hab", "oat", "--prep-t", "0.4",
             "--ha", "tf", "--steps", "101"],
        ),
    }

    # appendix-b emits several files per run
    ok_appb = True
    for threads in (1, MAX_THREADS):
        code = cli_main([
            "appendix-b", "--sizes", "2,4", "--ha-kinds", "oat,tf",
            "--steps", "51", "--out", str(tmp_path / f"appb{threads}"),
            "--threads", str(threads),
        ])
        assert code == 0
    for size in (2, 4):
        for kind in ("oat", "tf"):
            a = (tmp_path / f"appb1_size{size}_{kind}.csv").read_bytes()
            b = (tmp_path / f"appb{MAX_THREADS}_size{size}_{kind}.csv").read_bytes()
            ok_appb = ok_appb and a == b
    results["appendix-b"] = ok_appb

    curve = tmp_path / "protocol_1.csv"
    inv_out = []
    for threads in (1, MAX_THREADS):
        out = tmp_path / f"inv_{threads}.json"
        code = cli_main(["invert", "--curve", str(curve), "--xi2", "0.9",
                         "--out", str(out), "--threads", str(threads)])
        assert code in (0, 4)
        inv_out.append(out.read_bytes())
    results["invert"] = inv_out[0] == inv_out[1]

    ok = all(results.values())
    assert report(8, ok, f"byte-identical outputs across 1 vs {MAX_THREADS} threads: {results}")
