import functools
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from monogamy_lab import analytic, measures, protocol, qcore
from monogamy_lab.errors import (
    ConfigError,
    ContractViolationError,
    DomainError,
    ExtrapolationError,
    ResourceCapError,
    UndefinedScoreError,
)
from monogamy_lab.hamiltonians import HamiltonianKind, _build_symmetric, build
from monogamy_lab.protocol import (
    MAX_SYMMETRIC_QUBITS,
    CalibrationCurve,
    ProtocolConfig,
    _average_ranks,
    _dense_engine,
    _monotone_segments,
    _refine_rows,
    _select_p_states,
    _symmetric_amplitudes,
    _symmetric_part,
    appendix_b_study,
    calibration,
    default_t_grid,
    default_tp_grid,
    entangle,
    explore_measure_vs_squeezing,
    invert,
    monotonicity_score,
    reduced_a_at,
    run_protocol,
    run_protocol_multi,
    state_at,
    sweep,
)
from monogamy_lab.qcore import DensityMatrix, SpectralPropagator, all_down_state
from monogamy_lab.spin import (
    _spin_frame,
    collective_ops,
    pure_moments,
    squeezing_parameter,
    xi2_from_moment_arrays,
)

from oracle_utils import explore_dense, oat_closed_form, random_density, refine_reference


def ghz_config(t_steps=61, tp_steps=600, t_max=np.pi / 2):
    return ProtocolConfig(
        n_a=2,
        n_b=2,
        h_ab_kind="ghz",
        h_a_kind="ghz",
        t_grid=np.linspace(0.0, t_max, t_steps),
        tp_grid=np.linspace(0.0, np.pi, tp_steps),
    )


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ConfigError):
        ProtocolConfig(2, 2, "ghz", "ghz", np.array([]), np.array([0.0, 1.0]))
    with pytest.raises(ConfigError):
        ProtocolConfig(2, 2, "ghz", "ghz", np.array([0.0, 0.0]), np.array([0.0, 1.0]))
    for n_a, n_b in ((6, 2), (2, 6), (6, 5), (5, 6)):
        with pytest.raises(ResourceCapError):
            ProtocolConfig(n_a, n_b, "oat", "tf", np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    grid = np.array([0.0, 1.0])
    for n_a, n_b in ((1.5, 2), (2, 1.5), (True, 2), (2, True), (0, 2), (2, -1), ("2", 2), (None, 2)):
        with pytest.raises(DomainError):
            ProtocolConfig(n_a, n_b, "oat", "tf", grid, grid)
    cfg = ProtocolConfig(np.int64(2), 2, "oat", "tf", grid, grid)
    assert type(cfg.n_a) is int and cfg.n_a == 2
    for bad in (np.inf, -np.inf, np.nan):
        for name in ("t_grid", "tp_grid"):
            grids = {"t_grid": grid, "tp_grid": grid, name: np.array([0.0, 1.0, bad])}
            with pytest.raises(ConfigError, match="finite"):
                ProtocolConfig(2, 2, "oat", "tf", **grids)
    # a 2-D t_grid once failed in run_protocol with "operands could not be
    # broadcast"; a 2-D tp_grid and a 0-D grid failed later inside numpy
    for bad in (np.array([[0.0, 1.0], [2.0, 3.0]]), np.float64(0.5)):
        for name in ("t_grid", "tp_grid"):
            grids = {"t_grid": grid, "tp_grid": grid, name: bad}
            with pytest.raises(ConfigError, match="1-D"):
                ProtocolConfig(2, 2, "oat", "tf", **grids)
    cfg = ghz_config()
    assert cfg.h_ab_kind is HamiltonianKind.GHZ


def test_config_copies_the_callers_grids():
    # the grids were once frozen in place: the caller's own array turned
    # read-only and was the config's grid
    t, tp = np.array([0.0, 1.0]), np.linspace(0.0, 2.0, 5)
    cfg = ProtocolConfig(1, 1, "oat", "tf", t_grid=t, tp_grid=tp)
    assert t.flags.writeable and tp.flags.writeable
    assert cfg.t_grid is not t and cfg.tp_grid is not tp
    assert not cfg.tp_grid.flags.writeable
    t[0], tp[0] = -1.0, -1.0
    assert cfg.t_grid[0] == 0.0 and cfg.tp_grid[0] == 0.0


def test_default_grids():
    t = default_t_grid("ghz", 11)
    assert t[0] == 0.0 and abs(t[-1] - np.pi / 2) < 1e-15
    t = default_t_grid("oat", 11)
    assert abs(t[-1] - np.pi) < 1e-15
    tp = default_tp_grid("tf", 100)
    assert abs(tp[-1] - 100.0) < 1e-12
    assert default_tp_grid("ghz", np.int64(3)).size == 3


@pytest.mark.parametrize("grid", [default_t_grid, default_tp_grid])
@pytest.mark.parametrize("steps", [2.5, -1, 0, True, "3"])
def test_default_grids_reject_a_bad_step_count(grid, steps):
    # 2.5 and -1 once raised numpy's TypeError and ValueError; 0 gave an empty grid
    with pytest.raises(DomainError, match="steps"):
        grid("oat", steps)


def test_every_local_sweep_spans_its_kinds_default_tp_grid(rng):
    steps = 17
    rho = _symmetric_density(2, rng)
    for kind in HamiltonianKind:
        want = default_tp_grid(kind, steps).tobytes()
        assert explore_measure_vs_squeezing(rho, kind, steps=steps).tp.tobytes() == want, kind
    traces = appendix_b_study(sizes=(2, 4), h_a_kinds=list(HamiltonianKind), steps=steps)
    assert len(traces) == 2 * len(HamiltonianKind)
    for trace in traces.values():
        assert trace.t.tobytes() == default_tp_grid(trace.h_a_kind, steps).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_ghz_generator_is_minus_one_at_pi_on_sym_n(n, rng):
    """U(pi) = -1 on sym(n), so the GHZ span [0, pi] of `default_tp_grid`
    holds every state a GHZ sweep reaches."""
    prop = SpectralPropagator(_build_symmetric("ghz", n))
    for _ in range(20):
        x = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        x /= np.linalg.norm(x)
        assert np.max(np.abs(prop.apply(x, np.pi) + x)) <= 1e-14


# ---------------------------------------------------------------------------
# the exactly solvable configuration


def test_ghz_trace_matches_closed_forms():
    trace = run_protocol(ghz_config())
    for i, t in enumerate(trace.t):
        ref = analytic.ghz_protocol_analytics(t, 0.0)
        assert abs(trace.s_l_ab[i] - ref.s_l_ab) < 1e-9
        assert abs(trace.xi2_ab[i] - 1.0) < 1e-9
        assert abs(trace.min_xi2_a[i] - ref.min_xi2_a) < 1e-9
        assert abs(analytic.ghz_s_l_from_min_xi2(trace.min_xi2_a[i]) - trace.s_l_ab[i]) < 1e-9
    assert np.max(trace.negativity_drift) < 1e-9


def test_ghz_calibration_inversion():
    curve = calibration(run_protocol(ghz_config()))
    assert curve.ghz_exact
    assert invert(curve, 1.0).candidates == (pytest.approx(2 / 3, abs=1e-12),)
    assert invert(curve, 0.0).candidates == (pytest.approx(0.0, abs=1e-12),)
    res = invert(curve, 0.5)
    assert not res.ambiguous
    assert abs(res.candidates[0] - analytic.ghz_s_l_from_min_xi2(0.5)) < 1e-12
    with pytest.raises(ExtrapolationError):
        invert(curve, 1.5)


def test_ghz_score_is_one_on_monotone_branch():
    trace = run_protocol(ghz_config(t_steps=40, t_max=np.pi / 4))
    score = monotonicity_score(calibration(trace))
    assert abs(score - 1.0) < 1e-12
    full = run_protocol(ghz_config(t_steps=81, t_max=np.pi / 2))
    assert monotonicity_score(calibration(full)) > 0.99
    assert not full.nonmonotone.any()


def test_sweep_consistency_at_zero_local_time():
    cfg = ghz_config(t_steps=7)
    eng_ops = collective_ops(2)
    eng = _dense_engine(HamiltonianKind.GHZ, 2, cfg.tp_grid)
    trace = run_protocol(cfg)
    for i, t in enumerate(trace.t):
        rho = reduced_a_at(cfg, t)
        direct = squeezing_parameter(rho, eng_ops).xi2
        # the sweep evaluated at local time zero is the bare subsystem value
        at_zero = float(eng.xi2_at(eng.moment_products(eng.to_eigenbasis(rho.matrix))[None], np.zeros(1))[0])
        assert abs(at_zero - direct) < 1e-10
        # and the sweep minimum cannot exceed it
        assert trace.min_xi2_a[i] <= direct + 1e-12


def test_min_never_exceeds_grid_samples():
    cfg = ghz_config(t_steps=12, tp_steps=47)
    trace = run_protocol(cfg)
    eng = _dense_engine(HamiltonianKind.GHZ, 2, cfg.tp_grid)
    for i, t in enumerate(trace.t):
        rho = reduced_a_at(cfg, t).matrix
        grid_vals, _ = eng.xi2_sweep(eng.moment_products(eng.to_eigenbasis(rho)))
        assert trace.min_xi2_a[i] <= np.min(grid_vals) + 1e-12


# ---------------------------------------------------------------------------
# the 4-qubit register-squeezing configuration


def test_oat_half_period_reaches_ghz_point():
    n = 4
    h = build("oat", n)
    psi = qcore.evolve(all_down_state(n), h, np.pi / 2)
    a0, a15 = psi.amplitudes[0], psi.amplitudes[-1]
    ghz_fidelity = (abs(a0) + abs(a15)) ** 2 / 2
    assert ghz_fidelity > 1 - 1e-9


def test_oat_ghz_point_blocks_local_squeezing():
    for ha in ("oat", "tat", "tf"):
        cfg = ProtocolConfig(
            2, 2, "oat", ha,
            t_grid=np.array([np.pi / 2]),
            tp_grid=default_tp_grid(ha, 400),
        )
        trace = run_protocol(cfg)
        assert abs(trace.min_xi2_a[0] - 1.0) < 1e-6


def test_multi_run_shares_entangling_stage():
    cfg = ProtocolConfig(
        2, 2, "oat", "tf",
        t_grid=np.linspace(0, np.pi, 21),
        tp_grid=np.linspace(0, 20.0, 300),
    )
    traces = run_protocol_multi(cfg, ["tf", "oat"])
    assert np.array_equal(traces[HamiltonianKind.TF].s_l_ab, traces[HamiltonianKind.OAT].s_l_ab)
    assert traces[HamiltonianKind.TF].config.h_a_kind is HamiltonianKind.TF


@pytest.mark.parametrize("n_a, n_b", [(2, 2), (3, 2)])
def test_grid_stages_match_per_row_route(n_a, n_b):
    # the uneven split catches a wrong reshape of the A block
    cfg = ProtocolConfig(
        n_a, n_b, "oat", "tf",
        t_grid=np.linspace(0, np.pi, 9),
        tp_grid=np.linspace(0, 10.0, 50),
    )
    trace = run_protocol(cfg)
    ops = collective_ops(n_a + n_b)
    for i, t in enumerate(cfg.t_grid):
        assert abs(trace.s_l_ab[i] - measures.linear_entropy(reduced_a_at(cfg, t))) < 1e-12
        assert abs(trace.xi2_ab[i] - squeezing_parameter(state_at(cfg, t), ops).xi2) < 1e-12

    n = n_a + n_b
    prop = SpectralPropagator(build("oat", n))
    psi0 = all_down_state(n).amplitudes
    columns = prop.apply(psi0, cfg.t_grid)
    assert columns.shape == (2**n, cfg.t_grid.size)
    for i, t in enumerate(cfg.t_grid):
        assert np.max(np.abs(columns[:, i] - prop.apply(psi0, float(t)))) < 1e-14


@pytest.mark.parametrize("n_a, n_b", [(1, 3), (2, 2), (3, 5), (4, 4)])
def test_register_columns_match_oat_closed_form(n_a, n_b):
    cfg = ProtocolConfig(
        n_a, n_b, "oat", "tf",
        t_grid=default_t_grid("oat", 41),
        tp_grid=np.linspace(0, 10.0, 50),
    )
    trace = run_protocol(cfg)
    xi2, s_l = oat_closed_form(n_a, n_b, trace.t)
    assert np.max(np.abs(trace.xi2_ab - xi2)) <= 1e-12
    assert np.max(np.abs(trace.s_l_ab - s_l)) <= 1e-12


def test_protocol_repeat_runs_are_identical():
    cfg = ProtocolConfig(
        2, 2, "oat", "tf",
        t_grid=np.linspace(0, np.pi, 13),
        tp_grid=np.linspace(0, 20.0, 200),
    )
    one = run_protocol(cfg)
    two = run_protocol(cfg)
    assert np.array_equal(one.min_xi2_a, two.min_xi2_a)
    assert np.array_equal(one.argmin_tp, two.argmin_tp)


def test_protocol_traces_do_not_depend_on_the_kind_set():
    # 13 rows put one on the flat row t = pi/2, where argmin_tp is rounding noise
    cfg = ProtocolConfig(
        2, 2, "oat", "tf",
        t_grid=np.linspace(0, np.pi, 13),
        tp_grid=np.linspace(0, 20.0, 200),
    )
    kinds = [HamiltonianKind.TF, HamiltonianKind.OAT, HamiltonianKind.TAT]
    multi = run_protocol_multi(cfg, kinds)
    reverse = run_protocol_multi(cfg, kinds[::-1])
    assert list(multi) == kinds and list(reverse) == kinds[::-1]
    arrays = ("t", "s_l_ab", "xi2_ab", "min_xi2_a", "argmin_tp", "nonmonotone", "negativity_drift")

    def assert_same(one, other):
        for name in arrays:
            assert np.array_equal(getattr(one, name), getattr(other, name)), name
        assert one.metadata == other.metadata
        assert np.array_equal(one.config.tp_grid, other.config.tp_grid)
        assert one.config.h_a_kind is other.config.h_a_kind

    for kind in kinds:
        for other in (run_protocol(replace(cfg, h_a_kind=kind)), reverse[kind]):
            assert_same(multi[kind], other)
            assert other.config.h_a_kind is kind
    # one grid stage serves a kind on a second tp grid too
    stage = entangle(cfg)
    tp = np.linspace(0.0, np.pi, 150)
    swept = sweep(stage, "oat", tp)
    assert swept.config.h_a_kind is HamiltonianKind.OAT
    assert_same(swept, run_protocol(replace(cfg, h_a_kind="oat", tp_grid=tp)))
    assert_same(sweep(stage, "tf", cfg.tp_grid), multi[HamiltonianKind.TF])


@pytest.mark.parametrize("bad, match", [
    (np.linspace(0.0, 1.0, 6).reshape(2, 3), "1-D"),
    (np.array([0.0, np.nan, 1.0]), "finite"),
    (np.array([0.0, 2.0, 1.0]), "increasing"),
])
def test_sweep_rejects_a_bad_tp_grid(bad, match):
    stage = entangle(ProtocolConfig(1, 1, "oat", "tf", t_grid=np.linspace(0, np.pi, 3), tp_grid=[0.0, 1.0]))
    with pytest.raises(ConfigError, match=match):
        sweep(stage, "tf", bad)


@pytest.mark.parametrize("n_a", range(1, 6))
def test_local_oat_sweep_has_period_pi_and_the_oat_mirror(n_a):
    # exp(-i pi Jx^2) is a pi rotation about x (integer j) or a global phase
    # (half-integer j), and xi2 is invariant under rotations: period pi
    # under any entangler. Under the OAT entangler, rho_A depends on t' only
    # through exp(-i s Jx_A^2), s = t + t', and complex conjugation (with a
    # pi rotation of B about z) maps s to -s, so xi2_A is even in s: the
    # mirror t' -> (pi - 2t - t') mod pi. It fails under the other
    # entanglers from n_A = 2.
    ts = np.array([0.0, 0.37, 1.3, 2.9])
    tp = np.linspace(0.0, np.pi, 41, endpoint=False) + 0.013
    for hab in ("oat", "ghz", "tf", "tat"):
        cfg = ProtocolConfig(n_a, 2, hab, "oat", t_grid=ts, tp_grid=[0.0])
        for rho_a, t in zip(entangle(cfg).rho_a, ts):
            mirror = (np.pi - 2.0 * t - tp) % np.pi
            eng = _dense_engine(HamiltonianKind.OAT, n_a, np.concatenate([tp, tp + np.pi, mirror]))
            xi2, _ = eng.xi2_sweep(eng.moment_products(eng.to_eigenbasis(rho_a)))
            xi2 = xi2.reshape(3, tp.size)
            assert np.max(np.abs(xi2[1] - xi2[0])) <= 1e-13
            if hab == "oat":
                assert np.max(np.abs(xi2[2] - xi2[0])) <= 1e-13


# ---------------------------------------------------------------------------
# calibration machinery on synthetic data


def test_monotone_segments_synthetic():
    assert _monotone_segments(np.array([0.0, 1.0, 2.0])) == ((0, 2),)
    assert _monotone_segments(np.array([0.0, 1.0, 0.5])) == ((0, 1), (1, 2))
    assert _monotone_segments(np.array([2.0, 2.0, 2.0])) == ((0, 2),)
    assert _monotone_segments(np.array([0.0, 0.0, 1.0, 2.0, 1.0])) == ((0, 3), (3, 4))
    assert _monotone_segments(np.array([])) == ((0, -1),)
    assert _monotone_segments(np.array([0.3])) == ((0, 0),)
    # leading flats take the first real direction, later flats the last one
    assert _monotone_segments(np.array([1.0, 1.0, 2.0, 1.0])) == ((0, 2), (2, 3))
    assert _monotone_segments(np.array([0.0, 1.0, 0.0, 0.0])) == ((0, 1), (1, 3))
    assert _monotone_segments(np.array([0.0, 1.0, 1.0, 0.0])) == ((0, 2), (2, 3))
    assert _monotone_segments(np.array([2.0, 1.0, 1.0, 1.0, 3.0])) == ((0, 3), (3, 4))


def test_average_ranks_on_ties(rng):
    for a in (np.array([3.0, 1.0, 3.0, 2.0, 3.0]), rng.integers(0, 6, 200).astype(float)):
        less = np.sum(a[None, :] < a[:, None], axis=1)
        equal = np.sum(a[None, :] == a[:, None], axis=1)
        assert np.array_equal(_average_ranks(a), 1.0 + less + (equal - 1) / 2.0)


def test_mirror_rows_of_the_oat_entangler_share_a_rank():
    # S_L,AB(t) = S_L,AB(pi - t) under the OAT entangler, but the two rows
    # round apart in the last bit; a rank must not depend on that rounding.
    grid = default_t_grid("oat", 41)
    s_l = entangle(ProtocolConfig(2, 2, "oat", "tf", grid, np.array([0.0]))).s_l_ab
    mirrored = s_l[::-1]
    assert np.any(s_l != mirrored) and np.max(np.abs(s_l - mirrored)) < 1e-14
    ranks = _average_ranks(s_l)
    assert np.array_equal(ranks, ranks[::-1])


def test_calibration_curve_computes_its_segments():
    for x in ([0.0, 1.0, 0.5], [2.0, 2.0, 2.0], [0.0, 0.5, 1.0, 0.6, 0.2], [0.3]):
        x = np.array(x)
        assert CalibrationCurve(x=x, y=np.zeros_like(x)).segments == _monotone_segments(x)
    with pytest.raises(TypeError):
        CalibrationCurve(x=x, y=x, segments=((0, 0),))


def test_calibration_curve_rejects_y_longer_than_x():
    # x=[0, 1, 0.5] with one y too many once answered invert(., 0.75) with (0.75, 1.5)
    with pytest.raises(ConfigError):
        CalibrationCurve(x=np.array([0.0, 1.0, 0.5]), y=np.array([0.0, 1.0, 2.0, 3.0]))


def test_calibration_curve_rejects_y_shorter_than_x():
    with pytest.raises(ConfigError):
        CalibrationCurve(x=np.array([0.0, 1.0, 0.5]), y=np.array([0.0, 1.0]))


def test_calibration_curve_rejects_an_empty_curve():
    with pytest.raises(ConfigError):
        CalibrationCurve(x=np.array([]), y=np.array([]))


@pytest.mark.parametrize("merge_tol", [np.nan, -1e-3, -np.inf])
def test_calibration_curve_rejects_a_nan_or_negative_merge_tol(merge_tol):
    # with NaN, invert once merged the candidates (0.1, 0.3, 0.5, 0.7) into (0.4,)
    x, y = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0]), np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7])
    with pytest.raises(ConfigError, match="merge_tol"):
        CalibrationCurve(x=x, y=y, merge_tol=merge_tol)
    res = invert(CalibrationCurve(x=x, y=y, merge_tol=0.0), 0.0)
    assert res.candidates == (0.1, 0.3, 0.5, 0.7) and res.ambiguous


def test_calibration_curve_rejects_arrays_that_are_not_1d():
    with pytest.raises(ConfigError):
        CalibrationCurve(x=np.zeros((2, 2)), y=np.zeros((2, 2)))
    with pytest.raises(ConfigError):
        CalibrationCurve(x=np.float64(0.5), y=np.float64(0.5))


def test_invert_ambiguous_on_folded_curve():
    x = np.array([0.0, 0.5, 1.0, 0.6, 0.2])
    y = np.array([0.0, 0.2, 0.4, 0.55, 0.7])
    curve = CalibrationCurve(x=x, y=y)
    res = invert(curve, 0.4)
    assert res.ambiguous
    assert len(res.candidates) == 2
    # x = 0.2 ends the second run and lies inside the first
    assert invert(curve, 0.2).candidates == (pytest.approx(0.08, abs=1e-15), 0.7)
    # both runs answer 0.4 at their shared endpoint: one value
    assert invert(curve, 1.0) == invert(curve, 1.0 + 1e-10)
    assert invert(curve, 1.0).candidates == (0.4,) and not invert(curve, 1.0).ambiguous
    with pytest.raises(ExtrapolationError):
        invert(curve, -0.1)
    # three runs answer within merge_tol of each other: their mean, unambiguous
    zigzag = CalibrationCurve(x=np.array([0.0, 1.0, 0.0, 1.0]), y=0.5 + 1e-4 * np.arange(4))
    assert len(zigzag.segments) == 3
    res = invert(zigzag, 0.5)
    assert res.candidates == (pytest.approx(0.5 + 1.5e-4, abs=1e-15),) and not res.ambiguous
    # two answers 2 merge_tol apart stay distinct
    res = invert(CalibrationCurve(x=np.array([0.0, 1.0, 0.0]), y=np.array([0.5, 0.5, 0.502])), 0.0)
    assert res.candidates == (0.5, 0.502) and res.ambiguous


def test_monotonicity_score_synthetic():
    x = np.linspace(0, 1, 30)
    curve = CalibrationCurve(x=x, y=x**2)
    assert abs(monotonicity_score(curve) - 1.0) < 1e-12
    rev = CalibrationCurve(x=x, y=-x)
    assert abs(monotonicity_score(rev) + 1.0) < 1e-12
    const = CalibrationCurve(x=x, y=np.ones_like(x))
    with pytest.raises(UndefinedScoreError):
        monotonicity_score(const)
    tiny = CalibrationCurve(x=x[:2], y=x[:2])
    with pytest.raises(UndefinedScoreError):
        monotonicity_score(tiny)


def test_p_state_selection_synthetic():
    s_l = np.array([0.0, 0.1, 0.4, 0.7, 0.8, 0.7, 0.4])
    flags = np.array([False, False, False, False, True, True, False])
    t = np.arange(7.0)
    out = _select_p_states(s_l, flags, t)
    assert out["p1"]["index"] == 1
    assert out["p2"]["index"] == 3
    assert out["p3"]["index"] == 5
    none = _select_p_states(np.array([0.5, 0.5]), np.array([False, False]), np.arange(2.0))
    assert none["p1"] is None and none["p3"] is None


# ---------------------------------------------------------------------------
# exploration and the pure-state study


def test_explore_records_metadata_and_ranges(rng):
    iso = qcore.symmetric_isometry(2)  # a rank-2 density supported on sym(2)
    rho = DensityMatrix(2, iso @ random_density(3, rng, rank=2) @ iso.T)
    tr = explore_measure_vs_squeezing(rho, "tf", steps=101)
    assert tr.tp.size == 101
    assert np.all(tr.n_a >= 0) and np.all(tr.n_a <= 1)
    assert np.all(tr.xi2_a >= 0)
    assert tr.metadata["split"] == {"a": [0], "b": [1]}
    assert tr.min_xi2 <= tr.xi2_a[0] + 1e-12


def test_explore_block_dynamics_negativity_endpoints():
    # a reduced state diagonal in the {|00>, |11>} block is separable across
    # the internal split, and the block flip returns it to diagonal at pi/2
    cfg = ghz_config(t_steps=5)
    rho = reduced_a_at(cfg, 0.3)
    tr = explore_measure_vs_squeezing(rho, "ghz", steps=65)
    assert tr.n_a[0] < 1e-10
    assert tr.n_a[32] < 1e-10  # local time pi/2
    assert np.max(tr.n_a) <= 1.0


def _symmetric_density(n, rng):
    """A random rank-2 density matrix of n qubits supported on sym(n)."""
    iso = qcore.symmetric_isometry(n)
    return DensityMatrix(n, iso @ random_density(n + 1, rng, rank=2) @ iso.T)


def _assert_explore_matches_dense(rho, kind):
    tr = explore_measure_vs_squeezing(rho, kind, steps=41)
    n = rho.n_qubits
    ops = collective_ops(n)
    xi2, n_a = explore_dense(rho.matrix, build(kind, n), (ops.jx, ops.jy, ops.jz), tr.tp, tuple(range(n // 2)))
    assert np.max(np.abs(tr.xi2_a - xi2)) <= 1e-10
    assert np.max(np.abs(tr.n_a - n_a)) <= 1e-10
    assert np.max(n_a) > 0.01  # the negativity comparison is not vacuous


@pytest.mark.parametrize("kind", ["oat", "tf", "tat", "ghz"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_symmetric_explore_matches_dense_route(n, kind, rng):
    _assert_explore_matches_dense(_symmetric_density(n, rng), kind)


def test_explore_rejects_weight_outside_symmetric_subspace(rng):
    with pytest.raises(ContractViolationError):
        explore_measure_vs_squeezing(DensityMatrix(2, random_density(4, rng)), "tf", steps=11)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    sym = _symmetric_density(2, rng).matrix
    mixed = (1 - 1e-9) * sym + 1e-9 * np.outer(singlet, singlet)
    with pytest.raises(ContractViolationError):
        explore_measure_vs_squeezing(DensityMatrix(2, mixed), "tf", steps=11)


@pytest.mark.parametrize("steps", [0, -3, 2.5, 3.0, "5", True, None])
def test_step_counts_must_be_integers_of_at_least_one(steps, rng):
    rho = _symmetric_density(2, rng)
    with pytest.raises(DomainError):
        explore_measure_vs_squeezing(rho, "tf", steps=steps)
    with pytest.raises(DomainError):
        appendix_b_study(sizes=(2,), steps=steps)


def test_step_counts_accept_numpy_integers(rng):
    tr = explore_measure_vs_squeezing(_symmetric_density(2, rng), "tf", steps=np.int64(3))
    assert tr.tp.size == 3
    assert appendix_b_study(sizes=(2,), h_a_kinds=("tf",), steps=np.int64(3))[(2, HamiltonianKind.TF)].t.size == 3
    res = appendix_b_study(sizes=(np.int64(2),), h_a_kinds=("tf",), steps=3)
    assert list(res) == [(2, HamiltonianKind.TF)] and type(res[(2, HamiltonianKind.TF)].size) is int


def test_appendix_b_small_sizes_coincide():
    res = appendix_b_study(sizes=(2,))
    pts = {
        kind: np.column_stack([res[(2, kind)].s_l_a, res[(2, kind)].xi2_a])
        for kind in (HamiltonianKind.OAT, HamiltonianKind.TAT, HamiltonianKind.TF)
    }

    def directed_hausdorff(a, b):
        return max(np.min(np.hypot(b[:, 0] - p[0], b[:, 1] - p[1])) for p in a[::5])

    # every locus lies on the common curve traced by the others (the attainable
    # arcs overlap; the transverse-field arc is shorter, so compare towards
    # the longer loci)
    assert directed_hausdorff(pts[HamiltonianKind.OAT], pts[HamiltonianKind.TAT]) < 0.01
    assert directed_hausdorff(pts[HamiltonianKind.TAT], pts[HamiltonianKind.OAT]) < 0.01
    assert directed_hausdorff(pts[HamiltonianKind.TF], pts[HamiltonianKind.OAT]) < 0.01
    assert directed_hausdorff(pts[HamiltonianKind.TF], pts[HamiltonianKind.TAT]) < 0.01


def test_appendix_b_tf_optimality_trend():
    res = appendix_b_study(sizes=(4, 6), steps=1501)
    for size in (4, 6):
        ratios = {}
        for kind in (HamiltonianKind.OAT, HamiltonianKind.TAT, HamiltonianKind.TF):
            tr = res[(size, kind)]
            i = int(np.argmin(tr.xi2_a))
            ratios[kind] = tr.s_l_a[i] / np.max(tr.s_l_a)
        assert ratios[HamiltonianKind.TF] >= 0.9
        assert ratios[HamiltonianKind.TF] > ratios[HamiltonianKind.OAT]
        assert ratios[HamiltonianKind.TF] > ratios[HamiltonianKind.TAT]


def test_appendix_b_validation():
    for size in (3, 0, -2, 9, 2.0, 2.5, True, "2", None):
        with pytest.raises(DomainError):
            appendix_b_study(sizes=(size,))
    over_cap = MAX_SYMMETRIC_QUBITS + 2  # the first even size above the cap
    for sizes in ((over_cap,), (2, over_cap)):
        with pytest.raises(ResourceCapError):
            appendix_b_study(sizes=sizes)
    for sizes, kinds in (((), ("tf",)), ((2,), ())):
        with pytest.raises(DomainError):
            appendix_b_study(sizes=sizes, h_a_kinds=kinds)
    # repeats run once, in first-seen order
    res = appendix_b_study(sizes=(4, 2, 4), h_a_kinds=("tf", "oat", HamiltonianKind.TF), steps=11)
    tf, oat = HamiltonianKind.TF, HamiltonianKind.OAT
    assert list(res) == [(4, tf), (4, oat), (2, tf), (2, oat)]


def test_appendix_b_oat_matches_closed_form():
    """Sizes 20 and 40 run beyond any dense oracle (a stray 2^40 array would
    ask for terabytes). There the eigensolver's tolerance, 1e-14 ||H|| with
    ||H|| ~ N^2/4, times t up to 100 gives a bound of 1e-11 (measured:
    9.3e-13 at 20, 3.1e-12 at 40); the dense-checkable sizes keep 1e-12."""
    bounds = {2: 1e-12, 4: 1e-12, 6: 1e-12, 8: 1e-12, 20: 1e-11, 40: 1e-11}
    res = appendix_b_study(sizes=tuple(bounds), h_a_kinds=("oat",), steps=401)
    for size, bound in bounds.items():
        tr = res[(size, HamiltonianKind.OAT)]
        xi2, s_l = oat_closed_form(size // 2, size // 2, tr.t)
        assert np.max(np.abs(tr.xi2_a - xi2)) <= bound, size
        assert np.max(np.abs(tr.s_l_a - s_l)) <= bound, size


# ---------------------------------------------------------------------------
# the symmetric-subspace routes against the dense register


@functools.cache
def _dense_propagator(n: int, kind: str) -> SpectralPropagator:
    """Dense propagator of build(kind, n): the route qcore.evolve
    takes, solved once per (n, kind) so the 256x256 cases stay affordable."""
    return SpectralPropagator(build(kind, n))


@pytest.mark.parametrize("kind", ["oat", "tf", "tat", "ghz"])
@pytest.mark.parametrize("n_a, n_b", [(1, 1), (2, 2), (3, 2), (4, 4)])
def test_state_at_matches_dense_evolution(n_a, n_b, kind):
    n = n_a + n_b
    times = np.array([0.0, 0.37, 83 * np.pi / 400, np.pi / 2, 100.0])
    dense = _dense_propagator(n, kind).apply(all_down_state(n).amplitudes, times)
    cfg = ProtocolConfig(n_a, n_b, kind, "tf", t_grid=[0.0], tp_grid=[0.0])
    for j, t in enumerate(times):
        assert np.max(np.abs(state_at(cfg, t).amplitudes - dense[:, j])) <= 1e-10


def test_state_at_an_overflowing_time_raises():
    # w t overflows at t = 1e308; the time is refused before any phase is taken.
    cfg = ProtocolConfig(4, 4, "oat", "tf", t_grid=default_t_grid("oat", 3), tp_grid=[0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t in (1e308, -1e308, float("inf"), float("nan")):
            with pytest.raises(DomainError, match=re.escape(f"time |t| = {abs(t)!r} makes a phase w*t non-finite")):
                state_at(cfg, t)
        with pytest.raises(DomainError, match=r"^time \|t\| = 1e\+308 makes a phase"):
            entangle(replace(cfg, t_grid=[0.0, 0.5, 1e308]))


def test_engine_refuses_a_local_time_that_overflows_a_phase():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=r"^time \|t\| = 1e\+308 makes a phase"):
            _dense_engine(HamiltonianKind.OAT, 4, np.array([-1e308, 0.0, 1.0]))


@pytest.mark.parametrize("n_a, n_b, steps", [(2, 2, 41), (3, 2, 41), (4, 4, 81)])
def test_symmetric_probes_match_dense_route(n_a, n_b, steps):
    n = n_a + n_b
    keep = tuple(range(n_a))
    t_grid = default_t_grid("oat", steps)
    tp = default_tp_grid("oat", 400)
    psi = _dense_propagator(n, "oat").apply(all_down_state(n).amplitudes, t_grid).T
    rho_a = qcore.reduced_state_matrix(psi, n, keep)
    # The protocol's probe route: C(t) on sym(A) (x) sym(B), evolved by A's
    # propagator restricted to sym(A), negativity from singular values.
    psi_sym = _symmetric_amplitudes(psi, qcore.symmetric_isometry(n))
    coeffs = (psi_sym @ qcore.symmetric_split_isometry(n_a, n_b).T).reshape(steps, n_a + 1, n_b + 1)
    iso_a = qcore.symmetric_isometry(n_a)
    eng = _dense_engine(HamiltonianKind.OAT, n_a, tp)
    products = np.array([eng.moment_products(eng.to_eigenbasis(rho)) for rho in rho_a])
    grids = np.array([eng.xi2_sweep(p)[0] for p in products])
    tau_min, _, _ = _refine_rows(eng, products, grids, tp)
    taus = np.array([np.full(steps, tp[0]), np.full(steps, tp[-1]), tau_min])  # the protocol's three probe times per row
    negs = measures.negativity_from_coefficients(eng.restricted_unitaries(iso_a, taus) @ coeffs)
    for i in range(steps):
        # The dense Schmidt route takes sqrt of each reduced eigenvalue mu, so
        # a rounding error of ~1e-15 in mu moves its negativity by up to about
        # 1e-15 / sqrt(mu): near-product rows (mu ~ 1e-11) are noisier than 1e-12.
        mu = np.linalg.eigvalsh(coeffs[i] @ coeffs[i].conj().T)
        tol = 1e-12 + 1e-15 * float(np.sum(1.0 / np.sqrt(mu[mu >= 1e-11])))
        for tau, got in zip(taus[:, i], negs[:, i]):
            local = qcore.apply_local_unitary(psi[i], eng.unitary(tau), n, keep)
            want = measures.schmidt_negativity_raw(qcore.reduced_state_matrix(local, n, keep))
            assert abs(got - want) <= tol, (i, tau)


def test_probe_drift_is_at_rounding_level_at_eight_qubits():
    """Every probe of every row agrees to 1e-13 at 4+4: the singular values
    of U_A C do not amplify rounding as the square roots of reduced
    eigenvalues did (4.8e-12 on this grid)."""
    cfg = ProtocolConfig(4, 4, "oat", "tf", t_grid=default_t_grid("oat", 81), tp_grid=default_tp_grid("tf"))
    traces = run_protocol_multi(cfg, ["tf", "oat", "tat"])
    for trace in traces.values():
        assert trace.metadata["max_negativity_drift"] == float(np.max(trace.negativity_drift))
        assert trace.metadata["max_negativity_drift"] <= 1e-13, trace.config.h_a_kind


def test_weight_outside_symmetric_subspace_fails_loudly():
    iso = qcore.symmetric_isometry(3)
    down = all_down_state(3).amplitudes
    singlet = np.kron(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0), [0.0, 1.0])  # on qubits 0, 1
    sym_rho = np.outer(down, down.conj())
    singlet_rho = np.outer(singlet, singlet)
    assert np.allclose(_symmetric_part(sym_rho[None], iso)[0], np.diag([0, 0, 0, 1.0]))
    for rho in (singlet_rho, (1 - 1e-9) * sym_rho + 1e-9 * singlet_rho):
        with pytest.raises(ContractViolationError):
            _symmetric_part(np.stack([sym_rho, rho]), iso)
    assert np.allclose(_symmetric_amplitudes(down[None], iso)[0], [0, 0, 0, 1.0])
    for psi in (singlet, np.sqrt(1 - 1e-9) * down + np.sqrt(1e-9) * singlet):
        with pytest.raises(ContractViolationError):
            _symmetric_amplitudes(np.stack([down, psi]), iso)


def test_weight_gate_refuses_a_nan_weight():
    # NaN > TRACE_TOL is False: the gate must be written so that NaN fails it.
    iso = qcore.symmetric_isometry(2)
    with pytest.raises(ContractViolationError, match="by nan"):
        _symmetric_part(np.full((1, 4, 4), np.nan), iso)
    with pytest.raises(ContractViolationError, match="by nan"):
        _symmetric_amplitudes(np.full((1, 4), np.nan), iso)


def test_drift_gate_refuses_a_nan_drift(monkeypatch):
    # NaN > NEGATIVITY_DRIFT_TOL is False: the gate must be written so that NaN fails it.
    cfg = ProtocolConfig(2, 2, "oat", "tf", t_grid=default_t_grid("oat", 5), tp_grid=[0.0])
    stage = entangle(cfg)
    monkeypatch.setattr(protocol, "_negativity_drift", lambda eng, coeffs, tp, argmin: np.full(5, np.nan))
    with pytest.raises(ContractViolationError, match="drifted by nan"):
        sweep(stage, "tf", default_tp_grid("tf", 21))


def test_appendix_b_matches_dense_route():
    kinds = list(HamiltonianKind)
    sizes = (2, 4, 6, 8)
    res = appendix_b_study(sizes=sizes, h_a_kinds=kinds, steps=201)
    for size in sizes:
        mops = collective_ops(size).moment_operators
        half = tuple(range(size // 2))
        for kind in kinds:
            tr = res[(size, kind)]
            states = _dense_propagator(size, kind.value).apply(all_down_state(size).amplitudes, tr.t)
            xi2, _ = xi2_from_moment_arrays(pure_moments(states, mops), size)
            rho = qcore.reduced_state_matrix(states.T, size, half)
            s_l = np.array([measures.linear_entropy(r) for r in rho])
            assert np.max(np.abs(tr.xi2_a - xi2)) <= 1e-10, (size, kind)
            assert np.max(np.abs(tr.s_l_a - s_l)) <= 1e-10, (size, kind)


@functools.lru_cache(maxsize=None)
def _short_stage(n_a, n_b, h_ab, t_steps=9):
    """The entangle stage of a short t-grid, shared by the refine tests."""
    return entangle(ProtocolConfig(n_a, n_b, h_ab, "tf", t_grid=default_t_grid(h_ab, t_steps), tp_grid=[0.0]))


def _sweep_bytes(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _trace_bytes(trace):
    return _sweep_bytes((trace.min_xi2_a, trace.argmin_tp, trace.nonmonotone, trace.negativity_drift))


@pytest.mark.parametrize("h_ab", ["oat", "ghz"])
@pytest.mark.parametrize("n_a, n_b", [(1, 1), (2, 2), (3, 2), (4, 4)])
def test_block_refine_keeps_the_bytes_of_the_scalar_search(n_a, n_b, h_ab):
    """Every row's min_xi2_a, argmin_tp, flag and drift from the block
    refine have the bytes of the per-row scalar golden-section search: on
    each kind's own short grid, on a grid whose argmins sit at either end
    (a one-step bracket), and on tp grids of one and two points."""
    stage = _short_stage(n_a, n_b, h_ab)
    edge = np.linspace(0.0, 0.3, 4)
    grid_argmins = set()
    for kind in ("oat", "tat", "tf", "ghz"):
        for tp in (default_tp_grid(kind, 40), edge, [0.0], default_tp_grid(kind, 2)):
            got = _trace_bytes(sweep(stage, kind, tp))
            assert got == _sweep_bytes(refine_reference(stage, kind, tp)), (kind, len(tp))
        eng = _dense_engine(kind, n_a, edge)
        for rho in stage.rho_a:
            grid, _ = eng.xi2_sweep(eng.moment_products(eng.to_eigenbasis(rho)))
            grid_argmins.add(int(np.argmin(grid)))
    assert {0, edge.size - 1} <= grid_argmins


@pytest.mark.parametrize("kind", ["tf", "oat"])
def test_refine_block_size_does_not_change_a_byte(monkeypatch, kind):
    """One row per block, the default blocks (14 rows at n_A = 4, so three
    blocks of 41 rows) and all rows in one block give the same bytes and
    evaluate the same refine points."""
    stage = _short_stage(4, 4, "oat", 41)
    assert 1 < protocol.REFINE_BLOCK_BYTES // (9 * 16**2 * 16) < 41
    tp = default_tp_grid(kind, 200)
    default = sweep(stage, kind, tp)
    for budget in (1, 10**9):
        monkeypatch.setattr(protocol, "REFINE_BLOCK_BYTES", budget)
        trace = sweep(stage, kind, tp)
        assert _trace_bytes(trace) == _trace_bytes(default), budget
        assert trace.refine_points == default.refine_points > 0
        assert trace.metadata["degenerate_points"] == default.metadata["degenerate_points"]


def test_refine_ends_where_no_bracket_can_shrink_to_refine_tol():
    """Near t' = 1e10 one ulp exceeds REFINE_TOL, so no bracket there gets
    that narrow; each row's refine must still stop. The sweep runs in a
    fresh process with a timeout, so a regression fails instead of hanging."""
    assert np.spacing(1e10) > protocol.REFINE_TOL
    code = ("import numpy as np\n"
            "from monogamy_lab.protocol import ProtocolConfig, entangle, sweep\n"
            "stage = entangle(ProtocolConfig(2, 2, 'oat', 'tf', t_grid=[0, 0.5], tp_grid=[0.0]))\n"
            "trace = sweep(stage, 'tf', np.linspace(1e10, 1e10 + 100, 201))\n"
            "print(trace.refine_points, *trace.argmin_tp.tolist())\n")
    src = str(Path(protocol.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    points, *argmins = run.stdout.split()
    assert int(points) > 0 and len(argmins) == 2
    assert all(1e10 <= float(tau) <= 1e10 + 100 for tau in argmins)


@pytest.mark.parametrize("h_ab, n_a, n_b, t_steps", [("oat", 2, 2, 41), ("ghz", 3, 2, 9)])
def test_degenerate_points_count_the_grid_points_with_degenerate_mean_spin(h_ab, n_a, n_b, t_steps):
    stage = _short_stage(n_a, n_b, h_ab, t_steps)
    counts = []
    for kind in ("oat", "tat", "tf"):
        tp = default_tp_grid(kind, 200)
        eng = _dense_engine(kind, n_a, tp)
        masks = [eng.xi2_sweep(eng.moment_products(eng.to_eigenbasis(rho)))[1] for rho in stage.rho_a]
        counts.append(sum(int(np.count_nonzero(mask)) for mask in masks))
        assert sweep(stage, kind, tp).metadata["degenerate_points"] == counts[-1]
    assert max(counts) > 0


@pytest.mark.parametrize("n_a, n_b, t_steps", [(2, 2, 41), (4, 4, 81)])
def test_row_invariant_hoists_are_bit_identical(n_a, n_b, t_steps, rng):
    """The engine's hoisted sweep phases, its stacked moment products and
    _spin_frame's component cross product give the bits of the expressions
    they replace."""
    n = n_a + n_b
    t_grid = default_t_grid("oat", t_steps)
    half = (t_steps - 1) // 2
    assert abs(t_grid[half] - np.pi / 2) < 1e-15
    rows = [1, 3, half, t_steps - 2]
    psi = _dense_propagator(n, "oat").apply(all_down_state(n).amplitudes, t_grid[rows]).T
    rho_a = qcore.reduced_state_matrix(psi, n, tuple(range(n_a)))
    tp = default_tp_grid("tf", 2000)
    mops = collective_ops(n_a).moment_operators
    for kind in ("tf", "oat", "tat"):
        eng = _dense_engine(kind, n_a, tp)
        tilde = [eng.to_eigenbasis(op) for op in mops]
        a = np.exp(-1j * np.outer(eng.eigenvalues, tp))
        ac = a.conj()
        for rho in rho_a:
            rho_eig = eng.to_eigenbasis(rho)
            products = eng.moment_products(rho_eig)
            vals = np.empty((9, tp.size))
            for k, ot in enumerate(tilde):
                vals[k] = np.einsum("jt,jt->t", a, (rho_eig * ot.T) @ ac).real
            old, new = xi2_from_moment_arrays(vals, n_a), eng.xi2_sweep(products)
            assert np.array_equal(old[0], new[0]) and np.array_equal(old[1], new[1])

            i = int(np.argmin(new[0]))
            taus = [*rng.uniform(0.0, 100.0, 40), *np.linspace(tp[max(i - 1, 0)], tp[min(i + 1, tp.size - 1)], 20)]
            refine_moments = []
            for tau in taus:
                e = np.exp(-1j * eng.eigenvalues * tau)
                ph = np.outer(e, e.conj())
                refine_moments.append(np.array([np.sum(rho_eig * ot.T * ph).real for ot in tilde]))
            # every point of one batched evaluation has the bits of its own T = 1 call
            batched = eng.xi2_at(np.broadcast_to(products, (len(taus), *products.shape)), np.array(taus))
            for got, point in zip(batched, refine_moments):
                assert got == float(xi2_from_moment_arrays(point[:, None], n_a)[0][0])

            # the protocol's states keep <Jy> = 0, so add generic moment values
            for moments in (vals, np.array(refine_moments).T, rng.standard_normal((9, 50))):
                mean, _, degenerate, v1, v2 = _spin_frame(moments)
                norm = np.linalg.norm(mean, axis=1)
                unit = mean / np.where(degenerate, 1.0, norm)[:, None]
                assert np.array_equal(v2, np.cross(unit, v1))
