import functools

import numpy as np
import pytest

from monogamy_lab import analytic, measures, qcore
from monogamy_lab.errors import (
    ConfigError,
    ContractViolationError,
    DomainError,
    ExtrapolationError,
    ResourceCapError,
    UndefinedScoreError,
)
from monogamy_lab.hamiltonians import HamiltonianKind, build
from monogamy_lab.protocol import (
    REFINE_TOL,
    CalibrationCurve,
    ProtocolConfig,
    _SubsystemEngine,
    _min_over_tp,
    _monotone_segments,
    _probe_negativities,
    _select_p_states,
    _symmetric_part,
    appendix_b_study,
    calibration,
    default_t_grid,
    default_tp_grid,
    explore_measure_vs_squeezing,
    invert,
    monotonicity_score,
    reduced_a_at,
    run_protocol,
    run_protocol_multi,
    state_at,
)
from monogamy_lab.qcore import DensityMatrix, Partition, SpectralPropagator, all_down_state
from monogamy_lab.spin import collective_ops, pure_moments, squeezing_parameter, xi2_from_moment_arrays

from oracle_utils import random_density


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
    with pytest.raises(ResourceCapError):
        ProtocolConfig(6, 5, "oat", "tf", np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    for n_a, n_b in ((6, 2), (2, 6)):
        with pytest.raises(ResourceCapError):
            ProtocolConfig(n_a, n_b, "oat", "tf", np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    cfg = ghz_config()
    assert cfg.h_ab_kind is HamiltonianKind.GHZ


def test_default_grids():
    t = default_t_grid("ghz", 11)
    assert t[0] == 0.0 and abs(t[-1] - np.pi / 2) < 1e-15
    t = default_t_grid("oat", 11)
    assert abs(t[-1] - np.pi) < 1e-15
    tp = default_tp_grid("tf", 100)
    assert abs(tp[-1] - 100.0) < 1e-12


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
    from monogamy_lab.protocol import _SubsystemEngine

    cfg = ghz_config(t_steps=7)
    eng_ops = collective_ops(2)
    eng = _SubsystemEngine(HamiltonianKind.GHZ, 2, 1.0)
    trace = run_protocol(cfg)
    for i, t in enumerate(trace.t):
        rho = reduced_a_at(cfg, t)
        direct = squeezing_parameter(rho, eng_ops).xi2
        # the sweep evaluated at local time zero is the bare subsystem value
        at_zero = eng.xi2_at(eng.to_eigenbasis(rho.matrix), 0.0)
        assert abs(at_zero - direct) < 1e-10
        # and the sweep minimum cannot exceed it
        assert trace.min_xi2_a[i] <= direct + 1e-12


def test_min_never_exceeds_grid_samples():
    cfg = ghz_config(t_steps=12, tp_steps=47)
    trace = run_protocol(cfg)
    from monogamy_lab.protocol import _SubsystemEngine

    eng = _SubsystemEngine(HamiltonianKind.GHZ, 2, 1.0)
    for i, t in enumerate(trace.t):
        rho = reduced_a_at(cfg, t).matrix
        rho_eig = eng.to_eigenbasis(rho)
        grid_vals, _ = eng.xi2_sweep(rho_eig, cfg.tp_grid)
        assert trace.min_xi2_a[i] <= np.min(grid_vals) + 1e-12


# ---------------------------------------------------------------------------
# the 4-qubit register-squeezing configuration


def test_oat_half_period_reaches_ghz_point():
    n = 4
    h = build("oat", 1.0, range(n), n)
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
    prop = SpectralPropagator(build("oat", 1.0, range(n), n))
    psi0 = all_down_state(n).amplitudes
    columns = prop.apply(psi0, cfg.t_grid)
    assert columns.shape == (2**n, cfg.t_grid.size)
    for i, t in enumerate(cfg.t_grid):
        assert np.max(np.abs(columns[:, i] - prop.apply(psi0, float(t)))) < 1e-14


def test_protocol_thread_invariance():
    cfg = ProtocolConfig(
        2, 2, "oat", "tf",
        t_grid=np.linspace(0, np.pi, 13),
        tp_grid=np.linspace(0, 20.0, 200),
    )
    one = run_protocol(cfg)
    two = run_protocol(cfg)
    assert np.array_equal(one.min_xi2_a, two.min_xi2_a)
    assert np.array_equal(one.argmin_tp, two.argmin_tp)


# ---------------------------------------------------------------------------
# calibration machinery on synthetic data


def test_monotone_segments_synthetic():
    assert _monotone_segments(np.array([0.0, 1.0, 2.0])) == ((0, 2),)
    assert _monotone_segments(np.array([0.0, 1.0, 0.5])) == ((0, 1), (1, 2))
    assert _monotone_segments(np.array([2.0, 2.0, 2.0])) == ((0, 2),)
    assert _monotone_segments(np.array([0.0, 0.0, 1.0, 2.0, 1.0])) == ((0, 3), (3, 4))


def test_calibration_curve_computes_its_segments():
    for x in ([0.0, 1.0, 0.5], [2.0, 2.0, 2.0], [0.0, 0.5, 1.0, 0.6, 0.2], [0.3]):
        x = np.array(x)
        assert CalibrationCurve(x=x, y=np.zeros_like(x)).segments == _monotone_segments(x)
    with pytest.raises(TypeError):
        CalibrationCurve(x=x, y=x, segments=((0, 0),))


def test_invert_ambiguous_on_folded_curve():
    x = np.array([0.0, 0.5, 1.0, 0.6, 0.2])
    y = np.array([0.0, 0.2, 0.4, 0.55, 0.7])
    curve = CalibrationCurve(x=x, y=y)
    res = invert(curve, 0.4)
    assert res.ambiguous
    assert len(res.candidates) == 2
    with pytest.raises(ExtrapolationError):
        invert(curve, -0.1)


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
    rho = DensityMatrix(2, random_density(4, rng, rank=2))
    tr = explore_measure_vs_squeezing(rho, "tf", t_max=10.0, steps=101)
    assert tr.tp.size == 101
    assert np.all(tr.n_a >= 0) and np.all(tr.n_a <= 1)
    assert np.all(tr.xi2_a >= 0)
    assert tr.metadata["split"] == {"a": [0], "b": [1]}
    assert tr.min_xi2 <= tr.xi2_a[0] + 1e-12


def test_explore_custom_split():
    cfg = ProtocolConfig(
        2, 2, "oat", "tf",
        t_grid=np.linspace(0, np.pi, 5),
        tp_grid=np.linspace(0, 10, 50),
    )
    rho = reduced_a_at(cfg, 0.4)
    tr = explore_measure_vs_squeezing(rho, "oat", t_max=5.0, steps=41, split=Partition((1,), (0,)))
    assert tr.metadata["split"] == {"a": [1], "b": [0]}


def test_explore_block_dynamics_negativity_endpoints():
    # a reduced state diagonal in the {|00>, |11>} block is separable across
    # the internal split, and the block flip returns it to diagonal at pi/2
    cfg = ghz_config(t_steps=5)
    rho = reduced_a_at(cfg, 0.3)
    tr = explore_measure_vs_squeezing(rho, "ghz", t_max=np.pi, steps=65)
    assert tr.n_a[0] < 1e-10
    assert tr.n_a[32] < 1e-10  # local time pi/2
    assert np.max(tr.n_a) <= 1.0


def test_appendix_b_small_sizes_coincide():
    res = appendix_b_study(sizes=(2,), t_max=60.0, steps=1201)
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
    res = appendix_b_study(sizes=(4, 6), t_max=100.0, steps=1501)
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
    for size in (3, 0, -2, 9):
        with pytest.raises(DomainError):
            appendix_b_study(sizes=(size,))
    for sizes in ((10,), (2, 10)):
        with pytest.raises(ResourceCapError):
            appendix_b_study(sizes=sizes)
    for sizes, kinds in (((), ("tf",)), ((2,), ())):
        with pytest.raises(DomainError):
            appendix_b_study(sizes=sizes, h_a_kinds=kinds)
    for t_max in (0.0, -5.0, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(DomainError):
            appendix_b_study(sizes=(2,), t_max=t_max, steps=11)
    # repeats run once, in first-seen order
    res = appendix_b_study(sizes=(4, 2, 4), h_a_kinds=("tf", "oat", HamiltonianKind.TF), steps=11)
    tf, oat = HamiltonianKind.TF, HamiltonianKind.OAT
    assert list(res) == [(4, tf), (4, oat), (2, tf), (2, oat)]


# ---------------------------------------------------------------------------
# the symmetric-subspace routes against the dense register


@functools.cache
def _dense_propagator(n: int, kind: str) -> SpectralPropagator:
    """Dense propagator of build(kind, 1.0, range(n), n): the route qcore.evolve
    takes, solved once per (n, kind) so the 256x256 cases stay affordable."""
    return SpectralPropagator(build(kind, 1.0, range(n), n))


@pytest.mark.parametrize("kind", ["oat", "tf", "tat", "ghz"])
@pytest.mark.parametrize("n_a, n_b", [(1, 1), (2, 2), (3, 2), (4, 4)])
def test_state_at_matches_dense_evolution(n_a, n_b, kind):
    n = n_a + n_b
    times = np.array([0.0, 0.37, 83 * np.pi / 400, np.pi / 2, 100.0])
    dense = _dense_propagator(n, kind).apply(all_down_state(n).amplitudes, times)
    cfg = ProtocolConfig(n_a, n_b, kind, "tf", t_grid=[0.0], tp_grid=[0.0])
    for j, t in enumerate(times):
        assert np.max(np.abs(state_at(cfg, t).amplitudes - dense[:, j])) <= 1e-10


@pytest.mark.parametrize("n_a, n_b, steps", [(2, 2, 41), (3, 2, 41), (4, 4, 81)])
def test_symmetric_probes_match_dense_route(n_a, n_b, steps):
    n = n_a + n_b
    keep = tuple(range(n_a))
    t_grid = default_t_grid("oat", steps)
    tp = default_tp_grid("oat", 400)
    psi = _dense_propagator(n, "oat").apply(all_down_state(n).amplitudes, t_grid).T
    rho_a = qcore.reduced_state_matrix(psi, n, keep)
    iso_a = qcore.symmetric_isometry(n_a)
    rho_sym = _symmetric_part(rho_a, iso_a)
    eng = _SubsystemEngine(HamiltonianKind.OAT, n_a, 1.0)
    for i in range(steps):
        rho_eig = eng.to_eigenbasis(rho_a[i])
        grid, _ = eng.xi2_sweep(rho_eig, tp)
        tau_min, _ = _min_over_tp(grid, tp, lambda tau: eng.xi2_at(rho_eig, tau), REFINE_TOL)
        taus = [float(tp[0]), float(tp[-1]), tau_min]  # the protocol's three probe times
        # The Schmidt route takes sqrt of each reduced eigenvalue mu, so a
        # rounding error of ~1e-15 in mu moves the negativity by up to about
        # 1e-15 / sqrt(mu): near-product rows (mu ~ 1e-11) are noisier than 1e-12.
        mu = np.linalg.eigvalsh(rho_sym[i])
        tol = 1e-12 + 1e-15 * float(np.sum(1.0 / np.sqrt(mu[mu >= 1e-11])))
        for tau, got in zip(taus, _probe_negativities(eng, iso_a, rho_sym[i], taus)):
            local = qcore.apply_local_unitary(psi[i], eng.unitary(tau), n, keep)
            want = measures.schmidt_negativity_raw(qcore.reduced_state_matrix(local, n, keep))
            assert abs(got - want) <= tol, (i, tau)


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


def test_appendix_b_matches_dense_route():
    kinds = list(HamiltonianKind)
    sizes = (2, 4, 6, 8)
    res = appendix_b_study(sizes=sizes, h_a_kinds=kinds, steps=201)
    t = np.linspace(0.0, 100.0, 201)
    for size in sizes:
        mops = collective_ops(size).moment_operators
        half = tuple(range(size // 2))
        for kind in kinds:
            states = _dense_propagator(size, kind.value).apply(all_down_state(size).amplitudes, t)
            xi2, _ = xi2_from_moment_arrays(pure_moments(states, mops), size)
            rho = qcore.reduced_state_matrix(states.T, size, half)
            s_l = np.array([measures.linear_entropy(r) for r in rho])
            tr = res[(size, kind)]
            assert np.max(np.abs(tr.xi2_a - xi2)) <= 1e-10, (size, kind)
            assert np.max(np.abs(tr.s_l_a - s_l)) <= 1e-10, (size, kind)
