import numpy as np
import pytest

from monogamy_lab import qcore, spin
from monogamy_lab.errors import DimensionMismatchError, DomainError
from monogamy_lab.protocol import ProtocolConfig, default_t_grid, default_tp_grid, entangle, sweep
from monogamy_lab.qcore import DensityMatrix, PureState, all_down_state
from monogamy_lab.spin import (
    _spin_frame,
    collective_ops,
    squeezing_parameter,
    symmetric_ops,
    xi2_from_moment_arrays,
)

from oracle_utils import (
    jacobi_eigh_one,
    random_density,
    random_state,
    spin_frame_reference,
    squeezing_scan,
    xi2_from_moment_arrays_reference,
)


@pytest.mark.parametrize("n", range(1, 9))
def test_symmetric_ops_are_the_restricted_dense_ops(n):
    iso = qcore.symmetric_isometry(n)
    sym, dense = symmetric_ops(n), collective_ops(n)
    assert sym.n_spins == n and sym.dim == n + 1
    for a, b in zip(sym.moment_operators, dense.moment_operators):
        assert np.max(np.abs(a - iso.T @ b @ iso)) <= 1e-13


def test_symmetric_ops_give_the_dense_squeezing(rng):
    for n in (2, 3, 6):
        iso = qcore.symmetric_isometry(n)
        for _ in range(5):
            psi_sym = random_state(n + 1, rng)
            sym = squeezing_parameter(psi_sym, symmetric_ops(n))
            dense = squeezing_parameter(PureState(n, iso @ psi_sym), collective_ops(n))
            assert abs(sym.xi2 - dense.xi2) <= 1e-12
            assert np.max(np.abs(sym.mean_spin - dense.mean_spin)) <= 1e-12
    with pytest.raises(DomainError):
        symmetric_ops(0)


def test_single_spin_ops_are_half_paulis():
    ops = collective_ops(1)
    assert np.allclose(ops.jx, qcore.PAULI_X / 2)
    assert np.allclose(ops.jy, qcore.PAULI_Y / 2)
    assert np.allclose(ops.jz, qcore.PAULI_Z / 2)


def test_collective_ops_commutators():
    for n in range(1, 9):
        ops = collective_ops(n)
        comm = ops.jx @ ops.jy - ops.jy @ ops.jx
        assert np.max(np.abs(comm - 1j * ops.jz)) < 1e-10


def test_jz_eigenvalue_span():
    for n in (1, 3, 4):
        ops = collective_ops(n)
        w = qcore.hermitian_eigenvalues(ops.jz)
        assert abs(w[0] - n / 2) < 1e-12
        assert abs(w[-1] + n / 2) < 1e-12


def test_all_down_mean_spin():
    ops = collective_ops(4)
    res = squeezing_parameter(all_down_state(4), ops)
    assert abs(res.mean_spin[2] + 2.0) < 1e-12
    assert abs(res.mean_spin[0]) < 1e-12


def test_zero_spins_rejected():
    with pytest.raises(DomainError):
        collective_ops(0)


# ---------------------------------------------------------------------------
# squeezing parameter


def test_coherent_states_unsqueezed(rng):
    for n in (1, 2, 4, 6):
        res = squeezing_parameter(all_down_state(n), collective_ops(n))
        assert abs(res.xi2 - 1.0) < 1e-12
        assert not res.degenerate_mean_spin
        assert abs(np.dot(res.optimal_direction, res.mean_spin)) < 1e-8


def test_identical_product_states_unsqueezed(rng):
    # any coherent spin state (same single-qubit state on every site) gives 1
    single = random_state(2, rng)
    amps = single
    for _ in range(3):
        amps = np.kron(amps, single)
    res = squeezing_parameter(PureState(4, amps), collective_ops(4))
    assert abs(res.xi2 - 1.0) < 1e-10


@pytest.mark.parametrize("n", range(2, 6))
def test_mixtures_of_product_states_are_never_squeezed(rng, n):
    # In sum_k p_k (|phi_k><phi_k|)^(x)n, a direction m perpendicular to the
    # mean spin has Var(J_m) = n/4 + n(n-1)/4 sum_k p_k (m.s_k)^2 >= n/4 (s_k
    # the Bloch vector of phi_k), so xi2 >= 1, and on sym(n) xi2 < 1
    # certifies entanglement. Antipodal pairs of equal weight have no mean
    # spin, so the degenerate branch is checked too.
    dense, sym, iso = collective_ops(n), symmetric_ops(n), qcore.symmetric_isometry(n)
    worst = np.inf
    for members in (1, 2, 3, 6):
        for antipodal in (False, True):
            for _ in range(10):
                phis = [random_state(2, rng) for _ in range(members)]
                weights = rng.dirichlet(np.ones(members))
                if antipodal:
                    phis += [np.array([-phi[1].conj(), phi[0].conj()]) for phi in phis]
                    weights = np.concatenate([weights, weights]) / 2
                rho = np.zeros((2**n, 2**n), dtype=complex)
                for p, phi in zip(weights, phis):
                    amps = phi
                    for _ in range(n - 1):
                        amps = np.kron(amps, phi)
                    rho += p * np.outer(amps, amps.conj())
                res = squeezing_parameter(rho, dense)
                assert res.degenerate_mean_spin == antipodal
                worst = min(worst, res.xi2, squeezing_parameter(iso.T @ rho @ iso, sym).xi2)
    assert worst >= 1.0 - 1e-12


def test_ghz_register_squeezing_constant():
    from monogamy_lab.hamiltonians import build

    ops = collective_ops(4)
    h = build("ghz", 4)
    for phi in np.linspace(0.0, np.pi / 2, 9):
        psi = qcore.evolve(all_down_state(4), h, phi)
        res = squeezing_parameter(psi, ops)
        assert abs(res.xi2 - 1.0) < 1e-10
    # at phi = pi/4 the mean spin vanishes; minimization falls back to the sphere
    res = squeezing_parameter(qcore.evolve(all_down_state(4), h, np.pi / 4), ops)
    assert res.degenerate_mean_spin


def test_subsystem_squeezing_closed_form():
    # two-spin reduced state of the flip-generator trajectory, locally evolved:
    # xi2 = 1 - |cos(2 phi) sin(2 phi')|
    from monogamy_lab.hamiltonians import build

    ops = collective_ops(2)
    h_ab = build("ghz", 4)
    h_a = build("ghz", 2)
    for phi in (0.1, 0.45, 1.2):
        psi = qcore.evolve(all_down_state(4), h_ab, phi)
        rho_a = qcore.reduced_state_matrix(psi, 4, (0, 1))
        prop = qcore.SpectralPropagator(h_a)
        for phip in (0.0, 0.3, np.pi / 4, 1.0):
            u = prop.unitary(phip)
            rho = u @ rho_a @ u.conj().T
            res = squeezing_parameter(rho, ops)
            expected = 1.0 - abs(np.cos(2 * phi) * np.sin(2 * phip))
            assert abs(res.xi2 - expected) < 1e-10


def test_matches_angular_scan(rng):
    # closed-form perpendicular minimization vs 3600-point brute force
    ops = collective_ops(3)
    for _ in range(50):
        psi = random_state(8, rng)
        ours = squeezing_parameter(PureState(3, psi), ops).xi2
        ref = squeezing_scan(psi, ops)
        assert ours <= ref + 1e-12
        assert abs(ours - ref) < 1e-8


def test_matches_angular_scan_mixed(rng):
    ops = collective_ops(2)
    for _ in range(20):
        rho = random_density(4, rng)
        ours = squeezing_parameter(DensityMatrix(2, rho), ops).xi2
        assert abs(ours - squeezing_scan(rho, ops)) < 1e-8


def test_global_rotation_invariance(rng):
    ops = collective_ops(3)
    for _ in range(25):
        psi = random_state(8, rng)
        base = squeezing_parameter(PureState(3, psi), ops).xi2
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        angle = rng.uniform(0, 2 * np.pi)
        gen = axis[0] * ops.jx + axis[1] * ops.jy + axis[2] * ops.jz
        rotated = qcore.SpectralPropagator(gen).apply(psi, angle)
        rot = squeezing_parameter(PureState(3, rotated), ops).xi2
        assert abs(base - rot) < 1e-8


def test_xi2_nonnegative(rng):
    ops = collective_ops(2)
    for _ in range(30):
        rho = random_density(4, rng, rank=2)
        assert squeezing_parameter(DensityMatrix(2, rho), ops).xi2 >= 0.0


def test_batch_matches_scalar(rng):
    ops = collective_ops(3)
    states = [random_state(8, rng) for _ in range(12)]
    moments = np.empty((9, len(states)))
    for i, psi in enumerate(states):
        moments[:, i] = [np.vdot(psi, op @ psi).real for op in ops.moment_operators]
    xi2, degen = xi2_from_moment_arrays(moments, 3)
    for i, psi in enumerate(states):
        res = squeezing_parameter(PureState(3, psi), ops)
        assert abs(xi2[i] - res.xi2) < 1e-12
        assert degen[i] == res.degenerate_mean_spin


def test_degenerate_points_solve_as_one_stack_with_the_per_point_bits(rng, monkeypatch):
    # Half the points have no mean spin; the second moments come from random
    # covariances, real symmetric and positive.
    t = 40
    g = rng.standard_normal((t, 3, 3))
    cov = g @ g.swapaxes(1, 2)
    mean = rng.standard_normal((t, 3))
    mean[::2] = 0.0
    second = cov + mean[:, :, None] * mean[:, None, :]
    moments = np.vstack([mean.T, second[:, [0, 1, 2, 0, 0, 1], [0, 1, 2, 1, 2, 2]].T])

    calls = []
    eigenvalues = qcore.hermitian_eigenvalues
    monkeypatch.setattr(qcore, "hermitian_eigenvalues", lambda m: calls.append(np.shape(m)) or eigenvalues(m))
    xi2, degenerate = xi2_from_moment_arrays(moments, 3)
    assert calls == [(t // 2, 3, 3)]
    assert degenerate.tolist() == [True, False] * (t // 2)

    # The loop this replaced: one one-matrix solve per degenerate point.
    _, gamma, _, _ = _spin_frame(moments)
    lam = np.array([jacobi_eigh_one(gamma[..., i], compute_vectors=False)[0][-1] for i in range(0, t, 2)])
    assert xi2[degenerate].tobytes() == (4.0 * np.clip(lam, 0.0, None) / 3).tobytes()


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        squeezing_parameter(all_down_state(3), collective_ops(2))


def _protocol_moment_arrays(monkeypatch, h_ab, n_a, n_b):
    """Every (9, T) moment array that the tf, oat and tat sweeps of a short
    protocol pass to `xi2_from_moment_arrays`, as passed (the grid's T =
    2000 and each refine evaluation's), then T = 1 and T = 2 columns of each
    grid array: its first, and its first with degenerate mean spin."""
    seen, xi2 = [], spin.xi2_from_moment_arrays
    with monkeypatch.context() as patch:
        patch.setattr(spin, "xi2_from_moment_arrays", lambda m, n: seen.append(m) or xi2(m, n))
        stage = entangle(ProtocolConfig(n_a, n_b, h_ab, "tf", t_grid=default_t_grid(h_ab, 9), tp_grid=[0.0]))
        for kind in ("tf", "oat", "tat"):
            sweep(stage, kind, default_tp_grid(kind, 2000))
    out = list(seen)
    for m in (m for m in seen if m.shape[1] == 2000):
        out += [m[:, :1], m[:, :2]]
        for i in np.flatnonzero(xi2(m, n_a)[1])[:1]:
            out += [m[:, i:i + 1], m[:, [i, 0]]]
    return out


def _generic_moment_arrays(rng):
    """Moment arrays of T = 1, 2 and 2000 with every component of the mean
    spin nonzero, which the protocol's states (<Jy> = 0) leave untested:
    every third point has no mean spin."""
    out = []
    for t in (1, 2, 2000):
        m = rng.standard_normal((9, t))
        m[:3, ::3] = 0.0
        out.append(m)
    return out


@pytest.mark.parametrize("h_ab, n_a, n_b", [("oat", 2, 2), ("ghz", 3, 2)])
def test_component_rows_keep_the_bits_of_the_einsum_form(rng, monkeypatch, h_ab, n_a, n_b):
    arrays = _protocol_moment_arrays(monkeypatch, h_ab, n_a, n_b) + _generic_moment_arrays(rng)
    sizes, degenerate = set(), set()
    for m in arrays:
        mean, gamma, mask, frame = _spin_frame(m)
        ref = spin_frame_reference(m)
        ref = (ref[0].T, np.moveaxis(ref[1], 0, -1), ref[2], ref[3].T, ref[4].T)
        for got, want in zip((mean, gamma, mask, frame[:, 0], frame[:, 1]), ref):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        xi2, mask = xi2_from_moment_arrays(m, n_a)
        xi2_ref, mask_ref = xi2_from_moment_arrays_reference(m, n_a)
        assert xi2.tobytes() == xi2_ref.tobytes() and mask.tobytes() == mask_ref.tobytes()
        sizes.add(m.shape[1])
        if mask.any():
            degenerate.add(m.shape[1])
    assert {1, 2, 2000} <= sizes and {1, 2, 2000} <= degenerate
