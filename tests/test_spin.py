import numpy as np
import pytest

from monogamy_lab import qcore
from monogamy_lab.errors import DimensionMismatchError, DomainError
from monogamy_lab.qcore import DensityMatrix, PureState, all_down_state
from monogamy_lab.spin import (
    collective_ops,
    collective_spin_matrices,
    squeezing_parameter,
    symmetric_ops,
    xi2_from_moment_arrays,
)

from oracle_utils import random_density, random_state, squeezing_scan


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


def test_embedded_spin_matrices_subset():
    jx, _, jz = collective_spin_matrices((1,), 2)
    assert np.allclose(jx, np.kron(np.eye(2), qcore.PAULI_X) / 2)
    assert np.allclose(jz, np.kron(np.eye(2), qcore.PAULI_Z) / 2)


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


def test_ghz_register_squeezing_constant():
    from monogamy_lab.hamiltonians import build

    ops = collective_ops(4)
    h = build("ghz", 1.0, range(4), 4)
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
    h_ab = build("ghz", 1.0, range(4), 4)
    h_a = build("ghz", 1.0, range(2), 2)
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


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        squeezing_parameter(all_down_state(3), collective_ops(2))
