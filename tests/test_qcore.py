import numpy as np
import pytest

from monogamy_lab import hamiltonians, qcore, spin
from monogamy_lab.errors import (
    ContractViolationError,
    DimensionMismatchError,
    DomainError,
    InvalidPartitionError,
)
from monogamy_lab.qcore import (
    DensityMatrix,
    Partition,
    PureState,
    SpectralPropagator,
    all_down_state,
    dm_from_pure,
    evolve,
    hermitian_eigen,
    hermitian_eigenvalues,
    partial_trace,
    partial_transpose,
    tensor_product,
)

from oracle_utils import random_density, random_state, random_unitary


def bell_state():
    return PureState(2, np.array([1, 0, 0, 1]) / np.sqrt(2))


# ---------------------------------------------------------------------------
# domain types


def test_pure_state_validation():
    with pytest.raises(DimensionMismatchError):
        PureState(2, np.array([1.0, 0.0]))
    with pytest.raises(ContractViolationError):
        PureState(1, np.array([1.0, 1.0]))
    s = PureState(3, np.eye(8)[5])
    assert s.dim == 8
    assert not s.amplitudes.flags.writeable


@pytest.mark.parametrize("amps", [[np.nan, 0.0], [1.0, np.nan], [1j * np.nan, 1.0], [np.inf, 0.0]])
def test_pure_state_rejects_non_finite_amplitudes(amps):
    # A NaN norm is neither close to 1 nor far from it, so the check must fail it.
    with pytest.raises(ContractViolationError):
        PureState(1, np.array(amps))


def test_density_matrix_validation(rng):
    with pytest.raises(ContractViolationError):
        DensityMatrix(1, np.array([[0.5, 0.1], [0.3, 0.5]]))
    with pytest.raises(ContractViolationError):
        DensityMatrix(1, np.array([[0.7, 0.0], [0.0, 0.7]]))
    with pytest.raises(ContractViolationError):
        DensityMatrix(1, np.array([[1.5, 0.0], [0.0, -0.5]]))
    rho = dm_from_pure(bell_state())
    assert rho.dim == 4


_SIZED = {
    "PureState": lambda n: PureState(n, np.eye(4)[3]),
    "DensityMatrix": lambda n: DensityMatrix(n, np.eye(4) / 4),
    "all_down_state": all_down_state,
    "symmetric_isometry": qcore.symmetric_isometry,
    "half_partition": qcore.half_partition,
    "collective_ops": spin.collective_ops,
    "symmetric_ops": spin.symmetric_ops,
    "build": lambda n: hamiltonians.build("oat", n),
}


@pytest.mark.parametrize("make", _SIZED.values(), ids=_SIZED.keys())
def test_register_sizes_are_integers(make):
    # a register size is an integer >= 1: no float is rounded, no bool read as 1
    for bad in (2.0, True, np.bool_(True), "2", 0):
        with pytest.raises(DomainError):
            make(bad)
    for good in (np.int64(2), np.uint8(2)):
        make(good)


def test_partition_validation():
    with pytest.raises(InvalidPartitionError):
        Partition((0, 1), (1, 2))
    with pytest.raises(InvalidPartitionError):
        Partition((), (0,))
    p = Partition((0, 2), (1,))
    with pytest.raises(InvalidPartitionError):
        p.check_register(4)
    p.check_register(3)
    # an index is an integer: no float is rounded to a qubit, no bool read as 0 or 1
    for qa, qb in [((0.9,), (1.2,)), ((True,), (2,)), ((0,), (1.0,)), ((0,), ("1",)), ((np.bool_(False),), (1,))]:
        with pytest.raises(InvalidPartitionError):
            Partition(qa, qb)
    p = Partition(np.arange(2), (np.int64(2),))
    assert p.qubits_a == (0, 1) and p.qubits_b == (2,)
    assert all(type(i) is int for i in p.qubits_a + p.qubits_b)


# ---------------------------------------------------------------------------
# composition and reduction


def test_tensor_product_basis_cases():
    # qubit 0 is the most significant bit: a's qubit leads
    zero = PureState(1, np.array([1, 0]))
    plus = PureState(1, np.array([1, 1]) / np.sqrt(2))
    assert np.allclose(tensor_product(zero, zero).amplitudes, [1, 0, 0, 0])
    assert np.allclose(tensor_product(zero, plus).amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2), 0, 0])


def test_tensor_product_norms(rng):
    for _ in range(100):
        a = PureState(2, random_state(4, rng))
        b = PureState(1, random_state(2, rng))
        prod = tensor_product(a, b)
        assert abs(np.linalg.norm(prod.amplitudes) - 1) < 1e-12
        assert prod.n_qubits == 3


def test_partial_trace_product_state(rng):
    a = PureState(1, random_state(2, rng))
    b = PureState(2, random_state(4, rng))
    rho = dm_from_pure(tensor_product(a, b))
    p = Partition((0,), (1, 2))
    rho_a = partial_trace(rho, p)
    assert np.allclose(rho_a.matrix, dm_from_pure(a).matrix, atol=1e-12)
    rho_b = partial_trace(rho, Partition(p.qubits_b, p.qubits_a))
    assert np.allclose(rho_b.matrix, dm_from_pure(b).matrix, atol=1e-12)
    assert abs(np.trace(rho_a.matrix) - 1) < 1e-12


def test_partial_trace_ghz_evolved_reduced_state():
    # evolving the 4-qubit product state under the register flip generator
    # keeps it in a two-level subspace; the reduced state is diagonal
    from monogamy_lab.hamiltonians import build

    h = build("ghz", 4)
    for phi in (0.2, 0.9, np.pi / 8):
        psi = evolve(PureState(4, np.eye(16)[0]), h, phi)
        rho_a = partial_trace(dm_from_pure(psi), Partition((0, 1), (2, 3)))
        expected = np.diag([(1 + np.cos(2 * phi)) / 2, 0, 0, (1 - np.cos(2 * phi)) / 2])
        assert np.allclose(rho_a.matrix, expected, atol=1e-12)


def test_partial_trace_schmidt_spectra_match(rng):
    for _ in range(100):
        psi = PureState(3, random_state(8, rng))
        rho = dm_from_pure(psi)
        p = Partition((0, 2), (1,))
        wa = np.sort(hermitian_eigenvalues(partial_trace(rho, p).matrix))
        wb = np.sort(hermitian_eigenvalues(partial_trace(rho, Partition(p.qubits_b, p.qubits_a)).matrix))
        assert np.max(np.abs(wa[-2:] - wb)) < 1e-10
        assert np.max(np.abs(wa[:-2])) < 1e-10


def test_partial_trace_invalid_partition():
    rho = dm_from_pure(bell_state())
    with pytest.raises(InvalidPartitionError):
        partial_trace(rho, Partition((0,), (2,)))


def test_partial_trace_trivial_remainder_is_identity(rng):
    psi = PureState(3, random_state(8, rng))
    rho = dm_from_pure(psi)
    once = qcore.partial_trace_matrix(rho.matrix, 3, (0, 1))
    again = qcore.partial_trace_matrix(once, 2, (0, 1))
    assert np.array_equal(once, again)


def test_reduced_state_matrix_matches_partial_trace(rng):
    psi = PureState(4, random_state(16, rng))
    rho = dm_from_pure(psi)
    keep = (3, 1)
    direct = qcore.reduced_state_matrix(psi, 4, keep)
    via_dm = qcore.partial_trace_matrix(rho.matrix, 4, keep)
    assert np.allclose(direct, via_dm, atol=1e-12)


@pytest.mark.parametrize("n, n_keep", [(8, 4), (4, 2), (10, 5), (8, 6)])
def test_reduced_state_matrix_of_a_stack_is_bitwise_the_row_results(rng, n, n_keep):
    psi = np.stack([random_state(2**n, rng) for _ in range(5)])
    keep = tuple(range(n_keep))
    stacked = qcore.reduced_state_matrix(psi, n, keep)
    assert stacked.shape == (5, 2**n_keep, 2**n_keep)
    for i in range(psi.shape[0]):
        assert np.array_equal(stacked[i], qcore.reduced_state_matrix(psi[i], n, keep))
    # the leading-qubit block product the protocol's grid stage used before
    blocks = psi.reshape(psi.shape[0], 2**n_keep, -1)
    assert np.array_equal(stacked, blocks @ blocks.conj().transpose(0, 2, 1))
    # a non-contiguous (T, d) view, as the grid stage passes, and a kept set
    # out of order reduce the same way
    assert np.array_equal(qcore.reduced_state_matrix(psi.T.copy().T, n, keep), stacked)
    other = (n - 1, 0)
    nested = qcore.reduced_state_matrix(psi.reshape(5, 1, -1), n, other)
    for i in range(psi.shape[0]):
        assert np.array_equal(nested[i, 0], qcore.reduced_state_matrix(psi[i], n, other))


# ---------------------------------------------------------------------------
# partial transpose


def test_partial_transpose_product_state_is_psd(rng):
    a = PureState(1, random_state(2, rng))
    b = PureState(1, random_state(2, rng))
    rho = dm_from_pure(tensor_product(a, b))
    pt = partial_transpose(rho, Partition((0,), (1,)))
    assert hermitian_eigenvalues(pt)[-1] > -1e-12


def test_partial_transpose_bell_state():
    rho = dm_from_pure(bell_state())
    pt = partial_transpose(rho, Partition((0,), (1,)))
    w = hermitian_eigenvalues(pt)
    assert abs(w[-1] + 0.5) < 1e-12


def test_partial_transpose_2p1_schmidt():
    for lam in (0.6, 0.75, 0.95):
        amps = np.zeros(8)
        amps[0] = np.sqrt(lam)  # |00>|0>
        amps[7] = np.sqrt(1 - lam)  # |11>|1>
        rho = dm_from_pure(PureState(3, amps))
        pt = partial_transpose(rho, Partition((0, 1), (2,)))
        w = hermitian_eigenvalues(pt)
        assert abs(w[-1] + np.sqrt(lam * (1 - lam))) < 1e-12


def test_partial_transpose_involution_and_trace(rng):
    psi = PureState(3, random_state(8, rng))
    rho = dm_from_pure(psi)
    p = Partition((1,), (0, 2))
    pt = partial_transpose(rho, p)
    assert np.max(np.abs(pt - pt.conj().T)) < 1e-12
    assert abs(np.trace(pt) - 1) < 1e-12
    again = qcore.partial_transpose_matrix(pt, 3, p.qubits_a)
    assert np.array_equal(again, rho.matrix)


@pytest.mark.parametrize("qa, qb", [((0,), (1,)), ((0,), (1, 2)), ((2,), (0, 1)), ((1, 3), (0, 2)), ((0,), (1, 2, 3))])
def test_swapped_partition_transposes_the_other_side(qa, qb, rng):
    # the partition's order names the transposed side; side B's partial
    # transpose is the full transpose of side A's
    n = len(qa) + len(qb)
    rho = DensityMatrix(n, random_density(2**n, rng))
    assert np.array_equal(partial_transpose(rho, Partition(qb, qa)), partial_transpose(rho, Partition(qa, qb)).T)


def test_partial_transpose_noncontiguous_matches_reordered(rng):
    # transposing qubits {0, 2} of a 3-qubit state equals reordering the
    # register to put them first and transposing the leading factor
    psi = random_state(8, rng)
    rho = np.outer(psi, psi.conj())
    pt = qcore.partial_transpose_matrix(rho, 3, (0, 2))
    perm = np.array([0, 1, 2, 3, 4, 5, 6, 7]).reshape(2, 2, 2).transpose(0, 2, 1).reshape(-1)
    reordered = rho[np.ix_(perm, perm)]
    t = reordered.reshape(4, 2, 4, 2)
    pt_ref = t.transpose(2, 1, 0, 3).reshape(8, 8)
    assert np.allclose(pt[np.ix_(perm, perm)], pt_ref, atol=1e-12)


# ---------------------------------------------------------------------------
# eigensolver


def test_hermitian_eigen_trivial_cases():
    w, _ = hermitian_eigen(np.eye(2) / 2)
    assert np.allclose(w, [0.5, 0.5])
    w, v = hermitian_eigen(qcore.PAULI_X)
    assert np.allclose(w, [1.0, -1.0])
    assert np.allclose(v.conj().T @ v, np.eye(2), atol=1e-12)


def test_hermitian_eigen_reconstruction(rng):
    for _ in range(100):
        m = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        m = m + m.conj().T
        w, v = hermitian_eigen(m)
        assert np.max(np.abs((v * w) @ v.conj().T - m)) < 1e-9
        assert np.all(np.diff(w) <= 1e-12)


def test_hermitian_eigen_matches_lapack(rng):
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    m = m + m.conj().T
    w, _ = hermitian_eigen(m)
    assert np.allclose(w, np.sort(np.linalg.eigvalsh(m))[::-1], atol=1e-11)


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(ContractViolationError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(DimensionMismatchError):
        hermitian_eigen(np.zeros((0, 0)))
    with pytest.raises(DimensionMismatchError):
        hermitian_eigen(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eigensolver_rejects_non_finite_input(bad):
    m = np.diag([bad, 1.0, 2.0, 3.0])
    stack = np.stack([np.diag([4.0, 1.0, 2.0, 3.0])] * 6)
    stack[4, 1, 2] = stack[4, 2, 1] = bad
    stack[5, 0, 0] = bad
    for fn in (hermitian_eigen, hermitian_eigenvalues, qcore.lapack_eigen, qcore.lapack_eigenvalues):
        with pytest.raises(DomainError, match="non-finite"):
            fn(m)
        with pytest.raises(DomainError, match=r"stack member 4\)"):
            fn(stack)
        with pytest.raises(DomainError, match=r"stack member \(1, 1\)"):
            fn(stack.reshape(2, 3, 4, 4))
    with pytest.raises(DomainError):
        hermitian_eigenvalues(np.full((4, 4), np.nan))


def test_hermitian_eigen_checks_stacks():
    with pytest.raises(ContractViolationError):
        hermitian_eigen(np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))
    with pytest.raises(DimensionMismatchError):
        hermitian_eigen(np.ones((3, 2, 3)))
    with pytest.raises(DimensionMismatchError):
        hermitian_eigen(np.ones(4))
    with pytest.raises(DimensionMismatchError):
        hermitian_eigen(np.zeros((0, 2, 2)))


def test_lapack_pair_is_eigh_in_descending_order(rng):
    m = rng.standard_normal((3, 6, 6)) + 1j * rng.standard_normal((3, 6, 6))
    m = m + m.conj().swapaxes(-1, -2)
    w, v = qcore.lapack_eigen(m)
    values = qcore.lapack_eigenvalues(m)
    assert w.shape == values.shape == (3, 6) and v.shape == (3, 6, 6)
    assert np.all(np.diff(w, axis=-1) <= 0) and np.all(np.diff(values, axis=-1) <= 0)
    assert np.array_equal(w, np.linalg.eigh(m)[0][..., ::-1])
    assert np.array_equal(values, np.linalg.eigvalsh(m)[..., ::-1])
    assert np.max(np.abs((v * w[:, None, :]) @ v.conj().swapaxes(-1, -2) - m)) < 1e-12


@pytest.mark.parametrize("fn", [qcore.lapack_eigen, qcore.lapack_eigenvalues])
def test_lapack_pair_rejects_non_hermitian_input(fn):
    with pytest.raises(ContractViolationError):
        fn(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ContractViolationError):
        fn(np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))
    with pytest.raises(DimensionMismatchError):
        fn(np.ones((3, 2, 3)))


def test_lapack_pair_gives_each_stack_member_its_own_bits(rng):
    m = rng.standard_normal((40, 4, 4)) + 1j * rng.standard_normal((40, 4, 4))
    m = m + m.conj().swapaxes(-1, -2)
    w, v = qcore.lapack_eigen(m)
    values = qcore.lapack_eigenvalues(m)
    for k in range(len(m)):
        w_k, v_k = qcore.lapack_eigen(m[k])
        assert w[k].tobytes() == w_k.tobytes() and v[k].tobytes() == v_k.tobytes()
        assert values[k].tobytes() == qcore.lapack_eigenvalues(m[k]).tobytes()


# ---------------------------------------------------------------------------
# evolution


def test_evolve_identity_at_zero(rng):
    psi = PureState(2, random_state(4, rng))
    h = rng.standard_normal((4, 4))
    h = h + h.T
    out = evolve(psi, h, 0.0)
    assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)


def test_evolve_ghz_generator_formula():
    from monogamy_lab.hamiltonians import build

    h = build("ghz", 4)
    for t in (0.3, 1.1, 2.7):
        out = evolve(PureState(4, np.eye(16)[0]), h, t)
        expected = np.zeros(16, dtype=complex)
        expected[0] = np.cos(t)
        expected[15] = -1j * np.sin(t)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-12


def test_evolve_conserves_energy_and_norm(rng):
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = h + h.conj().T
    psi0 = PureState(3, random_state(8, rng))

    def energy(psi):
        return np.vdot(psi.amplitudes, h @ psi.amplitudes).real

    e0 = energy(psi0)
    for t in np.linspace(0.0, 5.0, 7):
        psi = evolve(psi0, h, t)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-10
        assert abs(energy(psi) - e0) < 1e-9


def test_evolve_composition(rng):
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = h + h.conj().T
    psi0 = PureState(3, random_state(8, rng))
    one = evolve(psi0, h, 0.7 + 1.9)
    two = evolve(evolve(psi0, h, 0.7), h, 1.9)
    assert np.max(np.abs(one.amplitudes - two.amplitudes)) < 1e-9


def test_evolve_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatchError):
        evolve(PureState(2, np.eye(4)[0]), np.eye(8), 1.0)


def test_spectral_propagator_matches_evolve(rng):
    h = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    h = h + h.conj().T
    psi0 = PureState(3, random_state(8, rng))
    prop = SpectralPropagator(h)
    direct = evolve(psi0, h, 1.3).amplitudes
    assert np.allclose(prop.apply(psi0.amplitudes, 1.3), direct, atol=1e-12)
    assert np.allclose(prop.unitary(1.3) @ psi0.amplitudes, direct, atol=1e-11)


# ---------------------------------------------------------------------------
# small constructions


def test_dm_from_pure_is_projector(rng):
    psi = PureState(2, np.eye(4)[3])
    rho = dm_from_pure(psi)
    assert np.allclose(rho.matrix @ rho.matrix, rho.matrix, atol=1e-12)
    assert abs(np.trace(rho.matrix) - 1) < 1e-12


def test_apply_local_unitary_matches_embedding(rng):
    psi = random_state(16, rng)
    u = random_unitary(4, rng)
    out = qcore.apply_local_unitary(psi, u, 4, (1, 3))
    # embed explicitly: permute qubits (1,3) to the front, apply kron, undo
    full = np.kron(u, np.eye(4))
    t = psi.reshape(2, 2, 2, 2).transpose(1, 3, 0, 2).reshape(-1)
    ref = (full @ t).reshape(2, 2, 2, 2).transpose(2, 0, 3, 1).reshape(-1)
    assert np.allclose(out, ref, atol=1e-12)


def test_symmetric_isometry_is_the_dicke_basis():
    for n in (1, 2, 3, 5, 8):
        iso = qcore.symmetric_isometry(n)
        assert iso.shape == (2**n, n + 1)
        assert np.max(np.abs(iso.T @ iso - np.eye(n + 1))) < 1e-14
        # column n is the all-down state, the last basis state
        assert np.array_equal(iso[:, n], all_down_state(n).amplitudes.real)
        # column k is supported exactly on the basis states with k ones
        ones = np.array([bin(i).count("1") for i in range(2**n)])
        for k in range(n + 1):
            assert np.array_equal(iso[:, k] > 0, ones == k)
    with pytest.raises(DomainError):
        qcore.symmetric_isometry(0)


@pytest.mark.parametrize("n_a, n_b", [(1, 1), (1, 2), (2, 1), (2, 3), (3, 3), (5, 4)])
def test_symmetric_split_isometry_matches_the_qubit_embedding(n_a, n_b):
    n = n_a + n_b
    emb = qcore.symmetric_split_isometry(n_a, n_b)
    want = np.kron(qcore.symmetric_isometry(n_a), qcore.symmetric_isometry(n_b)).T @ qcore.symmetric_isometry(n)
    assert emb.shape == ((n_a + 1) * (n_b + 1), n + 1)
    assert np.max(np.abs(emb - want)) < 1e-14
    assert np.max(np.abs(emb.T @ emb - np.eye(n + 1))) < 1e-14


def test_symmetric_split_isometry_needs_two_nonempty_sides():
    for n_a, n_b in ((0, 2), (2, 0), (-1, 3)):
        with pytest.raises(DomainError):
            qcore.symmetric_split_isometry(n_a, n_b)


@pytest.mark.parametrize("bad", [True, 1.0, "1", 0])
def test_split_sizes_and_qubit_indices_are_integers(bad):
    # a size is an integer >= 1 and a qubit index an integer in range: no
    # float is rounded, no bool read as 1, no string compared
    with pytest.raises(DomainError):
        qcore.symmetric_split_isometry(bad, 1)
    with pytest.raises(DomainError):
        qcore.symmetric_split_isometry(1, bad)
    with pytest.raises(DomainError):
        spin.collective_ops(bad)
    # numpy integers are integers
    assert np.array_equal(qcore.symmetric_split_isometry(np.int64(2), np.uint8(1)), qcore.symmetric_split_isometry(2, 1))
    assert spin.collective_ops(np.uint8(2)).jy.tobytes() == spin.collective_ops(2).jy.tobytes()
