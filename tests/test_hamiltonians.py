import numpy as np
import pytest

from monogamy_lab import qcore
from monogamy_lab.errors import DomainError
from monogamy_lab.hamiltonians import HamiltonianKind, _build_symmetric, build, symmetry_report
from monogamy_lab.spin import collective_spin_matrices


def test_ghz_single_qubit_is_pauli_x():
    h = build("ghz", (0,), 1)
    assert np.allclose(h.matrix, qcore.PAULI_X)


def test_ghz_squares_to_identity():
    for n in (1, 2, 3, 4):
        h = build("ghz", range(n), n)
        assert np.allclose(h.matrix @ h.matrix, np.eye(2**n), atol=1e-12)


def test_tat_matches_pauli_construction():
    # independent construction from explicit per-site Pauli embeddings
    n = 2
    sx = [qcore.embed_single_qubit_op(qcore.PAULI_X, i, n) for i in range(n)]
    sy = [qcore.embed_single_qubit_op(qcore.PAULI_Y, i, n) for i in range(n)]
    jx = 0.5 * sum(sx)
    jy = 0.5 * sum(sy)
    expected = jx @ jy + jy @ jx
    h = build("tat", range(n), n)
    assert np.allclose(h.matrix, expected, atol=1e-12)


def test_oat_and_tf_forms():
    jx, _, jz = collective_spin_matrices((0, 1, 2), 3)
    assert np.allclose(build("oat", range(3), 3).matrix, jx @ jx)
    assert np.allclose(build("tf", range(3), 3).matrix, jx @ jx + jz)


def test_builders_are_hermitian():
    for kind in ("oat", "tf", "tat", "ghz"):
        h = build(kind, range(3), 3)
        assert np.max(np.abs(h.matrix - h.matrix.conj().T)) < 1e-12


def test_identity_outside_subset():
    # acting on qubits {1, 3} of four: commutes with any operator on 0 and 2
    h = build("tf", (1, 3), 4)
    for outside in (0, 2):
        for pauli in (qcore.PAULI_X, qcore.PAULI_Y, qcore.PAULI_Z):
            op = qcore.embed_single_qubit_op(pauli, outside, 4)
            assert np.max(np.abs(h.matrix @ op - op @ h.matrix)) < 1e-12
    for inside in (1, 3):
        op = qcore.embed_single_qubit_op(qcore.PAULI_Z, inside, 4)
        assert np.max(np.abs(h.matrix @ op - op @ h.matrix)) > 1e-6


def test_build_validation():
    with pytest.raises(DomainError):
        build("oat", (), 3)
    with pytest.raises(DomainError):
        build("oat", (0, 5), 3)
    with pytest.raises(DomainError):
        build("nope", (0,), 1)
    # an index is an integer: no float is rounded to a qubit, no bool read as 0 or 1
    for subset in [(0.6, 1.7), (True,), (0, 1.0), (np.bool_(True),)]:
        with pytest.raises(DomainError):
            build("oat", subset, 2)
    h = build("oat", np.arange(2), np.int64(2))
    assert h.subset == (0, 1) and all(type(i) is int for i in h.subset)
    assert h.matrix.tobytes() == build("oat", (0, 1), 2).matrix.tobytes()


def test_build_keeps_the_bits_of_the_direct_expressions():
    n = 3
    jx, jy, jz = collective_spin_matrices(tuple(range(n)), n)
    expected = {
        "oat": jx @ jx,
        "tf": jx @ jx + jz,
        "tat": jx @ jy + jy @ jx,
        "ghz": qcore.pauli_product(qcore.PAULI_X, tuple(range(n)), n),
    }
    for kind, m in expected.items():
        assert build(kind, range(n), n).matrix.tobytes() == m.tobytes(), kind


def _unitary(h, t):
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


@pytest.mark.parametrize("t", [1.0, 0.7])
@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("kind", list(HamiltonianKind))
def test_symmetric_builder_is_the_dense_generator_on_sym_n(kind, n, t):
    """The sym(n) builder equals the dense generator restricted by the
    Dicke isometry, and the dense generator maps sym(n) into itself (no
    leak), so evolving in sym(n) for a time t is exact. With unit coupling,
    t = 0.7 is also the unit-time evolution at coupling 0.7."""
    iso = qcore.symmetric_isometry(n)
    dense = build(kind, range(n), n).matrix
    h_sym = _build_symmetric(kind, n)
    assert h_sym.shape == (n + 1, n + 1)
    assert np.max(np.abs(iso.T @ dense @ iso - h_sym)) <= 1e-13
    assert np.max(np.abs(dense @ iso - iso @ h_sym)) <= 1e-13
    assert np.max(np.abs(_unitary(dense, t) @ iso - iso @ _unitary(h_sym, t))) <= 1e-12


def test_total_spin_conserved_by_twisting():
    jx, jy, jz = collective_spin_matrices((0, 1, 2, 3), 4)
    j2 = jx @ jx + jy @ jy + jz @ jz
    for kind in ("oat", "tat"):
        h = build(kind, range(4), 4)
        assert np.max(np.abs(h.matrix @ j2 - j2 @ h.matrix)) < 1e-10
    h = build("tf", range(4), 4)
    assert np.max(np.abs(h.matrix @ j2 - j2 @ h.matrix)) < 1e-10  # Jz commutes with J^2 too


# ---------------------------------------------------------------------------
# symmetries


def test_oat_symmetries():
    rep = symmetry_report(build("oat", range(4), 4))
    assert rep.spin_flip and rep.x_rotation and rep.z_parity


def test_tat_symmetries():
    rep = symmetry_report(build("tat", range(4), 4))
    assert rep.spin_flip
    assert not rep.x_rotation
    assert rep.z_parity


def test_tf_symmetries():
    # the transverse field breaks the spin flip and the x-rotation family;
    # the pi rotation about z (Jx -> -Jx, Jy -> -Jy) survives because it
    # leaves both Jx^2 and Jz unchanged
    rep = symmetry_report(build("tf", range(4), 4))
    assert not rep.spin_flip
    assert not rep.x_rotation
    assert rep.z_parity


def test_symmetries_on_embedded_subset():
    rep = symmetry_report(build("oat", (0, 2), 3))
    assert rep.spin_flip and rep.x_rotation and rep.z_parity


def test_kind_coercion():
    assert build(HamiltonianKind.OAT, (0,), 1).kind is HamiltonianKind.OAT
    assert build("TAT", (0, 1), 2).kind is HamiltonianKind.TAT
