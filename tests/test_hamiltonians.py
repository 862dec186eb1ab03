import numpy as np
import pytest

from monogamy_lab import qcore
from monogamy_lab.errors import DimensionMismatchError, DomainError
from monogamy_lab.hamiltonians import HamiltonianKind, _build_symmetric, build, symmetry_report
from monogamy_lab.spin import collective_ops


def test_ghz_single_qubit_is_pauli_x():
    assert np.allclose(build("ghz", 1), qcore.PAULI_X)


def test_ghz_squares_to_identity():
    for n in (1, 2, 3, 4):
        h = build("ghz", n)
        assert np.allclose(h @ h, np.eye(2**n), atol=1e-12)


def test_tat_matches_pauli_construction():
    # independent construction from explicit per-site Pauli embeddings
    n = 2
    sx = [qcore.embed_single_qubit_op(qcore.PAULI_X, i, n) for i in range(n)]
    sy = [qcore.embed_single_qubit_op(qcore.PAULI_Y, i, n) for i in range(n)]
    jx = 0.5 * sum(sx)
    jy = 0.5 * sum(sy)
    expected = jx @ jy + jy @ jx
    assert np.allclose(build("tat", n), expected, atol=1e-12)


def test_oat_and_tf_forms():
    ops = collective_ops(3)
    jx, jz = ops.jx, ops.jz
    assert np.allclose(build("oat", 3), jx @ jx)
    assert np.allclose(build("tf", 3), jx @ jx + jz)


def test_builders_are_hermitian():
    for kind in ("oat", "tf", "tat", "ghz"):
        h = build(kind, 3)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12


def test_build_validation():
    with pytest.raises(DomainError):
        build("nope", 1)
    # a register size is an integer >= 1: no float is rounded, no bool read as 1
    for n in (0, -1, 2.0, True, np.bool_(True), "2"):
        with pytest.raises(DomainError):
            build("oat", n)
    assert build("oat", np.int64(2)).tobytes() == build("oat", 2).tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_build_keeps_the_bits_of_the_direct_expressions(n):
    ops = collective_ops(n)
    jx, jy, jz = ops.jx, ops.jy, ops.jz
    expected = {
        "oat": jx @ jx,
        "tf": jx @ jx + jz,
        "tat": jx @ jy + jy @ jx,
        "ghz": qcore.pauli_product(qcore.PAULI_X, n),
    }
    for kind, m in expected.items():
        h = build(kind, n)
        assert h.tobytes() == m.tobytes(), kind
        assert not h.flags.writeable


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
    dense = build(kind, n)
    h_sym = _build_symmetric(kind, n)
    assert h_sym.shape == (n + 1, n + 1)
    assert np.max(np.abs(iso.T @ dense @ iso - h_sym)) <= 1e-13
    assert np.max(np.abs(dense @ iso - iso @ h_sym)) <= 1e-13
    assert np.max(np.abs(_unitary(dense, t) @ iso - iso @ _unitary(h_sym, t))) <= 1e-12


def test_total_spin_conserved_by_twisting():
    ops = collective_ops(4)
    j2 = ops.jx @ ops.jx + ops.jy @ ops.jy + ops.jz @ ops.jz
    for kind in ("oat", "tat"):
        h = build(kind, 4)
        assert np.max(np.abs(h @ j2 - j2 @ h)) < 1e-10
    h = build("tf", 4)
    assert np.max(np.abs(h @ j2 - j2 @ h)) < 1e-10  # Jz commutes with J^2 too


# ---------------------------------------------------------------------------
# symmetries


def test_oat_symmetries():
    rep = symmetry_report(build("oat", 4))
    assert rep.spin_flip and rep.x_rotation and rep.z_parity


def test_tat_symmetries():
    rep = symmetry_report(build("tat", 4))
    assert rep.spin_flip
    assert not rep.x_rotation
    assert rep.z_parity


def test_tf_symmetries():
    # the transverse field breaks the spin flip and the x-rotation family;
    # the pi rotation about z (Jx -> -Jx, Jy -> -Jy) survives because it
    # leaves both Jx^2 and Jz unchanged
    rep = symmetry_report(build("tf", 4))
    assert not rep.spin_flip
    assert not rep.x_rotation
    assert rep.z_parity


def test_symmetry_report_needs_a_register_matrix():
    for bad in (np.eye(3), np.eye(1), np.ones((4, 2))):
        with pytest.raises(DimensionMismatchError):
            symmetry_report(bad)


def test_kind_coercion():
    assert build(HamiltonianKind.OAT, 1).tobytes() == build("oat", 1).tobytes()
    assert build("TAT", 2).tobytes() == build(HamiltonianKind.TAT, 2).tobytes()
