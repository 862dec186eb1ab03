"""The Jacobi solver's rotation keeps every bit of the one-matrix kernel
(``oracle_utils.jacobi_eigh_one``) where the rotation's arithmetic is most
fragile: the benchmark's 256x256 entangler, and complex entries at lengths
that leave SIMD tails (numpy's complex products use FMA, so operand order
and coefficient type show there only). Real inputs, solved in float64, keep
the bits of that complex kernel too. Also: the solver works on views of its
own copy and never writes to the caller's array, and an empty input gives
empty arrays."""

import numpy as np
import pytest

from monogamy_lab import _jacobi, qcore
from monogamy_lab.hamiltonians import build

from oracle_utils import jacobi_eigh_one
from test_jacobi import _assert_members_match_one_by_one


def _complex_hermitian(rng, shape):
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g + g.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("kind", ["oat", "tf", "tat"])
def test_the_8_qubit_entanglers_match_the_one_matrix_kernel(kind):
    # OAT's two Z-parity blocks are byte-identical and solved once; TF's and
    # TAT's differ, so these two pin the lockstep over two 128x128 blocks.
    h = build(kind, 8)
    w, v = qcore.hermitian_eigen(h)
    w_ref, v_ref = jacobi_eigh_one(h)
    assert w.tobytes() == w_ref.tobytes()
    assert v.tobytes() == v_ref.tobytes()


@pytest.mark.parametrize("shape", [(37, 37), (5, 13, 13)])
def test_complex_inputs_match_the_one_matrix_kernel(rng, shape):
    h = _complex_hermitian(rng, shape)
    assert np.count_nonzero(h.imag) > h.size // 2
    _assert_members_match_one_by_one(h)


def _layouts(rng):
    h = _complex_hermitian(rng, (3, 6, 6))
    read_only = h.copy()
    read_only.flags.writeable = False
    return {"c": h, "fortran": np.asfortranarray(h), "read_only": read_only,
            "c_one": h[0].copy(), "fortran_one": np.asfortranarray(h[0])}


@pytest.mark.parametrize("layout", ["c", "fortran", "read_only", "c_one", "fortran_one"])
@pytest.mark.parametrize("solve", [qcore.hermitian_eigen, qcore.hermitian_eigenvalues])
def test_solves_leave_the_input_untouched(rng, layout, solve):
    m = _layouts(rng)[layout]
    before = m.tobytes(order="A")
    solve(m)
    assert m.tobytes(order="A") == before


def _working_dtypes(monkeypatch, solve, m):
    """The dtype of each working array that ``solve(m)`` rotates."""
    seen, working_array = [], _jacobi._working_array

    def record(a, compute_vectors):
        w = working_array(a, compute_vectors)
        seen.append(w.dtype)
        return w

    with monkeypatch.context() as patch:
        patch.setattr(_jacobi, "_working_array", record)
        solve(m)
    return seen


def _covariances(rng, k):
    """k real symmetric positive semidefinite 3x3 matrices as the degenerate
    points of `spin` hand them over, in turn general, of rank one, with a
    doubly degenerate spectrum, and a multiple of the identity."""
    out = np.empty((k, 3, 3))
    for i in range(k):
        g = rng.standard_normal((3, 3))
        kind = i % 4
        if kind == 0:
            out[i] = g @ g.T
        elif kind == 1:
            out[i] = np.outer(g[0], g[0])
        elif kind == 2:
            q, _ = np.linalg.qr(g)
            out[i] = (q * [2.0, 2.0, 0.5]) @ q.T
        else:
            out[i] = abs(g[0, 0]) * np.eye(3)
    return out


def _real_inputs(rng):
    g37 = rng.standard_normal((37, 37))
    g13 = rng.standard_normal((5, 13, 13))
    return {"37x37": g37 + g37.T, "5x13x13": g13 + g13.swapaxes(-1, -2),
            "covariances": _covariances(rng, 24)}


@pytest.mark.parametrize("name", ["37x37", "5x13x13", "covariances"])
def test_real_inputs_take_the_real_path_with_the_complex_kernels_bits(rng, monkeypatch, name):
    m = _real_inputs(rng)[name]
    for solve in (qcore.hermitian_eigen, qcore.hermitian_eigenvalues):
        assert set(_working_dtypes(monkeypatch, solve, m)) == {np.dtype(np.float64)}
    _, v = qcore.hermitian_eigen(m)
    assert v.dtype == np.complex128
    _assert_members_match_one_by_one(m)


def test_one_nonzero_imaginary_entry_keeps_the_complex_path(rng, monkeypatch):
    g = rng.standard_normal((6, 6))
    m = (g + g.T).astype(complex)
    m[1, 4], m[4, 1] = m[1, 4] + 1e-300j, m[4, 1] - 1e-300j
    assert set(_working_dtypes(monkeypatch, qcore.hermitian_eigen, m)) == {np.dtype(np.complex128)}
    _assert_members_match_one_by_one(m)
    _assert_members_match_one_by_one(m[None])


@pytest.mark.parametrize("shape", [(0, 2, 2), (2, 0, 3, 3), (0, 0)])
def test_an_empty_input_gives_empty_arrays(shape):
    w, v = _jacobi.jacobi_eigh(np.zeros(shape))
    assert w.shape == shape[:-1] and v.shape == shape and v.dtype == np.complex128
    w, v = _jacobi.jacobi_eigh(np.zeros(shape), compute_vectors=False)
    assert w.shape == shape[:-1] and v is None
