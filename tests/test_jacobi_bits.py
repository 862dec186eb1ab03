"""The Jacobi solver's rotation keeps every bit of the one-matrix kernel
(``oracle_utils.jacobi_eigh_one``) where the rotation's arithmetic is most
fragile: the benchmark's 256x256 entangler, and complex entries at lengths
that leave SIMD tails (numpy's complex products use FMA, so operand order
and coefficient type show there only). Also: the solver works on views of
its own copy and never writes to the caller's array."""

import numpy as np
import pytest

from monogamy_lab import qcore
from monogamy_lab.hamiltonians import build

from oracle_utils import jacobi_eigh_one
from test_jacobi import _assert_members_match_one_by_one


def _complex_hermitian(rng, shape):
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return g + g.conj().swapaxes(-1, -2)


def test_the_8_qubit_oat_entangler_matches_the_one_matrix_kernel():
    h = build("oat", 8)
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
