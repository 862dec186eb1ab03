"""The stacked Jacobi eigensolver against the one-matrix kernel it replaced,
compared byte for byte (``tobytes``, so signed zeros count)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monogamy_lab
from monogamy_lab import _jacobi, qcore
from monogamy_lab.hamiltonians import build

from oracle_utils import jacobi_eigh_one, random_unitary


def _assert_members_match_one_by_one(stack):
    w, v = qcore.hermitian_eigen(stack)
    w_only = qcore.hermitian_eigenvalues(stack)
    assert w.shape == w_only.shape == stack.shape[:-1] and v.shape == stack.shape
    for idx in np.ndindex(stack.shape[:-2]):
        w_ref, v_ref = jacobi_eigh_one(stack[idx])
        assert w[idx].tobytes() == w_only[idx].tobytes() == w_ref.tobytes()
        assert v[idx].tobytes() == v_ref.tobytes()


def _mixed_stack(rng, d, k):
    """k Hermitian d x d members, in turn general complex, diagonal, zero,
    degenerate-spectrum and real symmetric, so that members converge after
    different numbers of sweeps."""
    out = np.empty((k, d, d), dtype=complex)
    for i in range(k):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        kind = i % 5
        if kind == 0:
            out[i] = g + g.conj().T
        elif kind == 1:
            out[i] = np.diag(rng.standard_normal(d))
        elif kind == 2:
            out[i] = 0.0
        elif kind == 3:
            u = random_unitary(d, rng)
            w = np.repeat(rng.standard_normal((d + 1) // 2), 2)[:d]
            out[i] = (u * w) @ u.conj().T
        else:
            out[i] = g.real + g.real.T
    return out


@pytest.mark.parametrize("kind", ["oat", "tat", "tf", "ghz"])
@pytest.mark.parametrize("n", range(1, 7))
def test_entanglers_match_the_one_matrix_kernel(kind, n):
    h = build(kind, n)
    _assert_members_match_one_by_one(h)
    _assert_members_match_one_by_one(h[None])


@pytest.mark.parametrize("d", range(1, 9))
def test_mixed_stacks_match_the_one_matrix_kernel_for_every_leading_shape(rng, d):
    stack = _mixed_stack(rng, d, 12)
    _assert_members_match_one_by_one(stack)
    _assert_members_match_one_by_one(stack.reshape(3, 4, d, d))
    for member in stack[:5]:
        _assert_members_match_one_by_one(member)


def _at_the_tolerance(rng, d, above):
    """A diagonal matrix plus one real off-diagonal pair x whose off-diagonal
    norm sqrt(2 x^2) is the largest value at most (above=False) or the
    smallest value above (above=True) the solver's tolerance: 1e-14 times
    the square root of the sum of the rows' squared norms. Whether the
    matrix takes a rotation then turns on the last bit of its own
    tolerance; x is too small to move the norm."""
    m = np.diag(rng.uniform(1.0, 2.0, d)).astype(complex)

    def tolerance(m):
        return 1e-14 * np.sqrt(np.sum([np.vdot(row, row).real for row in m]))

    def off(x):
        return np.sqrt(2.0 * (x * x))

    tol = tolerance(m)
    x = tol / np.sqrt(2.0)
    while off(x) > tol:
        x = np.nextafter(x, 0.0)
    while off(np.nextafter(x, 1.0)) <= tol:
        x = np.nextafter(x, 1.0)
    if above:
        x = np.nextafter(x, 1.0)
    m[0, 1] = m[1, 0] = x
    assert tolerance(m) == tol
    return m


def test_each_member_converges_against_its_own_tolerance(rng):
    # At d = 6 about one norm in five rounds differently when taken over
    # the stack (np.linalg.norm with axis=(1, 2)) instead of member by member.
    stack = np.array([_at_the_tolerance(rng, 6, above) for _ in range(30) for above in (False, True)])
    _, v = qcore.hermitian_eigen(stack)
    rotated = [np.count_nonzero(vi) > 6 for vi in v]  # else a permutation of the identity
    assert rotated == [False, True] * 30
    _assert_members_match_one_by_one(stack)


@pytest.mark.parametrize("n", [4, 8, 9, 16, 81, 256])
def test_row_norms_are_numpys_norm_of_each_row(rng, n):
    # Over unit-stride copies of the real and imaginary parts, OpenBLAS's
    # dot sums in another order: a seventh to a third of the rows differ.
    for scale in (1e-150, 1e-50, 1.0, 1e50, 1e150):
        z = scale * (rng.standard_normal((3, 100, n)) + 1j * rng.standard_normal((3, 100, n)))
        z[0, 0] = 0.0
        want = np.array([[np.linalg.norm(row) for row in rows] for rows in z])
        assert _jacobi.row_norms(z).tobytes() == want.tobytes()
        assert _jacobi.row_norms(z[1, 7]).tobytes() == want[1, 7].tobytes()


def _print_under_one_and_two_blas_threads(code):
    """What ``python -c code`` prints in a fresh process under one and under
    two OpenBLAS threads."""
    src = str(Path(monogamy_lab.__file__).resolve().parents[1])
    out = []
    for threads in (1, 2):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True)
        out.append(run.stdout)
    return out


def test_one_matrix_tolerance_does_not_depend_on_the_blas_thread_count():
    # A 128x128 matrix has 16,384 entries. One BLAS dot over all of them is
    # split across threads above 10,000 entries, and its sum then rounds
    # differently under one and two threads (for this matrix, by 3 ulps).
    one, two = _print_under_one_and_two_blas_threads(
        "import numpy as np; from monogamy_lab import _jacobi; "
        "g = np.random.default_rng(1).standard_normal((2, 128, 128)); h = g[0] + 1j * g[1]; "
        "print(float(_jacobi._tolerance(h + h.conj().T)).hex())")
    assert one == two


def test_stack_tolerance_is_each_members_own_under_any_blas_thread_count():
    # The tolerances the stack route hands its kernel (the kernel is replaced
    # by a recorder, so nothing is solved), next to each member's one-matrix
    # tolerance. A norm of each flattened member is one BLAS dot over its
    # 16,384 entries, split across threads.
    one, two = _print_under_one_and_two_blas_threads(
        "import numpy as np; from monogamy_lab import _jacobi; "
        "g = np.random.default_rng(1).standard_normal((2, 2, 128, 128)); h = g[0] + 1j * g[1]; "
        "h = h + h.conj().swapaxes(-1, -2); seen = []; "
        "_jacobi._kernel = lambda a, v, tol: seen.append(tol) or np.zeros((a.shape[-1], a.shape[0])); "
        "_jacobi.jacobi_eigh(h, compute_vectors=False); "
        "print(*(float(t).hex() for t in seen[0])); print(*(float(_jacobi._tolerance(m)).hex() for m in h))")
    assert one == two
    stack, members = one.splitlines()
    assert stack == members


@pytest.mark.parametrize("d", range(2, 10))
def test_each_stack_members_tolerance_is_its_one_matrix_tolerance(rng, monkeypatch, d):
    # One BLAS dot over each flattened member would round differently from
    # the row-by-row sum for about one member in eight at these sizes.
    g = rng.standard_normal((2, 400, d, d))
    stack = g[0] + 1j * g[1]
    stack += stack.conj().swapaxes(-1, -2)
    seen, kernel = [], _jacobi._kernel

    def record(a, v, tol):
        seen.append(tol)
        return kernel(a, v, tol)

    monkeypatch.setattr(_jacobi, "_kernel", record)
    qcore.hermitian_eigenvalues(stack)
    assert seen[0].tobytes() == np.array([_jacobi._tolerance(m) for m in stack]).tobytes()


def test_stacks_rotate_partial_sets_and_shrink_as_members_converge(rng, monkeypatch):
    events = []
    off_norms, rotate = _jacobi._off_norms, _jacobi._rotate

    def record_sweep(a):
        events.append(("sweep", a.shape[-1]))
        return off_norms(a)

    def record_rotation(a, *args):
        events.append(("rotate", a.shape[-1] if a.ndim == 3 else 1))
        return rotate(a, *args)

    monkeypatch.setattr(_jacobi, "_off_norms", record_sweep)
    monkeypatch.setattr(_jacobi, "_rotate", record_rotation)
    qcore.hermitian_eigen(_mixed_stack(rng, 6, 40))
    sizes = [k for what, k in events if what == "sweep"]
    assert sizes[0] == 40 and len(set(sizes)) >= 3  # members leave after different sweeps
    working, partial = None, 0
    for what, k in events:
        if what == "sweep":
            working = k
        elif k < working:
            partial += 1
    assert partial > 0


def test_eigenvectors_are_contiguous_columns(rng):
    stack = _mixed_stack(rng, 4, 10)
    w, v = qcore.hermitian_eigen(stack)
    assert v.flags.c_contiguous
    recon = (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)
    assert np.max(np.abs(recon - stack)) < 1e-12
    assert np.all(np.diff(w, axis=-1) <= 0)
