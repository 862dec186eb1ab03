"""One matrix is solved block by block: the connected components of its
nonzero pattern, each rotated alone with the whole matrix's tolerance,
threshold and sweep count, and byte-identical blocks solved once. Compared
byte for byte (``tobytes``, so signed zeros count) against the one-matrix
kernel ``oracle_utils.jacobi_eigh_one``, which rotates the whole matrix."""

import numpy as np
import pytest

from monogamy_lab import _jacobi, qcore
from monogamy_lab.errors import ResourceCapError
from monogamy_lab.hamiltonians import build

from test_jacobi import _assert_members_match_one_by_one


def _hermitian(rng, size):
    g = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    return g + g.conj().T


def _interleaved(rng, blocks):
    """A matrix holding each block on its own index set, the index sets
    interleaved by a random permutation (each kept in ascending order)."""
    d = sum(b.shape[0] for b in blocks)
    perm, start = rng.permutation(d), 0
    m = np.zeros((d, d), dtype=complex)
    for b in blocks:
        idx = np.sort(perm[start:start + b.shape[0]])
        m[np.ix_(idx, idx)] = b
        start += b.shape[0]
    return m


def _swept_shapes(monkeypatch, m):
    """The shape of each block that ``hermitian_eigenvalues(m)`` sweeps, in call order."""
    shapes, sweep_one = [], _jacobi._sweep_one

    def record(a, v, thresh):
        shapes.append(a.shape)
        return sweep_one(a, v, thresh)

    with monkeypatch.context() as patch:
        patch.setattr(_jacobi, "_sweep_one", record)
        qcore.hermitian_eigenvalues(m)
    return shapes


@pytest.mark.parametrize("seed", range(12))
def test_interleaved_blocks_match_the_one_matrix_kernel(seed):
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 7, size=rng.integers(2, 5))
    m = _interleaved(rng, [_hermitian(rng, s) for s in sizes])
    assert sorted(c.size for c in _jacobi._components(m)) == sorted(sizes)
    _assert_members_match_one_by_one(m)


def test_identical_blocks_are_solved_once(rng, monkeypatch):
    b = _hermitian(rng, 5)
    m = _interleaved(rng, [b, b, _hermitian(rng, 3)])
    _assert_members_match_one_by_one(m)
    sweeps = len(_swept_shapes(monkeypatch, m[None]))  # the stack route sweeps the whole matrix
    shapes = _swept_shapes(monkeypatch, m)
    assert sweeps > 0 and shapes.count((5, 5)) == shapes.count((3, 3)) == sweeps == len(shapes) / 2


def test_blocks_that_differ_in_a_signed_zero_are_solved_apart(rng):
    # Each small pair lies below the threshold, so the small blocks are never
    # rotated and their +0.0 and -0.0 reach the eigenvalues.
    small = np.array([[0.0, 1e-17], [1e-17, 1.0]], dtype=complex)
    signed = small.copy()
    signed[0, 0] = -0.0
    assert small.tobytes() != signed.tobytes() and np.array_equal(small, signed)
    m = _interleaved(rng, [small, _hermitian(rng, 4), signed])
    _assert_members_match_one_by_one(m)
    w = qcore.hermitian_eigenvalues(m)
    assert sorted(np.signbit(w[w == 0.0])) == [False, True]


def test_zero_and_diagonal_matrices(rng):
    _assert_members_match_one_by_one(np.zeros((6, 6), dtype=complex))
    _assert_members_match_one_by_one(np.diag([0.0, -0.0, 1.5, -2.0, 1.5, -0.0, 3.0]).astype(complex))
    _assert_members_match_one_by_one(np.diag(rng.standard_normal(9)))


def _big_block_and_a_small_pair(rng, x):
    """A 4x4 block that needs sweeps, interleaved with the 2x2 block
    [[1, x], [x, 2]]; x is too small to move the whole matrix's norm."""
    return _interleaved(rng, [30.0 * _hermitian(rng, 4), np.array([[1.0, x], [x, 2.0]], dtype=complex)])


def _pair_is_rotated(m):
    """Whether the solve rotates the small block: its eigenvectors are then
    no longer unit vectors."""
    small = np.flatnonzero(np.isin(np.diagonal(m).real, (1.0, 2.0)))
    _, v = qcore.hermitian_eigen(m)
    return np.count_nonzero(v[small]) > 2


@pytest.mark.parametrize("where", ["below_the_whole_threshold", "above_the_whole_threshold"])
def test_each_block_keeps_the_whole_matrix_tolerance_threshold_and_sweeps(rng, where):
    # With d = 6 the whole threshold is tol / 12. The small block alone has a
    # norm of about 2.2 against the whole matrix's hundreds, and a size of 2:
    # its own tolerance would rotate a pair of half the whole threshold, its
    # own size would skip a pair of twice it (thresh tol / 4), and stopping it
    # on its own off-norm (sqrt(2) x <= tol) would skip that pair too.
    tol = 1e-14 * np.linalg.norm(_big_block_and_a_small_pair(np.random.default_rng(1), 0.0))
    x = tol / 12 * (0.5 if where == "below_the_whole_threshold" else 2.0)
    m = _big_block_and_a_small_pair(np.random.default_rng(1), x)
    assert 1e-14 * np.linalg.norm(m) == tol
    assert _pair_is_rotated(m) == (where == "above_the_whole_threshold")
    _assert_members_match_one_by_one(m)


@pytest.mark.parametrize("kind, block", [("oat", 128), ("ghz", 2)])
def test_the_8_qubit_entangler_rotates_one_block_per_sweep(monkeypatch, kind, block):
    # The stack route rotates the whole 256x256 matrix once per sweep.
    h = build(kind, 8)
    whole = _swept_shapes(monkeypatch, h[None])
    assert whole and set(whole) == {(256, 256)}
    assert _swept_shapes(monkeypatch, h) == [(block, block)] * len(whole)


def test_block_structured_stack_members_match_their_one_matrix_solves(rng):
    stack = [_interleaved(rng, [_hermitian(rng, s) for s in sizes])
             for sizes in ((1, 7), (4, 4), (2, 3, 3), (8,), (2, 2, 2, 2))]
    stack += [build("oat", 3), build("ghz", 3), np.diag(rng.standard_normal(8))]
    stack = np.array(stack, dtype=complex)
    _assert_members_match_one_by_one(stack)
    w, v = qcore.hermitian_eigen(stack)
    for i, member in enumerate(stack):
        w_one, v_one = qcore.hermitian_eigen(member)
        assert w[i].tobytes() == w_one.tobytes() and v[i].tobytes() == v_one.tobytes()


def test_the_size_cap_holds_on_the_whole_matrix():
    # Every component of a diagonal matrix has size 1; the cap is still the whole d.
    with pytest.raises(ResourceCapError):
        qcore.hermitian_eigenvalues(np.eye(_jacobi.MAX_DIM + 1))
