"""Cyclic Jacobi eigensolver for complex Hermitian matrices and stacks of them.

The sweep order (row-major over the upper triangle) is fixed, so repeated
runs on the same input produce identical output. Each rotation updates
whole rows and columns with numpy, without copies: both new members of a
pair are computed from views of the old ones into preallocated scratch, then
written. The eigenvector accumulator holds eigenvector i in row i, so its
update runs over two contiguous rows; it is transposed once, when the
output is ordered. The rotation keeps the bits of the plain
``c * x + suc * y`` form by two rules (see ``_rotate``): coefficient-first
products, and numpy-scalar coefficients.

One (d, d) matrix is solved by the connected components of its nonzero
pattern. Every generator in the package keeps Z-parity, so its 2^n matrix
falls into two blocks (2^(n-1) 2x2 blocks for GHZ). A rotation in the
(p, q) plane of one block reads and writes only that block's entries:
every other entry of rows and columns p and q is a pair of zeros, and it
stays zero. So the rotations of different blocks commute, and the cyclic
order over the whole matrix, restricted to one block's ascending indices,
is that block's own cyclic order. Each block is rotated alone with the
whole matrix's tolerance and threshold (from the whole norm, summed row by
row so that no BLAS call is split across threads, and the whole d), and
every block is swept until the whole matrix's off-diagonal norm,
summed in the order ``_off_norms`` sums it, is at most the tolerance; each
block then gets the bits that the whole-matrix rotation gives it. The
off-block eigenvector entries stay +0 there too, since each new entry adds
c > 0 times a +0. Blocks whose entries are
byte-identical (so -0.0 and 0.0 differ) go through identical arithmetic,
so each is solved once: under OAT, sigma_x on the last qubit maps the even
parity block onto the odd one, in order, and all of GHZ's 2x2 blocks are
one matrix.

A (..., d, d) stack is solved in one call, with the members on the last
axis of a (d, d, k) working array: each (p, q) step rotates, at once, every
member whose (p, q) element is above its own threshold, and a member leaves
the working array as soon as it has converged. The rotation body is the same
for one matrix (Python-scalar coefficients) and a stack ((k,) coefficient
arrays), and every member goes through exactly the arithmetic it would go
through alone, bit for bit:

* each member's tolerance is ``_tolerance`` of the stack, which takes the
  same per-row dots and the same sum for every member as for one matrix;
* each member's rotation angle comes from ``math.atan2``, ``math.cos`` and
  ``math.sin`` element by element (``np.arctan2`` differs from ``math.atan2``
  in the last bit on some inputs);
* each member runs its own number of sweeps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, ResourceCapError

MAX_DIM = 1024
_MAX_SWEEPS = 64
_REL_TOL = 1e-14


def row_norms(z):
    """``np.linalg.norm`` of each row of a C-contiguous complex (..., n)
    array, bit for bit, without a Python call per row: `sampling`'s Haar
    rows are normalised by it. The solver's `_tolerance` sums the squares.

    The norm of one row is sqrt(re . re + im . im), each dot a BLAS ``dot``
    over the row's real or imaginary view, whose stride is two doubles.
    numpy's matmul sends a (1, n) @ (n, 1) product to the same ``dot``,
    with the same strides, so each row's squared norm is the norm's own.
    The strides matter: over the unit-stride halves of a real buffer,
    OpenBLAS sums in another order and moves a seventh to a third of
    the rows."""
    return np.sqrt(_row_squares(z))


def _row_squares(z):
    """The squared norm of each row of ``row_norms``, before its sqrt."""
    re, im = z.real, z.imag
    sq = re[..., None, :] @ re[..., :, None] + im[..., None, :] @ im[..., :, None]
    return sq[..., 0, 0]


def _tolerance(m):
    """The off-diagonal norm at which a (d, d) matrix, or each member of a
    (..., d, d) stack, counts as diagonal: _REL_TOL times its Frobenius
    norm, from one BLAS dot per row (d <= MAX_DIM entries, which OpenBLAS
    never splits across threads) summed by ``np.sum`` over the last axis,
    which sums each member's rows as it sums one matrix's. So a stack
    member gets its one-matrix tolerance, under any BLAS thread count. A
    single dot over all d^2 entries would be split across threads above
    10,000 entries, and round differently under each thread count."""
    return _REL_TOL * np.maximum(1e-300, np.sqrt(np.sum(_row_squares(m), axis=-1)))


def _cos_sin(y, x):
    """Cosine and sine of the rotation angle atan2(y, x) / 2."""
    phi = 0.5 * math.atan2(y, x)
    return math.cos(phi), math.sin(phi)


_cos_sin_each = np.frompyfunc(_cos_sin, 2, 2)


def _rotate(a, v, p, q, c, s, u, work=None):
    """Rotate a (d, d) matrix, or every member of a (d, d, k) stack, in the
    (p, q) plane: c and s are the real and u the complex unit coefficients,
    Python scalars for one matrix and (k,) arrays for a stack. v holds the
    eigenvectors as rows (eigenvector i in v[i]), so its update, like the
    row update of a, runs over two contiguous rows. work is the scratch
    from ``_work(a)``, made here when not given.

    Each pair (columns p and q of a, then rows p and q of a, then rows p
    and q of v) takes two ufunc calls: one ``np.multiply`` forms the four
    products coef[i, j] * pair[j], and one ``np.add`` writes pair[i] =
    coef[i, 0] pair[0] + coef[i, 1] pair[1] once both sums are computed
    from the old pair. Two rules keep every bit of the one-product-per-term
    form ``c * x + suc * y``: each product keeps its coefficient first
    (numpy's complex SIMD loops use FMA, so ``c * x`` and ``x * c`` can
    differ in the last bit), and the coefficients stay numpy scalars or
    arrays (in Python ``complex`` arithmetic, u = a_pq / |a_pq| differs
    from numpy's in the last bit for about half of all a_pq)."""
    if work is None:
        work = _work(a)
    k_cols, k_rows, prod, from_p, from_q = work
    su = s * u
    suc = s * u.conjugate()
    k_cols[0, 0, 0] = k_cols[1, 1, 0] = k_rows[0, 0, 0] = k_rows[1, 1, 0] = c
    k_cols[0, 1, 0] = suc
    k_cols[1, 0, 0] = -su
    k_rows[0, 1, 0] = su
    k_rows[1, 0, 0] = -suc
    pair = slice(p, q + 1, q - p)  # indices p and q
    cols = a[:, pair].swapaxes(0, 1)
    np.multiply(k_cols, cols, out=prod)
    np.add(from_p, from_q, out=cols)
    rows = a[pair]
    np.multiply(k_rows, rows, out=prod)
    np.add(from_p, from_q, out=rows)
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real
    if v is not None:
        rows = v[pair]
        np.multiply(k_cols, rows, out=prod)
        np.add(from_p, from_q, out=rows)


def _work(a):
    """Scratch for ``_rotate`` on a (d, d[, k]) array: the column and row
    coefficients, each (2, 2, 1[, k]) so that they broadcast over a pair,
    the (2, 2, d[, k]) products, and their views by source, p and q."""
    coef = np.empty((2, 2, 2, 1) + a.shape[2:], dtype=a.dtype)
    prod = np.empty((2, 2) + a.shape[1:], dtype=a.dtype)
    return coef[0], coef[1], prod, prod[:, 0], prod[:, 1]


def _sweep_one(a, v, thresh):
    """One cyclic sweep over a single (d, d) matrix."""
    n = a.shape[0]
    work = _work(a)
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            b = abs(apq)
            if b <= thresh:
                continue
            c, s = _cos_sin(2.0 * b, a[p, p].real - a[q, q].real)
            _rotate(a, v, p, q, c, s, apq / b, work)


def _sweep_stack(a, v, thresh):
    """One cyclic sweep over a (d, d, k) stack; thresh has shape (k,)."""
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            b = np.hypot(apq.real, apq.imag)  # abs() of each element, bit for bit
            on = b > thresh
            if not on.any():
                continue
            c, s = _cos_sin_each(2.0 * b[on], (a[p, p].real - a[q, q].real)[on])
            c, s = c.astype(float), s.astype(float)
            u = apq[on] / b[on]
            if on.all():  # no gather and scatter: fig2's 2x2 stack in 0.8 ms, not 1.4 ms
                _rotate(a, v, p, q, c, s, u)
                continue
            sub_a = a[..., on]
            sub_v = None if v is None else v[..., on]
            _rotate(sub_a, sub_v, p, q, c, s, u)
            a[..., on] = sub_a
            if v is not None:
                v[..., on] = sub_v


def _off_norms(a):
    """sqrt(2 sum |a_pq|^2 over p < q) of each member of a (d, d, k) stack,
    summed in the order np.sum takes over one (d, d) matrix."""
    n, k = a.shape[0], a.shape[-1]
    sq = np.abs(a) ** 2
    sq[np.tril_indices(n)] = 0.0
    off2 = np.sum(np.moveaxis(sq, -1, 0).reshape(k, n * n), axis=-1)
    return np.sqrt(2.0 * off2)


def _kernel(a, v, tol):
    """Diagonalize a (d, d, k) stack, and rotate its (d, d, k) eigenvector
    stack v (None to skip), until each member's off-diagonal norm is at
    most its tol. Returns the (k, d) diagonals; v ends up holding the
    eigenvectors as rows. Converged members leave the working arrays."""
    n, k = a.shape[0], a.shape[-1]
    diag = np.empty((k, n))
    vecs = v
    left = np.arange(k)
    for _ in range(_MAX_SWEEPS):
        done = _off_norms(a) <= tol
        if done.any():
            diag[left[done]] = np.real(np.diagonal(a[..., done]))
            if v is not None:
                vecs[..., left[done]] = v[..., done]
            keep = ~done
            if not keep.any():
                return diag
            left, tol = left[keep], tol[keep]
            a = a[..., keep]
            v = None if v is None else v[..., keep]
        thresh = tol / (2.0 * n)
        if left.size == 1:
            _sweep_one(a[..., 0], None if v is None else v[..., 0], float(thresh[0]))
        else:
            _sweep_stack(a, v, thresh)
    raise ContractViolationError("Jacobi eigensolver failed to converge")


def _components(m):
    """The connected components of a (d, d) matrix's nonzero pattern, each
    an ascending index array, in the order of their smallest index."""
    linked = (m != 0) | (m.T != 0)
    d = m.shape[0]
    seen = np.zeros(d, dtype=bool)
    out = []
    for start in range(d):
        if seen[start]:
            continue
        member = np.zeros(d, dtype=bool)
        member[start] = True
        reached = member
        while reached.any():
            reached = linked[reached].any(axis=0) & ~member
            member |= reached
        seen |= member
        out.append(np.flatnonzero(member))
    return out


def _solve(m, compute_vectors):
    """Diagonalize one (d, d) matrix block by block, as ``jacobi_eigh``
    does. Each distinct block (by bytes, so signed zeros count) is swept
    once per sweep with the whole matrix's threshold, and every block is
    swept until the whole matrix's off-diagonal norm, summed as
    ``_off_norms`` sums it, is at most the whole matrix's `_tolerance`."""
    d = m.shape[0]
    tol = _tolerance(m)
    thresh = tol / (2.0 * d)
    blocks = {}  # bytes -> (block, its eigenvector rows or None, its index arrays)
    for idx in _components(m):
        a = m[np.ix_(idx, idx)]
        key = a.tobytes()
        if key not in blocks:
            blocks[key] = (a, np.eye(idx.size, dtype=a.dtype) if compute_vectors else None, [])
        blocks[key][2].append(idx)
    sq = np.zeros((d, d))  # |a_pq|^2 above the diagonal, 0 elsewhere
    for _ in range(_MAX_SWEEPS):
        for a, _, copies in blocks.values():
            a_sq = np.abs(a) ** 2
            a_sq[np.tril_indices(a.shape[0])] = 0.0
            for idx in copies:
                sq[np.ix_(idx, idx)] = a_sq
        if np.sqrt(2.0 * np.sum(sq.reshape(1, d * d), axis=-1)) <= tol:
            break
        for a, v, _ in blocks.values():
            _sweep_one(a, v, thresh)
    else:
        raise ContractViolationError("Jacobi eigensolver failed to converge")

    w = np.empty(d)
    for a, _, copies in blocks.values():
        for idx in copies:
            w[idx] = np.real(np.diagonal(a))
    order = np.argsort(-w, kind="stable")
    if not compute_vectors:
        return w[order], None
    column = np.empty(d, dtype=np.intp)  # eigenvector i goes to column[i]
    column[order] = np.arange(d)
    vecs = np.zeros((d, d), dtype=m.dtype)
    for _, v, copies in blocks.values():
        for idx in copies:
            vecs[np.ix_(idx, column[idx])] = v.T
    return w[order], vecs


def jacobi_eigh(
    matrix: np.ndarray,
    compute_vectors: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Diagonalize a complex Hermitian matrix, or a (..., d, d) stack of them,
    by cyclic Jacobi rotations.

    Follows numpy's eigh contract, in descending order: returns the (..., d)
    eigenvalues and, when requested, the (..., d, d) orthonormal eigenvectors
    as columns. Each member of a stack gets the same bits as when solved
    alone. The input is not checked to be non-empty, finite, square or
    Hermitian here; callers own that contract.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    n = m.shape[-1]
    if n > MAX_DIM:
        raise ResourceCapError(f"matrix dimension {n} exceeds cap {MAX_DIM}")
    if m.ndim == 2:
        return _solve(np.ascontiguousarray(m), compute_vectors)
    lead = m.shape[:-2]
    members = np.ascontiguousarray(m.reshape(-1, n, n))
    a = np.moveaxis(members, 0, -1).copy()  # (d, d, k)
    v = None  # values only, no accumulator: fig2's 2x2 stack in 0.8 ms, not 1.4 ms
    if compute_vectors:
        v = np.zeros_like(a)
        v[np.arange(n), np.arange(n)] = 1.0
    tol = _tolerance(members)

    diag = _kernel(a, v, tol)

    w = diag.reshape(*lead, n)
    order = np.argsort(-w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    if not compute_vectors:
        return w, None
    rows = np.moveaxis(v, -1, 0)  # (k, d, d), eigenvector i in row i
    vecs = np.take_along_axis(rows.swapaxes(-1, -2), order.reshape(-1, 1, n), axis=-1)
    return w, vecs.reshape(*lead, n, n)
