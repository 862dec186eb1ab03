"""Cyclic Jacobi eigensolver for Hermitian matrices and stacks of them.

The sweep order (row-major over the upper triangle) is fixed, so repeated
runs on the same input produce identical output. Each solve works on one
array, w = [a^T | V]: row p holds column p of the matrix a, then row p of
the eigenvector accumulator V (eigenvector p), or nothing when only the
eigenvalues are wanted. A rotation in the (p, q) plane is two steps, each
over a pair of whole rows or columns of w, both new members computed from
views of the old ones into preallocated scratch, then written: rows p and q
(the columns of a and the eigenvectors at once, contiguous), then columns p
and q of the a^T part (the rows of a). The rotation keeps the bits of the
plain ``c * x + suc * y`` form by two rules (see ``_rotate``):
coefficient-first products, and numpy-scalar coefficients. A third rule
keeps them for the unit coefficient u = a_pq / |a_pq|: it is formed as
``a_pq * (1.0 / b)``, which is how numpy divides a complex number by a
real one, so that a real a_pq gives the bits of a complex one.

An input whose imaginary part is exactly zero (as every real generator of
the package has) is solved in float64 and gives the bits of its complex
solve, eigenvectors returned as complex128: each complex product then
multiplies by an exact zero, so its real part is the float product and
its imaginary part stays zero, and the third rule keeps u. The tolerance
is still taken from the complex input, since ``_row_squares`` of its
real part would sum each row in another order (see ``row_norms``).

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
c > 0 times a +0. Blocks whose entries are byte-identical (so -0.0 and 0.0
differ) go through identical arithmetic, so each is solved once: under
OAT, sigma_x on the last qubit maps the even parity block onto the odd
one, in order, and all of GHZ's 2x2 blocks are one matrix.

A (..., d, d) stack is solved in one call, with the members on the last
axis of w: each (p, q) step rotates, at once, every member whose (p, q)
element is above its own threshold, and a member leaves the working array
as soon as it has converged. The rotation body is the same for one matrix
(Python-scalar coefficients) and a stack ((k,) coefficient arrays), and
every member goes through exactly the arithmetic it would go through
alone, bit for bit:

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


def _arithmetic(m):
    """The complex array m as its float64 real part when its imaginary part
    is exactly zero (either sign), else m itself."""
    return m if m.imag.any() else m.real


def _cos_sin(y, x):
    """Cosine and sine of the rotation angle atan2(y, x) / 2."""
    phi = 0.5 * math.atan2(y, x)
    return math.cos(phi), math.sin(phi)


_cos_sin_each = np.frompyfunc(_cos_sin, 2, 2)


def _rotate(w, p, q, c, s, u, work=None):
    """Rotate a (d, d) matrix a, or every member of a (d, d, k) stack, and
    its accumulator V in the (p, q) plane, both held in w = [a^T | V]. c and
    s are the real and u the unit coefficients (u complex when w is),
    scalars for one matrix and (k,) arrays for a stack. work is
    ``_work(w)``, made here when not given.

    The rows p and q of w (the columns of a and the eigenvectors p and q),
    then the columns p and q (the rows of a), each take two ufunc calls: one
    ``np.multiply`` forms the four products coef[i, j] * pair[j], and one
    ``np.add`` writes pair[i] = coef[i, 0] pair[0] + coef[i, 1] pair[1] once
    both sums are computed from the old pair. Two rules keep every bit of
    the one-product-per-term form ``c * x + suc * y``: each product keeps
    its coefficient first (numpy's complex SIMD loops use FMA, so ``c * x``
    and ``x * c`` can differ in the last bit), and the coefficients stay
    numpy scalars or arrays (in Python ``complex`` arithmetic, u = a_pq /
    |a_pq| differs from numpy's in the last bit for about half of all a_pq)."""
    if work is None:
        work = _work(w)
    k_rows, k_cols, (prod_r, r_p, r_q), (prod_c, c_p, c_q) = work
    su = s * u
    suc = s * u.conjugate()
    k_rows[0, 0, 0] = k_rows[1, 1, 0] = k_cols[0, 0, 0] = k_cols[1, 1, 0] = c
    k_rows[0, 1, 0] = suc
    k_rows[1, 0, 0] = -su
    k_cols[0, 1, 0] = su
    k_cols[1, 0, 0] = -suc
    pair = slice(p, q + 1, q - p)  # indices p and q
    rows, cols = w[pair], w[:, pair].swapaxes(0, 1)
    np.multiply(k_rows, rows, out=prod_r)
    np.add(r_p, r_q, out=rows)
    np.multiply(k_cols, cols, out=prod_c)
    np.add(c_p, c_q, out=cols)
    w[p, q] = 0.0
    w[q, p] = 0.0
    w[p, p] = w[p, p].real
    w[q, q] = w[q, q].real


def _work(w):
    """Scratch for ``_rotate`` on a (d, m[, k]) array w: the coefficients
    of a pair of its rows and of a pair of its columns, each (2, 2, 1[, k])
    to broadcast over the pair, then the products of a row pair,
    (2, 2, m[, k]), and of a column pair, their leading (2, 2, d[, k]);
    each with its views by source, p and q."""
    coef = np.empty((2, 2, 2, 1) + w.shape[2:], dtype=w.dtype)
    prod = np.empty((2, 2) + w.shape[1:], dtype=w.dtype)
    cols = prod[:, :, :w.shape[0]]
    return coef[0], coef[1], (prod, prod[:, 0], prod[:, 1]), (cols, cols[:, 0], cols[:, 1])


def _working_array(a, compute_vectors):
    """w = [a^T | V] for a (d, d[, k]) array a: its transpose, then the
    identity accumulator when compute_vectors, and nothing when not."""
    d = a.shape[0]
    rows = d if compute_vectors else 0
    w = np.zeros((d, d + rows) + a.shape[2:], dtype=a.dtype)
    w[:, :d] = a.swapaxes(0, 1)
    w[np.arange(rows), d + np.arange(rows)] = 1.0
    return w


def _sweep_one(w, thresh):
    """One cyclic sweep over a single (d, d) matrix and its accumulator."""
    n = w.shape[0]
    work = _work(w)
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = w[q, p]  # a[p, q]
            b = abs(apq)
            if b <= thresh:
                continue
            c, s = _cos_sin(2.0 * b, w[p, p].real - w[q, q].real)
            _rotate(w, p, q, c, s, apq * (1.0 / b), work)


def _sweep_stack(w, thresh):
    """One cyclic sweep over a (d, d, k) stack; thresh has shape (k,)."""
    n = w.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = w[q, p]  # a[p, q]
            b = np.hypot(apq.real, apq.imag)  # abs() of each element, bit for bit
            on = b > thresh
            if not on.any():
                continue
            c, s = _cos_sin_each(2.0 * b[on], (w[p, p].real - w[q, q].real)[on])
            c, s = c.astype(float), s.astype(float)
            u = apq[on] * (1.0 / b[on])
            # no gather and scatter when all rotate: fig2's 2x2 stack in 0.8 ms, not 1.4 ms
            sub = w if on.all() else w[..., on]
            _rotate(sub, p, q, c, s, u)
            if sub is not w:
                w[..., on] = sub


def _matrix(w):
    """The matrix a (or stack) that w = [a^T | V] holds, as a view."""
    return w[:, :w.shape[0]].swapaxes(0, 1)


def _off_norms(w):
    """sqrt(2 sum |a_pq|^2 over p < q) of each member of the (d, d, k)
    stack a in w, summed in the order np.sum takes over one (d, d) matrix."""
    n, k = w.shape[0], w.shape[-1]
    sq = np.abs(_matrix(w)) ** 2
    sq[np.tril_indices(n)] = 0.0
    off2 = np.sum(np.moveaxis(sq, -1, 0).reshape(k, n * n), axis=-1)
    return np.sqrt(2.0 * off2)


def _kernel(w, tol):
    """Diagonalize each member of the (d, d, k) stack in w = [a^T | V], and
    rotate its accumulator, until its off-diagonal norm is at most its tol.
    A converged member is written back into w and leaves the working array."""
    n = w.shape[0]
    out, left = w, np.arange(w.shape[-1])
    for _ in range(_MAX_SWEEPS):
        done = _off_norms(w) <= tol
        if done.any():
            out[..., left[done]] = w[..., done]
            keep = ~done
            if not keep.any():
                return
            left, tol = left[keep], tol[keep]
            w = w[..., keep]
        thresh = tol / (2.0 * n)
        if left.size == 1:
            _sweep_one(w[..., 0], float(thresh[0]))
        else:
            _sweep_stack(w, thresh)
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
    m = _arithmetic(m)
    blocks = {}  # bytes -> (the block's working array, its lower triangle mask, its index arrays)
    for idx in _components(m):
        key = m[np.ix_(idx, idx)].tobytes()
        if key not in blocks:
            w = _working_array(m[np.ix_(idx, idx)], compute_vectors)
            blocks[key] = (w, np.tri(idx.size, dtype=bool), [])
        blocks[key][2].append(idx)
    sq = np.zeros((d, d))  # |a_pq|^2 above the diagonal, 0 elsewhere
    for _ in range(_MAX_SWEEPS):
        for w, lower, copies in blocks.values():
            a_sq = np.abs(_matrix(w)) ** 2
            a_sq[lower] = 0.0
            for idx in copies:
                sq[np.ix_(idx, idx)] = a_sq
        if np.sqrt(2.0 * np.sum(sq.reshape(1, d * d), axis=-1)) <= tol:
            break
        for w, _, _ in blocks.values():
            _sweep_one(w, thresh)
    else:
        raise ContractViolationError("Jacobi eigensolver failed to converge")

    vals = np.empty(d)
    for w, _, copies in blocks.values():
        for idx in copies:
            vals[idx] = np.real(np.diagonal(w))
    order = np.argsort(-vals, kind="stable")
    if not compute_vectors:
        return vals[order], None
    column = np.empty(d, dtype=np.intp)  # eigenvector i goes to column[i]
    column[order] = np.arange(d)
    vecs = np.zeros((d, d), dtype=np.complex128)
    for w, _, copies in blocks.values():
        for idx in copies:
            vecs[np.ix_(idx, column[idx])] = w[:, idx.size:].T
    return vals[order], vecs


def jacobi_eigh(
    matrix: np.ndarray,
    compute_vectors: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Diagonalize a Hermitian matrix, or a (..., d, d) stack of them, by
    cyclic Jacobi rotations, in float64 when the imaginary part is exactly
    zero and in complex128 otherwise, with the same bits either way.

    Follows numpy's eigh contract, in descending order: returns the (..., d)
    eigenvalues and, when requested, the (..., d, d) orthonormal complex128
    eigenvectors as columns. Each member of a stack gets the same bits as
    when solved alone; an empty input gives empty arrays. The input
    is not checked to be finite, square or Hermitian here; callers own that
    contract.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    n = m.shape[-1]
    if n > MAX_DIM:
        raise ResourceCapError(f"matrix dimension {n} exceeds cap {MAX_DIM}")
    if m.size == 0:
        return np.empty(m.shape[:-1]), np.empty(m.shape, dtype=np.complex128) if compute_vectors else None
    if m.ndim == 2:
        return _solve(np.ascontiguousarray(m), compute_vectors)
    lead = m.shape[:-2]
    members = np.ascontiguousarray(m.reshape(-1, n, n))
    # values only, no accumulator: fig2's 2x2 stack in 0.8 ms, not 1.4 ms
    w = _working_array(np.moveaxis(_arithmetic(members), 0, -1), compute_vectors)
    _kernel(w, _tolerance(members))
    vals = np.real(np.diagonal(w)).reshape(*lead, n)
    order = np.argsort(-vals, axis=-1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=-1)
    if not compute_vectors:
        return vals, None
    columns = np.moveaxis(w[:, n:], -1, 0).swapaxes(-1, -2)  # (k, d, d), eigenvector i in column i
    vecs = np.take_along_axis(columns, order.reshape(-1, 1, n), axis=-1)
    return vals, vecs.reshape(*lead, n, n).astype(np.complex128, copy=False)
