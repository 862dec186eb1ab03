"""Cyclic Jacobi eigensolver for complex Hermitian matrices and stacks of them.

The sweep order (row-major over the upper triangle) is fixed, so repeated
runs on the same input produce identical output. Each rotation updates
whole rows and columns with numpy.

A (..., d, d) stack is solved in one call, with the members on the last
axis of a (d, d, k) working array: each (p, q) step rotates, at once, every
member whose (p, q) element is above its own threshold, and a member leaves
the working array as soon as it has converged. The rotation body is the same
for one matrix (Python-scalar coefficients) and a stack ((k,) coefficient
arrays), and every member goes through exactly the arithmetic it would go
through alone, bit for bit:

* each member's tolerance comes from its own ``np.linalg.norm`` (a norm over
  the whole stack, or numpy's axis-wise norm, rounds differently);
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


def _cos_sin(y, x):
    """Cosine and sine of the rotation angle atan2(y, x) / 2."""
    phi = 0.5 * math.atan2(y, x)
    return math.cos(phi), math.sin(phi)


_cos_sin_each = np.frompyfunc(_cos_sin, 2, 2)


def _rotate(a, v, p, q, c, s, u):
    """Rotate a (d, d) matrix, or every member of a (d, d, k) stack, in the
    (p, q) plane: c and s are the real and u the complex unit coefficients,
    Python scalars for one matrix and (k,) arrays for a stack."""
    su = s * u
    suc = s * u.conjugate()
    colp = a[:, p].copy()
    colq = a[:, q].copy()
    a[:, p] = c * colp + suc * colq
    a[:, q] = -su * colp + c * colq
    rowp = a[p].copy()
    rowq = a[q].copy()
    a[p] = c * rowp + su * rowq
    a[q] = -suc * rowp + c * rowq
    a[p, q] = 0.0
    a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real
    if v is not None:
        colp = v[:, p].copy()
        colq = v[:, q].copy()
        v[:, p] = c * colp + suc * colq
        v[:, q] = -su * colp + c * colq


def _sweep_one(a, v, thresh):
    """One cyclic sweep over a single (d, d) matrix."""
    n = a.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = a[p, q]
            b = abs(apq)
            if b <= thresh:
                continue
            c, s = _cos_sin(2.0 * b, a[p, p].real - a[q, q].real)
            _rotate(a, v, p, q, c, s, apq / b)


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
            if on.all():
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
    eigenvectors. Converged members leave the working arrays."""
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
    lead = m.shape[:-2]
    members = np.ascontiguousarray(m.reshape(-1, n, n))
    a = np.moveaxis(members, 0, -1).copy()  # (d, d, k)
    v = None
    if compute_vectors:
        v = np.zeros_like(a)
        v[np.arange(n), np.arange(n)] = 1.0
    tol = _REL_TOL * np.maximum(1e-300, [np.linalg.norm(x) for x in members])

    diag = _kernel(a, v, tol)

    w = diag.reshape(*lead, n)
    order = np.argsort(-w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    if not compute_vectors:
        return w, None
    vecs = np.take_along_axis(np.moveaxis(v, -1, 0), order.reshape(-1, 1, n), axis=-1)
    return w, vecs.reshape(*lead, n, n)
