"""Cyclic Jacobi eigensolver for complex Hermitian matrices.

The sweep order (row-major over the upper triangle) is fixed, so repeated
runs on the same input produce identical output. Each rotation updates
whole rows and columns with numpy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolationError, ResourceCapError

MAX_DIM = 1024
_MAX_SWEEPS = 64
_REL_TOL = 1e-14


def _kernel(a, v, compute_v, tol):
    n = a.shape[0]
    for sweep in range(_MAX_SWEEPS):
        off2 = float(np.sum(np.abs(np.triu(a, 1)) ** 2))
        if math.sqrt(2.0 * off2) <= tol:
            return sweep
        thresh = tol / (2.0 * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                b = abs(apq)
                if b <= thresh:
                    continue
                phi = 0.5 * math.atan2(2.0 * b, a[p, p].real - a[q, q].real)
                c = math.cos(phi)
                s = math.sin(phi)
                u = apq / b
                su = s * u
                suc = s * u.conjugate()
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp + suc * colq
                a[:, q] = -su * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp + su * rowq
                a[q, :] = -suc * rowp + c * rowq
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                if compute_v:
                    colp = v[:, p].copy()
                    colq = v[:, q].copy()
                    v[:, p] = c * colp + suc * colq
                    v[:, q] = -su * colp + c * colq
    return -1


def jacobi_eigh(
    matrix: np.ndarray,
    compute_vectors: bool = True,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Diagonalize a complex Hermitian matrix by cyclic Jacobi rotations.

    Returns eigenvalues in descending order and, when requested, the matching
    orthonormal eigenvectors as columns. The input is not checked to be
    non-empty, square or Hermitian here; callers own that contract.
    """
    a = np.array(matrix, dtype=np.complex128, order="C", copy=True)
    n = a.shape[0]
    if n > MAX_DIM:
        raise ResourceCapError(f"matrix dimension {n} exceeds cap {MAX_DIM}")

    v = np.eye(n, dtype=np.complex128) if compute_vectors else np.empty((1, 1), dtype=np.complex128)
    tol = _REL_TOL * max(1e-300, float(np.linalg.norm(a)))

    if _kernel(a, v, compute_vectors, tol) < 0:
        raise ContractViolationError("Jacobi eigensolver failed to converge")

    w = np.real(np.diag(a)).copy()
    order = np.argsort(-w, kind="stable")
    w = w[order]
    if compute_vectors:
        return w, np.ascontiguousarray(v[:, order])
    return w, None
