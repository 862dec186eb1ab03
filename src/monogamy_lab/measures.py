"""Bipartite entanglement measures for pure and mixed qubit states.

Spectrum-level bounds (`max_concurrence`, `max_negativity`,
`negativity_2pn_from_spectrum`) quantify the most entanglement any state
with a given reduced spectrum can carry; each takes one spectrum (and
returns a float) or a stack of shape (..., 4). The remaining functions
evaluate concrete states; `concurrence` likewise takes one 4x4 matrix or a
(..., 4, 4) stack. It is the general route, for any rank, through two
LAPACK solves. fig2's two concurrences read a three-qubit state's
amplitudes as a 4x2 coefficient matrix V (qubits 0, 1 | qubit 2):
`_rank2_concurrence` takes C_A1A2 (rho_A1A2 = V V^dagger has rank 2) in
closed form, `_two_level_concurrence` C_AB from qubit 2's reduced state.
"""

from __future__ import annotations

import math

import numpy as np

from . import qcore
from .errors import DomainError, is_integer
from .qcore import DensityMatrix, Partition, PureState

_CLIP = 1e-10


def _clip01(x):
    """Clip to [0, 1]: a float for a scalar, an array for an array."""
    return min(max(float(x), 0.0), 1.0) if np.ndim(x) == 0 else np.clip(x, 0.0, 1.0)


def _clipped_spectrum(rho) -> np.ndarray:
    w = qcore.hermitian_eigenvalues(rho)
    w = w.copy()
    w[(w < 0) & (w >= -_CLIP)] = 0.0
    return w


def purity(rho: DensityMatrix | np.ndarray):
    """Tr rho^2 of a density matrix (a float), or of each member of a
    (..., d, d) stack (an array of shape (...))."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    p = np.sum(np.abs(m) ** 2, axis=(-2, -1))
    return float(p) if p.ndim == 0 else p


def tsallis_entropy(rho: DensityMatrix | np.ndarray, q: int) -> float:
    """One-parameter entropy family; q=1 is von Neumann, q=2 linear entropy.
    q is an integer >= 1 (2.0 and numpy integers count, bools do not)."""
    if isinstance(q, float) and q.is_integer():
        q = int(q)
    if not is_integer(q) or q < 1:
        raise DomainError(f"q must be an integer >= 1, got {q!r}")
    q = int(q)
    w = _clipped_spectrum(rho)
    if q == 1:
        pos = w[w > 0]
        return float(-np.sum(pos * np.log(pos)))
    return float((1.0 - np.sum(w**q)) / (q - 1))


def linear_entropy_from_purity(purity, dim: int):
    """Linear entropy of a state of dimension dim from its purity: the purity
    deficit rescaled by dim/(dim-1) so the maximum is 1, clipped to [0, 1].
    A float for one purity, an array for an array of them."""
    if dim < 2:
        raise DomainError("linear entropy needs dimension >= 2")
    return _clip01(dim / (dim - 1) * (1.0 - purity))


def linear_entropy(rho: DensityMatrix | np.ndarray):
    """Purity deficit rescaled by dim/(dim-1) so the maximum is 1: a float for
    a density matrix, an array of shape (...) for a (..., d, d) stack."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    return linear_entropy_from_purity(purity(m), m.shape[-1])


def _negative_sum(eigenvalues: np.ndarray):
    """Sum of |negative eigenvalues| along the last axis, dropping eigensolver
    noise above -_CLIP: a float for one spectrum, an array for a stack."""
    w = np.asarray(eigenvalues)
    neg = -np.sum(np.where(w < -_CLIP, w, 0.0), axis=-1)
    return float(neg) if neg.ndim == 0 else neg


def negativity_raw(rho: DensityMatrix, p: Partition) -> float:
    """Sum of |negative eigenvalues| of the partially transposed matrix; the
    same for ``Partition(b, a)``, whose transpose is the full transpose of it."""
    pt = qcore.partial_transpose(rho, p)
    return _negative_sum(qcore.hermitian_eigenvalues(pt))


def _normalization(p: Partition) -> float:
    d_min = 2 ** min(len(p.qubits_a), len(p.qubits_b))
    return (d_min - 1) / 2.0


def negativity_normalized(rho: DensityMatrix, p: Partition) -> float:
    """Negativity divided by its maximum (d_min - 1)/2 for the given cut."""
    return _clip01(negativity_raw(rho, p) / _normalization(p))


# Positive eigenvalues below this floor are treated as exact zeros in the
# Schmidt route: sqrt() amplifies O(1e-15) eigensolver noise near zero into
# O(1e-8) negativity jitter otherwise.
_SCHMIDT_NOISE_CLIP = 1e-11


def schmidt_negativity_raw(reduced_rho: np.ndarray) -> float:
    """Cut negativity of a pure state from one of its reduced density matrices.

    For a pure state the partial transpose has eigenvalues {mu_i} and
    {+-sqrt(mu_i mu_j), i<j} where mu are the reduced-state eigenvalues, so
    the negativity is ((sum_i sqrt(mu_i))^2 - sum_i mu_i)/2.
    """
    w = _clipped_spectrum(reduced_rho)
    w[w < _SCHMIDT_NOISE_CLIP] = 0.0
    s = np.sum(np.sqrt(w[w > 0]))
    return float(max(0.0, (s * s - np.sum(w)) / 2.0))


def negativity_from_coefficients(coefficients):
    """Cut negativity of pure states from their coefficient matrices.

    A pure state sum_ij c_ij |i>|j> whose matrix c has singular values s
    (its Schmidt coefficients) has a partial transpose with eigenvalues
    {s_i^2} and {+-s_i s_j, i<j}, so its negativity is
    ((sum_i s_i)^2 - sum_i s_i^2)/2. The singular values come from one SVD,
    so rounding stays at the 1e-16 level even on near-product states, where
    the square root of a reduced eigenvalue would amplify it. Takes one
    (d_A, d_B) matrix (returns a float) or a (..., d_A, d_B) stack.
    """
    s = np.linalg.svd(coefficients, compute_uv=False)
    total = np.sum(s, axis=-1)
    neg = np.maximum(0.5 * (total * total - np.sum(s * s, axis=-1)), 0.0)
    return float(neg) if neg.ndim == 0 else neg


def negativity_raw_pure(state: PureState, p: Partition) -> float:
    """Negativity of a pure state across a cut, from the singular values of
    its amplitudes arranged as a (2^|A|, 2^|B|) matrix."""
    n = state.n_qubits
    p.check_register(n)
    t = state.amplitudes.reshape((2,) * n).transpose([*p.qubits_a, *p.qubits_b])
    return negativity_from_coefficients(t.reshape(2 ** len(p.qubits_a), -1))


def negativity_normalized_pure(state: PureState, p: Partition) -> float:
    return _clip01(negativity_raw_pure(state, p) / _normalization(p))


_SPIN_FLIP = np.kron(qcore.PAULI_Y, qcore.PAULI_Y).real.astype(np.complex128)


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a positive-semidefinite matrix, or of each member of a
    (..., d, d) stack, with eigenvalues in [-_CLIP, 0) taken as zero. A
    more negative eigenvalue raises DomainError naming the first member."""
    w, v = qcore.lapack_eigen(m)
    w = np.where((w < 0) & (w >= -_CLIP), 0.0, w)
    negative = w[..., -1] < 0
    if np.any(negative):
        where = f" (stack member {qcore._first_index(negative)})" if m.ndim > 2 else ""
        raise DomainError(f"concurrence input must be positive semidefinite{where}")
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def concurrence(rho: DensityMatrix | np.ndarray):
    """Two-qubit concurrence max(0, mu1 - mu2 - mu3 - mu4).

    The mu_j are the descending square roots of the eigenvalues of
    rho * (S rho^conj S) with S the two-qubit spin-flip sigma_y x sigma_y,
    evaluated through the Hermitian form sqrt(rho) S rho^conj S sqrt(rho).
    Takes one 4x4 matrix (returns a float) or a (..., 4, 4) stack (returns
    an array of shape (...)); a stack makes two LAPACK eigensolver calls in
    all (`qcore.lapack_eigen`, `qcore.lapack_eigenvalues`).
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)
    if m.shape[-2:] != (4, 4):
        raise DomainError(f"concurrence is defined for two qubits, got shape {m.shape}")
    sqrt_rho = _psd_sqrt(m)
    herm = sqrt_rho @ (_SPIN_FLIP @ m.conj() @ _SPIN_FLIP) @ sqrt_rho
    mu2 = np.clip(qcore.lapack_eigenvalues(herm), 0.0, None)
    # the product matrix is bounded by 1 for trace-one inputs, so anything
    # below 1e-13 is eigensolver noise; sqrt would blow it up to O(1e-7)
    mu2[mu2 < 1e-13] = 0.0
    mu = np.sqrt(mu2)
    return _clip01(mu[..., 0] - mu[..., 1] - mu[..., 2] - mu[..., 3])


def _flip_form(xr, xi, yr, yi):
    """Re and Im of x^T S y = x1 y2 + x2 y1 - x0 y3 - x3 y0 over the last
    axis of length 4, from the real and imaginary parts of x and y."""
    yr, yi = yr[..., ::-1], yi[..., ::-1]
    pr, pi = xr * yr - xi * yi, xr * yi + xi * yr
    re = (pr[..., 1] + pr[..., 2]) - (pr[..., 0] + pr[..., 3])
    im = (pi[..., 1] + pi[..., 2]) - (pi[..., 0] + pi[..., 3])
    return re, im


def _rank2_concurrence(factor: np.ndarray):
    """Two-qubit concurrence of rho = V V^dagger from its factor V, one (4, 2)
    matrix (returns a float) or a (..., 4, 2) stack, with no eigensolver.

    Wootters (PRL 80, 2245 (1998)): with S = sigma_y x sigma_y, the
    concurrence is s1 - s2 for the singular values s1 >= s2 of the symmetric
    2x2 matrix tau = V^T S V, so C^2 = ||tau||_F^2 - 2 |det tau|. That form
    cancels as C -> 0: its absolute error is about eps ||tau||_F^2 / C. The
    arithmetic runs on real and imaginary parts, one float ufunc per product
    or sum, so each member gets the bits it gets alone (numpy's complex
    multiply loops use FMA on some array lengths and strides only).
    """
    re, im = factor.real, factor.imag
    ar, ai, br, bi = re[..., 0], im[..., 0], re[..., 1], im[..., 1]
    t00r, t00i = _flip_form(ar, ai, ar, ai)
    t11r, t11i = _flip_form(br, bi, br, bi)
    t01r, t01i = _flip_form(ar, ai, br, bi)
    det_r = (t00r * t11r - t00i * t11i) - (t01r * t01r - t01i * t01i)
    det_i = (t00r * t11i + t00i * t11r) - 2.0 * (t01r * t01i)
    frob2 = ((t00r * t00r + t00i * t00i) + (t11r * t11r + t11i * t11i)
             + 2.0 * (t01r * t01r + t01i * t01i))
    c2 = frob2 - 2.0 * np.sqrt(det_r * det_r + det_i * det_i)
    return _clip01(np.sqrt(np.maximum(c2, 0.0)))


def _two_level_concurrence(factor: np.ndarray):
    """Concurrence 2 sqrt(l1 (1 - l1)) of a pure state across the cut of its
    coefficient matrix V, one (4, 2) matrix (returns a float) or a
    (..., 4, 2) stack, with l1 the top eigenvalue of the two-level side's
    reduced state V^T V^*: one Jacobi call on the (..., 2, 2) stack."""
    x = np.ascontiguousarray(factor.swapaxes(-1, -2))
    rho = x @ x.conj().swapaxes(-1, -2)
    del x  # freed before the solve, which is where fig2 peaks in memory
    l1 = np.clip(qcore.hermitian_eigenvalues(rho)[..., 0], 0.0, 1.0)
    c = 2.0 * np.sqrt(l1 * (1.0 - l1))
    return float(c) if c.ndim == 0 else c


def _spectrum4(spec) -> np.ndarray:
    """Coerce to validated spectra of shape (..., 4), each row descending."""
    vals = np.asarray(spec, dtype=float)
    if vals.ndim == 0 or vals.shape[-1] != 4:
        raise DomainError(f"expected 4 spectrum values, got shape {vals.shape}")
    vals = np.sort(vals, axis=-1)[..., ::-1].copy()
    vals[(vals < 0) & (vals >= -_CLIP)] = 0.0
    if not np.all(vals[..., -1] >= 0):
        raise DomainError("spectrum values must be non-negative")
    sums = vals.sum(axis=-1)
    bad = ~(np.abs(sums - 1.0) <= qcore.SPECTRUM_SUM_TOL)
    if np.any(bad):
        raise DomainError(f"spectrum sums to {float(sums[bad].flat[0])!r}, not 1")
    return vals


# math.hypot, element by element: np.hypot differs from it in the last bit
# on some inputs, and the fig3 dataset is pinned to these bits.
_hypot = np.frompyfunc(math.hypot, 2, 1)


def max_concurrence(spec):
    """Largest concurrence reachable by unitaries at fixed two-qubit spectrum."""
    l1, l2, l3, l4 = np.moveaxis(_spectrum4(spec), -1, 0)
    return _clip01(l1 - l3 - 2.0 * np.sqrt(l2 * l4))


def max_negativity(spec):
    """Largest normalized negativity reachable at fixed two-qubit spectrum."""
    l1, l2, l3, l4 = np.moveaxis(_spectrum4(spec), -1, 0)
    return _clip01(np.asarray(_hypot(l1 - l3, l2 - l4), dtype=float) - l2 - l4)


def negativity_2pn_from_spectrum(spec):
    """Normalized cut negativity of a 2+N pure state from its length-4 spectrum.

    Equals (1/3) sum_{i != j} sqrt(l_i l_j); the 1/3 sets the maximum
    (the flat spectrum) to one.
    """
    s = np.sum(np.sqrt(_spectrum4(spec)), axis=-1)
    return _clip01((s * s - 1.0) / 3.0)
