"""Collective spin operators and the minimal-variance squeezing parameter.

`collective_ops(n)` gives (Jx, Jy, Jz) as dense 2^n matrices on a whole
n-qubit register; `symmetric_ops(n)` gives the spin-j matrices, j = n/2, on
its symmetric subspace sym(n).

The squeezing parameter is 4 min Var(J_perp) / N over directions
perpendicular to the mean spin; the minimization is exact (smallest
eigenvalue of the projected covariance), not a grid search. A state with no
mean spin has no perpendicular plane, so the minimization then runs over the
full unit sphere and the result is flagged as degenerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import qcore
from .errors import DimensionMismatchError, check_count
from .qcore import DensityMatrix, PureState

DEGENERATE_MEAN_SPIN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CollectiveSpinOps:
    """Total-spin components for a set of spin-1/2 particles."""

    n_spins: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    @property
    def dim(self) -> int:
        return self.jx.shape[0]

    @cached_property
    def moment_operators(self) -> tuple[np.ndarray, ...]:
        """First moments and symmetrized second moments, in the fixed order
        (Jx, Jy, Jz, Sxx, Syy, Szz, Sxy, Sxz, Syz)."""
        jx, jy, jz = self.jx, self.jy, self.jz
        sym = lambda a, b: 0.5 * (a @ b + b @ a)
        return (jx, jy, jz, jx @ jx, jy @ jy, jz @ jz, sym(jx, jy), sym(jx, jz), sym(jy, jz))


def collective_ops(n_spins: int) -> CollectiveSpinOps:
    """Collective spin operators of n spin-1/2 particles on their dense 2^n
    register: each J is half the sum of one Pauli matrix over the qubits."""
    n_spins = check_count("n_spins", n_spins)
    dim = 2**n_spins
    out = []
    for pauli in (qcore.PAULI_X, qcore.PAULI_Y, qcore.PAULI_Z):
        j = np.zeros((dim, dim), dtype=np.complex128)
        for i in range(n_spins):
            j += qcore.embed_single_qubit_op(pauli, i, n_spins)
        j = 0.5 * j
        j.setflags(write=False)
        out.append(j)
    return CollectiveSpinOps(n_spins, *out)


def symmetric_ops(n_spins: int) -> CollectiveSpinOps:
    """Collective spin operators of n spin-1/2 particles on their symmetric
    subspace sym(n): the spin-j matrices, j = n/2, in the basis of
    ``qcore.symmetric_isometry(n)`` (column k has k spins down, m = j - k).

    They are iso.T @ J @ iso for the dense J of ``collective_ops(n)``. J maps
    sym(n) into itself, so the moment operators are the restrictions of the
    dense ones too, and a state's moments can be taken from its n+1
    amplitudes in sym(n).
    """
    n_spins = check_count("n_spins", n_spins)
    k = np.arange(n_spins)
    # <k+1|J-|k> = sqrt((k+1)(n-k)): J- flips one more spin down.
    j_minus = np.diag(np.sqrt((k + 1.0) * (n_spins - k)), -1).astype(np.complex128)
    j_plus = j_minus.T
    jz = np.diag(0.5 * n_spins - np.arange(n_spins + 1)).astype(np.complex128)
    jx, jy = 0.5 * (j_plus + j_minus), -0.5j * (j_plus - j_minus)
    for j in (jx, jy, jz):
        j.setflags(write=False)
    return CollectiveSpinOps(n_spins, jx, jy, jz)


@dataclass(frozen=True, eq=False)
class SqueezingResult:
    xi2: float
    mean_spin: np.ndarray
    optimal_direction: np.ndarray
    degenerate_mean_spin: bool


def pure_moments(states: np.ndarray, operators) -> np.ndarray:
    """Expectation values <psi_t|O|psi_t> of each operator for a (d, T) array
    of pure states, one column per state: shape (len(operators), T)."""
    bra = states.conj()
    return np.array([np.einsum("dt,dt->t", bra, op @ states).real for op in operators])


def _spin_frame(moments: np.ndarray):
    """Mean spin (T, 3), covariance (T, 3, 3), the degenerate-mean-spin mask,
    and two unit vectors (T, 3) spanning the plane perpendicular to the mean
    spin, from a (9, T) array of moment values."""
    moments = np.asarray(moments, dtype=float)
    mean = moments[:3].T  # (T, 3)
    sxx, syy, szz, sxy, sxz, syz = moments[3:]
    t = mean.shape[0]
    gamma = np.empty((t, 3, 3))
    gamma[:, 0, 0], gamma[:, 1, 1], gamma[:, 2, 2] = sxx, syy, szz
    gamma[:, 0, 1] = gamma[:, 1, 0] = sxy
    gamma[:, 0, 2] = gamma[:, 2, 0] = sxz
    gamma[:, 1, 2] = gamma[:, 2, 1] = syz
    gamma -= mean[:, :, None] * mean[:, None, :]

    norm = np.linalg.norm(mean, axis=1)
    degenerate = norm < DEGENERATE_MEAN_SPIN_TOL
    safe = np.where(degenerate, 1.0, norm)
    unit = mean / safe[:, None]

    # Seed with the coordinate axis least aligned with the mean spin.
    e = np.zeros((t, 3))
    e[np.arange(t), np.argmin(np.abs(unit), axis=1)] = 1.0
    v1 = e - np.sum(e * unit, axis=1)[:, None] * unit
    v1 /= np.linalg.norm(v1, axis=1)[:, None]
    # unit x v1 by components: np.cross's own formula, without its overhead
    v2 = np.empty((t, 3))
    v2[:, 0] = unit[:, 1] * v1[:, 2] - unit[:, 2] * v1[:, 1]
    v2[:, 1] = unit[:, 2] * v1[:, 0] - unit[:, 0] * v1[:, 2]
    v2[:, 2] = unit[:, 0] * v1[:, 1] - unit[:, 1] * v1[:, 0]
    return mean, gamma, degenerate, v1, v2


def squeezing_parameter(state, ops: CollectiveSpinOps) -> SqueezingResult:
    """Kitagawa-Ueda squeezing parameter with exact direction minimization.

    Accepts a DensityMatrix, a PureState, or the corresponding raw arrays,
    on the same register as ``ops``. The optimal direction is the lowest
    eigenvector of the covariance projected on the plane perpendicular to
    the mean spin, or on all of space when there is no mean spin.
    """
    if isinstance(state, PureState):
        state = state.amplitudes
    elif isinstance(state, DensityMatrix):
        state = state.matrix
    state = np.asarray(state)
    if state.shape[0] != ops.dim:
        raise DimensionMismatchError("state and spin operators live on different registers")
    if state.ndim == 1:
        moments = pure_moments(state[:, None], ops.moment_operators)
    else:
        moments = np.array([[np.vdot(state, op).real] for op in ops.moment_operators])
    xi2, degenerate = xi2_from_moment_arrays(moments, ops.n_spins)
    mean, gamma, _, v1, v2 = _spin_frame(moments)
    frame = np.eye(3) if degenerate[0] else np.column_stack([v1[0], v2[0]])
    _, v = qcore.hermitian_eigen(frame.T @ gamma[0] @ frame)
    direction = frame @ v[:, -1].real  # a real symmetric input has real eigenvectors
    return SqueezingResult(float(xi2[0]), mean[0], direction / np.linalg.norm(direction), bool(degenerate[0]))


def xi2_from_moment_arrays(moments: np.ndarray, n_spins: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized squeezing parameter from a (9, T) array of moment values.

    Row order matches ``CollectiveSpinOps.moment_operators``. Returns the
    squeezing values and a mask of time points with degenerate mean spin.
    """
    _, gamma, degenerate, v1, v2 = _spin_frame(moments)

    g11 = np.einsum("ti,tij,tj->t", v1, gamma, v1)
    g22 = np.einsum("ti,tij,tj->t", v2, gamma, v2)
    g12 = np.einsum("ti,tij,tj->t", v1, gamma, v2)
    lam = 0.5 * (g11 + g22) - 0.5 * np.hypot(g11 - g22, 2.0 * g12)

    if degenerate.any():
        # no mean spin: the least covariance eigenvalue over all of space,
        # one eigensolver call for every such point
        lam[degenerate] = qcore.hermitian_eigenvalues(gamma[degenerate])[:, -1]

    return 4.0 * np.clip(lam, 0.0, None) / n_spins, degenerate
