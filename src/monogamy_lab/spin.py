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
    register: each J is half the sum of one Pauli matrix over the qubits.

    Formed by index arithmetic: sigma_x and sigma_y on qubit q map basis
    state b to b with q's bit flipped (``qcore``'s bit order), by 1 and by
    +i from spin up or -i from spin down, and sigma_z keeps b with the sign
    of q's spin. Every zero is +0, as in the sum of Kronecker embeddings."""
    n_spins = check_count("n_spins", n_spins)
    dim = 2**n_spins
    idx = np.arange(dim)
    jx = np.zeros((dim, dim), dtype=np.complex128)
    jy = np.zeros((dim, dim), dtype=np.complex128)
    down = np.zeros(dim)  # spins down in each basis state
    for q in range(n_spins):
        bit = 1 << (n_spins - 1 - q)
        is_down = (idx & bit) != 0
        jx.real[idx ^ bit, idx] = 0.5
        jy.imag[idx ^ bit, idx] = np.where(is_down, -0.5, 0.5)
        down += is_down
    jz = np.diag(0.5 * (n_spins - 2.0 * down)).astype(np.complex128)
    for j in (jx, jy, jz):
        j.setflags(write=False)
    return CollectiveSpinOps(n_spins, jx, jy, jz)


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


# (i, j) -> the row of a (9, T) moment array that holds <S_ij>
_SECOND_MOMENT_ROWS = np.array([[3, 6, 7], [6, 4, 8], [7, 8, 5]])
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])  # components i+1 and i+2 of a cross product
_AXES = np.eye(3)
# the frame vectors v and w of the quadratic forms v^T gamma w that xi2 needs:
# (v1, v1), (v2, v2) and (v1, v2)
_FORM_V, _FORM_W = np.array([0, 1, 0]), np.array([0, 1, 1])


def _norm(v):
    """``np.linalg.norm`` over the components of a (3, T) array of rows:
    sqrt((x^2 + y^2) + z^2), summed in the norm's own order."""
    sq = v * v
    return np.sqrt((sq[0] + sq[1]) + sq[2])


def _spin_frame(moments: np.ndarray):
    """Mean spin (3, T), covariance (3, 3, T), the degenerate-mean-spin mask,
    and the frame (3, 2, T): two unit vectors v1 = frame[:, 0] and v2 =
    frame[:, 1] spanning the plane perpendicular to the mean spin, from a
    (9, T) array of moment values. Each is held by component, as (T,) rows,
    so that every step is a ufunc call over whole rows."""
    moments = np.asarray(moments, dtype=float)
    mean = moments[:3]
    gamma = moments[_SECOND_MOMENT_ROWS] - mean[:, None] * mean[None, :]

    norm = _norm(mean)
    degenerate = norm < DEGENERATE_MEAN_SPIN_TOL
    unit = mean / np.where(degenerate, 1.0, norm)

    # Seed with the coordinate axis least aligned with the mean spin.
    e = _AXES[:, np.argmin(np.abs(unit), axis=0)]
    along = e * unit  # one term can be nonzero, so any order of the sum gives its bits
    frame = np.empty((3, 2, mean.shape[1]))
    v1, v2 = frame[:, 0], frame[:, 1]
    np.subtract(e, ((along[0] + along[1]) + along[2]) * unit, out=v1)
    v1 /= _norm(v1)
    # unit x v1 by components: np.cross's own formula
    np.subtract(unit[_NEXT] * v1[_LAST], unit[_LAST] * v1[_NEXT], out=v2)
    return mean, gamma, degenerate, frame


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
    mean, gamma, _, frame = _spin_frame(moments)
    frame = np.eye(3) if degenerate[0] else frame[..., 0]
    _, v = qcore.hermitian_eigen(frame.T @ gamma[..., 0] @ frame)
    direction = frame @ v[:, -1].real  # a real symmetric input has real eigenvectors
    return SqueezingResult(float(xi2[0]), mean[:, 0], direction / np.linalg.norm(direction), bool(degenerate[0]))


def xi2_from_moment_arrays(moments: np.ndarray, n_spins: int) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized squeezing parameter from a (9, T) array of moment values.

    Row order matches ``CollectiveSpinOps.moment_operators``. Returns the
    squeezing values and a mask of time points with degenerate mean spin.
    """
    _, gamma, degenerate, frame = _spin_frame(moments)

    # v^T gamma w for (v, w) = (v1, v1), (v2, v2), (v1, v2), in einsum's
    # order: from 0, add (v_i gamma_ij) w_j with i outer and j inner
    v, w = frame[:, _FORM_V], frame[:, _FORM_W]  # (3, 3 forms, T)
    terms = v[:, None] * gamma[:, :, None]  # (3, 3, 3 forms, T): v_i gamma_ij
    terms *= w
    forms = np.zeros(v.shape[1:])
    for term in terms.reshape(9, *forms.shape):
        forms += term
    g11, g22, g12 = forms
    lam = 0.5 * (g11 + g22) - 0.5 * np.hypot(g11 - g22, 2.0 * g12)

    if degenerate.any():
        # no mean spin: the least covariance eigenvalue over all of space,
        # one eigensolver call for every such point
        lam[degenerate] = qcore.hermitian_eigenvalues(np.moveaxis(gamma[..., degenerate], -1, 0))[:, -1]

    return 4.0 * np.clip(lam, 0.0, None) / n_spins, degenerate
