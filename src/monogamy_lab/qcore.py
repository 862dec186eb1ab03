"""Dense simulation primitives for small qubit registers.

Conventions used throughout the package:

* Qubit 0 is the most significant bit of a basis-state label, so the basis
  index of ``|b0 b1 ... b_{n-1}>`` is ``sum(b_i << (n-1-i))``.
* ``|0>`` is spin-up (sigma_z eigenvalue +1); the all-spins-down state is the
  last computational basis state.
* All arrays are complex128; values are frozen after construction and safe
  to share across threads.
* ``symmetric_isometry(n)`` maps the (n+1)-dimensional permutation-symmetric
  (Dicke) subspace into the register; it is a 2^n array, so only the
  register-sized routes use it. Collective generators acting on the
  all-down state never leave sym(n), so callers form the generators there
  from spin-j matrices, evolve there, and embed back only when they need a
  register state. ``symmetric_split_isometry(n_a, n_b)`` splits
  sym(n_a+n_b) into sym(n_a) (x) sym(n_b), a local isometry that keeps cut
  negativities and purities, with no 2^n array.
* Eigensolves take two routes, with the same input checks, shapes and
  order: one matrix or a (..., d, d) stack, numpy's eigh shapes, descending
  order; a non-finite entry raises DomainError naming the stack member, and
  a non-Hermitian input ContractViolationError, before any solve. Either
  route solves a stack in one call and gives each member the bits it gets
  alone. This is the one place that says which stage uses which route.

  - ``lapack_eigen`` and ``lapack_eigenvalues`` are ``np.linalg.eigh`` and
    ``eigvalsh``, reversed. They take the spectra that no stored output
    pins: explore's stack of internal partial transposes and the two 4x4
    stacks of ``measures.concurrence``, the general-rank route. fig2's
    C_A1A2 takes no eigensolver: each Haar state's rho_A1A2 has rank 2,
    and ``measures._rank2_concurrence`` gives it in closed form from the
    amplitudes. The protocol's cut-negativity probes take singular values,
    one ``np.linalg.svd`` per local kind.
  - ``hermitian_eigen`` and ``hermitian_eigenvalues`` run the package's
    Jacobi solver (``_jacobi``, which holds the rotation mechanics). They
    take the protocol's 2^n entangler, its dense engine (sweep and refine),
    the degenerate 3x3 covariances of ``spin``, every sym(n) propagator,
    and fig2's 2x2 reduced states of qubit 2, which
    ``measures._two_level_concurrence`` forms from the amplitudes as an
    (N, 4, 2) coefficient stack. An input whose imaginary part is
    exactly zero is solved in real arithmetic (float64), with the bits of
    its complex solve: the OAT, TF and GHZ entanglers and engines, their
    sym(n) propagators and the covariances. TAT (Jx Jy + Jy Jx is
    imaginary) and fig2's spectra stay complex. The tolerance of a real
    solve is still taken from its complex128 input, because the row sums
    of squares behind it round by the layout they are read in: over the
    real part's unit-stride rows, OpenBLAS sums in another order than over
    the complex array's stride-2 rows (``_jacobi.row_norms``).

  Those stay on Jacobi for three measured reasons. (1) On rows where xi2_A
  is flat over the local time, the reported argmin_tp is set by the
  rounding of every stage upstream of it, and the benchmark's stored
  references pin it: the dense engine on LAPACK moves the warm 2+2 flat
  row's argmin_tp by 70.4, the degenerate 3x3 solves by 3.52, and an
  entangle through sym(n) or a closed form moves it too. Only the
  entangler alone passes on LAPACK. (2) But ``np.linalg.eigh`` gives
  different bits under one and two OpenBLAS threads from d = 256 (the
  8-qubit entangler; its Z-parity blocks from 9 qubits), so that swap
  would make the 4+4 outputs depend on the thread count. The two ways
  round it are closed too: eigh of the real symmetric 8-qubit OAT or TF
  entangler differs under the two settings as the complex one does, and
  LAPACK on the start state's Z-parity block alone (128x128 at 8 qubits,
  the same bits under both) moves the warm row's argmin_tp by 35.7
  through ``lapack_eigen`` and the propagator's own products (by 7.54
  with ascending eigh order). (3) On LAPACK the
  appendix-b OAT study's xi2_A at size 40 lies 2.2e-11 from its closed
  form, against a 1e-11 bound. fig2's 2x2 spectra are about a tenth of its
  Jacobi time, and keep its C_AB and bound columns bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._jacobi import jacobi_eigh
from .errors import (
    ContractViolationError,
    DimensionMismatchError,
    DomainError,
    InvalidPartitionError,
    check_count,
    is_integer,
)

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
EIGEN_INPUT_TOL = 1e-10
SPECTRUM_SUM_TOL = 1e-10

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized amplitude vector over an n-qubit register."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = check_count("n_qubits", self.n_qubits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amps.size != 2**n:
            raise DimensionMismatchError(f"expected {2**n} amplitudes, got {amps.size}")
        nrm = np.linalg.norm(amps)
        if not abs(nrm - 1.0) <= NORM_TOL:  # NaN fails too
            raise ContractViolationError(f"state norm {nrm!r} deviates from 1")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", _freeze(amps.copy()))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, positive-semidefinite, trace-one operator on a register."""

    n_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        n = check_count("n_qubits", self.n_qubits)
        m = np.asarray(self.matrix, dtype=np.complex128)
        d = 2**n
        if m.shape != (d, d):
            raise DimensionMismatchError(f"expected a {d}x{d} matrix, got {m.shape}")
        check_density(m)
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "matrix", _freeze(m.copy()))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def check_density(m: np.ndarray) -> None:
    """Raise DimensionMismatchError unless the complex array m is non-empty and square, and
    ContractViolationError unless it is Hermitian, of trace 1 and PSD (HERMITICITY_TOL, TRACE_TOL, PSD_TOL)."""
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise DimensionMismatchError(f"expected a non-empty square matrix, got shape {m.shape}")
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
        raise ContractViolationError("density matrix is not Hermitian")
    if abs((tr := np.trace(m).real) - 1.0) > TRACE_TOL:
        raise ContractViolationError(f"trace {tr!r} deviates from 1")
    if (least := hermitian_eigenvalues(m)[-1]) < -PSD_TOL:
        raise ContractViolationError(f"negative eigenvalue {least!r}")


@dataclass(frozen=True)
class Partition:
    """Split of a register into two disjoint, covering, non-empty subsets."""

    qubits_a: tuple[int, ...]
    qubits_b: tuple[int, ...]

    def __post_init__(self):
        qa, qb = tuple(self.qubits_a), tuple(self.qubits_b)
        if not all(map(is_integer, qa + qb)):
            raise InvalidPartitionError(f"qubit indices must be integers, got {qa}|{qb}")
        qa, qb = tuple(map(int, qa)), tuple(map(int, qb))
        if not qa or not qb:
            raise InvalidPartitionError("both sides of a partition must be non-empty")
        if len(set(qa)) != len(qa) or len(set(qb)) != len(qb) or set(qa) & set(qb):
            raise InvalidPartitionError("partition sides must be disjoint index lists")
        if min(qa + qb) < 0:
            raise InvalidPartitionError("negative qubit index")
        object.__setattr__(self, "qubits_a", qa)
        object.__setattr__(self, "qubits_b", qb)

    def check_register(self, n_qubits: int) -> None:
        if set(self.qubits_a) | set(self.qubits_b) != set(range(n_qubits)):
            raise InvalidPartitionError(
                f"partition {self.qubits_a}|{self.qubits_b} does not cover a "
                f"{n_qubits}-qubit register"
            )


def half_partition(n_qubits: int) -> Partition:
    """First-half / second-half split of a register."""
    n_qubits = check_count("n_qubits", n_qubits)
    if n_qubits < 2:
        raise InvalidPartitionError("need at least two qubits to bipartition")
    k = n_qubits // 2
    return Partition(tuple(range(k)), tuple(range(k, n_qubits)))


def all_down_state(n_qubits: int) -> PureState:
    """Product state with every spin down (|1...1> in our convention)."""
    n_qubits = check_count("n_qubits", n_qubits)
    amps = np.zeros(2**n_qubits, dtype=np.complex128)
    amps[-1] = 1.0  # the last basis state
    return PureState(n_qubits, amps)


def symmetric_isometry(n_qubits: int) -> np.ndarray:
    """Real (2^n, n+1) isometry onto the permutation-symmetric (Dicke) states.

    Column k is the normalised sum of the basis states with k ones (k spins
    down), so column 0 is the all-up and column n the all-down state.
    """
    n_qubits = check_count("n_qubits", n_qubits)
    idx = np.arange(2**n_qubits)
    ones = sum((idx >> q) & 1 for q in range(n_qubits))
    iso = np.zeros((idx.size, n_qubits + 1))
    iso[idx, ones] = 1.0 / np.sqrt([math.comb(n_qubits, int(k)) for k in ones])
    return iso


def symmetric_split_isometry(n_a: int, n_b: int) -> np.ndarray:
    """Real ((n_a+1)(n_b+1), n_a+n_b+1) isometry from sym(n_a+n_b) into
    sym(n_a) (x) sym(n_b), with row index k_a (n_b+1) + k_b.

    Column k splits the Dicke state with k spins down as
    sum_{k_a+k_b=k} sqrt(C(n_a,k_a) C(n_b,k_b) / C(n,k)) |k_a>|k_b>, so it
    equals kron(symmetric_isometry(n_a), symmetric_isometry(n_b)).T @
    symmetric_isometry(n_a + n_b).
    """
    n_a, n_b = check_count("n_a", n_a), check_count("n_b", n_b)
    n = n_a + n_b
    emb = np.zeros((n_a + 1, n_b + 1, n + 1))
    for k_a in range(n_a + 1):
        for k_b in range(n_b + 1):
            k = k_a + k_b
            emb[k_a, k_b, k] = math.sqrt(math.comb(n_a, k_a) * math.comb(n_b, k_b) / math.comb(n, k))
    return emb.reshape(-1, n + 1)


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Compose two registers; a's qubits become the lower (leading) indices."""
    return PureState(a.n_qubits + b.n_qubits, np.kron(a.amplitudes, b.amplitudes))


def dm_from_pure(state: PureState) -> DensityMatrix:
    amps = state.amplitudes
    return DensityMatrix(state.n_qubits, np.outer(amps, amps.conj()))


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=np.complex128)


def partial_trace_matrix(matrix: np.ndarray, n_qubits: int, keep: tuple[int, ...]) -> np.ndarray:
    """Trace out every qubit not in ``keep``; output basis follows keep's order."""
    other = tuple(i for i in range(n_qubits) if i not in keep)
    t = matrix.reshape((2,) * (2 * n_qubits))
    perm = [*keep, *other, *(n_qubits + i for i in keep), *(n_qubits + i for i in other)]
    t = t.transpose(perm)
    dk, do = 2 ** len(keep), 2 ** len(other)
    t = t.reshape(dk, do, dk, do)
    return np.einsum("ijkj->ik", t)


def reduced_state_matrix(state: PureState | np.ndarray, n_qubits: int, keep: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix of a pure state, without forming the full matrix.

    ``state`` may also be a (..., d) stack of amplitude vectors; the result
    is then the (..., d_keep, d_keep) stack of their reduced matrices.
    """
    amps = state.amplitudes if isinstance(state, PureState) else np.asarray(state)
    lead = amps.shape[:-1]
    k = len(lead)
    other = tuple(i for i in range(n_qubits) if i not in keep)
    t = amps.reshape(*lead, *(2,) * n_qubits)
    t = t.transpose([*range(k), *(k + i for i in keep), *(k + i for i in other)])
    x = t.reshape(*lead, 2 ** len(keep), 2 ** len(other))
    return x @ x.conj().swapaxes(-1, -2)


def partial_trace(rho: DensityMatrix, p: Partition) -> DensityMatrix:
    """Reduced density matrix of side A (``Partition(b, a)`` for side B)."""
    p.check_register(rho.n_qubits)
    out = partial_trace_matrix(rho.matrix, rho.n_qubits, p.qubits_a)
    return DensityMatrix(len(p.qubits_a), out)


def partial_transpose_matrix(matrix: np.ndarray, n_qubits: int, subset: tuple[int, ...]) -> np.ndarray:
    t = matrix.reshape((2,) * (2 * n_qubits))
    axes = list(range(2 * n_qubits))
    for i in subset:
        axes[i], axes[n_qubits + i] = axes[n_qubits + i], axes[i]
    d = 2**n_qubits
    return np.ascontiguousarray(t.transpose(axes).reshape(d, d))


def partial_transpose(rho: DensityMatrix, p: Partition) -> np.ndarray:
    """Transpose side A's indices (``Partition(b, a)`` for side B, the full
    transpose of this); Hermitian but possibly indefinite."""
    p.check_register(rho.n_qubits)
    return partial_transpose_matrix(rho.matrix, rho.n_qubits, p.qubits_a)


def _hermitian_input(matrix) -> np.ndarray:
    """The matrix, or (..., d, d) stack, as a complex array, checked
    non-empty, square, finite and Hermitian."""
    m = _as_matrix(matrix)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.size == 0:
        raise DimensionMismatchError(f"expected a non-empty square matrix or stack of them, got shape {m.shape}")
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        where = f" (stack member {_first_index(~finite)})" if m.ndim > 2 else ""
        raise DomainError(f"matrix has a non-finite entry{where}")
    if not np.max(np.abs(m - m.conj().swapaxes(-1, -2))) <= EIGEN_INPUT_TOL:
        raise ContractViolationError("matrix is not Hermitian within 1e-10")
    return m


def _first_index(mask: np.ndarray):
    """Index of the first True entry of a boolean array: an int for a 1-D
    mask, a tuple otherwise."""
    i = np.unravel_index(int(np.flatnonzero(mask)[0]), mask.shape)
    return int(i[0]) if mask.ndim == 1 else tuple(int(j) for j in i)


def hermitian_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvectors of a Hermitian
    matrix, or of each member of a (..., d, d) stack: shapes (..., d) and
    (..., d, d), eigenvectors as columns, as numpy's eigh but descending.
    A stack is one solver call; each member gets the bits it gets alone,
    from the same tolerance, under any BLAS thread count."""
    return jacobi_eigh(_hermitian_input(matrix), compute_vectors=True)


def hermitian_eigenvalues(matrix) -> np.ndarray:
    """Descending eigenvalues only (same solver, no eigenvector accumulation),
    shape (..., d) for a (..., d, d) stack."""
    w, _ = jacobi_eigh(_hermitian_input(matrix), compute_vectors=False)
    return w


def lapack_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """`hermitian_eigen` by LAPACK (``np.linalg.eigh``), with the same input
    checks, shapes and descending order. A stack is one call; each member
    gets the bits of its own one-matrix solve."""
    w, v = np.linalg.eigh(_hermitian_input(matrix))
    return w[..., ::-1], v[..., ::-1]


def lapack_eigenvalues(matrix) -> np.ndarray:
    """`hermitian_eigenvalues` by LAPACK (``np.linalg.eigvalsh``), descending."""
    return np.linalg.eigvalsh(_hermitian_input(matrix))[..., ::-1]


class SpectralPropagator:
    """Time evolution exp(-i H t) through one cached eigendecomposition of H."""

    def __init__(self, hamiltonian: np.ndarray):
        m = _as_matrix(hamiltonian)
        self.eigenvalues, self.eigenvectors = hermitian_eigen(m)
        self._vh = np.ascontiguousarray(self.eigenvectors.conj().T)

    def check_times(self, t) -> None:
        """Raise DomainError when a time t makes a phase w t, so exp(-i w t), non-finite."""
        size = float(np.max(np.abs(t), initial=0.0))  # NaN if t holds a NaN
        if not math.isfinite(size * float(np.max(np.abs(self.eigenvalues)))):
            raise DomainError(f"time |t| = {size!r} makes a phase w*t non-finite")

    def apply(self, amplitudes: np.ndarray, t) -> np.ndarray:
        """The evolved state at time t, or a (d, T) array with one column per
        time when t is an array of T times."""
        self.check_times(t)
        t = np.asarray(t)
        c = self._vh @ amplitudes
        phases = np.exp(-1j * np.multiply.outer(self.eigenvalues, t))  # (d,) or (d, T)
        return self.eigenvectors @ (phases * (c[:, None] if t.ndim else c))

    def unitary(self, t: float) -> np.ndarray:
        return (self.eigenvectors * np.exp(-1j * self.eigenvalues * t)) @ self._vh


def evolve(state: PureState, hamiltonian: np.ndarray, t: float) -> PureState:
    """Evolve a pure state under a Hermitian generator for time t (hbar = 1)."""
    m = _as_matrix(hamiltonian)
    if m.shape[0] != state.dim:
        raise DimensionMismatchError(
            f"Hamiltonian dimension {m.shape[0]} does not match state dimension {state.dim}"
        )
    out = SpectralPropagator(m).apply(state.amplitudes, t)
    return PureState(state.n_qubits, out)


def pauli_product(op: np.ndarray, n_qubits: int) -> np.ndarray:
    """The one-qubit operator op on every qubit of an n-qubit register: its
    n-fold Kronecker power."""
    out = np.array([[1.0 + 0j]])
    for _ in range(n_qubits):
        out = np.kron(out, op)
    return out


def apply_local_unitary(
    amplitudes: np.ndarray, unitary: np.ndarray, n_qubits: int, subset: tuple[int, ...]
) -> np.ndarray:
    """Apply a unitary acting on a qubit subset to a full-register state vector.

    Equivalent to multiplying by U embedded with identities, computed by
    grouping the subset axes together.
    """
    subset = tuple(subset)
    other = tuple(i for i in range(n_qubits) if i not in subset)
    t = amplitudes.reshape((2,) * n_qubits).transpose([*subset, *other])
    x = t.reshape(2 ** len(subset), 2 ** len(other))
    y = unitary @ x
    t = y.reshape((2,) * n_qubits)
    inv = np.argsort([*subset, *other])
    return np.ascontiguousarray(t.transpose(inv).reshape(-1))
