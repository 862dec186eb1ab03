"""Two-stage squeezing protocol and its calibration machinery.

Stage one entangles subsystems A and B by evolving the all-spins-down state
under a register-wide Hamiltonian. Stage two evolves A alone and minimizes
the squeezing parameter of A over the local evolution time; the minimum is
calibrated against the A|B linear entropy so a squeezing measurement can be
inverted into an entanglement estimate. Both stages' generators have unit
coupling (`hamiltonians`), so the entangling time t and the local time t'
are in units of the inverse coupling.

The two stages are two functions. `entangle` runs everything that does not
depend on A's local kind, once over the whole t-grid, and returns a
`GridStage` that every kind shares. `sweep` runs stage two for one local
kind on its own tp grid and returns that kind's `ProtocolTrace`. It takes
the t-grid rows in blocks of REFINE_BLOCK_BYTES of moment products, a
size that keeps each block's arrays from raising the run's peak memory:
first each row's sweep over the tp grid, then one golden-section search
that refines every row of the block at once, one batched evaluation per
iteration. The cut-negativity probes then run once over all rows.
`run_protocol` and `run_protocol_multi` compose the two. A trace holds its
config; its metadata holds only what the run found: the worst negativity
drift, the p-state rows and the count of tp-grid points with degenerate
mean spin (an exploration trace's, its internal split).

Every run keeps two invariants. Local evolution cannot move entanglement
across the A|B cut: the cut negativity is probed at NEGATIVITY_PROBES local
times along each sweep and must stay constant to NEGATIVITY_DRIFT_TOL. And
the start state and every generator are symmetric under permutations of
the qubits, so psi(t) lies in the symmetric subspace sym(n) and A's state
in sym(A): the protocol projects psi(t) there once, failing loudly on any
weight outside, and explore takes A's state on sym(A). Only the protocol
holds 2^n arrays, capped by MAX_SUBSYSTEM_QUBITS per side; appendix-b and
explore by MAX_SYMMETRIC_QUBITS (and explore's A by MAX_EXPLORE_QUBITS).
Which eigensolver each stage uses, and why, is stated once in `qcore`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import measures, qcore, spin
from .errors import (
    ConfigError,
    ContractViolationError,
    DomainError,
    ExtrapolationError,
    ResourceCapError,
    UndefinedScoreError,
    check_count,
)
from .analytic import ghz_s_l_from_min_xi2
from .hamiltonians import HamiltonianKind, _as_kind, _build_symmetric, build
from .qcore import DensityMatrix, SpectralPropagator, all_down_state, half_partition

# Qubits per side, A or B, of the protocol, which holds 2^n arrays: its
# entangler and reduce, and A's dense engine. Two full sides make 2^10
# states, `_jacobi.MAX_DIM`, the largest matrix the entangler's Jacobi
# solve takes.
MAX_SUBSYSTEM_QUBITS = 5
# Size cap of the routes that hold only sym(n) (appendix-b, explore). Set
# from a time budget: appendix-b's 3 default kinds x 2001 steps take about
# 1.2 s at this size on a 2-core VM (0.4 s at 32, 3.1 s at 96).
MAX_SYMMETRIC_QUBITS = 64
# Qubits of A that the CLI's explore takes (2-core VM). Time: 2,001 tf steps
# take 3.7 s here, 1.4-2.7 s at 16. Thread independence: its sym(A_1) (x)
# sym(A_2) partial transposes are then 121x121, and LAPACK's eigvalsh gives
# the same bits under one and two OpenBLAS threads at 160x160, not at 192x192.
MAX_EXPLORE_QUBITS = 20
NEGATIVITY_DRIFT_TOL = 1e-9
# Width of the local-time bracket at which golden-section refinement stops.
REFINE_TOL = 1e-6
# Bytes of the (rows, 9, d_A^2) complex moment products that one refine
# block holds: 14 rows at n_A = 4, 227 at n_A = 2. Set from the 4+4 x 81
# tf sweep on a 2-core VM (one BLAS thread): its refine takes 0.21 s at one
# row per block, 0.036 s at this budget, 0.029 s at 28 rows and 0.025 s at
# all 81, while the protocol command's peak RSS reads 42.0 MB up to 28 rows
# and 48.5 MB at 81.
REFINE_BLOCK_BYTES = 512 * 1024
# S_L distance below which inversion candidates are one value.
MERGE_TOL = 1e-3
# Share of the observed S_L range above which calibration branches count as
# distinct when flagging nonmonotone rows (never below MERGE_TOL).
FLAG_REL = 0.05
# Gap up to which sorted calibration values share a rank. Rows equal by a
# symmetry of the dynamics differ by at most 2e-13 (min xi2_A) and 3.3e-15
# (S_L,AB) on the 8-qubit OAT-entangler fixture; every S_L gap there that
# is not such a pair is at least 2.3e-5.
RANK_TIE_TOL = 1e-12
# Cut-negativity probes per local sweep: evenly spaced grid times plus the
# refined minimum.
NEGATIVITY_PROBES = 3
_INVGOLD = (math.sqrt(5.0) - 1.0) / 2.0

P_STATE_TARGETS = {"p1": 0.1, "p2": 0.7, "p3": 0.7}
P_STATE_TOL = 0.005


def default_t_grid(h_ab_kind, steps: int = 401) -> np.ndarray:
    """Entangling-time grid covering one period of the register dynamics."""
    kind = _as_kind(h_ab_kind)
    hi = math.pi / 2 if kind is HamiltonianKind.GHZ else math.pi
    return np.linspace(0.0, hi, check_count("steps", steps))


def default_tp_grid(h_a_kind, steps: int = 2000) -> np.ndarray:
    """Local-time grid of a kind's sweep: [0, pi] for GHZ, [0, 100] otherwise.

    This is the one span rule of every local sweep: the protocol's tp grid
    (the CLI's), explore's and appendix-b's all come from here.

    The GHZ generator F, the flip of every spin, squares to 1, so
    U(t') = cos t' - i sin t' F and U(pi) = -1 is a global phase: [0, pi]
    holds every state the sweep can reach.
    """
    kind = _as_kind(h_a_kind)
    hi = math.pi if kind is HamiltonianKind.GHZ else 100.0
    return np.linspace(0.0, hi, check_count("steps", steps))


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    n_a: int
    n_b: int
    h_ab_kind: HamiltonianKind
    h_a_kind: HamiltonianKind
    t_grid: np.ndarray
    tp_grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h_ab_kind", _as_kind(self.h_ab_kind))
        object.__setattr__(self, "h_a_kind", _as_kind(self.h_a_kind))
        object.__setattr__(self, "n_a", check_count("n_a", self.n_a))
        object.__setattr__(self, "n_b", check_count("n_b", self.n_b))
        if max(self.n_a, self.n_b) > MAX_SUBSYSTEM_QUBITS:
            raise ResourceCapError(
                f"per-subsystem size is capped at {MAX_SUBSYSTEM_QUBITS} qubits"
            )
        for name in ("t_grid", "tp_grid"):
            grid = np.array(getattr(self, name), dtype=float)  # a copy: the caller's stays writable
            if grid.ndim != 1:
                raise ConfigError(f"{name} must be 1-D, got shape {grid.shape}")
            if grid.size == 0:
                raise ConfigError(f"{name} is empty")
            if not np.all(np.isfinite(grid)):
                raise ConfigError(f"{name} must be finite")
            if grid.size > 1 and not np.all(np.diff(grid) > 0):
                raise ConfigError(f"{name} must be strictly increasing")
            grid.setflags(write=False)
            object.__setattr__(self, name, grid)


@dataclass(frozen=True, eq=False)
class GridStage:
    """The protocol's stages that do not depend on the local kind, over the
    t-grid of ``config``: rho_A (T, 2^n_A, 2^n_A), the coefficient matrices
    C(t) on sym(A) (x) sym(B) (T, n_A+1, n_B+1), S_L,AB and xi2_AB (T,).
    ``stage_wall_s`` holds the seconds spent in the entangler's eigensolve
    and in the reduce to rho_A.

    It keeps no 2^n state stack, so holding it costs A-sized memory only.
    """

    config: ProtocolConfig
    rho_a: np.ndarray
    coeffs: np.ndarray
    s_l_ab: np.ndarray
    xi2_ab: np.ndarray
    stage_wall_s: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ProtocolTrace:
    config: ProtocolConfig
    t: np.ndarray
    s_l_ab: np.ndarray
    xi2_ab: np.ndarray
    min_xi2_a: np.ndarray
    argmin_tp: np.ndarray
    nonmonotone: np.ndarray
    negativity_drift: np.ndarray
    metadata: dict = field(default_factory=dict)
    stage_wall_s: dict = field(default_factory=dict)
    refine_points: int = 0

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True, eq=False)
class ExplorationTrace:
    tp: np.ndarray
    xi2_a: np.ndarray
    n_a: np.ndarray
    metadata: dict = field(default_factory=dict)
    stage_wall_s: dict = field(default_factory=dict)

    @property
    def min_xi2(self) -> float:
        return float(np.min(self.xi2_a))

    @property
    def max_n_a(self) -> float:
        return float(np.max(self.n_a))

    @property
    def n_a_at_min_xi2(self) -> float:
        return float(self.n_a[int(np.argmin(self.xi2_a))])


@dataclass(frozen=True, eq=False)
class AppendixBTrace:
    size: int
    h_a_kind: HamiltonianKind
    t: np.ndarray
    s_l_a: np.ndarray
    xi2_a: np.ndarray


@dataclass(frozen=True, eq=False)
class CalibrationCurve:
    """(min xi2_A, S_L,AB) pairs in trace order with monotone-run annotations.

    ``segments`` holds the maximal index runs over which x is monotone,
    computed from x. ``merge_tol`` is the S_L distance below which inversion
    candidates are treated as one value. x and y must be non-empty, finite
    1-D arrays of one length, and merge_tol must be >= 0; anything else
    raises ConfigError.
    """

    x: np.ndarray
    y: np.ndarray
    segments: tuple[tuple[int, int], ...] = field(init=False)
    merge_tol: float = MERGE_TOL
    ghz_exact: bool = False

    def __post_init__(self):
        x, y = np.asarray(self.x, dtype=float), np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1:
            raise ConfigError(f"calibration x and y must be 1-D, got shapes {x.shape} and {y.shape}")
        if x.size != y.size:
            raise ConfigError(f"calibration x has {x.size} points but y has {y.size}")
        if x.size == 0:
            raise ConfigError("empty calibration curve")
        for name, values in (("x", x), ("y", y)):
            if not np.all(np.isfinite(values)):
                raise ConfigError(f"calibration {name} has a non-finite value")
        if not self.merge_tol >= 0.0:  # NaN fails too
            raise ConfigError(f"merge_tol must be >= 0, got {self.merge_tol}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "segments", _monotone_segments(x))


@dataclass(frozen=True)
class InversionResult:
    candidates: tuple[float, ...]
    ambiguous: bool


# ---------------------------------------------------------------------------
# subsystem sweep engine


class _SubsystemEngine(SpectralPropagator):
    """Eigenbasis of A's local Hamiltonian, for sweeping the local evolution of
    A over one grid of local times.

    The caller passes the Hamiltonian matrix and the nine moment operators
    (in ``CollectiveSpinOps.moment_operators`` order) in one basis: the
    protocol passes the dense ones, explore their sym(A) restrictions.
    """

    def __init__(self, hamiltonian: np.ndarray, moment_operators, n_spins: int, tp: np.ndarray):
        super().__init__(hamiltonian)
        self.check_times(tp)
        self.n_spins = n_spins
        self.tp = tp
        self._tilde_t = np.array([self.to_eigenbasis(op).T for op in moment_operators])
        self._phase = np.exp(-1j * np.outer(self.eigenvalues, tp))
        self._phase_conj = self._phase.conj()

    def to_eigenbasis(self, rho: np.ndarray) -> np.ndarray:
        return self._vh @ rho @ self.eigenvectors

    def moment_products(self, rho_eig: np.ndarray) -> np.ndarray:
        """The (9, d, d) stack rho_jk O~_kj of rho (in the eigenbasis) with each
        moment operator, shared by the sweep and every refine evaluation; a
        (k, d, d) stack of rhos gives (k, 9, d, d)."""
        return rho_eig[..., None, :, :] * self._tilde_t

    def xi2_sweep(self, products: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Squeezing of A at every time of the engine's grid, via frequency
        decomposition.

        <O>(tau) = sum_jk rho_jk O~_kj exp(-i (w_j - w_k) tau), evaluated as
        two small matrix products per observable.
        """
        vals = np.empty((len(products), self.tp.size))
        for k, m in enumerate(products):
            vals[k] = np.einsum("jt,jt->t", self._phase, m @ self._phase_conj).real
        return spin.xi2_from_moment_arrays(vals, self.n_spins)

    def xi2_at(self, products: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """Squeezing of A for each row r of a (k, 9, d, d) stack of moment
        products at its own local time taus[r], in one
        `spin.xi2_from_moment_arrays` call: shape (k,)."""
        k, d = len(taus), self.eigenvalues.size
        e = np.exp(-1j * self.eigenvalues * taus[:, None])  # (k, d)
        phases = (e[:, :, None] * e.conj()[:, None, :]).reshape(k, 1, d * d)
        terms = products.reshape(k, 9, d * d) * phases
        xi2, _ = spin.xi2_from_moment_arrays(terms.sum(axis=2).real.T, self.n_spins)
        return xi2

    def densities(self, rho_eig: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """U(tau) rho U(tau)^dagger at each of the T times taus: shape (T, d, d)."""
        a = self.eigenvectors * np.exp(-1j * np.outer(taus, self.eigenvalues))[:, None, :]
        return a @ rho_eig @ a.conj().swapaxes(-1, -2)

    def restricted_unitaries(self, iso: np.ndarray, taus: np.ndarray) -> np.ndarray:
        """iso.T U(tau) iso for each time in the array taus, with U(tau) =
        exp(-i H tau) and iso a real isometry: shape (*taus.shape, k, k)."""
        w = iso.T @ self.eigenvectors
        return (w * np.exp(-1j * np.multiply.outer(taus, self.eigenvalues))[..., None, :]) @ w.conj().T


def _dense_engine(kind: HamiltonianKind, n_a: int, tp: np.ndarray) -> _SubsystemEngine:
    """The protocol's engine: A's Hamiltonian and moment operators on all 2^n_A states."""
    return _SubsystemEngine(build(kind, n_a), spin.collective_ops(n_a).moment_operators, n_a, tp)


def _evolve_all_down(kind, n: int, t) -> np.ndarray:
    """The n-qubit all-down state evolved under ``build(kind, n)``
    for time t, as its sym(n) amplitudes: shape (n+1,), or (n+1, T) for an
    array of T times. ``qcore.symmetric_isometry(n) @`` the result embeds
    it in the register.

    The generator is collective, so the state evolves in sym(n) under the
    generator formed there, ``hamiltonians._build_symmetric``.
    """
    start = np.zeros(n + 1, dtype=np.complex128)
    start[n] = 1.0  # all-down
    return SpectralPropagator(_build_symmetric(kind, n)).apply(start, t)


def _check_weight_inside(weight: np.ndarray) -> None:
    """Raise ContractViolationError when a weight inside a subspace (a
    restricted trace or squared norm) differs from 1 by more than TRACE_TOL."""
    worst = float(np.max(np.abs(weight - 1.0)))
    if not worst <= qcore.TRACE_TOL:  # NaN fails too
        raise ContractViolationError(
            f"restricted weight deviates from 1 by {worst:.3e}: weight outside the symmetric subspace"
        )


def _symmetric_amplitudes(psi: np.ndarray, iso: np.ndarray) -> np.ndarray:
    """A (..., d) stack of pure states restricted by the isometry iso, shape
    (..., k); weight outside the subspace raises ContractViolationError."""
    sym = psi @ iso
    _check_weight_inside(np.sum(np.abs(sym) ** 2, axis=-1))
    return sym


def _split_coefficients(psi_sym: np.ndarray, n_a: int, n_b: int) -> np.ndarray:
    """Coefficient matrices on sym(n_a) (x) sym(n_b) of a (T, n_a+n_b+1)
    stack of sym(n_a+n_b) amplitudes: shape (T, n_a+1, n_b+1)."""
    return (psi_sym @ qcore.symmetric_split_isometry(n_a, n_b).T).reshape(-1, n_a + 1, n_b + 1)


def _side_a_states(coeffs: np.ndarray) -> np.ndarray:
    """rho_A = C C^dagger on sym(n_a) of each C in a (T, n_a+1, n_b+1) stack."""
    return coeffs @ coeffs.conj().swapaxes(-1, -2)


def _cut_linear_entropy(coeffs: np.ndarray, n_a: int) -> np.ndarray:
    """Linear entropy of the n_a-qubit side of the pure states with a
    (T, n_a+1, n_b+1) stack of coefficient matrices C, from the purity of
    `_side_a_states`. The isometry into the register keeps the purity, and
    the rescaling uses A's qubit dimension 2^n_a."""
    return measures.linear_entropy_from_purity(measures.purity(_side_a_states(coeffs)), 2**n_a)


def _golden_rows(eng: _SubsystemEngine, products: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Golden-section search of each row's xi2 over its own bracket
    [lo[r], hi[r]], all rows at once: the rows' midpoints, the xi2 there,
    and the count of points evaluated.

    Each row keeps the scalar search's c/d formulas and its fc < fd branch,
    and stops once its bracket is no wider than REFINE_TOL, or no narrower
    than the iteration before: at local times whose ulp exceeds REFINE_TOL
    (about 4.5e9 and above) the bracket cannot shrink that far. Each
    iteration evaluates the live rows' new points in one
    `_SubsystemEngine.xi2_at` call.
    """
    a, b = lo.copy(), hi.copy()
    c = b - _INVGOLD * (b - a)
    d = a + _INVGOLD * (b - a)
    fc, fd = eng.xi2_at(products, c), eng.xi2_at(products, d)
    points = 2 * a.size
    live = np.flatnonzero((b - a) > REFINE_TOL)
    live_products = products
    while live.size:
        # Compact the live rows' products only when a row has finished: a
        # copy every iteration added 6 to 25 ms to the ~125 ms refine of a
        # study-8q `protocol` command.
        if live.size < len(live_products):
            live_products = products[live]
        left = fc[live] < fd[live]
        al = np.where(left, a[live], c[live])
        bl = np.where(left, d[live], b[live])
        tau = np.where(left, bl - _INVGOLD * (bl - al), al + _INVGOLD * (bl - al))
        f = eng.xi2_at(live_products, tau)
        points += live.size
        # left: b, d, fd = d, c, fc and c is new; right: a, c, fc = c, d, fd and d is new
        c[live], d[live] = np.where(left, tau, d[live]), np.where(left, c[live], tau)
        fc[live], fd[live] = np.where(left, f, fd[live]), np.where(left, fc[live], f)
        shrank = (bl - al) < (b[live] - a[live])
        a[live], b[live] = al, bl
        live = live[((bl - al) > REFINE_TOL) & shrank]
    x = 0.5 * (a + b)
    return x, eng.xi2_at(products, x), points + x.size


def _refine_rows(eng: _SubsystemEngine, products: np.ndarray, xi2_grids: np.ndarray,
                 tp: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Each row's grid minimum refined by golden-section search in its
    bracket, the grid points either side of its grid argmin: the rows'
    argmin times, their minima and the count of points evaluated.

    A row never gets a value above its grid minimum. A one-point tp grid
    leaves no bracket, so its rows keep their grid minima.
    """
    i = np.argmin(xi2_grids, axis=1)
    best_tau, best_val = tp[i], xi2_grids[np.arange(i.size), i]
    if tp.size == 1:
        return best_tau, best_val, 0
    lo, hi = tp[np.maximum(i - 1, 0)], tp[np.minimum(i + 1, tp.size - 1)]
    tau, val, points = _golden_rows(eng, products, lo, hi)
    win = val < best_val
    best_tau[win], best_val[win] = tau[win], val[win]
    return best_tau, best_val, points


def _negativity_drift(eng: _SubsystemEngine, coeffs: np.ndarray, tp: np.ndarray,
                      argmin_tp: np.ndarray) -> np.ndarray:
    """Spread of the cut negativity over each row's NEGATIVITY_PROBES probe
    times: the sweep start, evenly spaced interior grid points, then the
    row's refined minimum. The probes evolve C(t) with A's propagator
    restricted to sym(A) and read the negativity off its singular values."""
    n_rows, n_fixed = argmin_tp.size, NEGATIVITY_PROBES - 1
    fixed_probes = [float(tp[int(round(j * (tp.size - 1) / max(1, n_fixed)))]) for j in range(n_fixed)]
    taus = np.array([*(np.full(n_rows, tau) for tau in fixed_probes), argmin_tp])
    unitaries = eng.restricted_unitaries(qcore.symmetric_isometry(eng.n_spins), taus)
    negs = measures.negativity_from_coefficients(unitaries @ coeffs)
    return np.max(negs, axis=0) - np.min(negs, axis=0)


# ---------------------------------------------------------------------------
# protocol runs


def entangle(cfg: ProtocolConfig) -> GridStage:
    """Stage one over the whole t-grid: entangle, reduce to rho_A, and take
    C(t), S_L,AB and xi2_AB. ``cfg``'s local kind and tp grid are not used.

    Its stages: psi(t) for all T rows (dense, (2^n, T)); rho_A, one stacked
    `qcore.reduced_state_matrix` call, (T, 2^n_A, 2^n_A); psi(t) in sym(n),
    (T, n+1), whose spin-j moments give xi2_AB in one
    `spin.xi2_from_moment_arrays` call; and its coefficient matrices C(t)
    on sym(A) (x) sym(B), (T, n_A+1, n_B+1), whose purity C C^dagger gives
    S_L,AB. The sym(n) quantities differ from the dense route by about
    1e-15 at most.
    """
    n = cfg.n_a + cfg.n_b
    h = build(cfg.h_ab_kind, n)
    start = time.perf_counter()
    prop = SpectralPropagator(h)
    eigensolve = time.perf_counter() - start
    states = prop.apply(all_down_state(n).amplitudes, cfg.t_grid)  # (d, T)
    psi = np.ascontiguousarray(states.T)  # (T, d)
    start = time.perf_counter()
    rho_a = qcore.reduced_state_matrix(psi, n, tuple(range(cfg.n_a)))
    reduce = time.perf_counter() - start
    # psi(t) in sym(n), where xi2_AB takes its moments, and its coefficient
    # matrices C(t) on sym(A) (x) sym(B), which give S_L and which the probes
    # evolve.
    psi_sym = _symmetric_amplitudes(psi, qcore.symmetric_isometry(n))  # (T, n+1)
    moments = spin.pure_moments(psi_sym.T, spin.symmetric_ops(n).moment_operators)
    xi2_ab, _ = spin.xi2_from_moment_arrays(moments, n)
    coeffs = _split_coefficients(psi_sym, cfg.n_a, cfg.n_b)
    s_l_ab = _cut_linear_entropy(coeffs, cfg.n_a)
    return GridStage(config=cfg, rho_a=rho_a, coeffs=coeffs, s_l_ab=s_l_ab, xi2_ab=xi2_ab,
                     stage_wall_s={"eigensolve": eigensolve, "reduce": reduce})


def sweep(stage: GridStage, kind, tp_grid) -> ProtocolTrace:
    """Stage two for one local kind: sweep every row of ``stage`` over
    ``tp_grid``, refine each grid minimum, and probe the cut negativity.

    The rows run in blocks of at most REFINE_BLOCK_BYTES of moment products.
    Each block takes its rows to the engine's eigenbasis and forms their
    moment products as one stack; each row's grid sweep then runs alone, and
    one golden-section search refines every row of the block
    (`_refine_rows`). The probes then run once over all rows. The trace's
    ``stage_wall_s`` holds the seconds of the grid, refine and probe stages,
    ``refine_points`` the count of local times the refine evaluated, and its
    metadata's ``degenerate_points`` the count of tp-grid points whose mean
    spin is degenerate (`spin.xi2_from_moment_arrays`'s mask).

    The trace's config is ``stage.config`` with this kind and tp grid, so a
    bad grid raises ConfigError before any work is done.
    """
    cfg = replace(stage.config, h_a_kind=kind, tp_grid=tp_grid)
    tp = cfg.tp_grid
    n_rows = cfg.t_grid.size
    s_l = stage.s_l_ab
    # Built after entangle has freed its 2^n state stack, so that the
    # engine's (d_A, tp) phase matrices do not raise that stage's peak memory.
    eng = _dense_engine(cfg.h_a_kind, cfg.n_a, tp)
    d = eng.eigenvalues.size
    block = min(n_rows, max(1, REFINE_BLOCK_BYTES // (9 * d * d * 16)))
    min_xi2, argmin_tp = np.empty(n_rows), np.empty(n_rows)
    wall = {"grid": 0.0, "refine": 0.0, "probe": 0.0}
    refine_points = degenerate_points = 0
    for lo in range(0, n_rows, block):
        rows = slice(lo, lo + block)
        tick = time.perf_counter()
        products = eng.moment_products(eng.to_eigenbasis(stage.rho_a[rows]))
        grids, degenerate = zip(*map(eng.xi2_sweep, products))
        degenerate_points += int(np.count_nonzero(degenerate))
        tock = time.perf_counter()
        argmin_tp[rows], min_xi2[rows], points = _refine_rows(eng, products, np.array(grids), tp)
        refine_points += points
        del products  # else two blocks' products are held as the next one is built
        wall["grid"] += tock - tick
        wall["refine"] += time.perf_counter() - tock
    tick = time.perf_counter()
    drift = _negativity_drift(eng, stage.coeffs, tp, argmin_tp)
    wall["probe"] = time.perf_counter() - tick
    worst = float(np.max(drift))
    if not worst <= NEGATIVITY_DRIFT_TOL:  # NaN fails too
        raise ContractViolationError(
            f"cut negativity drifted by {worst:.3e} along a local sweep"
        )
    flags = _nonmonotone_flags(min_xi2, s_l, _flag_threshold(s_l))
    return ProtocolTrace(
        config=cfg,
        t=cfg.t_grid.copy(),
        s_l_ab=s_l.copy(),
        xi2_ab=stage.xi2_ab.copy(),
        min_xi2_a=min_xi2,
        argmin_tp=argmin_tp,
        nonmonotone=flags,
        negativity_drift=drift,
        metadata={
            "max_negativity_drift": worst,
            "p_states": _select_p_states(s_l, flags, cfg.t_grid),
            "degenerate_points": degenerate_points,
        },
        stage_wall_s=wall,
        refine_points=refine_points,
    )


def run_protocol_multi(cfg: ProtocolConfig, ha_kinds) -> dict[HamiltonianKind, ProtocolTrace]:
    """One ``entangle`` shared by a ``sweep`` per local kind, each on
    ``cfg.tp_grid``; repeated kinds run once, in first-seen order."""
    stage = entangle(cfg)
    return {kind: sweep(stage, kind, cfg.tp_grid) for kind in dict.fromkeys(map(_as_kind, ha_kinds))}


def run_protocol(cfg: ProtocolConfig) -> ProtocolTrace:
    """Entangle, sweep the local evolution of A, and record the calibration data."""
    return sweep(entangle(cfg), cfg.h_a_kind, cfg.tp_grid)


def _select_p_states(s_l: np.ndarray, flags: np.ndarray, t: np.ndarray) -> dict:
    """Named reference rows: p1 near S_L=0.1; p2 first unflagged and p3 last
    flagged row near S_L=0.7."""
    out: dict[str, dict | None] = {}
    near = lambda target: np.abs(s_l - target) <= P_STATE_TOL

    def entry(indices) -> dict | None:
        if len(indices) == 0:
            return None
        i = int(indices[0])
        return {"index": i, "t": float(t[i]), "s_l_ab": float(s_l[i])}

    out["p1"] = entry(np.flatnonzero(near(P_STATE_TARGETS["p1"])))
    out["p2"] = entry(np.flatnonzero(near(P_STATE_TARGETS["p2"]) & ~flags))
    idx3 = np.flatnonzero(near(P_STATE_TARGETS["p3"]) & flags)
    out["p3"] = entry(idx3[::-1])
    return out


def state_at(cfg: ProtocolConfig, t: float) -> qcore.PureState:
    """Register state after the entangling stage at time t, evolved in sym(n)
    under `hamiltonians._build_symmetric` and embedded in the register."""
    n = cfg.n_a + cfg.n_b
    return qcore.PureState(n, qcore.symmetric_isometry(n) @ _evolve_all_down(cfg.h_ab_kind, n, t))


def reduced_a_at(cfg: ProtocolConfig, t: float) -> DensityMatrix:
    """Reduced state of subsystem A after the entangling stage at time t."""
    psi = state_at(cfg, t)
    rho = qcore.reduced_state_matrix(psi, cfg.n_a + cfg.n_b, tuple(range(cfg.n_a)))
    return DensityMatrix(cfg.n_a, rho)


# ---------------------------------------------------------------------------
# calibration, inversion, scoring


def _monotone_segments(x: np.ndarray) -> tuple[tuple[int, int], ...]:
    """Maximal index runs over which x is monotone (flats join the current run)."""
    m = x.size
    sign = np.sign(np.diff(x))
    nonzero = np.flatnonzero(sign)
    if nonzero.size == 0:
        return ((0, m - 1),)
    # Each flat step takes the sign of the last real step before it; leading
    # flats take the first real direction.
    last = np.maximum(np.searchsorted(nonzero, np.arange(sign.size), side="right") - 1, 0)
    cuts = (np.flatnonzero(np.diff(sign[nonzero[last]])) + 1).tolist()
    return tuple(zip([0, *cuts], [*cuts, m - 1]))


def _candidates(curve: CalibrationCurve, xq: np.ndarray) -> np.ndarray:
    """S_L read off each monotone run of the curve at each query x: shape
    (runs, queries), NaN where a query lies outside a run's x range."""
    out = np.full((len(curve.segments), xq.size), np.nan)
    for r, (lo, hi) in enumerate(curve.segments):
        xs, ys = curve.x[lo : hi + 1], curve.y[lo : hi + 1]
        if xs[0] > xs[-1]:
            xs, ys = xs[::-1], ys[::-1]
        inside = (xq >= xs[0]) & (xq <= xs[-1])
        out[r, inside] = np.interp(xq[inside], xs, ys)
    return out


def _merge_close(values: np.ndarray, tol: float) -> list[float]:
    """Mean of each cluster of sorted values whose neighbours lie within tol."""
    values = np.sort(values)
    return [float(np.mean(c)) for c in np.split(values, np.flatnonzero(np.diff(values) > tol) + 1)]


def calibration(trace: ProtocolTrace) -> CalibrationCurve:
    """Calibration map from the trace, split into monotone runs of min xi2_A."""
    if len(trace) == 0:
        raise ConfigError("empty trace")
    x = trace.min_xi2_a
    y = trace.s_l_ab
    ghz_exact = (
        trace.config.h_ab_kind is HamiltonianKind.GHZ
        and trace.config.h_a_kind is HamiltonianKind.GHZ
    )
    return CalibrationCurve(x=x, y=y, ghz_exact=ghz_exact)


def _flag_threshold(s_l: np.ndarray) -> float:
    """Absolute S_L disagreement above which calibration branches count as
    distinct: FLAG_REL times the observed S_L range, at least MERGE_TOL."""
    span = float(np.max(s_l) - np.min(s_l))
    return max(FLAG_REL * span, MERGE_TOL)


def _nonmonotone_flags(x: np.ndarray, y: np.ndarray, threshold: float) -> np.ndarray:
    """Flag rows whose min xi2_A maps to materially different S_L values
    on other monotone runs (the broken one-to-one window)."""
    cands = _candidates(CalibrationCurve(x=x, y=y), x)
    return np.nanmax(cands, axis=0) - np.nanmin(cands, axis=0) > threshold


def invert(curve: CalibrationCurve, measured_min_xi2: float) -> InversionResult:
    """Estimate S_L,AB from a measured minimal squeezing value.

    Returns all candidate values when the measurement falls in a region
    where the calibration map is not one-to-one, with the ambiguity flag set.
    A NaN or infinite measurement raises DomainError.
    """
    if not math.isfinite(measured_min_xi2):
        raise DomainError(f"measured value {measured_min_xi2} is not finite")
    xmin, xmax = float(np.min(curve.x)), float(np.max(curve.x))
    slack = 1e-9
    if not xmin - slack <= measured_min_xi2 <= xmax + slack:
        raise ExtrapolationError(
            f"measured value {measured_min_xi2} outside observed range [{xmin}, {xmax}]"
        )
    xq = min(max(measured_min_xi2, xmin), xmax)
    if curve.ghz_exact:
        return InversionResult((float(ghz_s_l_from_min_xi2(xq)),), False)
    found = _candidates(curve, np.array([xq]))[:, 0]
    cands = _merge_close(found[~np.isnan(found)], curve.merge_tol)
    return InversionResult(tuple(cands), len(cands) > 1)


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of a; each run of sorted values whose gaps to the next
    are at most RANK_TIE_TOL is one tie and shares the mean of its ranks."""
    order = np.argsort(a, kind="stable")
    starts = np.flatnonzero(np.diff(a[order], prepend=-np.inf) > RANK_TIE_TOL)
    counts = np.diff(starts, append=a.size)
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(starts + 0.5 * (counts - 1) + 1.0, counts)
    return ranks


def monotonicity_score(curve: CalibrationCurve) -> float:
    """Spearman rank correlation between min xi2_A and S_L,AB over the trace.

    Values within RANK_TIE_TOL of each other tie and share the mean of their
    ranks, so rows that are equal by symmetry (such as t and pi - t under
    the OAT entangler) tie however their last bits round.
    """
    if curve.x.size < 3:
        raise UndefinedScoreError("need at least three points")
    rx = _average_ranks(curve.x)
    ry = _average_ranks(curve.y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    sx = float(np.sqrt(np.sum(rx * rx)))
    sy = float(np.sqrt(np.sum(ry * ry)))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedScoreError("rank correlation undefined for constant input")
    return float(np.dot(rx, ry) / (sx * sy))


# ---------------------------------------------------------------------------
# measure-versus-squeezing exploration (mixed initial states of A)


def explore_measure_vs_squeezing(rho_a_sym: np.ndarray, h_a_kind, steps: int = 2001) -> ExplorationTrace:
    """Trajectory of (squeezing, internal negativity) for subsystem A.

    A is evolved under the chosen local Hamiltonian over the kind's
    `default_tp_grid` of ``steps`` points; at each time the
    squeezing parameter and the normalized negativity across the internal
    split `half_partition(n)` (first half versus second half, the smaller
    half first for odd n) are recorded.

    The input is n-qubit A's (n+1, n+1) density matrix on sym(A), in the
    basis of `qcore.symmetric_isometry`, such as C C^dagger of a protocol
    state's coefficient matrix C; `qcore.check_density` refuses anything
    else first. The sweep runs on sym(A), with A's generator and moment
    operators formed there, and each negativity comes from the partial
    transpose on sym(A_1) (x) sym(A_2) given by
    `qcore.symmetric_split_isometry`, a local isometric image of the qubit
    one with the same negativity; all steps' transposes form one stack. No
    2^n array is held. The trace's ``stage_wall_s`` holds the seconds of
    the squeezing sweep and of the negativity spectra.
    """
    tick = time.perf_counter()
    rho_sym = np.asarray(rho_a_sym, dtype=np.complex128)
    qcore.check_density(rho_sym)
    kind = _as_kind(h_a_kind)
    tp = default_tp_grid(kind, steps)
    n = rho_sym.shape[0] - 1
    split = half_partition(n)
    eng = _SubsystemEngine(_build_symmetric(kind, n), spin.symmetric_ops(n).moment_operators, n, tp)
    rho_eig = eng.to_eigenbasis(rho_sym)
    xi2, _ = eng.xi2_sweep(eng.moment_products(rho_eig))
    tock = time.perf_counter()
    # A symmetric state depends on the split only through its side sizes.
    n_1, n_2 = len(split.qubits_a), len(split.qubits_b)
    emb = qcore.symmetric_split_isometry(n_1, n_2)
    d = emb.shape[0]
    rho_12 = emb @ eng.densities(rho_eig, tp) @ emb.T  # (steps, d, d)
    pt = rho_12.reshape(-1, n_1 + 1, n_2 + 1, n_1 + 1, n_2 + 1).transpose(0, 3, 2, 1, 4).reshape(-1, d, d)
    neg = measures._negative_sum(qcore.lapack_eigenvalues(pt))
    n_a = measures._clip01(neg / measures._normalization(split))
    return ExplorationTrace(
        tp=tp,
        xi2_a=xi2,
        n_a=n_a,
        metadata={"split": {"a": list(split.qubits_a), "b": list(split.qubits_b)}},
        stage_wall_s={"sweep": tock - tick, "negativity": time.perf_counter() - tock},
    )


# ---------------------------------------------------------------------------
# pure-state study of the local Hamiltonian choice


def appendix_b_study(
    sizes=(2, 4, 6, 8),
    h_a_kinds=(HamiltonianKind.OAT, HamiltonianKind.TAT, HamiltonianKind.TF),
    steps: int = 2001,
) -> dict[tuple[int, HamiltonianKind], AppendixBTrace]:
    """Squeezing versus internal entanglement for pure all-down subsystems.

    For each even size, the all-spins-down state is evolved under each local
    Hamiltonian over that kind's `default_tp_grid` of ``steps`` points; the
    linear entropy of the half/half split and the squeezing
    parameter are recorded along the trajectory. Repeated sizes and kinds
    run once, in first-seen order.

    It builds no 2^n array, so its sizes are capped by MAX_SYMMETRIC_QUBITS:
    each trajectory evolves in sym(n), its xi2 moments come from the sym(n)
    amplitudes with `spin.symmetric_ops`, and its S_L, as the protocol's,
    from the purity of the half/half coefficient matrices.
    """
    sizes = list(dict.fromkeys(check_count("sizes", size) for size in sizes))
    kinds = list(dict.fromkeys(_as_kind(k) for k in h_a_kinds))
    if not sizes or not kinds:
        raise DomainError("need at least one size and one local kind")
    for size in sizes:
        if size % 2 != 0 or size < 2:
            raise DomainError(f"sizes must be even and at least 2, got {size}")
        if size > MAX_SYMMETRIC_QUBITS:
            raise ResourceCapError(f"sizes are capped at {MAX_SYMMETRIC_QUBITS} qubits, got {size}")
    grids = {kind: default_tp_grid(kind, steps) for kind in kinds}
    out: dict[tuple[int, HamiltonianKind], AppendixBTrace] = {}
    for size in sizes:
        mops = spin.symmetric_ops(size).moment_operators
        half = size // 2
        for kind, t in grids.items():
            amps = _evolve_all_down(kind, size, t)  # (size+1, T)
            xi2, _ = spin.xi2_from_moment_arrays(spin.pure_moments(amps, mops), size)
            s_l = _cut_linear_entropy(_split_coefficients(amps.T, half, half), half)
            out[(size, kind)] = AppendixBTrace(size, kind, t, s_l, xi2)
    return out
