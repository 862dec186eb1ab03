"""Two-stage squeezing protocol and its calibration machinery.

Stage one entangles subsystems A and B by evolving the all-spins-down state
under a register-wide Hamiltonian. Stage two evolves A alone and minimizes
the squeezing parameter of A over the local evolution time; the minimum is
calibrated against the A|B linear entropy so a squeezing measurement can be
inverted into an entanglement estimate.

Local evolution cannot move entanglement across the A|B cut, and every run
verifies this: the cut negativity is probed at NEGATIVITY_PROBES local times
along each sweep and must stay constant to 1e-9. The start state and every
generator are symmetric under permutations of the qubits, so rho_A lives in
the (n_A+1)-dimensional symmetric subspace sym(A). The probes restrict the
rho_A stack to sym(A) once, failing loudly on any weight outside it, and
evolve the restricted matrix with the restricted local propagator; the
negativity then follows from its Schmidt spectrum.

The same symmetry puts the register state in sym(n): `state_at` and
`appendix_b_study` evolve the all-down state there and embed the result.
The protocol's own entangle stage stays dense, because on flat rows its
argmin_tp is set by rounding noise that the benchmark's stored references
pin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import measures, qcore, spin
from ._parallel import map_indexed
from .errors import (
    ConfigError,
    ContractViolationError,
    DomainError,
    ExtrapolationError,
    ResourceCapError,
    UndefinedScoreError,
)
from .analytic import ghz_s_l_from_min_xi2
from .hamiltonians import HamiltonianKind, _as_kind, build
from .qcore import DensityMatrix, Partition, SpectralPropagator, all_down_state, half_partition

MAX_TOTAL_QUBITS = 10
MAX_SUBSYSTEM_QUBITS = 5
NEGATIVITY_DRIFT_TOL = 1e-9
# Width of the local-time bracket at which golden-section refinement stops.
REFINE_TOL = 1e-6
# S_L distance below which inversion candidates are one value.
MERGE_TOL = 1e-3
# Share of the observed S_L range above which calibration branches count as
# distinct when flagging nonmonotone rows (never below MERGE_TOL).
FLAG_REL = 0.05
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
    return np.linspace(0.0, hi, steps)


def default_tp_grid(h_a_kind, steps: int = 2000) -> np.ndarray:
    kind = _as_kind(h_a_kind)
    hi = math.pi if kind is HamiltonianKind.GHZ else 100.0
    return np.linspace(0.0, hi, steps)


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    n_a: int
    n_b: int
    h_ab_kind: HamiltonianKind
    h_a_kind: HamiltonianKind
    t_grid: np.ndarray
    tp_grid: np.ndarray
    omega: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "h_ab_kind", _as_kind(self.h_ab_kind))
        object.__setattr__(self, "h_a_kind", _as_kind(self.h_a_kind))
        if self.n_a < 1 or self.n_b < 1:
            raise ConfigError("both subsystems need at least one qubit")
        if self.n_a + self.n_b > MAX_TOTAL_QUBITS:
            raise ResourceCapError(
                f"{self.n_a + self.n_b} qubits exceed the cap of {MAX_TOTAL_QUBITS}"
            )
        if max(self.n_a, self.n_b) > MAX_SUBSYSTEM_QUBITS:
            raise ResourceCapError(
                f"per-subsystem size is capped at {MAX_SUBSYSTEM_QUBITS} qubits"
            )
        for name in ("t_grid", "tp_grid"):
            grid = np.asarray(getattr(self, name), dtype=float)
            if grid.size == 0:
                raise ConfigError(f"{name} is empty")
            if grid.size > 1 and not np.all(np.diff(grid) > 0):
                raise ConfigError(f"{name} must be strictly increasing")
            grid.setflags(write=False)
            object.__setattr__(self, name, grid)


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

    def __len__(self) -> int:
        return self.t.size


@dataclass(frozen=True, eq=False)
class ExplorationTrace:
    tp: np.ndarray
    xi2_a: np.ndarray
    n_a: np.ndarray
    metadata: dict = field(default_factory=dict)

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
    candidates are treated as one value.
    """

    x: np.ndarray
    y: np.ndarray
    segments: tuple[tuple[int, int], ...] = field(init=False)
    merge_tol: float = MERGE_TOL
    ghz_exact: bool = False
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "segments", _monotone_segments(self.x))


@dataclass(frozen=True)
class InversionResult:
    candidates: tuple[float, ...]
    ambiguous: bool


# ---------------------------------------------------------------------------
# subsystem sweep engine


class _SubsystemEngine(SpectralPropagator):
    """Eigenbasis of A's local Hamiltonian, for sweeping the local evolution of A."""

    def __init__(self, kind: HamiltonianKind, n_a: int, omega: float):
        super().__init__(build(kind, omega, range(n_a), n_a))
        self.n_a = n_a
        ops = spin.collective_ops(n_a)
        self.tilde_ops = [self.to_eigenbasis(op) for op in ops.moment_operators]

    def to_eigenbasis(self, rho: np.ndarray) -> np.ndarray:
        return self._vh @ rho @ self.eigenvectors

    def xi2_sweep(self, rho_eig: np.ndarray, tp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Squeezing of A for every local time, via frequency decomposition.

        <O>(tau) = sum_jk rho_jk O~_kj exp(-i (w_j - w_k) tau), evaluated as
        two small matrix products per observable.
        """
        a = np.exp(-1j * np.outer(self.eigenvalues, tp))
        ac = a.conj()
        vals = np.empty((9, tp.size))
        for k, ot in enumerate(self.tilde_ops):
            m = rho_eig * ot.T
            vals[k] = np.einsum("jt,jt->t", a, m @ ac).real
        return spin.xi2_from_moment_arrays(vals, self.n_a)

    def xi2_at(self, rho_eig: np.ndarray, tau: float) -> float:
        e = np.exp(-1j * self.eigenvalues * tau)
        ph = np.outer(e, e.conj())
        vals = np.array([np.sum(rho_eig * ot.T * ph).real for ot in self.tilde_ops])
        xi2, _ = spin.xi2_from_moment_arrays(vals[:, None], self.n_a)
        return float(xi2[0])

    def density_at(self, rho_eig: np.ndarray, tau: float) -> np.ndarray:
        e = np.exp(-1j * self.eigenvalues * tau)
        return self.eigenvectors @ (np.outer(e, e.conj()) * rho_eig) @ self._vh


def _evolve_all_down(kind, omega: float, n: int, t) -> np.ndarray:
    """Amplitudes of the n-qubit all-down state evolved under
    ``build(kind, omega, range(n), n)`` for time t: shape (2^n,), or (2^n, T)
    for an array of T times.

    The generator is collective, so it is projected to sym(n), evolved there
    and embedded back with ``qcore.symmetric_isometry``.
    """
    iso = qcore.symmetric_isometry(n)
    h_iso = build(kind, omega, range(n), n).matrix @ iso
    h_sym = iso.T @ h_iso
    leak = float(np.max(np.abs(h_iso - iso @ h_sym)))
    if leak > qcore.EIGEN_INPUT_TOL:
        raise ContractViolationError(f"generator leaves the symmetric subspace by {leak:.3e}")
    start = np.zeros(n + 1, dtype=np.complex128)
    start[n] = 1.0  # all-down
    return iso @ SpectralPropagator(h_sym).apply(start, t)


def _symmetric_part(rho: np.ndarray, iso: np.ndarray) -> np.ndarray:
    """A (..., d, d) stack of density matrices restricted by the isometry iso.

    Raises ContractViolationError when a restricted trace differs from 1 by
    more than TRACE_TOL, i.e. when a matrix has weight outside the subspace.
    """
    sym = iso.T @ rho @ iso
    worst = float(np.max(np.abs(np.trace(sym, axis1=-2, axis2=-1).real - 1.0)))
    if worst > qcore.TRACE_TOL:
        raise ContractViolationError(
            f"restricted trace deviates from 1 by {worst:.3e}: weight outside the symmetric subspace"
        )
    return sym


def _probe_negativities(
    eng: _SubsystemEngine, iso_a: np.ndarray, rho_sym: np.ndarray, taus
) -> list[float]:
    """Cut negativity after evolving A for each local time in taus, from the
    Schmidt spectrum of U_sym rho_sym U_sym^dagger on sym(A)."""
    negs = []
    for tau in taus:
        u = iso_a.T @ eng.unitary(tau) @ iso_a
        negs.append(measures.schmidt_negativity_raw(u @ rho_sym @ u.conj().T))
    return negs


def _positive_time(name: str, value) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError(f"{name} must be finite and > 0, got {value}")
    return value


def _golden_min(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INVGOLD * (b - a)
    d = a + _INVGOLD * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVGOLD * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVGOLD * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _min_over_tp(
    xi2_grid: np.ndarray, tp: np.ndarray, f, tol: float
) -> tuple[float, float]:
    """Grid minimum refined by golden-section search in its bracket.

    Never returns a value above the grid minimum.
    """
    i = int(np.argmin(xi2_grid))
    best_tau, best_val = float(tp[i]), float(xi2_grid[i])
    lo, hi = float(tp[max(i - 1, 0)]), float(tp[min(i + 1, tp.size - 1)])
    if hi > lo:
        tau, val = _golden_min(f, lo, hi, tol)
        if val < best_val:
            best_tau, best_val = float(tau), float(val)
    return best_tau, best_val


# ---------------------------------------------------------------------------
# protocol runs


def run_protocol_multi(cfg: ProtocolConfig, ha_kinds=None) -> dict[HamiltonianKind, ProtocolTrace]:
    """Run the protocol once, sweeping A under several local Hamiltonians.

    The stages that do not depend on the local kind (entangle, reduce, S_L
    and xi2_AB) run once over the whole t-grid and are shared across the
    requested kinds; each row then sweeps, refines and probes per kind.
    """
    if ha_kinds is None:
        ha_kinds = [cfg.h_a_kind]
    kinds = list(dict.fromkeys(_as_kind(k) for k in ha_kinds))  # first-seen order

    n = cfg.n_a + cfg.n_b
    keep = tuple(range(cfg.n_a))
    engines = {kind: _SubsystemEngine(kind, cfg.n_a, cfg.omega) for kind in kinds}

    # Grid stages, shared by every local kind. Entangle: psi(t) for all rows.
    prop = SpectralPropagator(build(cfg.h_ab_kind, cfg.omega, range(n), n))
    states = prop.apply(all_down_state(n).amplitudes, cfg.t_grid)  # (d, T)
    psi = np.ascontiguousarray(states.T)  # (T, d)
    rho_a = qcore.reduced_state_matrix(psi, n, keep)
    iso_a = qcore.symmetric_isometry(cfg.n_a)
    rho_sym = _symmetric_part(rho_a, iso_a)  # (T, n_A+1, n_A+1), for the probes
    s_l_arr = np.array([measures.linear_entropy(r) for r in rho_a])
    moments = spin.pure_moments(states, spin.collective_ops(n).moment_operators)
    xi2_ab_arr, _ = spin.xi2_from_moment_arrays(moments, n)

    # Probe times for the cut-negativity constancy check: the sweep start,
    # evenly spaced interior points, and the refined minimum.
    n_fixed = NEGATIVITY_PROBES - 1
    fixed_probes = [
        float(cfg.tp_grid[int(round(j * (cfg.tp_grid.size - 1) / max(1, n_fixed)))])
        for j in range(n_fixed)
    ]

    def row(i: int):
        per_kind = {}
        for kind in kinds:
            eng = engines[kind]
            rho_eig = eng.to_eigenbasis(rho_a[i])
            xi2_grid, _ = eng.xi2_sweep(rho_eig, cfg.tp_grid)
            tau_min, xi2_min = _min_over_tp(
                xi2_grid, cfg.tp_grid, lambda tau: eng.xi2_at(rho_eig, tau), REFINE_TOL
            )
            negs = _probe_negativities(eng, iso_a, rho_sym[i], [*fixed_probes, tau_min])
            drift = max(negs) - min(negs)
            per_kind[kind] = (xi2_min, tau_min, drift)
        return per_kind

    rows = map_indexed(row, cfg.t_grid.size)

    traces: dict[HamiltonianKind, ProtocolTrace] = {}
    for kind in kinds:
        min_xi2 = np.array([r[kind][0] for r in rows])
        argmin_tp = np.array([r[kind][1] for r in rows])
        drift = np.array([r[kind][2] for r in rows])
        worst = float(np.max(drift))
        if worst > NEGATIVITY_DRIFT_TOL:
            raise ContractViolationError(
                f"cut negativity drifted by {worst:.3e} along a local sweep"
            )
        flags = _nonmonotone_flags(min_xi2, s_l_arr, _flag_threshold(s_l_arr))
        trace = ProtocolTrace(
            config=replace(cfg, h_a_kind=kind),
            t=cfg.t_grid.copy(),
            s_l_ab=s_l_arr.copy(),
            xi2_ab=xi2_ab_arr.copy(),
            min_xi2_a=min_xi2,
            argmin_tp=argmin_tp,
            nonmonotone=flags,
            negativity_drift=drift,
            metadata={
                "h_ab_kind": cfg.h_ab_kind.value,
                "h_a_kind": kind.value,
                "n_a": cfg.n_a,
                "n_b": cfg.n_b,
                "omega": cfg.omega,
                "max_negativity_drift": worst,
                "p_states": _select_p_states(s_l_arr, flags, cfg.t_grid),
            },
        )
        traces[kind] = trace
    return traces


def run_protocol(cfg: ProtocolConfig) -> ProtocolTrace:
    """Entangle, sweep the local evolution of A, and record the calibration data."""
    return run_protocol_multi(cfg, [cfg.h_a_kind])[cfg.h_a_kind]


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
    """Register state after the entangling stage at time t."""
    if not math.isfinite(t):
        raise DomainError(f"entangling time must be finite, got {t}")
    n = cfg.n_a + cfg.n_b
    return qcore.PureState(n, _evolve_all_down(cfg.h_ab_kind, cfg.omega, n, t))


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
    if m <= 1:
        return ((0, m - 1),)
    sign = np.sign(np.diff(x))
    nonzero = np.flatnonzero(sign)
    if nonzero.size == 0:
        return ((0, m - 1),)
    filled = sign.copy()
    last = sign[nonzero[0]]  # leading flats adopt the first real direction
    for i in range(filled.size):
        if filled[i] == 0:
            filled[i] = last
        else:
            last = filled[i]
    segments = []
    start = 0
    for i in range(1, filled.size):
        if filled[i] != filled[i - 1]:
            segments.append((start, i))
            start = i
    segments.append((start, m - 1))
    return tuple(segments)


def _segment_interp(x: np.ndarray, y: np.ndarray, lo: int, hi: int, xq: float) -> float | None:
    xs = x[lo : hi + 1]
    ys = y[lo : hi + 1]
    if xs[0] > xs[-1]:
        xs, ys = xs[::-1], ys[::-1]
    if xq < xs[0] or xq > xs[-1]:
        return None
    return float(np.interp(xq, xs, ys))


def _candidates_at(curve: CalibrationCurve, xq: float) -> list[float]:
    found = []
    for lo, hi in curve.segments:
        val = _segment_interp(curve.x, curve.y, lo, hi, xq)
        if val is not None:
            found.append(val)
    return found


def _merge_close(values: list[float], tol: float) -> list[float]:
    if not values:
        return []
    values = sorted(values)
    clusters = [[values[0]]]
    for v in values[1:]:
        if v - clusters[-1][-1] <= tol:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    return [float(np.mean(c)) for c in clusters]


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
    return CalibrationCurve(x=x, y=y, ghz_exact=ghz_exact, metadata=dict(trace.metadata))


def _flag_threshold(s_l: np.ndarray) -> float:
    """Absolute S_L disagreement above which calibration branches count as
    distinct: FLAG_REL times the observed S_L range, at least MERGE_TOL."""
    span = float(np.max(s_l) - np.min(s_l))
    return max(FLAG_REL * span, MERGE_TOL)


def _nonmonotone_flags(x: np.ndarray, y: np.ndarray, threshold: float) -> np.ndarray:
    """Flag rows whose min xi2_A maps to materially different S_L values
    on other monotone runs (the broken one-to-one window)."""
    curve = CalibrationCurve(x=x, y=y)
    flags = np.zeros(x.size, dtype=bool)
    for i in range(x.size):
        cands = _candidates_at(curve, float(x[i]))
        if cands and (max(cands) - min(cands)) > threshold:
            flags[i] = True
    return flags


def invert(curve: CalibrationCurve, measured_min_xi2: float) -> InversionResult:
    """Estimate S_L,AB from a measured minimal squeezing value.

    Returns all candidate values when the measurement falls in a region
    where the calibration map is not one-to-one, with the ambiguity flag set.
    """
    xmin, xmax = float(np.min(curve.x)), float(np.max(curve.x))
    slack = 1e-9
    if not xmin - slack <= measured_min_xi2 <= xmax + slack:  # NaN fails too
        raise ExtrapolationError(
            f"measured value {measured_min_xi2} outside observed range [{xmin}, {xmax}]"
        )
    xq = min(max(measured_min_xi2, xmin), xmax)
    if curve.ghz_exact:
        return InversionResult((float(ghz_s_l_from_min_xi2(xq)),), False)
    cands = _merge_close(_candidates_at(curve, xq), curve.merge_tol)
    return InversionResult(tuple(cands), len(cands) > 1)


def _average_ranks(a: np.ndarray) -> np.ndarray:
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(a.size)
    sa = a[order]
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and sa[j + 1] == sa[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def monotonicity_score(curve: CalibrationCurve) -> float:
    """Spearman rank correlation between min xi2_A and S_L,AB over the trace."""
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


def explore_measure_vs_squeezing(
    initial_rho_a: DensityMatrix,
    h_a_kind,
    t_max: float = 100.0,
    steps: int = 2001,
    split: Partition | None = None,
    omega: float = 1.0,
) -> ExplorationTrace:
    """Trajectory of (squeezing, internal negativity) for subsystem A.

    A is evolved under the chosen local Hamiltonian; at each time the
    squeezing parameter and the normalized negativity across the internal
    split (default: first half versus second half) are recorded.
    """
    t_max = _positive_time("t_max", t_max)
    n = initial_rho_a.n_qubits
    if split is None:
        split = half_partition(n)
    split.check_register(n)
    kind = _as_kind(h_a_kind)
    eng = _SubsystemEngine(kind, n, omega)
    tp = np.linspace(0.0, t_max, int(steps))
    rho_eig = eng.to_eigenbasis(initial_rho_a.matrix)
    xi2, _ = eng.xi2_sweep(rho_eig, tp)
    norm = (2 ** min(len(split.qubits_a), len(split.qubits_b)) - 1) / 2.0
    n_a = np.empty(tp.size)
    for i, tau in enumerate(tp):
        rho_tau = eng.density_at(rho_eig, tau)
        pt = qcore.partial_transpose_matrix(rho_tau, n, split.qubits_a)
        n_a[i] = min(max(measures._negative_sum(qcore.hermitian_eigenvalues(pt)) / norm, 0.0), 1.0)
    return ExplorationTrace(
        tp=tp,
        xi2_a=xi2,
        n_a=n_a,
        metadata={
            "h_a_kind": kind.value,
            "t_max": t_max,
            "steps": int(steps),
            "split": {"a": list(split.qubits_a), "b": list(split.qubits_b)},
        },
    )


# ---------------------------------------------------------------------------
# pure-state study of the local Hamiltonian choice


def appendix_b_study(
    sizes=(2, 4, 6, 8),
    h_a_kinds=(HamiltonianKind.OAT, HamiltonianKind.TAT, HamiltonianKind.TF),
    t_max: float = 100.0,
    steps: int = 2001,
    omega: float = 1.0,
) -> dict[tuple[int, HamiltonianKind], AppendixBTrace]:
    """Squeezing versus internal entanglement for pure all-down subsystems.

    For each even size, the all-spins-down state is evolved under each local
    Hamiltonian; the linear entropy of the half/half split and the squeezing
    parameter are recorded along the trajectory. Repeated sizes and kinds
    run once, in first-seen order.
    """
    sizes = list(dict.fromkeys(sizes))
    kinds = list(dict.fromkeys(_as_kind(k) for k in h_a_kinds))
    if not sizes or not kinds:
        raise DomainError("need at least one size and one local kind")
    for size in sizes:
        if size % 2 != 0 or size < 2:
            raise DomainError(f"sizes must be even and at least 2, got {size}")
        if size > 8:
            raise ResourceCapError(f"sizes are capped at 8 qubits, got {size}")
    t = np.linspace(0.0, _positive_time("t_max", t_max), int(steps))
    out: dict[tuple[int, HamiltonianKind], AppendixBTrace] = {}
    for size in sizes:
        mops = spin.collective_ops(size).moment_operators
        half = tuple(range(size // 2))
        for kind in kinds:
            states = _evolve_all_down(kind, omega, size, t)  # (d, T)
            xi2, _ = spin.xi2_from_moment_arrays(spin.pure_moments(states, mops), size)
            rho = qcore.reduced_state_matrix(states.T, size, half)
            s_l = np.array([measures.linear_entropy(r) for r in rho])
            out[(size, kind)] = AppendixBTrace(size, kind, t, s_l, xi2)
    return out
