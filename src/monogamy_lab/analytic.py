"""Closed-form expressions used as oracles and for protocol inversion.

These are the monotone boundary curves bounding entanglement generation
inside a subsystem, the analytic negative partial-transpose eigenvalues of
2+N pure states, the negativity threshold above which no entanglement can be
generated inside the two-qubit subsystem, and the exact curves of the
GHZ-generator protocol.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .measures import _spectrum4
from .qcore import PureState


def _check_domain(x, lo: float, hi: float, name: str):
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= lo - 1e-12) & (arr <= hi + 1e-12)):
        raise DomainError(f"{name} must lie in [{lo}, {hi}]")
    return np.clip(arr, lo, hi)


def cmax_boundary(c_ab):
    """Largest concurrence creatable inside A given the A|B concurrence."""
    c = _check_domain(c_ab, 0.0, 1.0, "c_ab")
    out = 0.5 * (1.0 + np.sqrt(1.0 - c * c))
    return float(out) if np.isscalar(c_ab) or np.ndim(c_ab) == 0 else out


def nmax_boundary_2p1(n_ab):
    """Largest normalized negativity creatable inside A, 2+1 register."""
    n = _check_domain(n_ab, 0.0, 1.0, "n_ab")
    out = 0.5 * (-1.0 + np.sqrt(4.0 - 2.0 * n * n) + np.sqrt(1.0 - n * n))
    return float(out) if np.isscalar(n_ab) or np.ndim(n_ab) == 0 else out


def nmax_boundary_rank2(n_ab):
    """The 2+1 boundary re-expressed against the 2+N negativity scale.

    Rank-2 reduced spectra reach at most n_ab = 1/3 on the 2+N scale; on
    that domain the bound is the 2+1 curve evaluated at 3 n_ab.
    """
    n = _check_domain(n_ab, 0.0, 1.0 / 3.0, "n_ab")
    return nmax_boundary_2p1(3.0 * n)


def ghz_s_l_from_min_xi2(min_xi2):
    """Cut linear entropy of the GHZ protocol from the minimal squeezing."""
    m = _check_domain(min_xi2, 0.0, 1.0, "min_xi2")
    out = (2.0 / 3.0) * (1.0 - (1.0 - m) ** 2)
    return float(out) if np.isscalar(min_xi2) or np.ndim(min_xi2) == 0 else out


def _one_spectrum(spec) -> np.ndarray:
    vals = _spectrum4(spec)
    if vals.ndim != 1:
        raise DomainError(f"expected one spectrum of 4 values, got shape {vals.shape}")
    return vals


def negative_eigs_2pn(spec) -> np.ndarray:
    """The six non-positive partial-transpose eigenvalues -sqrt(l_i l_j), i<j."""
    vals = _one_spectrum(spec)
    out = np.array([-math.sqrt(vals[i] * vals[j]) for i in range(4) for j in range(i + 1, 4)])
    return out


def spectrum_state_2pn(spec, n_b: int) -> PureState:
    """A 2+N pure state whose two-qubit reduced spectrum equals ``spec``.

    Schmidt vectors are the two-qubit computational basis on the A side and
    the first four computational basis states on the B side.
    """
    if n_b < 2:
        raise DomainError("the B register needs at least two qubits to host four Schmidt vectors")
    vals = _one_spectrum(spec)
    dim_b = 2**n_b
    amps = np.zeros(4 * dim_b, dtype=np.complex128)
    for i in range(4):
        amps[i * dim_b + i] = math.sqrt(vals[i])
    return PureState(2 + n_b, amps)


THRESHOLD_NEGATIVITY = 1.0 / 3.0 + math.sqrt(1.0 / 3.0)
# Resolution of the ordered-simplex grid that `verify_threshold_region` sweeps.
THRESHOLD_GRID_STEP = 1e-3


@functools.cache
def verify_threshold_region() -> int:
    """Grid-check that above the threshold no internal entanglement is possible.

    Sweeps the ordered probability simplex at resolution THRESHOLD_GRID_STEP
    and raises if any spectrum with cut negativity above the threshold admits
    a positive max_negativity. Returns the number of grid points checked.
    """
    k = round(1.0 / THRESHOLD_GRID_STEP)
    checked = 0
    for k4 in range(0, k // 4 + 1):
        k3_max = (k - k4) // 3
        k3 = np.arange(k4, k3_max + 1)
        k2_max_global = (k - k4) // 2
        k2 = np.arange(0, k2_max_global + 1)
        g3, g2 = np.meshgrid(k3, k2, indexing="ij")
        g1 = k - k4 - g3 - g2
        ok = (g2 >= g3) & (g1 >= g2)
        l4 = np.full(g1.shape, k4 / k)
        l3, l2, l1 = g3 / k, g2 / k, g1 / k
        s = np.sqrt(l1) + np.sqrt(l2) + np.sqrt(l3) + np.sqrt(l4)
        n_ab = (s * s - 1.0) / 3.0
        n_max = np.clip(np.hypot(l1 - l3, l2 - l4) - l2 - l4, 0.0, None)
        above = ok & (n_ab > THRESHOLD_NEGATIVITY + 1e-9)
        if np.any(n_max[above] > 1e-12):
            raise DomainError("threshold property violated on the verification grid")
        saturated = ok & (l4 >= 1.0 / 6.0)
        if np.any(n_max[saturated] > 1e-12):
            raise DomainError("l4 >= 1/6 spectra must admit no internal entanglement")
        checked += int(np.count_nonzero(ok))
    return checked


def threshold_negativity() -> float:
    """Cut negativity above which subsystem A admits no internal entanglement,
    reached by the spectrum (1/2, 1/6, 1/6, 1/6) (`verify_threshold_region`
    checks the claim on a grid)."""
    return THRESHOLD_NEGATIVITY


@dataclass(frozen=True)
class GhzAnalytics:
    """Exact protocol quantities for the GHZ-generator configuration."""

    phi: float
    phi_prime: float
    rho_ab_2level: np.ndarray
    xi2_ab: float
    s_l_ab: float
    xi2_a: float
    min_xi2_a: float
    s_l_from_min_xi2: float


def ghz_protocol_analytics(phi: float, phi_prime: float) -> GhzAnalytics:
    """Closed-form trace of the 4-qubit GHZ-generator protocol at (phi, phi')."""
    c2 = math.cos(2.0 * phi)
    rho2 = 0.5 * np.array(
        [
            [1.0 + c2, 1j * math.sin(2.0 * phi)],
            [-1j * math.sin(2.0 * phi), 1.0 - c2],
        ]
    )
    s_l_ab = (2.0 / 3.0) * (1.0 - c2 * c2)
    xi2_a = 1.0 - abs(c2 * math.sin(2.0 * phi_prime))
    min_xi2_a = 1.0 - abs(c2)
    return GhzAnalytics(
        phi=phi,
        phi_prime=phi_prime,
        rho_ab_2level=rho2,
        xi2_ab=1.0,
        s_l_ab=s_l_ab,
        xi2_a=xi2_a,
        min_xi2_a=min_xi2_a,
        s_l_from_min_xi2=ghz_s_l_from_min_xi2(min_xi2_a),
    )
