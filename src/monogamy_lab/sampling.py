"""Random-state and random-spectrum generation plus the bound-region datasets.

Sampling is deterministic given an integer seed. Dataset generation derives
one child seed per sample index (numpy SeedSequence spawning), so sample i
depends only on the seed and i.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import measures, qcore
from .errors import DomainError, check_count
from .qcore import Partition, PureState, Spectrum

_NONZERO_EIGENVALUE = 1e-12


class SampleClass(enum.Enum):
    TWO_NONZERO = "two_nonzero"
    THREE_NONZERO = "three_nonzero"
    FOUR_NONZERO = "four_nonzero"
    MARKER = "marker"


@dataclass(frozen=True, eq=False)
class Dataset:
    """One row per sample: the plotted pair ``(x, y)``; fig3 also carries the
    reduced spectra (rows, 4) and each row's ``SampleClass``."""

    x: np.ndarray
    y: np.ndarray
    metadata: dict = field(default_factory=dict)
    spectra: np.ndarray | None = None
    cls: np.ndarray | None = None

    def __len__(self) -> int:
        return self.x.size


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def _child_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(seed).spawn(n)


def haar_random_pure(n_qubits: int, seed) -> PureState:
    """Haar-distributed pure state: normalized complex-Gaussian amplitudes."""
    if n_qubits < 1:
        raise DomainError("need at least one qubit")
    rng = _rng(seed)
    dim = 2**n_qubits
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(n_qubits, amps / np.linalg.norm(amps))


def _draw_spectrum(seed, zeros: int) -> np.ndarray:
    rng = _rng(seed)
    k = 4 - zeros
    draws = rng.standard_exponential(k)
    vals = np.zeros(4)
    vals[:k] = draws / draws.sum()
    vals[::-1].sort()
    return vals


def random_spectrum(seed, zeros: int = 0) -> Spectrum:
    """Length-4 spectrum, uniform on the simplex of the non-zero entries.

    ``zeros`` entries (0, 1, or 2) are pinned to zero; the rest are drawn by
    the exponential-normalization construction and sorted descending.
    """
    if zeros not in (0, 1, 2):
        raise DomainError(f"zeros must be 0, 1, or 2, got {zeros}")
    return Spectrum(tuple(_draw_spectrum(seed, zeros)))


# SampleClass by the count of non-zero eigenvalues, 0..4.
_CLASS_BY_NONZERO = np.array(
    [SampleClass.TWO_NONZERO] * 3 + [SampleClass.THREE_NONZERO, SampleClass.FOUR_NONZERO],
    dtype=object,
)


def schmidt_concurrence(state: PureState, partition: Partition) -> float:
    """A|B concurrence of a pure state via its effective two-level description.

    With l1 the largest reduced-state eigenvalue, this is 2 sqrt(l1 (1-l1));
    it equals the two-qubit pure-state concurrence whenever the reduced state
    has rank two.
    """
    keep = (
        partition.qubits_a
        if len(partition.qubits_a) <= len(partition.qubits_b)
        else partition.qubits_b
    )
    rho = qcore.reduced_state_matrix(state, state.n_qubits, keep)
    l1 = float(qcore.hermitian_eigenvalues(rho)[0])
    l1 = min(max(l1, 0.0), 1.0)
    return 2.0 * np.sqrt(l1 * (1.0 - l1))


FIG2_PARTITION = Partition((0, 1), (2,))


def fig2_dataset(n_samples: int, seed: int) -> Dataset:
    """Concurrence pairs (C_AB, C_A1A2) for Haar-random three-qubit states."""
    n_samples = check_count("n_samples", n_samples)
    x, y = np.empty(n_samples), np.empty(n_samples)
    for i, child in enumerate(_child_seeds(seed, n_samples)):
        state = haar_random_pure(3, child)
        x[i] = schmidt_concurrence(state, FIG2_PARTITION)
        y[i] = measures.concurrence(qcore.reduced_state_matrix(state, 3, FIG2_PARTITION.qubits_a))
    return Dataset(
        x,
        y,
        metadata={
            "n_samples": n_samples,
            "seed": seed,
            "sampling": "haar_complex_gaussian",
            "c_ab_route": "effective_two_level_largest_reduced_eigenvalue",
        },
    )


MARKER_SPECTRA = (
    (1.0, 0.0, 0.0, 0.0),
    (0.5, 0.5, 0.0, 0.0),
    (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0),
    (0.25, 0.25, 0.25, 0.25),
)


def fig3_dataset(n_samples: int, seed: int) -> Dataset:
    """(N_AB, N_max) pairs for random 2+N reduced spectra, plus the four
    named boundary spectra appended as marker rows.

    Sample i pins ``(2, 1, 0)[i mod 3]`` eigenvalues to zero (sample 0 has two
    zeros), so the two-, three-, and four-nonzero populations are evenly
    represented.
    """
    n_samples = check_count("n_samples", n_samples)
    children = _child_seeds(seed, n_samples)
    rows = [_draw_spectrum(child, (2, 1, 0)[i % 3]) for i, child in enumerate(children)]
    spectra = np.vstack([*rows, MARKER_SPECTRA])
    cls = _CLASS_BY_NONZERO[np.count_nonzero(spectra > _NONZERO_EIGENVALUE, axis=1)]
    cls[n_samples:] = SampleClass.MARKER
    return Dataset(
        measures.negativity_2pn_from_spectrum(spectra),
        measures.max_negativity(spectra),
        spectra=spectra,
        cls=cls,
        metadata={
            "n_samples": n_samples,
            "seed": seed,
            "sampling": "uniform_simplex_exponential_normalization",
            "zero_striping": "sample i pins (2, 1, 0)[i mod 3] eigenvalues to zero",
            "markers": [list(m) for m in MARKER_SPECTRA],
        },
    )
