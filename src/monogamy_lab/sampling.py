"""Random-state and random-spectrum generation plus the bound-region datasets.

Sampling is deterministic given an integer seed. Dataset generation derives
one child seed per sample index (numpy SeedSequence spawning), so results
are identical for any parallel schedule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from . import measures, qcore
from ._parallel import map_indexed
from .errors import DomainError
from .qcore import Partition, PureState, Spectrum

_NONZERO_EIGENVALUE = 1e-12


class SampleClass(enum.Enum):
    TWO_NONZERO = "two_nonzero"
    THREE_NONZERO = "three_nonzero"
    FOUR_NONZERO = "four_nonzero"
    MARKER = "marker"


@dataclass(frozen=True, eq=False)
class SampleRecord:
    x: float
    y: float
    cls: SampleClass
    spectrum: Spectrum | None = None


@dataclass(frozen=True, eq=False)
class Dataset:
    records: list[SampleRecord]
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def xy(self) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array([r.x for r in self.records]),
            np.array([r.y for r in self.records]),
        )


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


def random_spectrum(seed, zeros: int = 0) -> Spectrum:
    """Length-4 spectrum, uniform on the simplex of the non-zero entries.

    ``zeros`` entries (0, 1, or 2) are pinned to zero; the rest are drawn by
    the exponential-normalization construction and sorted descending.
    """
    if zeros not in (0, 1, 2):
        raise DomainError(f"zeros must be 0, 1, or 2, got {zeros}")
    rng = _rng(seed)
    k = 4 - zeros
    draws = rng.standard_exponential(k)
    vals = np.zeros(4)
    vals[:k] = draws / draws.sum()
    vals[::-1].sort()
    return Spectrum(tuple(vals))


def _classify(values: np.ndarray) -> SampleClass:
    nonzero = int(np.count_nonzero(np.asarray(values) > _NONZERO_EIGENVALUE))
    if nonzero <= 2:
        return SampleClass.TWO_NONZERO
    if nonzero == 3:
        return SampleClass.THREE_NONZERO
    return SampleClass.FOUR_NONZERO


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


def fig2_dataset(n_samples: int, seed: int, threads: int | None = 1) -> Dataset:
    """Concurrence pairs (C_AB, C_A1A2) for Haar-random three-qubit states."""
    if n_samples < 1:
        raise DomainError("need at least one sample")
    children = _child_seeds(seed, n_samples)

    def one(i: int) -> SampleRecord:
        state = haar_random_pure(3, children[i])
        rho_a = qcore.reduced_state_matrix(state, 3, FIG2_PARTITION.qubits_a)
        x = schmidt_concurrence(state, FIG2_PARTITION)
        y = measures.concurrence(rho_a)
        spectrum = Spectrum.from_values(qcore.hermitian_eigenvalues(rho_a))
        return SampleRecord(x, y, _classify(spectrum.as_array()), spectrum=spectrum)

    records = map_indexed(one, n_samples, threads)
    return Dataset(
        records,
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


def fig3_dataset(n_samples: int, seed: int, threads: int | None = 1) -> Dataset:
    """(N_AB, N_max) pairs for random 2+N reduced spectra, plus the four
    named boundary spectra appended as marker records.

    Sample i pins ``(2, 1, 0)[i mod 3]`` eigenvalues to zero (sample 0 has two
    zeros), so the two-, three-, and four-nonzero populations are evenly
    represented.
    """
    if n_samples < 1:
        raise DomainError("need at least one sample")
    children = _child_seeds(seed, n_samples)

    def one(i: int) -> SampleRecord:
        spectrum = random_spectrum(children[i], zeros=(2, 1, 0)[i % 3])
        vals = spectrum.as_array()
        return SampleRecord(
            measures.negativity_2pn_from_spectrum(vals),
            measures.max_negativity(vals),
            _classify(vals),
            spectrum=spectrum,
        )

    records = map_indexed(one, n_samples, threads)
    for vals in MARKER_SPECTRA:
        records.append(
            SampleRecord(
                measures.negativity_2pn_from_spectrum(vals),
                measures.max_negativity(vals),
                SampleClass.MARKER,
                spectrum=Spectrum(vals),
            )
        )
    return Dataset(
        records,
        metadata={
            "n_samples": n_samples,
            "seed": seed,
            "sampling": "uniform_simplex_exponential_normalization",
            "zero_striping": "sample i pins (2, 1, 0)[i mod 3] eigenvalues to zero",
            "markers": [list(m) for m in MARKER_SPECTRA],
        },
    )
