"""Random-state and random-spectrum generation plus the bound-region datasets.

Sampling is deterministic given an integer seed. Sample i of a dataset draws
from its own generator, seeded by ``SeedSequence(seed, spawn_key=(i,))``
(child i of ``SeedSequence(seed).spawn(n)``), so it depends only on the seed
and i. Only the draws run per sample, straight into a preallocated array
(fig2 also normalises each state there); everything after them is one
array stage over the whole stack of samples, with the per-sample bits:
fig2's reduces and concurrences (one stacked Jacobi solve for C_AB, two
stacked LAPACK solves inside `measures.concurrence` for C_A1A2), and fig3's
normalisation, sort and measures. `haar_random_pure` and `random_spectrum`
draw one sample the same way.
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


def _sample_rng(seed: int, i: int) -> np.random.Generator:
    """Generator of sample i: child i of ``SeedSequence(seed).spawn(n)``, built directly."""
    return _rng(np.random.SeedSequence(seed, spawn_key=(i,)))


def _haar_amplitudes(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Unit vector of dim complex-Gaussian amplitudes: real parts, then
    imaginary parts, normalised by the vector's own norm. One row at a time:
    numpy's axis-wise norm sums in another order and moves about one row in
    seven by an ulp."""
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


def haar_random_pure(n_qubits: int, seed) -> PureState:
    """Haar-distributed pure state: normalized complex-Gaussian amplitudes."""
    n_qubits = check_count("n_qubits", n_qubits)
    return PureState(n_qubits, _haar_amplitudes(_rng(seed), 2**n_qubits))


def _to_sorted_simplex(spectra: np.ndarray) -> np.ndarray:
    """Normalise each row of drawn exponentials (zero-padded) to sum 1 and
    sort it descending, in place."""
    spectra /= spectra.sum(axis=1, keepdims=True)
    spectra[:, ::-1].sort(axis=1)
    return spectra


def random_spectrum(seed, zeros: int = 0) -> Spectrum:
    """Length-4 spectrum, uniform on the simplex of the non-zero entries.

    ``zeros`` entries (0, 1, or 2) are pinned to zero; the rest are drawn by
    the exponential-normalization construction and sorted descending.
    """
    if zeros not in (0, 1, 2):
        raise DomainError(f"zeros must be 0, 1, or 2, got {zeros}")
    vals = np.zeros((1, 4))
    _rng(seed).standard_exponential(4 - zeros, out=vals[0, : 4 - zeros])
    return Spectrum(tuple(_to_sorted_simplex(vals)[0]))


# SampleClass by the count of non-zero eigenvalues, 0..4.
_CLASS_BY_NONZERO = np.array(
    [SampleClass.TWO_NONZERO] * 3 + [SampleClass.THREE_NONZERO, SampleClass.FOUR_NONZERO],
    dtype=object,
)


def _schmidt_concurrences(amplitudes: np.ndarray, n_qubits: int, partition: Partition) -> np.ndarray:
    """`schmidt_concurrence` of each state in a (..., 2^n) stack of amplitude
    vectors: one reduce to the smaller side and one eigensolver call."""
    keep = (
        partition.qubits_a
        if len(partition.qubits_a) <= len(partition.qubits_b)
        else partition.qubits_b
    )
    rho = qcore.reduced_state_matrix(amplitudes, n_qubits, keep)
    l1 = np.clip(qcore.hermitian_eigenvalues(rho)[..., 0], 0.0, 1.0)
    return 2.0 * np.sqrt(l1 * (1.0 - l1))


def schmidt_concurrence(state: PureState, partition: Partition) -> float:
    """A|B concurrence of a pure state via its effective two-level description.

    With l1 the largest reduced-state eigenvalue, this is 2 sqrt(l1 (1-l1));
    it equals the two-qubit pure-state concurrence whenever the reduced state
    has rank two.
    """
    return float(_schmidt_concurrences(state.amplitudes, state.n_qubits, partition))


FIG2_PARTITION = Partition((0, 1), (2,))


def fig2_dataset(n_samples: int, seed: int) -> Dataset:
    """Concurrence pairs (C_AB, C_A1A2) for Haar-random three-qubit states.

    Sample i is drawn from its own generator, as `haar_random_pure` draws
    it, into row i of an (N, 8) amplitude array. The reduces and both
    concurrences then run once over the stack, with the per-sample results
    bit for bit: C_AB from one stacked Jacobi solve of the 2x2 reduced
    states (`qcore.hermitian_eigenvalues`), C_A1A2 from `measures.concurrence`,
    whose two 4x4 stacked solves run on LAPACK.
    """
    n_samples = check_count("n_samples", n_samples)
    psi = np.empty((n_samples, 8), dtype=np.complex128)
    for i in range(n_samples):
        psi[i] = _haar_amplitudes(_sample_rng(seed, i), 8)
    x = _schmidt_concurrences(psi, 3, FIG2_PARTITION)
    y = measures.concurrence(qcore.reduced_state_matrix(psi, 3, FIG2_PARTITION.qubits_a))
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
    represented. Each sample's exponentials are drawn into its row of the
    zero-filled spectra array; the rows are then normalised and sorted at
    once.
    """
    n_samples = check_count("n_samples", n_samples)
    spectra = np.zeros((n_samples + 4, 4))
    for i in range(n_samples):
        k = 2 + i % 3  # (2, 1, 0)[i % 3] zeros
        _sample_rng(seed, i).standard_exponential(k, out=spectra[i, :k])
    _to_sorted_simplex(spectra[:n_samples])
    spectra[n_samples:] = MARKER_SPECTRA
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
