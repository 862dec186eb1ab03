"""Random-state and random-spectrum generation plus the bound-region datasets.

Sampling is deterministic given an integer seed >= 0. Sample i of a dataset
draws from its own generator, bit for bit
``default_rng(SeedSequence(seed, spawn_key=(i,)))`` (child i of
``SeedSequence(seed).spawn(n)``), so it depends only on the seed and i.
`_seeds.sample_rngs` builds those generators without a ``SeedSequence`` per
sample: it hashes the spawn keys of a block of samples at once, as numpy
would, and hands each sample's 4 words to PCG64. Only the draws run per
sample, one generator call each, straight into a preallocated array;
everything after them is one array stage over the whole stack of samples,
with the per-sample bits: fig2's normalisation (each row divided by its own
``np.linalg.norm``, taken for every row at once by the same BLAS dot, see
`_haar_amplitudes`), its C_AB reduce and solve and its closed-form C_A1A2,
and fig3's normalisation, sort and measures. `qcore` states which
eigensolver each stacked solve uses, and why. Each dataset records the
wall time of its two stages, draw (for fig2 with the normalisation) and
measures. `haar_random_pure` and
`random_spectrum` draw one sample from ``default_rng(seed)``, where seed is
an integer >= 0 or a ``SeedSequence`` (such as a dataset sample's child). A spectrum is a float array with a last
axis of 4, sorted descending: `random_spectrum` returns one read-only (4,)
row, fig3 a (rows, 4) stack, and the bounds in `measures` take either.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from . import measures, qcore
from ._jacobi import row_norms
from .errors import DomainError, check_count, is_integer
from .qcore import Partition, PureState

_NONZERO_EIGENVALUE = 1e-12


class SampleClass(enum.Enum):
    TWO_NONZERO = "two_nonzero"
    THREE_NONZERO = "three_nonzero"
    FOUR_NONZERO = "four_nonzero"
    MARKER = "marker"


@dataclass(frozen=True, eq=False)
class Dataset:
    """One row per sample: the plotted pair ``(x, y)``; fig3 also carries the
    reduced spectra (rows, 4) and each row's ``SampleClass``.
    ``stage_wall_s`` holds the seconds spent drawing and in the measures;
    ``metadata`` the seed and the sampling routes, not the sample count,
    which the rows give."""

    x: np.ndarray
    y: np.ndarray
    metadata: dict = field(default_factory=dict)
    spectra: np.ndarray | None = None
    cls: np.ndarray | None = None
    stage_wall_s: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.x.size


def _check_seed(seed) -> int:
    """seed as an int; DomainError unless it is an integer >= 0 (bools and
    floats are refused, numpy integers accepted)."""
    if not is_integer(seed) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    return int(seed)


def _one_sample_rng(seed) -> np.random.Generator:
    """``default_rng(seed)`` for a one-sample draw: seed is an integer >= 0,
    as `_check_seed` takes it, or a ``SeedSequence``."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = _check_seed(seed)
    return np.random.default_rng(seed)


def _haar_amplitudes(normals: np.ndarray) -> np.ndarray:
    """Unit rows of complex-Gaussian amplitudes from a (..., 2 dim) array of
    standard normals, each row's real parts then its imaginary parts. Each
    row is divided by its own ``np.linalg.norm``, taken for all rows at once
    by `_jacobi.row_norms` (numpy's axis-wise norm sums in another order and
    moves about one row in seven by an ulp)."""
    dim = normals.shape[-1] // 2
    amps = normals[..., :dim] + 1j * normals[..., dim:]
    amps /= row_norms(amps)[..., None]
    return amps


def haar_random_pure(n_qubits: int, seed) -> PureState:
    """Haar-distributed pure state: normalized complex-Gaussian amplitudes."""
    n_qubits = check_count("n_qubits", n_qubits)
    normals = _one_sample_rng(seed).standard_normal(2 * 2**n_qubits)
    return PureState(n_qubits, _haar_amplitudes(normals))


def _to_sorted_simplex(spectra: np.ndarray) -> np.ndarray:
    """Normalise each row of drawn exponentials (zero-padded) to sum 1 and
    sort it descending, in place."""
    spectra /= spectra.sum(axis=1, keepdims=True)
    spectra[:, ::-1].sort(axis=1)
    return spectra


def random_spectrum(seed, zeros: int = 0) -> np.ndarray:
    """Length-4 spectrum, uniform on the simplex of the non-zero entries: a
    read-only (4,) float array, sorted descending.

    ``zeros`` entries (the integer 0, 1, or 2) are pinned to zero; the rest
    are drawn by the exponential-normalization construction.
    """
    if not is_integer(zeros) or zeros not in (0, 1, 2):
        raise DomainError(f"zeros must be the integer 0, 1, or 2, got {zeros!r}")
    zeros = int(zeros)
    vals = np.zeros(4)
    _one_sample_rng(seed).standard_exponential(4 - zeros, out=vals[: 4 - zeros])
    _to_sorted_simplex(vals[None])
    vals.setflags(write=False)
    return vals


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

    Sample i draws its 16 standard normals from its own generator in one
    call, as `haar_random_pure` draws them, into row i of an (N, 16) array;
    one 16-value draw gives the bits of two 8-value draws. The rows are
    normalised into (N, 8) amplitudes at once, and both concurrences then
    run once over the stack, with the per-sample results bit for bit: C_AB
    from one stacked solve of the 2x2 reduced states, C_A1A2 by
    `measures._rank2_concurrence` from the amplitudes as an (N, 4, 2) stack,
    each state's factor V of rho_A1A2 = V V^dagger (qubits 0, 1 | qubit 2),
    with no reduce and no eigensolver.
    """
    from ._seeds import sample_rngs

    n_samples = check_count("n_samples", n_samples)
    seed = _check_seed(seed)
    start = time.perf_counter()
    normals = np.empty((n_samples, 16))
    for i, rng in enumerate(sample_rngs(seed, n_samples)):
        rng.standard_normal(out=normals[i])
    psi = _haar_amplitudes(normals)
    drawn = time.perf_counter()
    x = _schmidt_concurrences(psi, 3, FIG2_PARTITION)
    y = measures._rank2_concurrence(psi.reshape(n_samples, 4, 2))
    return Dataset(
        x,
        y,
        stage_wall_s={"draw": drawn - start, "measures": time.perf_counter() - drawn},
        metadata={
            "seed": seed,
            "sampling": "haar_complex_gaussian",
            "c_ab_route": "effective_two_level_largest_reduced_eigenvalue",
            "c_a1a2_route": "wootters_rank2_closed_form",
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
    zero-filled (N + 4, 4) spectra array; the rows are then normalised and
    sorted, and their measures and classes taken, over the whole array.
    """
    from ._seeds import sample_rngs

    n_samples = check_count("n_samples", n_samples)
    seed = _check_seed(seed)
    start = time.perf_counter()
    spectra = np.zeros((n_samples + 4, 4))
    for i, rng in enumerate(sample_rngs(seed, n_samples)):
        k = 2 + i % 3  # (2, 1, 0)[i % 3] zeros
        rng.standard_exponential(k, out=spectra[i, :k])
    drawn = time.perf_counter()
    _to_sorted_simplex(spectra[:n_samples])
    spectra[n_samples:] = MARKER_SPECTRA
    cls = _CLASS_BY_NONZERO[np.count_nonzero(spectra > _NONZERO_EIGENVALUE, axis=1)]
    cls[n_samples:] = SampleClass.MARKER
    return Dataset(
        measures.negativity_2pn_from_spectrum(spectra),
        measures.max_negativity(spectra),
        spectra=spectra,
        cls=cls,
        stage_wall_s={"draw": drawn - start, "measures": time.perf_counter() - drawn},
        metadata={
            "seed": seed,
            "sampling": "uniform_simplex_exponential_normalization",
            "zero_striping": "sample i pins (2, 1, 0)[i mod 3] eigenvalues to zero",
            "markers": [list(m) for m in MARKER_SPECTRA],
        },
    )
