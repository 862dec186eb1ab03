import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import monogamy_lab
from monogamy_lab import _seeds, analytic, measures, qcore, sampling
from monogamy_lab.errors import DomainError
from monogamy_lab.sampling import (
    SampleClass,
    fig2_dataset,
    fig3_dataset,
    haar_random_pure,
    random_spectrum,
)

from oracle_utils import FIG2_PARTITION, haar_amplitudes_reference, random_unitary, schmidt_concurrence


def test_haar_states_normalized():
    for seed in range(20):
        psi = haar_random_pure(3, seed)
        assert abs(np.linalg.norm(psi.amplitudes) - 1) < 1e-12


def test_haar_deterministic():
    a = haar_random_pure(4, 123)
    b = haar_random_pure(4, 123)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    c = haar_random_pure(4, 124)
    assert not np.array_equal(a.amplitudes, c.amplitudes)


@pytest.mark.parametrize("n_qubits", [0, -1, True, 2.5, "3", None])
def test_haar_random_pure_rejects_a_bad_qubit_count(n_qubits):
    with pytest.raises(DomainError, match="n_qubits"):
        haar_random_pure(n_qubits, 0)


@pytest.mark.parametrize("seed", [0, 5, 2**70])
@pytest.mark.parametrize("n_qubits", [1, 2, 3, 5, 8])
def test_haar_random_pure_is_the_one_state_reference(seed, n_qubits):
    want = haar_amplitudes_reference(np.random.default_rng(seed), 2**n_qubits)
    assert haar_random_pure(n_qubits, seed).amplitudes.tobytes() == want.tobytes()


def test_haar_single_qubit_mean_sz():
    rng_seeds = np.random.SeedSequence(77).spawn(10000)
    vals = []
    for s in rng_seeds:
        amps = haar_random_pure(1, s).amplitudes
        vals.append(abs(amps[0]) ** 2 - abs(amps[1]) ** 2)
    assert abs(np.mean(vals)) < 0.03


def test_haar_unitary_invariance_statistic(rng):
    # applying a fixed unitary must leave distribution-level statistics alone
    u = random_unitary(8, rng)
    seeds = np.random.SeedSequence(88).spawn(4000)
    plain, rotated = [], []
    for s in seeds:
        amps = haar_random_pure(3, s).amplitudes
        plain.append(abs(amps[0]) ** 2)
        rotated.append(abs((u @ amps)[0]) ** 2)
    # both estimate E|<0|psi>|^2 = 1/8
    assert abs(np.mean(plain) - 1 / 8) < 0.01
    assert abs(np.mean(rotated) - 1 / 8) < 0.01


def test_random_spectrum_forms():
    s2 = random_spectrum(5, zeros=2)
    assert s2.shape == (4,) and s2.dtype == np.float64 and not s2.flags.writeable
    assert s2[2] == 0.0 and s2[3] == 0.0
    assert abs(s2.sum() - 1) < 1e-12
    s0 = random_spectrum(5, zeros=0)
    assert np.all(s0 > 0)
    for zeros in (3, -1, 1.0, True, np.bool_(True), "1", None):
        with pytest.raises(DomainError):
            random_spectrum(5, zeros=zeros)
    for zeros in (0, 1, 2):
        assert np.array_equal(random_spectrum(5, zeros=np.int64(zeros)), random_spectrum(5, zeros=zeros))


@pytest.mark.parametrize("zeros", [0, 1, 2])
def test_random_spectrum_is_the_normalised_sorted_draw(zeros):
    for seed in range(20):
        draws = np.random.default_rng(seed).standard_exponential(4 - zeros)
        expected = np.zeros(4)
        expected[: 4 - zeros] = np.sort(draws / draws.sum())[::-1]
        assert np.array_equal(random_spectrum(seed, zeros), expected)


def test_random_spectrum_order_statistics():
    seeds = np.random.SeedSequence(99).spawn(100000)
    vals = np.array([random_spectrum(s) for s in seeds])
    means = vals.mean(axis=0)
    expected = np.array([25, 13, 7, 3]) / 48
    assert np.max(np.abs(means - expected)) < 0.01


# ---------------------------------------------------------------------------
# fig2 dataset


def test_fig2_no_boundary_violations():
    ds = fig2_dataset(500, seed=21)
    assert np.all(ds.y <= analytic.cmax_boundary(ds.x) + 1e-9)
    # The same states, rebuilt from the same child seeds: every two-qubit
    # reduced state of a pure three-qubit state has rank <= 2.
    children = np.random.SeedSequence(21).spawn(500)
    psi = np.array([haar_random_pure(3, c).amplitudes for c in children])
    blocks = psi.reshape(500, 4, 2)
    w = np.linalg.eigvalsh(blocks @ blocks.conj().transpose(0, 2, 1))
    assert np.all(np.count_nonzero(w > 1e-12, axis=1) <= 2)


def test_fig2_ghz_point_saturates_boundary():
    amps = np.zeros(8)
    amps[0] = amps[7] = 1 / np.sqrt(2)
    ghz = qcore.PureState(3, amps)
    x = schmidt_concurrence(ghz, FIG2_PARTITION)
    rho_a = qcore.reduced_state_matrix(ghz, 3, (0, 1))
    spectrum = qcore.hermitian_eigenvalues(rho_a)
    y_max = measures.max_concurrence(np.clip(spectrum, 0, None))
    assert abs(x - 1.0) < 1e-12
    assert abs(y_max - 0.5) < 1e-12
    assert abs(analytic.cmax_boundary(x) - y_max) < 1e-12


def test_fig2_product_state_point(rng):
    zero = qcore.PureState(1, np.array([1, 0]))
    prod = qcore.tensor_product(qcore.tensor_product(zero, zero), zero)
    x = schmidt_concurrence(prod, FIG2_PARTITION)
    y = measures.concurrence(qcore.reduced_state_matrix(prod, 3, (0, 1)))
    assert x < 1e-9 and y < 1e-9
    assert abs(analytic.cmax_boundary(0.0) - 1.0) < 1e-15


@pytest.mark.parametrize("seed, n", [(7, 1), (7, 120), (0, 60), (3, 2500)])
def test_fig2_is_bytewise_the_per_sample_route(seed, n):
    # C_A1A2 is the closed form's bits per sample, and the general
    # eigensolver route's value to 1e-12
    data = fig2_dataset(n, seed)
    x, y, general = [], [], []
    for child in np.random.SeedSequence(seed).spawn(n):
        state = haar_random_pure(3, child)
        x.append(schmidt_concurrence(state, FIG2_PARTITION))
        y.append(measures._rank2_concurrence(state.amplitudes.reshape(4, 2)))
        general.append(measures.concurrence(qcore.reduced_state_matrix(state, 3, FIG2_PARTITION.qubits_a)))
    assert data.x.tobytes() == np.array(x).tobytes()
    assert data.y.tobytes() == np.array(y).tobytes()
    assert np.max(np.abs(data.y - np.array(general))) <= 1e-12


@pytest.mark.parametrize("seed, n", [(0, 1), (3, 200), (11, 3000), (2**70, 1000)])
def test_fig2_rows_are_the_one_state_reference(monkeypatch, seed, n):
    # The per-sample route above shares fig2's normalisation; this pins the
    # amplitudes themselves to the one-state draw, row by row.
    rows = []
    normalise = sampling._haar_amplitudes
    monkeypatch.setattr(sampling, "_haar_amplitudes", lambda z: rows.append(normalise(z)) or rows[-1])
    fig2_dataset(n, seed)
    [psi] = rows
    children = np.random.SeedSequence(seed).spawn(n)
    want = np.array([haar_amplitudes_reference(np.random.default_rng(c), 8) for c in children])
    assert psi.shape == (n, 8)
    assert psi.tobytes() == want.tobytes()


def test_fig2_makes_one_eigensolver_call_per_stack(monkeypatch):
    # C_AB's 2x2 spectra on the Jacobi route; C_A1A2's closed form solves nothing
    calls = []
    for route in ("hermitian_eigen", "hermitian_eigenvalues", "lapack_eigen", "lapack_eigenvalues"):
        fn = getattr(qcore, route)
        monkeypatch.setattr(qcore, route, lambda m, r=route, fn=fn: calls.append((r, np.shape(m))) or fn(m))
    fig2_dataset(50, seed=2)
    assert calls == [("hermitian_eigenvalues", (50, 2, 2))]


def test_fig2_deterministic():
    a = fig2_dataset(60, seed=4)
    b = fig2_dataset(60, seed=4)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


# ---------------------------------------------------------------------------
# fig3 dataset


def test_fig3_classes_and_markers():
    ds = fig3_dataset(90, seed=31)
    assert len(ds) == 94 and ds.spectra.shape == (94, 4) and ds.cls.shape == (94,)
    markers = ds.cls == SampleClass.MARKER
    assert np.array_equal(np.flatnonzero(markers), [90, 91, 92, 93])
    assert abs(ds.x[93] - 1.0) < 1e-12 and ds.y[93] == 0.0
    assert ds.x[90] == 0.0 and abs(ds.y[90] - 1.0) < 1e-12
    nonzero = np.count_nonzero(ds.spectra[:90] > 1e-12, axis=1)
    by_count = {2: SampleClass.TWO_NONZERO, 3: SampleClass.THREE_NONZERO, 4: SampleClass.FOUR_NONZERO}
    assert [by_count[k] for k in nonzero] == list(ds.cls[:90])
    striping = (SampleClass.TWO_NONZERO, SampleClass.THREE_NONZERO, SampleClass.FOUR_NONZERO)
    assert list(ds.cls[:90]) == [striping[i % 3] for i in range(90)]


def test_fig3_rank2_records_on_rescaled_curve():
    ds = fig3_dataset(300, seed=41)
    two = ds.cls == SampleClass.TWO_NONZERO
    assert np.all(np.abs(ds.y[two] - analytic.nmax_boundary_rank2(ds.x[two])) < 1e-9)


def test_fig3_threshold_property():
    ds = fig3_dataset(3000, seed=51)
    th = analytic.threshold_negativity()
    assert np.all(ds.y[ds.x > th + 1e-9] <= 1e-12)


def test_fig3_deterministic():
    a = fig3_dataset(90, seed=6)
    b = fig3_dataset(90, seed=6)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert np.array_equal(a.spectra, b.spectra) and np.array_equal(a.cls, b.cls)


@pytest.mark.parametrize("n", [30, 2500])
def test_fig3_rows_are_the_random_spectrum_draws(n):
    ds = fig3_dataset(n, seed=8)
    children = np.random.SeedSequence(8).spawn(n)
    drawn = [random_spectrum(c, zeros=(2, 1, 0)[i % 3]) for i, c in enumerate(children)]
    assert ds.spectra[:n].tobytes() == np.array(drawn).tobytes()


# ---------------------------------------------------------------------------
# per-sample seed streams


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3])
def test_spawn_words_are_the_child_seed_sequences_state(seed):
    n = 2 * _seeds._BLOCK + 37  # three blocks, the last one short
    words = np.concatenate(list(_seeds.spawn_words(seed, n)))
    want = [np.random.SeedSequence(seed, spawn_key=(i,)).generate_state(4, np.uint64) for i in range(n)]
    assert words.dtype == np.uint64 and words.shape == (n, 4)
    assert np.array_equal(words, want)


def test_sample_rngs_are_the_child_generators():
    rngs = list(_seeds.sample_rngs(2**70, 5))
    for i, rng in enumerate(rngs):
        child = np.random.default_rng(np.random.SeedSequence(2**70, spawn_key=(i,)))
        assert rng.bit_generator.state == child.bit_generator.state


def test_importing_the_package_leaves_numpy_random_unloaded():
    src = str(Path(monogamy_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, monogamy_lab; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# sample counts


@pytest.mark.parametrize("n_samples", [0, -1, 2.5, 3.0, True, "5", None])
def test_sample_counts_must_be_integers_of_at_least_one(n_samples):
    for dataset in (fig2_dataset, fig3_dataset):
        with pytest.raises(DomainError):
            dataset(n_samples, 0)


def test_sample_counts_accept_numpy_integers():
    for dataset in (fig2_dataset, fig3_dataset):
        a, b = dataset(np.int64(3), 0), dataset(3, 0)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert a.metadata == b.metadata


@pytest.mark.parametrize("seed", [True, False, 1.5, 3.0, -1, "3", None])
def test_seeds_must_be_integers_of_at_least_zero(seed):
    # a bool seed once ran as 0 or 1, a float one raised a bare TypeError, and
    # in the one-sample draws None drew fresh OS entropy
    draws = (lambda s: fig2_dataset(3, s), lambda s: fig3_dataset(3, s),
             random_spectrum, lambda s: haar_random_pure(2, s))
    for draw in draws:
        with pytest.raises(DomainError, match="seed"):
            draw(seed)


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), np.uint8(5), np.random.SeedSequence(5)])
def test_one_sample_draws_accept_numpy_integers_and_seed_sequences(seed):
    assert random_spectrum(seed).tobytes() == random_spectrum(5).tobytes()
    assert haar_random_pure(2, seed).amplitudes.tobytes() == haar_random_pure(2, 5).amplitudes.tobytes()


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), np.uint8(5)])
def test_seeds_accept_numpy_integers(seed):
    for dataset in (fig2_dataset, fig3_dataset):
        a, b = dataset(4, seed), dataset(4, 5)
        assert a.x.tobytes() == b.x.tobytes() and a.y.tobytes() == b.y.tobytes()
        assert a.metadata == b.metadata and type(a.metadata["seed"]) is int
