import numpy as np
import pytest

from monogamy_lab import analytic, measures, qcore
from monogamy_lab.errors import DomainError
from monogamy_lab.sampling import (
    FIG2_PARTITION,
    SampleClass,
    fig2_dataset,
    fig3_dataset,
    haar_random_pure,
    random_spectrum,
    schmidt_concurrence,
)

from oracle_utils import random_unitary


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
    assert s2.values[2] == 0.0 and s2.values[3] == 0.0
    assert abs(sum(s2.values) - 1) < 1e-12
    s0 = random_spectrum(5, zeros=0)
    assert all(v > 0 for v in s0.values)
    with pytest.raises(DomainError):
        random_spectrum(5, zeros=3)


@pytest.mark.parametrize("zeros", [0, 1, 2])
def test_random_spectrum_is_the_normalised_sorted_draw(zeros):
    for seed in range(20):
        draws = np.random.default_rng(seed).standard_exponential(4 - zeros)
        expected = np.zeros(4)
        expected[: 4 - zeros] = np.sort(draws / draws.sum())[::-1]
        assert random_spectrum(seed, zeros).values == tuple(expected)


def test_random_spectrum_order_statistics():
    seeds = np.random.SeedSequence(99).spawn(100000)
    vals = np.array([random_spectrum(s).values for s in seeds])
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
    zero = qcore.basis_state(1, 0)
    prod = qcore.tensor_product(qcore.tensor_product(zero, zero), zero)
    x = schmidt_concurrence(prod, FIG2_PARTITION)
    y = measures.concurrence(qcore.reduced_state_matrix(prod, 3, (0, 1)))
    assert x < 1e-9 and y < 1e-9
    assert abs(analytic.cmax_boundary(0.0) - 1.0) < 1e-15


@pytest.mark.parametrize("seed, n", [(7, 1), (7, 120), (0, 60)])
def test_fig2_is_bytewise_the_per_sample_route(seed, n):
    data = fig2_dataset(n, seed)
    x, y = [], []
    for child in np.random.SeedSequence(seed).spawn(n):
        state = haar_random_pure(3, child)
        x.append(schmidt_concurrence(state, FIG2_PARTITION))
        y.append(measures.concurrence(qcore.reduced_state_matrix(state, 3, FIG2_PARTITION.qubits_a)))
    assert data.x.tobytes() == np.array(x).tobytes()
    assert data.y.tobytes() == np.array(y).tobytes()


def test_fig2_makes_one_eigensolver_call_per_stack(monkeypatch):
    # C_AB's 2x2 spectra on the Jacobi route, C_A1A2's two 4x4 solves on LAPACK
    calls = []
    for route in ("hermitian_eigen", "hermitian_eigenvalues", "lapack_eigen", "lapack_eigenvalues"):
        fn = getattr(qcore, route)
        monkeypatch.setattr(qcore, route, lambda m, r=route, fn=fn: calls.append((r, np.shape(m))) or fn(m))
    fig2_dataset(50, seed=2)
    assert sorted(calls) == [
        ("hermitian_eigenvalues", (50, 2, 2)),
        ("lapack_eigen", (50, 4, 4)),
        ("lapack_eigenvalues", (50, 4, 4)),
    ]


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
    th = analytic.threshold_negativity(verify=False)
    assert np.all(ds.y[ds.x > th + 1e-9] <= 1e-12)


def test_fig3_deterministic():
    a = fig3_dataset(90, seed=6)
    b = fig3_dataset(90, seed=6)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert np.array_equal(a.spectra, b.spectra) and np.array_equal(a.cls, b.cls)


def test_fig3_rows_are_the_random_spectrum_draws():
    ds = fig3_dataset(30, seed=8)
    children = np.random.SeedSequence(8).spawn(30)
    drawn = [random_spectrum(c, zeros=(2, 1, 0)[i % 3]).values for i, c in enumerate(children)]
    assert ds.spectra[:30].tolist() == [list(v) for v in drawn]


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
