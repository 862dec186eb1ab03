import math

import numpy as np
import pytest

from monogamy_lab import analytic, measures, qcore
from monogamy_lab.errors import DomainError
from monogamy_lab.measures import (
    concurrence,
    linear_entropy,
    max_concurrence,
    max_negativity,
    negativity_2pn_from_spectrum,
    negativity_normalized,
    negativity_raw,
    negativity_raw_pure,
    tsallis_entropy,
)
from monogamy_lab.qcore import DensityMatrix, Partition, PureState, dm_from_pure, tensor_product

from oracle_utils import (
    embed_unitary_on_a,
    negativity_bruteforce,
    random_density,
    random_state,
    random_unitary,
)


def bell_dm():
    return dm_from_pure(PureState(2, np.array([1, 0, 0, 1]) / np.sqrt(2)))


def product_dm(rng, n_a=1, n_b=1):
    a = PureState(n_a, random_state(2**n_a, rng))
    b = PureState(n_b, random_state(2**n_b, rng))
    return dm_from_pure(tensor_product(a, b))


# ---------------------------------------------------------------------------
# entropies


def test_tsallis_pure_state_is_zero(rng):
    rho = dm_from_pure(PureState(2, random_state(4, rng)))
    for q in (1, 2, 3, 5):
        assert abs(tsallis_entropy(rho, q)) < 1e-9


def test_tsallis_maximally_mixed_qubit():
    rho = DensityMatrix(1, np.eye(2) / 2)
    assert abs(tsallis_entropy(rho, 2) - 0.5) < 1e-12
    assert abs(tsallis_entropy(rho, 1) - np.log(2)) < 1e-12


def test_tsallis_q2_matches_matrix_power_oracle(rng):
    for _ in range(50):
        rho = random_density(4, rng)
        direct = 1.0 - np.trace(rho @ rho).real
        assert abs(tsallis_entropy(rho, 2) - direct) < 1e-10


def test_tsallis_q3_matches_matrix_power_oracle(rng):
    rho = random_density(8, rng)
    direct = (1.0 - np.trace(rho @ rho @ rho).real) / 2
    assert abs(tsallis_entropy(rho, 3) - direct) < 1e-10


def test_tsallis_q1_von_neumann_oracle(rng):
    rho = random_density(4, rng)
    w = np.linalg.eigvalsh(rho)
    ref = float(-np.sum(w * np.log(w)))
    assert abs(tsallis_entropy(rho, 1) - ref) < 1e-9


def test_tsallis_domain_errors():
    rho = DensityMatrix(1, np.eye(2) / 2)
    with pytest.raises(DomainError):
        tsallis_entropy(rho, 0)
    with pytest.raises(DomainError):
        tsallis_entropy(rho, 1.5)
    with pytest.raises(DomainError):
        tsallis_entropy(rho, True)  # a bool is not the order 1
    rho = DensityMatrix(1, np.diag([0.7, 0.3]))
    for q in (1, 2, 3):
        assert tsallis_entropy(rho, np.int64(q)) == tsallis_entropy(rho, q)
        assert tsallis_entropy(rho, float(q)) == tsallis_entropy(rho, q)


def test_linear_entropy_endpoints(rng):
    pure = dm_from_pure(PureState(2, random_state(4, rng)))
    assert abs(linear_entropy(pure)) < 1e-10
    for d in (2, 4, 8):
        assert abs(linear_entropy(np.eye(d) / d) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        linear_entropy(np.eye(1))


def test_linear_entropy_of_a_stack_uses_the_matrix_dimension(rng):
    # the dimension is the last axis, not the stack length
    for k in (1, 3, 5):
        assert np.array_equal(linear_entropy(np.stack([np.eye(2) / 2] * k)), np.ones(k))
    rhos = np.array([random_density(4, rng) for _ in range(3)])
    assert np.allclose(linear_entropy(rhos), [linear_entropy(r) for r in rhos], rtol=0, atol=1e-14)
    with pytest.raises(DomainError):
        linear_entropy(np.ones((3, 1, 1)))


def test_linear_entropy_ghz_evolved_value():
    # reduced state of the flip-generator trajectory at phi = pi/8
    from monogamy_lab.hamiltonians import build

    h = build("ghz", 4)
    psi = qcore.evolve(PureState(4, np.eye(16)[0]), h, np.pi / 8)
    rho_a = qcore.reduced_state_matrix(psi, 4, (0, 1))
    assert abs(linear_entropy(rho_a) - 1.0 / 3.0) < 1e-12


# ---------------------------------------------------------------------------
# negativity


def test_negativity_product_state_zero(rng):
    rho = product_dm(rng)
    p = Partition((0,), (1,))
    assert negativity_raw(rho, p) < 1e-11
    assert negativity_normalized(rho, p) < 1e-11


def test_negativity_bell_state():
    p = Partition((0,), (1,))
    assert abs(negativity_raw(bell_dm(), p) - 0.5) < 1e-12
    assert abs(negativity_normalized(bell_dm(), p) - 1.0) < 1e-12


def test_negativity_flat_2pn_spectrum():
    from monogamy_lab.analytic import spectrum_state_2pn

    psi = spectrum_state_2pn((0.25, 0.25, 0.25, 0.25), 2)
    rho = dm_from_pure(psi)
    p = Partition((0, 1), (2, 3))
    assert abs(negativity_raw(rho, p) - 1.5) < 1e-10
    assert abs(negativity_normalized(rho, p) - 1.0) < 1e-10


def test_negativity_matches_bruteforce(rng):
    for _ in range(20):
        rho = random_density(8, rng, rank=3)
        ours = negativity_raw(DensityMatrix(3, rho), Partition((0,), (1, 2)))
        ref = negativity_bruteforce(rho, 2, 4)
        assert abs(ours - ref) < 1e-9


@pytest.mark.parametrize("qa, qb", [((0,), (1,)), ((0,), (1, 2)), ((2,), (0, 1)), ((1, 3), (0, 2)), ((0,), (1, 2, 3))])
def test_negativity_is_the_same_from_either_side(qa, qb, rng):
    # swapping the partition's sides transposes the other side, whose
    # partial transpose has the same spectrum (rank 2 keeps most draws
    # entangled, full rank covers the mixed interior)
    n = len(qa) + len(qb)
    for rank in (2, 2, 2**n, 2**n):
        rho = DensityMatrix(n, random_density(2**n, rng, rank=rank))
        ab, ba = Partition(qa, qb), Partition(qb, qa)
        assert abs(negativity_raw(rho, ab) - negativity_raw(rho, ba)) < 1e-12
        assert abs(negativity_normalized(rho, ab) - negativity_normalized(rho, ba)) < 1e-12


def test_negativity_local_unitary_invariance(rng):
    p = Partition((0, 1), (2,))
    for _ in range(20):
        psi = PureState(3, random_state(8, rng))
        rho = dm_from_pure(psi)
        base = negativity_raw(rho, p)
        u = embed_unitary_on_a(random_unitary(4, rng), 2)
        rotated = DensityMatrix(3, u @ rho.matrix @ u.conj().T)
        assert abs(negativity_raw(rotated, p) - base) < 1e-9


def test_pure_route_matches_matrix_route(rng):
    for n, part in [(3, Partition((0, 1), (2,))), (4, Partition((0, 1), (2, 3))), (6, Partition((0, 1, 2), (3, 4, 5)))]:
        for _ in range(10):
            psi = PureState(n, random_state(2**n, rng))
            matrix_route = negativity_raw(dm_from_pure(psi), part)
            pure_route = negativity_raw_pure(psi, part)
            assert abs(matrix_route - pure_route) < 1e-9


def test_negativity_from_coefficients_on_stacks_and_near_product_states(rng):
    # Schmidt coefficients sqrt(1-eps), sqrt(eps) hidden by local unitaries:
    # the negativity sqrt(eps (1-eps)) comes out to rounding, with no sqrt of a
    # ~1e-12 reduced eigenvalue in the way.
    for eps in (1e-12, 1e-6, 0.3):
        schmidt = np.zeros((4, 3))
        schmidt[0, 0], schmidt[1, 1] = math.sqrt(1 - eps), math.sqrt(eps)
        c = random_unitary(4, rng) @ schmidt @ random_unitary(3, rng)
        got = measures.negativity_from_coefficients(c)
        assert isinstance(got, float)
        assert abs(got - math.sqrt(eps * (1 - eps))) <= 1e-15
    # a (2, 3) stack of 2+2-qubit states against the partial-transpose route
    states = np.array([random_state(16, rng) for _ in range(6)]).reshape(2, 3, 16)
    stacked = measures.negativity_from_coefficients(states.reshape(2, 3, 4, 4))
    assert stacked.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        rho = dm_from_pure(PureState(4, states[idx]))
        assert abs(stacked[idx] - negativity_raw(rho, Partition((0, 1), (2, 3)))) < 1e-12


def test_pure_2p1_closed_form(rng):
    p = Partition((0, 1), (2,))
    for _ in range(30):
        psi = PureState(3, random_state(8, rng))
        lam = qcore.hermitian_eigenvalues(qcore.reduced_state_matrix(psi, 3, (0, 1)))[0]
        expected = np.sqrt(lam * (1 - lam))
        assert abs(negativity_raw(dm_from_pure(psi), p) - expected) < 1e-9
        assert abs(negativity_normalized(dm_from_pure(psi), p) - 2 * expected) < 1e-9


# ---------------------------------------------------------------------------
# concurrence


def test_concurrence_bell_and_product(rng):
    assert abs(concurrence(bell_dm()) - 1.0) < 1e-10
    assert concurrence(product_dm(rng)) < 1e-9


def test_concurrence_schmidt_state():
    lam = 0.9
    amps = np.zeros(4)
    amps[0], amps[3] = np.sqrt(lam), np.sqrt(1 - lam)
    c = concurrence(dm_from_pure(PureState(2, amps)))
    assert abs(c - 2 * np.sqrt(lam * (1 - lam))) < 1e-10
    assert abs(c - 0.6) < 1e-10


def test_concurrence_pure_states_equal_det_formula(rng):
    for _ in range(50):
        psi = PureState(2, random_state(4, rng))
        rho_a = qcore.reduced_state_matrix(psi, 2, (0,))
        det = np.real(np.linalg.det(rho_a))
        expected = 2.0 * np.sqrt(max(det, 0.0))
        assert abs(concurrence(dm_from_pure(psi)) - expected) < 1e-9


def test_concurrence_wrong_dimension(rng):
    with pytest.raises(DomainError):
        concurrence(random_density(8, rng))
    with pytest.raises(DomainError):
        concurrence(np.stack([random_density(8, rng)] * 2))


def test_concurrence_of_a_stack_is_bitwise_the_matrix_results(rng):
    rhos = np.array([random_density(4, rng, rank=1 + i % 4) for i in range(24)])
    stacked = concurrence(rhos)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (24,)
    each = [concurrence(r) for r in rhos]
    assert all(type(c) is float for c in each)
    assert stacked.tobytes() == np.array(each).tobytes()
    assert concurrence(rhos.reshape(4, 6, 4, 4)).tobytes() == stacked.tobytes()
    assert concurrence(rhos.reshape(4, 6, 4, 4)).shape == (4, 6)


def test_concurrence_names_the_first_member_that_is_not_psd(rng):
    rhos = np.array([random_density(4, rng) for _ in range(12)])
    not_psd = np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex)
    rhos[7] = rhos[10] = not_psd
    with pytest.raises(DomainError, match=r"semidefinite \(stack member 7\)"):
        concurrence(rhos)
    with pytest.raises(DomainError, match=r"stack member \(1, 1\)"):
        concurrence(rhos.reshape(2, 6, 4, 4))
    with pytest.raises(DomainError, match="semidefinite$"):
        concurrence(not_psd)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_concurrence_rejects_non_finite_input(rng, bad):
    rhos = np.array([random_density(4, rng) for _ in range(5)])
    rhos[2, 0, 0] = bad
    with pytest.raises(DomainError, match="non-finite"):
        concurrence(rhos[2])
    with pytest.raises(DomainError, match=r"stack member 2\)"):
        concurrence(rhos)


# ---------------------------------------------------------------------------
# concurrence of a rank-2 state from its 4x2 factor (fig2's C_A1A2)


def _haar_three_qubit(rng, n):
    psi = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    return psi / np.linalg.norm(psi, axis=1, keepdims=True)


def _hyperdeterminant(psi):
    """Cayley's hyperdeterminant of each three-qubit state in an (n, 8) stack."""
    a = {f"{i}{j}{k}": psi[:, 4 * i + 2 * j + k] for i in (0, 1) for j in (0, 1) for k in (0, 1)}
    return (
        a["000"] ** 2 * a["111"] ** 2 + a["001"] ** 2 * a["110"] ** 2
        + a["010"] ** 2 * a["101"] ** 2 + a["100"] ** 2 * a["011"] ** 2
        - 2 * (a["000"] * a["001"] * a["110"] * a["111"] + a["000"] * a["010"] * a["101"] * a["111"]
               + a["000"] * a["100"] * a["011"] * a["111"] + a["001"] * a["010"] * a["101"] * a["110"]
               + a["001"] * a["100"] * a["011"] * a["110"] + a["010"] * a["100"] * a["011"] * a["101"])
        + 4 * (a["000"] * a["011"] * a["101"] * a["110"] + a["001"] * a["010"] * a["100"] * a["111"])
    )


def _pair_factors(psi):
    """The 4x2 factors of rho_01 (qubit 2 traced out) and rho_02 (qubit 1)."""
    t = psi.reshape(-1, 2, 2, 2)
    return t.reshape(-1, 4, 2), t.transpose(0, 1, 3, 2).reshape(-1, 4, 2)


def test_rank2_concurrence_keeps_the_ckw_identity_on_haar_states(rng):
    # Coffman-Kundu-Wootters: C_01^2 + C_02^2 + 4 |Det psi| = 4 det rho_0
    psi = _haar_three_qubit(rng, 400)
    v01, v02 = _pair_factors(psi)
    m = psi.reshape(-1, 2, 4)
    det_rho0 = np.linalg.det(m @ m.conj().swapaxes(-1, -2)).real
    tangle = 4.0 * np.abs(_hyperdeterminant(psi))
    c01, c02 = measures._rank2_concurrence(v01), measures._rank2_concurrence(v02)
    assert np.max(np.abs(c01**2 + c02**2 + tangle - 4.0 * det_rho0)) <= 1e-12
    assert np.min(tangle) > 1e-4  # the tangle term is not vacuous


def test_rank2_concurrence_of_ghz_and_w():
    ghz = np.zeros((1, 8), dtype=complex)
    ghz[0, [0, 7]] = 1 / np.sqrt(2)
    w = np.zeros((1, 8), dtype=complex)
    w[0, [1, 2, 4]] = 1 / np.sqrt(3)
    for factor in _pair_factors(ghz):
        assert measures._rank2_concurrence(factor[0]) == 0.0
    for factor in _pair_factors(w):
        assert abs(measures._rank2_concurrence(factor[0]) - 2 / 3) < 1e-15


@pytest.mark.parametrize("rank", [1, 2])
def test_rank2_concurrence_matches_the_general_route(rng, rank):
    factors = np.zeros((200, 4, 2), dtype=complex)
    factors[..., :rank] = rng.standard_normal((200, 4, rank)) + 1j * rng.standard_normal((200, 4, rank))
    factors /= np.linalg.norm(factors, axis=(1, 2), keepdims=True)
    got = measures._rank2_concurrence(factors)
    want = concurrence(factors @ factors.conj().swapaxes(-1, -2))
    assert got.shape == (200,) and np.max(np.abs(got - want)) <= 1e-12
    # rho = V V^dagger = (V W)(V W)^dagger for any 2x2 unitary W
    turned = measures._rank2_concurrence(factors @ random_unitary(2, rng))
    assert np.max(np.abs(turned - got)) <= 1e-12


# ---------------------------------------------------------------------------
# spectrum-level bounds


def test_max_concurrence_cases():
    assert abs(max_concurrence((1.0, 0.0, 0.0, 0.0)) - 1.0) < 1e-12
    for lam in (0.5, 0.7, 0.95):
        assert abs(max_concurrence((lam, 1 - lam, 0.0, 0.0)) - lam) < 1e-12
    assert max_concurrence((0.25, 0.25, 0.25, 0.25)) == 0.0


def test_max_negativity_cases():
    assert abs(max_negativity((1.0, 0.0, 0.0, 0.0)) - 1.0) < 1e-12
    assert max_negativity((0.5, 1 / 6, 1 / 6, 1 / 6)) < 1e-12
    assert max_negativity((1 / 3, 1 / 3, 1 / 3, 0.0)) < 1e-12
    assert abs(max_negativity((0.5, 0.5, 0.0, 0.0)) - (np.sqrt(2) - 1) / 2) < 1e-12


def test_spectrum_bounds_permutation_invariant(rng):
    for _ in range(25):
        vals = rng.dirichlet(np.ones(4))
        perm = rng.permutation(vals)
        assert abs(max_concurrence(vals) - max_concurrence(perm)) < 1e-12
        assert abs(max_negativity(vals) - max_negativity(perm)) < 1e-12
        assert abs(
            negativity_2pn_from_spectrum(vals) - negativity_2pn_from_spectrum(perm)
        ) < 1e-12


def test_spectrum_bounds_invalid_input():
    with pytest.raises(DomainError):
        max_concurrence((0.5, 0.5, 0.5, 0.5))
    with pytest.raises(DomainError):
        max_negativity((0.9, 0.3, -0.1, -0.1))
    with pytest.raises(DomainError):
        negativity_2pn_from_spectrum((1.0, 0.0, 0.0))
    for bad in ((np.nan, 0.0, 0.0, 0.0), (np.inf, 0.0, 0.0, 0.0), (1.0, -np.inf, np.inf, 0.0)):
        for fn in (max_concurrence, max_negativity, negativity_2pn_from_spectrum):
            with pytest.raises(DomainError):
                fn(bad)


@pytest.mark.parametrize(
    "bad",
    [(0.2, 0.8), (0.5, 0.3, 0.2, 0.1, 0.0), (np.nan, 0.0, 0.0, 0.0), (np.inf, 0.0, 0.0, 0.0),
     (1.0, 0.0, 0.0, -np.inf), (0.9, 0.3, 0.0, 0.0)],
    ids=["length-2", "length-5", "nan", "inf", "-inf", "sum"],
)
def test_spectrum_validation(bad):
    # one validator for every spectrum: wrong length, non-finite values and a
    # bad sum raise, for the bounds and for the analytic eigenvalues alike
    for fn in (max_negativity, analytic.negative_eigs_2pn):
        with pytest.raises(DomainError):
            fn(np.array(bad))


def _random_spectra(n: int, seed: int) -> np.ndarray:
    """Descending simplex points; rows i % 3 == 0 and 1 have two and one zeros."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_exponential((n, 4))
    vals[0::3, 2:] = 0.0
    vals[1::3, 3] = 0.0
    vals /= vals.sum(axis=1, keepdims=True)
    return -np.sort(-vals, axis=1)


def _clip01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _sq(x: float) -> float:
    return x * x


# One-spectrum reference formulas in scalar math, row by row.
_ROW_REFERENCE = {
    max_concurrence: lambda l1, l2, l3, l4: _clip01(l1 - l3 - 2.0 * math.sqrt(l2 * l4)),
    max_negativity: lambda l1, l2, l3, l4: _clip01(math.hypot(l1 - l3, l2 - l4) - l2 - l4),
    negativity_2pn_from_spectrum: lambda *ls: _clip01((_sq(sum(map(math.sqrt, ls))) - 1.0) / 3.0),
}


@pytest.mark.parametrize("fn", list(_ROW_REFERENCE), ids=lambda fn: fn.__name__)
def test_stacked_spectrum_bounds_match_row_calls(fn):
    spectra = _random_spectra(2400, seed=17)
    stacked = fn(spectra)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (2400,)
    rows = [fn(row) for row in spectra]
    assert all(type(v) is float for v in rows)
    reference = [_ROW_REFERENCE[fn](*row) for row in spectra.tolist()]
    assert stacked.tolist() == rows == reference
    assert fn(spectra.reshape(2, 1200, 4)).shape == (2, 1200)


@pytest.mark.parametrize(
    "bad_row", [(0.9, 0.3, -0.1, -0.1), (0.5, 0.5, 0.5, 0.5), (np.nan, 1.0, 0.0, 0.0)]
)
def test_stacked_spectrum_bounds_reject_one_bad_row(bad_row):
    spectra = _random_spectra(50, seed=3)
    spectra[37] = bad_row
    for fn in _ROW_REFERENCE:
        with pytest.raises(DomainError):
            fn(spectra)


def test_negativity_2pn_values():
    assert negativity_2pn_from_spectrum((1.0, 0.0, 0.0, 0.0)) == 0.0
    assert abs(negativity_2pn_from_spectrum((0.25, 0.25, 0.25, 0.25)) - 1.0) < 1e-12
    expected = 1 / 3 + np.sqrt(1 / 3)
    assert abs(negativity_2pn_from_spectrum((0.5, 1 / 6, 1 / 6, 1 / 6)) - expected) < 1e-12


def test_negativity_2pn_rank2_reduction(rng):
    for lam in np.linspace(0.5, 1.0, 11):
        direct = negativity_2pn_from_spectrum((lam, 1 - lam, 0.0, 0.0))
        assert abs(direct - (2.0 / 3.0) * np.sqrt(lam * (1 - lam))) < 1e-12
