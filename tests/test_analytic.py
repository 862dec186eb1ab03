import numpy as np
import pytest

from monogamy_lab import measures, qcore
from monogamy_lab.analytic import (
    THRESHOLD_NEGATIVITY,
    cmax_boundary,
    ghz_protocol_analytics,
    ghz_s_l_from_min_xi2,
    negative_eigs_2pn,
    nmax_boundary_2p1,
    nmax_boundary_rank2,
    spectrum_state_2pn,
    threshold_negativity,
    verify_threshold_region,
)
from monogamy_lab.errors import DomainError
from oracle_utils import partial_transpose_ab


def test_cmax_boundary_endpoints():
    assert abs(cmax_boundary(0.0) - 1.0) < 1e-15
    assert abs(cmax_boundary(1.0) - 0.5) < 1e-15


def test_cmax_boundary_round_trip():
    grid = np.linspace(0.0, 1.0, 100)
    out = cmax_boundary(grid)
    # the bound c solves c_ab^2 = 4c - 4c^2
    assert np.max(np.abs(4 * out - 4 * out**2 - grid**2)) < 1e-12


def test_cmax_boundary_monotone_and_domain():
    grid = np.linspace(0.0, 1.0, 500)
    vals = cmax_boundary(grid)
    assert np.all(np.diff(vals) < 0)
    assert np.all((vals >= 0) & (vals <= 1))
    with pytest.raises(DomainError):
        cmax_boundary(1.2)
    for fn in (cmax_boundary, nmax_boundary_2p1, nmax_boundary_rank2, ghz_s_l_from_min_xi2):
        for bad in (np.nan, np.inf, -np.inf, np.array([0.1, np.nan])):
            with pytest.raises(DomainError):
                fn(bad)


def test_nmax_boundary_endpoints():
    assert abs(nmax_boundary_2p1(0.0) - 1.0) < 1e-15
    assert abs(nmax_boundary_2p1(1.0) - (np.sqrt(2) - 1) / 2) < 1e-15
    grid = np.linspace(0.0, 1.0, 500)
    assert np.all(np.diff(nmax_boundary_2p1(grid)) < 0)


def test_nmax_boundary_matches_rank2_spectra():
    for lam in np.linspace(0.5, 1.0, 50):
        n_ab = 2 * np.sqrt(lam * (1 - lam))
        direct = measures.max_negativity((lam, 1 - lam, 0.0, 0.0))
        assert abs(direct - nmax_boundary_2p1(n_ab)) < 1e-10


def test_rank2_rescaled_boundary():
    for lam in np.linspace(0.5, 1.0, 20):
        x = measures.negativity_2pn_from_spectrum((lam, 1 - lam, 0.0, 0.0))
        y = measures.max_negativity((lam, 1 - lam, 0.0, 0.0))
        assert abs(nmax_boundary_rank2(x) - y) < 1e-10


# ---------------------------------------------------------------------------
# 2+N negative eigenvalues


def test_negative_eigs_trivial_cases():
    assert np.allclose(negative_eigs_2pn((1.0, 0.0, 0.0, 0.0)), 0.0)
    vals = negative_eigs_2pn((0.5, 0.5, 0.0, 0.0))
    assert np.sum(vals < -1e-12) == 1
    assert abs(np.min(vals) + 0.5) < 1e-12
    flat = negative_eigs_2pn((0.25, 0.25, 0.25, 0.25))
    assert np.allclose(flat, -0.25)
    assert abs(np.sum(flat) + 1.5) < 1e-12


def test_negative_eigs_match_bruteforce(rng):
    for n_b in (2, 3, 4):
        for _ in range(10):
            spec = np.sort(rng.dirichlet(np.ones(4)))[::-1]
            psi = spectrum_state_2pn(spec, n_b)
            rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
            pt = partial_transpose_ab(rho, 4, 2**n_b)
            w = np.sort(np.linalg.eigvalsh(pt))
            analytic = np.sort(negative_eigs_2pn(spec))
            assert np.max(np.abs(w[:6] - analytic)) < 1e-9


def test_spectrum_state_has_requested_spectrum(rng):
    spec = (0.4, 0.3, 0.2, 0.1)
    psi = spectrum_state_2pn(spec, 3)
    rho_a = qcore.reduced_state_matrix(psi, 5, (0, 1))
    w = qcore.hermitian_eigenvalues(rho_a)
    assert np.allclose(w, spec, atol=1e-12)
    with pytest.raises(DomainError):
        spectrum_state_2pn(spec, 1)
    for fn in (lambda v: spectrum_state_2pn(v, 3), negative_eigs_2pn):
        with pytest.raises(DomainError):
            fn(np.array([spec, spec]))


# ---------------------------------------------------------------------------
# threshold


def test_threshold_value_and_state():
    assert abs(THRESHOLD_NEGATIVITY - 0.9106836025229591) < 1e-12
    assert abs(threshold_negativity() - (1 / 3 + np.sqrt(1 / 3))) < 1e-15
    st = np.array([1 / 2, 1 / 6, 1 / 6, 1 / 6])
    assert measures.max_negativity(st) < 1e-15
    assert abs(measures.negativity_2pn_from_spectrum(st) - THRESHOLD_NEGATIVITY) < 1e-12


def test_threshold_grid_verification():
    checked = verify_threshold_region()
    assert checked > 5_000_000
    # memoized: a second call returns the count without re-sweeping
    assert verify_threshold_region() == checked
    assert threshold_negativity() == THRESHOLD_NEGATIVITY


# ---------------------------------------------------------------------------
# closed-form protocol curves


def test_ghz_analytics_endpoints():
    rec = ghz_protocol_analytics(0.0, 0.0)
    assert rec.s_l_ab == 0.0 and rec.min_xi2_a == 0.0
    rec = ghz_protocol_analytics(np.pi / 4, 0.3)
    assert abs(rec.s_l_ab - 2 / 3) < 1e-12
    assert abs(rec.min_xi2_a - 1.0) < 1e-12
    assert rec.xi2_ab == 1.0


def test_ghz_analytics_consistency_grid():
    for phi in np.linspace(0.0, np.pi / 2, 1000):
        rec = ghz_protocol_analytics(phi, 0.0)
        assert abs(rec.s_l_from_min_xi2 - rec.s_l_ab) < 1e-12


def test_ghz_analytics_two_level_state():
    rec = ghz_protocol_analytics(0.37, 0.0)
    m = rec.rho_ab_2level
    assert abs(np.trace(m) - 1) < 1e-15
    assert np.max(np.abs(m - m.conj().T)) < 1e-15
    w = np.linalg.eigvalsh(m)
    assert w[0] > -1e-15  # pure-state projector: eigenvalues {0, 1}
    assert abs(w[1] - 1) < 1e-12


def test_ghz_inversion_map_monotone():
    grid = np.linspace(0.0, 1.0, 500)
    vals = ghz_s_l_from_min_xi2(grid)
    assert np.all(np.diff(vals) > 0)
    assert abs(vals[0]) < 1e-15
    assert abs(vals[-1] - 2 / 3) < 1e-15


def test_ghz_analytics_vs_reduced_two_level_simulation():
    # the 2x2 record equals the effective two-level density matrix of the
    # simulated register trajectory
    from monogamy_lab.hamiltonians import build

    h = build("ghz", 4)
    for phi in (0.2, 0.8, 1.4):
        psi = qcore.evolve(qcore.PureState(4, np.eye(16)[0]), h, phi)
        amps = psi.amplitudes
        two = np.array(
            [[amps[0] * amps[0].conj(), amps[0] * amps[15].conj()],
             [amps[15] * amps[0].conj(), amps[15] * amps[15].conj()]]
        )
        assert np.max(np.abs(two - ghz_protocol_analytics(phi, 0.0).rho_ab_2level)) < 1e-12
