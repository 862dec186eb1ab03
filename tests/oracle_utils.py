"""Independent reference implementations used only to check the package.

Everything here goes through numpy's LAPACK-backed linear algebra, not the
package's own eigensolver, so the two routes stay independent.
"""

import numpy as np


def random_state(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(dim, rng, rank=None):
    rank = rank or dim
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def partial_transpose_ab(rho, d_a, d_b):
    """Partial transpose over the leading d_a-dimensional factor."""
    t = rho.reshape(d_a, d_b, d_a, d_b)
    return t.transpose(2, 1, 0, 3).reshape(d_a * d_b, d_a * d_b)


def negativity_bruteforce(rho, d_a, d_b):
    w = np.linalg.eigvalsh(partial_transpose_ab(rho, d_a, d_b))
    return float(-np.sum(w[w < -1e-10]))


def embed_unitary_on_a(u_a, d_b):
    return np.kron(u_a, np.eye(d_b, dtype=complex))


def squeezing_scan(state_or_rho, ops, n_angles=3600):
    """Brute-force squeezing parameter: scan directions in the plane
    perpendicular to the mean spin (or the whole sphere when the mean spin
    vanishes) and take the smallest variance."""
    paulis = [ops.jx, ops.jy, ops.jz]
    if state_or_rho.ndim == 1:
        psi = state_or_rho
        mean = np.array([np.vdot(psi, j @ psi).real for j in paulis])
        second = np.array(
            [[np.vdot(psi, (a @ b) @ psi).real for b in paulis] for a in paulis]
        )
    else:
        rho = state_or_rho
        mean = np.array([np.trace(rho @ j).real for j in paulis])
        second = np.array(
            [[np.trace(rho @ (a @ b)).real for b in paulis] for a in paulis]
        )
    second = 0.5 * (second + second.T)
    gamma = second - np.outer(mean, mean)
    norm = np.linalg.norm(mean)
    if norm < 1e-9:
        best = np.inf
        thetas = np.arccos(np.linspace(-1, 1, 201))
        phis = np.linspace(0, 2 * np.pi, 401)
        best_n = None
        for th in thetas:
            for ph in phis:
                n = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
                val = float(n @ gamma @ n)
                if val < best:
                    best, best_n = val, n
        # local fine scan in a small cap around the best direction
        seed = np.zeros(3)
        seed[int(np.argmin(np.abs(best_n)))] = 1.0
        u1 = seed - (seed @ best_n) * best_n
        u1 /= np.linalg.norm(u1)
        u2 = np.cross(best_n, u1)
        for a in np.linspace(-0.03, 0.03, 121):
            for b in np.linspace(-0.03, 0.03, 121):
                n = best_n + a * u1 + b * u2
                n /= np.linalg.norm(n)
                best = min(best, float(n @ gamma @ n))
    else:
        unit = mean / norm
        seed = np.zeros(3)
        seed[int(np.argmin(np.abs(unit)))] = 1.0
        v1 = seed - (seed @ unit) * unit
        v1 /= np.linalg.norm(v1)
        v2 = np.cross(unit, v1)

        def var_at(ang):
            n = np.cos(ang) * v1 + np.sin(ang) * v2
            return float(n @ gamma @ n)

        coarse = np.linspace(0.0, np.pi, n_angles, endpoint=False)
        vals = np.array([var_at(a) for a in coarse])
        i = int(np.argmin(vals))
        step = np.pi / n_angles
        fine = np.linspace(coarse[i] - step, coarse[i] + step, 1201)
        best = min(vals[i], min(var_at(a) for a in fine))
    return 4.0 * max(best, 0.0) / ops.n_spins


def _xi2_from_spin_moments(mean, second, n_spins):
    """Squeezing parameter for each row of a (T, 3) mean spin and (T, 3, 3)
    second moments: the least covariance eigenvalue on the plane
    perpendicular to the mean spin, or on all of space without a mean spin."""
    gamma = second - mean[:, :, None] * mean[:, None, :]
    lam = np.empty(mean.shape[0])
    for i, (m, g) in enumerate(zip(mean, gamma)):
        norm = np.linalg.norm(m)
        if norm < 1e-9:
            lam[i] = np.linalg.eigvalsh(g)[0]
        else:
            frame = np.linalg.svd(m[None, :] / norm)[2][1:]  # (2, 3) orthonormal, perpendicular to m
            lam[i] = np.linalg.eigvalsh(frame @ g @ frame.T)[0]
    return 4.0 * np.clip(lam, 0.0, None) / n_spins


def explore_dense(rho, hamiltonian, spin_ops, tp, qubits_a):
    """The qubit-space explore route: squeezing and normalized negativity
    across qubits_a | rest of rho evolved under the Hamiltonian for each time
    in tp. spin_ops holds the (Jx, Jy, Jz) matrices of the register."""
    d = rho.shape[0]
    n = d.bit_length() - 1
    w, v = np.linalg.eigh(hamiltonian)
    rho_eig = v.conj().T @ rho @ v
    d_min = 2 ** min(len(qubits_a), n - len(qubits_a))
    neg = np.empty(tp.size)
    mean, second = np.empty((tp.size, 3)), np.empty((tp.size, 3, 3))
    for i, tau in enumerate(tp):
        e = np.exp(-1j * w * tau)
        rho_t = v @ (np.outer(e, e.conj()) * rho_eig) @ v.conj().T
        mean[i] = [np.trace(rho_t @ j).real for j in spin_ops]
        second[i] = [[np.trace(rho_t @ (a @ b + b @ a)).real / 2 for b in spin_ops] for a in spin_ops]
        axes = list(range(2 * n))
        for q in qubits_a:
            axes[q], axes[n + q] = axes[n + q], axes[q]
        pt = rho_t.reshape((2,) * (2 * n)).transpose(axes).reshape(d, d)
        ev = np.linalg.eigvalsh(pt)
        neg[i] = min(max(-np.sum(ev[ev < -1e-10]) / ((d_min - 1) / 2.0), 0.0), 1.0)
    return _xi2_from_spin_moments(mean, second, n), neg
