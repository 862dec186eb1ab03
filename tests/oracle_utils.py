"""Independent reference implementations used only to check the package.

Everything here goes through numpy's LAPACK-backed linear algebra, not the
package's own eigensolver, so the two routes stay independent. Earlier
package routes are kept as bit-for-bit references of their replacements:
`jacobi_eigh_one`, the one-matrix complex Jacobi solver behind the stacked
one and the real path, `xi2_from_moment_arrays_reference`, the (T, 3, 3)
einsum form of the squeezing parameter behind its component rows,
`write_csv_reference`, the per-cell CSV writer behind `cli._write_csv`,
`haar_amplitudes_reference`, the one-state Haar draw behind the batched
normalisation in `sampling`, `schmidt_concurrence` on `FIG2_PARTITION`,
the register reduce and Jacobi solve behind fig2's C_AB, which
`measures._two_level_concurrence` takes from the coefficient stack, and
`refine_reference`, the per-row scalar
golden-section search behind the protocol's block refine (it runs on the
package's own engine, whose grid sweep it shares). `_symmetric_part` is the
restriction of a qubit-space rho_A to sym(A) that explore took before it
took A's sym(A) state, C C^dagger, directly.
"""

import math
from dataclasses import replace

import numpy as np

from monogamy_lab import protocol, qcore, spin
from monogamy_lab.errors import ContractViolationError


def random_state(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_amplitudes_reference(rng, dim):
    """One Haar state's amplitudes, drawn and normalised one state at a
    time: two ``standard_normal(dim)`` calls, real parts then imaginary
    parts, divided by the vector's ``np.linalg.norm``."""
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return amps / np.linalg.norm(amps)


FIG2_PARTITION = qcore.Partition((0, 1), (2,))


def schmidt_concurrence(state, partition):
    """A|B concurrence 2 sqrt(l1 (1 - l1)) of a pure state, with l1 the
    largest eigenvalue of its reduced state on the smaller side, reduced
    from the register and solved by the package's Jacobi route. It equals
    the two-qubit pure-state concurrence whenever that state has rank two."""
    keep = (
        partition.qubits_a
        if len(partition.qubits_a) <= len(partition.qubits_b)
        else partition.qubits_b
    )
    rho = qcore.reduced_state_matrix(state.amplitudes, state.n_qubits, keep)
    l1 = np.clip(qcore.hermitian_eigenvalues(rho)[..., 0], 0.0, 1.0)
    return float(2.0 * np.sqrt(l1 * (1.0 - l1)))


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


def embed_single_qubit_op(op, qubit, n_qubits):
    """A one-qubit operator on one qubit of an n-qubit register, qubit 0 the
    most significant bit: kron(1_(2^qubit), op, 1_(2^(n - qubit - 1)))."""
    left = np.eye(2**qubit, dtype=np.complex128)
    right = np.eye(2 ** (n_qubits - qubit - 1), dtype=np.complex128)
    return np.kron(np.kron(left, np.asarray(op, dtype=np.complex128)), right)


def collective_ops_kron(n_spins):
    """(Jx, Jy, Jz) of n spin-1/2 particles as the package formed them before
    index arithmetic: half the sum of each Pauli matrix's Kronecker
    embeddings, summed over the qubits in order from a complex zero."""
    out = []
    for pauli in (qcore.PAULI_X, qcore.PAULI_Y, qcore.PAULI_Z):
        j = np.zeros((2**n_spins, 2**n_spins), dtype=np.complex128)
        for i in range(n_spins):
            j += embed_single_qubit_op(pauli, i, n_spins)
        out.append(0.5 * j)
    return out


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


def spin_frame_reference(moments):
    """`spin._spin_frame` in its (T, 3) and (T, 3, 3) form: mean spin (T, 3),
    covariance (T, 3, 3), the degenerate-mean-spin mask, and the two unit
    vectors (T, 3) spanning the plane perpendicular to the mean spin."""
    moments = np.asarray(moments, dtype=float)
    mean = moments[:3].T
    sxx, syy, szz, sxy, sxz, syz = moments[3:]
    t = mean.shape[0]
    gamma = np.empty((t, 3, 3))
    gamma[:, 0, 0], gamma[:, 1, 1], gamma[:, 2, 2] = sxx, syy, szz
    gamma[:, 0, 1] = gamma[:, 1, 0] = sxy
    gamma[:, 0, 2] = gamma[:, 2, 0] = sxz
    gamma[:, 1, 2] = gamma[:, 2, 1] = syz
    gamma -= mean[:, :, None] * mean[:, None, :]

    norm = np.linalg.norm(mean, axis=1)
    degenerate = norm < spin.DEGENERATE_MEAN_SPIN_TOL
    unit = mean / np.where(degenerate, 1.0, norm)[:, None]
    e = np.zeros((t, 3))
    e[np.arange(t), np.argmin(np.abs(unit), axis=1)] = 1.0
    v1 = e - np.sum(e * unit, axis=1)[:, None] * unit
    v1 /= np.linalg.norm(v1, axis=1)[:, None]
    return mean, gamma, degenerate, v1, np.cross(unit, v1)


def xi2_from_moment_arrays_reference(moments, n_spins):
    """`spin.xi2_from_moment_arrays` on the frame of `spin_frame_reference`:
    each quadratic form of the covariance by one einsum over the (T, 3, 3)
    array, and each degenerate point's least covariance eigenvalue from the
    one-matrix kernel `jacobi_eigh_one`."""
    _, gamma, degenerate, v1, v2 = spin_frame_reference(moments)
    g11 = np.einsum("ti,tij,tj->t", v1, gamma, v1)
    g22 = np.einsum("ti,tij,tj->t", v2, gamma, v2)
    g12 = np.einsum("ti,tij,tj->t", v1, gamma, v2)
    lam = 0.5 * (g11 + g22) - 0.5 * np.hypot(g11 - g22, 2.0 * g12)
    for i in np.flatnonzero(degenerate):
        lam[i] = jacobi_eigh_one(gamma[i], compute_vectors=False)[0][-1]
    return 4.0 * np.clip(lam, 0.0, None) / n_spins, degenerate


def _symmetric_part(rho, iso):
    """A (..., d, d) stack of density matrices restricted by the isometry iso;
    weight outside the subspace raises ContractViolationError."""
    sym = iso.T @ rho @ iso
    protocol._check_weight_inside(np.trace(sym, axis1=-2, axis2=-1).real)
    return sym


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


def oat_closed_form(n_a, n_b, t):
    """Register squeezing xi2_AB and A|B linear entropy S_L,AB of the all-down
    state of n_a + n_b qubits after one-axis twisting (Jx^2) for times t,
    in closed form (Kitagawa & Ueda, PRA 47, 5138 (1993); Ma et al., Phys. Rep.
    509, 89 (2011)).

    With N = n_a + n_b and mu = 2t, A = 1 - cos^(N-2) mu and
    B = 4 sin(mu/2) cos^(N-2)(mu/2) give xi2 = 1 + (N-1)/4 (A - sqrt(A^2+B^2)).
    Each A configuration with k flipped spins has weight p_k = C(n_a,k)/2^n_a,
    and B dephases the pair (k, k') by cos^n_b(t (k-k')), so the purity is
    sum p_k p_k' cos^(2 n_b)(t (k-k')).
    """
    t = np.asarray(t, dtype=float)
    n = n_a + n_b
    mu = 2.0 * t
    a = 1.0 - np.cos(mu) ** (n - 2)
    b = 4.0 * np.sin(mu / 2) * np.cos(mu / 2) ** (n - 2)
    xi2 = 1.0 + (n - 1) / 4.0 * (a - np.sqrt(a * a + b * b))
    k = np.arange(n_a + 1)
    p = np.array([math.comb(n_a, j) for j in k]) / 2.0**n_a
    dephase = np.cos(t[:, None, None] * (k[:, None] - k[None, :])) ** (2 * n_b)
    d = 2.0**n_a
    return xi2, d / (d - 1) * (1.0 - np.einsum("i,j,tij->t", p, p, dephase))


_JACOBI_MAX_SWEEPS = 64
_JACOBI_REL_TOL = 1e-14


def _jacobi_kernel(a, v, compute_v, tol):
    n = a.shape[0]
    for sweep in range(_JACOBI_MAX_SWEEPS):
        off2 = float(np.sum(np.abs(np.triu(a, 1)) ** 2))
        if math.sqrt(2.0 * off2) <= tol:
            return sweep
        thresh = tol / (2.0 * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                b = abs(apq)
                if b <= thresh:
                    continue
                phi = 0.5 * math.atan2(2.0 * b, a[p, p].real - a[q, q].real)
                c = math.cos(phi)
                s = math.sin(phi)
                u = apq / b
                su = s * u
                suc = s * u.conjugate()
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp + suc * colq
                a[:, q] = -su * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp + su * rowq
                a[q, :] = -suc * rowp + c * rowq
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                if compute_v:
                    colp = v[:, p].copy()
                    colq = v[:, q].copy()
                    v[:, p] = c * colp + suc * colq
                    v[:, q] = -su * colp + c * colq
    return -1


def jacobi_eigh_one(matrix, compute_vectors=True):
    """Descending eigenvalues and eigenvector columns of one Hermitian matrix
    by cyclic Jacobi rotations, one matrix per call: the package's rotations
    before it took stacks. Its tolerance is 1e-14 times the Frobenius norm
    summed row by row: each row's squared norm as ``np.linalg.norm`` takes
    it (re . re + im . im), the rows' squares summed by ``np.sum``."""
    a = np.array(matrix, dtype=np.complex128, order="C", copy=True)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128) if compute_vectors else np.empty((1, 1), dtype=np.complex128)
    rows = np.array([row.real.dot(row.real) + row.imag.dot(row.imag) for row in a])
    tol = _JACOBI_REL_TOL * max(1e-300, float(np.sqrt(np.sum(rows))))

    if _jacobi_kernel(a, v, compute_vectors, tol) < 0:
        raise ContractViolationError("Jacobi eigensolver failed to converge")

    w = np.real(np.diag(a)).copy()
    order = np.argsort(-w, kind="stable")
    w = w[order]
    if compute_vectors:
        return w, np.ascontiguousarray(v[:, order])
    return w, None


def write_csv_reference(path, columns):
    """The per-cell CSV writer: floats by ``format(x, ".17g")``, bools and ints
    as integers, enums by their value, one joined row at a time."""

    def cells(column):
        kind = column.dtype.kind
        if kind == "f":
            fmt = lambda v: format(float(v), ".17g")
        elif kind == "O":
            fmt = lambda v: v.value
        else:
            fmt = lambda v: str(int(v))
        return map(fmt, column.tolist())

    count = 0
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*map(cells, columns.values()), strict=True):
            fh.write(",".join(row) + "\n")
            count += 1
    return count


_INVGOLD = (math.sqrt(5.0) - 1.0) / 2.0


def xi2_at_reference(eng, products, tau):
    """xi2 of one row, with (9, d, d) moment products, at one local time:
    one `spin.xi2_from_moment_arrays` call with T = 1."""
    e = np.exp(-1j * eng.eigenvalues * tau)
    vals = (products * np.outer(e, e.conj())).sum(axis=(1, 2)).real
    xi2, _ = spin.xi2_from_moment_arrays(vals[:, None], eng.n_spins)
    return float(xi2[0])


def golden_min_reference(f, lo, hi, tol):
    """Golden-section search of f over [lo, hi], one point per iteration,
    until the bracket is no wider than tol: its midpoint and f there."""
    a, b = lo, hi
    c = b - _INVGOLD * (b - a)
    d = a + _INVGOLD * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVGOLD * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVGOLD * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def min_over_tp_reference(xi2_grid, tp, f, tol):
    """Grid minimum refined by golden-section search in its bracket, the
    grid points either side of the argmin; never above the grid minimum."""
    i = int(np.argmin(xi2_grid))
    best_tau, best_val = float(tp[i]), float(xi2_grid[i])
    lo, hi = float(tp[max(i - 1, 0)]), float(tp[min(i + 1, tp.size - 1)])
    if hi > lo:
        tau, val = golden_min_reference(f, lo, hi, tol)
        if val < best_val:
            best_tau, best_val = float(tau), float(val)
    return best_tau, best_val


def refine_reference(stage, kind, tp_grid):
    """`protocol.sweep`'s min_xi2_a, argmin_tp, nonmonotone and
    negativity_drift from a scalar search per row: each row's grid sweep,
    then `min_over_tp_reference` with one T = 1 evaluation per point. The
    flags and the drift come from the protocol's own helpers."""
    cfg = replace(stage.config, h_a_kind=kind, tp_grid=tp_grid)
    tp = cfg.tp_grid
    eng = protocol._dense_engine(cfg.h_a_kind, cfg.n_a, tp)
    min_xi2, argmin_tp = np.empty(len(stage.rho_a)), np.empty(len(stage.rho_a))
    for i, rho in enumerate(stage.rho_a):
        products = eng.moment_products(eng.to_eigenbasis(rho))
        grid, _ = eng.xi2_sweep(products)
        argmin_tp[i], min_xi2[i] = min_over_tp_reference(
            grid, tp, lambda tau: xi2_at_reference(eng, products, tau), protocol.REFINE_TOL)
    s_l = stage.s_l_ab
    flags = protocol._nonmonotone_flags(min_xi2, s_l, protocol._flag_threshold(s_l))
    drift = protocol._negativity_drift(eng, stage.coeffs, tp, argmin_tp)
    return min_xi2, argmin_tp, flags, drift
