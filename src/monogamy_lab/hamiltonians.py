"""Builders for the twisting and GHZ-generator Hamiltonians.

`build(kind, n)` forms a generator on a whole n-qubit register, as a dense
2^n matrix; `_build_symmetric(kind, n)` forms the same generator on the
register's symmetric subspace sym(n), from spin-j matrices, for callers that
evolve there. Both share one kind dispatch. Every generator has unit
coupling (hbar = 1): a coupling g would only rescale time, so times are in
units of 1/g.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import qcore, spin
from .errors import DimensionMismatchError, DomainError, check_count

SYMMETRY_TOL = 1e-10  # largest defect entry `symmetry_report` counts as zero


class HamiltonianKind(enum.Enum):
    OAT = "oat"
    TF = "tf"
    TAT = "tat"
    GHZ = "ghz"


def _as_kind(kind) -> HamiltonianKind:
    if isinstance(kind, HamiltonianKind):
        return kind
    try:
        return HamiltonianKind(str(kind).lower())
    except ValueError:
        raise DomainError(f"unknown Hamiltonian kind {kind!r}") from None


def _kind_matrix(kind: HamiltonianKind, spin_ops, flip) -> np.ndarray:
    """The generator of one kind from ``spin_ops()`` -> a `CollectiveSpinOps`
    and ``flip()`` -> the flip of every spin, in whichever basis those two
    callables build them."""
    if kind is HamiltonianKind.GHZ:
        return flip()
    ops = spin_ops()
    jx, jy, jz = ops.jx, ops.jy, ops.jz
    if kind is HamiltonianKind.OAT:
        return jx @ jx
    if kind is HamiltonianKind.TF:
        return jx @ jx + jz
    return jx @ jy + jy @ jx  # TAT


def build(kind, n: int) -> np.ndarray:
    """The generator of the given kind on an n-qubit register, as a frozen
    dense 2^n matrix.

    kinds: 'oat' -> Jx^2; 'tf' -> Jx^2 + Jz; 'tat' -> Jx Jy + Jy Jx; 'ghz'
    -> the product of sigma_x over every qubit. The J are the collective
    spin matrices of ``spin.collective_ops(n)``.
    """
    kind = _as_kind(kind)
    n = check_count("register size", n)
    m = _kind_matrix(kind, lambda: spin.collective_ops(n), lambda: qcore.pauli_product(qcore.PAULI_X, n))
    m = np.ascontiguousarray(m)
    m.setflags(write=False)
    return m


def _build_symmetric(kind, n: int) -> np.ndarray:
    """``build(kind, n)`` restricted to sym(n), formed there directly: an
    (n+1, n+1) matrix in the basis of ``qcore.symmetric_isometry(n)``
    (column k has k spins down).

    The collective kinds use the spin-j matrices of ``spin.symmetric_ops(n)``;
    the product of sigma_x flips every spin, so GHZ maps k to n - k.
    """
    return _kind_matrix(
        _as_kind(kind),
        lambda: spin.symmetric_ops(n),
        lambda: np.eye(n + 1, dtype=np.complex128)[::-1].copy(),
    )


@dataclass(frozen=True)
class SymmetryReport:
    """Which symmetries of its register a generator preserves.

    spin_flip: invariance under J -> -J, the antiunitary flip implemented as
    conjugation by the product of sigma_y over the register combined with
    complex conjugation. x_rotation: [H, Jx] = 0. z_parity: invariance under
    (Jx, Jy) -> (-Jx, -Jy), the pi rotation about z.
    """

    spin_flip: bool
    x_rotation: bool
    z_parity: bool


def symmetry_report(matrix: np.ndarray) -> SymmetryReport:
    """The symmetries of a generator on an n-qubit register, n read from the
    matrix's dimension 2^n."""
    m = np.asarray(matrix)
    n = m.shape[0].bit_length() - 1
    if n < 1 or m.shape != (2**n, 2**n):
        raise DimensionMismatchError(f"expected a 2^n x 2^n matrix with n >= 1, got shape {m.shape}")
    flip = qcore.pauli_product(qcore.PAULI_Y, n)
    spin_flip = float(np.max(np.abs(flip @ m.conj() @ flip.conj().T - m))) <= SYMMETRY_TOL

    jx = spin.collective_ops(n).jx
    x_rotation = float(np.max(np.abs(m @ jx - jx @ m))) <= SYMMETRY_TOL

    parity = qcore.pauli_product(qcore.PAULI_Z, n)
    z_parity = float(np.max(np.abs(parity @ m @ parity.conj().T - m))) <= SYMMETRY_TOL

    return SymmetryReport(spin_flip, x_rotation, z_parity)
