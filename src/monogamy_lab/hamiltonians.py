"""Builders for the twisting and GHZ-generator Hamiltonians.

`build` places the interaction on a qubit subset of a register, acting as
identity elsewhere, as a dense 2^n matrix. `_build_symmetric` forms the
same generators on the whole register's symmetric subspace sym(n), from
spin-j matrices, for callers that evolve there; both share one kind
dispatch. Every generator has unit coupling (hbar = 1): a coupling g
would only rescale time, so times are in units of 1/g.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import qcore, spin
from .errors import DomainError, is_integer

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


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    kind: HamiltonianKind
    subset: tuple[int, ...]
    n_total: int
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _kind_matrix(kind: HamiltonianKind, spin_ops, flip) -> np.ndarray:
    """The generator of one kind from ``spin_ops()`` -> (Jx, Jy, Jz) and
    ``flip()`` -> the flip of every spin, in whichever basis those two
    callables build them."""
    if kind is HamiltonianKind.GHZ:
        return flip()
    jx, jy, jz = spin_ops()
    if kind is HamiltonianKind.OAT:
        return jx @ jx
    if kind is HamiltonianKind.TF:
        return jx @ jx + jz
    return jx @ jy + jy @ jx  # TAT


def build(kind, subset, n_total: int) -> Hamiltonian:
    """Construct a Hamiltonian of the given kind on a subset of a register.

    kinds: 'oat' -> Jx^2; 'tf' -> Jx^2 + Jz; 'tat' -> Jx Jy + Jy Jx; 'ghz'
    -> the product of sigma_x over the subset. Collective operators are
    summed over the subset only; ``range(n_total)`` is the whole register.
    """
    kind = _as_kind(kind)
    subset = tuple(subset)
    if not all(map(is_integer, subset)):
        raise DomainError(f"qubit indices must be integers, got {subset}")
    subset = tuple(map(int, subset))
    if not subset:
        raise DomainError("Hamiltonian subset must be non-empty")
    if len(set(subset)) != len(subset) or min(subset) < 0 or max(subset) >= n_total:
        raise DomainError(f"subset {subset} invalid for a {n_total}-qubit register")

    m = _kind_matrix(
        kind,
        lambda: spin.collective_spin_matrices(subset, n_total),
        lambda: qcore.pauli_product(qcore.PAULI_X, subset, n_total),
    )
    m = np.ascontiguousarray(m)
    m.setflags(write=False)
    return Hamiltonian(kind, subset, int(n_total), m)


def _build_symmetric(kind, n: int) -> np.ndarray:
    """``build(kind, range(n), n).matrix`` restricted to sym(n), formed there
    directly: an (n+1, n+1) matrix in the basis of
    ``qcore.symmetric_isometry(n)`` (column k has k spins down).

    The collective kinds use the spin-j matrices of ``spin.symmetric_ops(n)``;
    the product of sigma_x flips every spin, so GHZ maps k to n - k.
    """
    ops = spin.symmetric_ops(n)
    return _kind_matrix(
        _as_kind(kind),
        lambda: (ops.jx, ops.jy, ops.jz),
        lambda: np.eye(n + 1, dtype=np.complex128)[::-1].copy(),
    )


@dataclass(frozen=True)
class SymmetryReport:
    """Which symmetries of its qubit subset a Hamiltonian preserves.

    spin_flip: invariance under J -> -J, the antiunitary flip implemented as
    conjugation by the product of sigma_y over the subset combined with
    complex conjugation. x_rotation: [H, Jx] = 0. z_parity: invariance under
    (Jx, Jy) -> (-Jx, -Jy), the pi rotation about z.
    """

    spin_flip: bool
    x_rotation: bool
    z_parity: bool


def symmetry_report(h: Hamiltonian) -> SymmetryReport:
    m = h.matrix
    n = h.n_total
    flip = qcore.pauli_product(qcore.PAULI_Y, h.subset, n)
    spin_flip = float(np.max(np.abs(flip @ m.conj() @ flip.conj().T - m))) <= SYMMETRY_TOL

    jx, _, _ = spin.collective_spin_matrices(h.subset, n)
    x_rotation = float(np.max(np.abs(m @ jx - jx @ m))) <= SYMMETRY_TOL

    parity = qcore.pauli_product(qcore.PAULI_Z, h.subset, n)
    z_parity = float(np.max(np.abs(parity @ m @ parity.conj().T - m))) <= SYMMETRY_TOL

    return SymmetryReport(spin_flip, x_rotation, z_parity)
