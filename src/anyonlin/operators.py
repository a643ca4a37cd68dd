"""Dense sector matrices for quadratic anyonic operators.

Builds chi†_i chi_j bilinears, SU(2) generators for a mode pair, full
passive quadratic Hamiltonians, Jordan-Wigner images of single ladder
operators, the commutator-closure defect of the quadratic algebra, and
the diagonal Kerr Hamiltonian on a mode pair.

For anyons the quadratic algebra is *not* closed: the commutator of two
bilinears picks up a quartic remainder

    [chi†_i chi_j, chi†_k chi_l] = d_jk chi†_i chi_l - d_il chi†_k chi_j
                                   + Delta(i,j,k,l) chi†_i chi†_k chi_j chi_l,

with Delta a phi-dependent coefficient that vanishes identically at
phi = 0.  Restricted to a single mode pair, however, the three J
operators close an SU(2) algebra for every phi, which is what makes the
optical-network machinery work.

Sector dimensions stay small at desk scale, so all matrices are dense
and unitaries are produced by exact Hermitian eigendecomposition.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .fock import (
    AnyonSpec,
    FockSector,
    _check_mode,
    _ladder,
    enumerate_sector,
    sign_eps,
)

__all__ = [
    "ATOL_ALGEBRA",
    "ATOL_PHYSICS",
    "QuadraticCoeffs",
    "creation_matrix",
    "annihilation_matrix",
    "quadratic_matrix",
    "number_matrix",
    "su2_generators",
    "hamiltonian",
    "closure_defect",
    "closure_defect_coefficient",
    "quartic_term",
    "jw_image",
    "kerr_hamiltonian",
]

#: Tolerance for exact algebraic identities (commutators, unitarity, ...).
ATOL_ALGEBRA = 1e-12
#: Tolerance for physics-level comparisons that stack several evolutions.
ATOL_PHYSICS = 1e-10


def _ladder_matrix(sector: FockSector, target: FockSector,
                   ladders: tuple[tuple[int, bool], ...]) -> np.ndarray:
    """Dense matrix of a ladder product from sector to target; ``ladders``
    lists (mode, create) in the order they act, annihilations first.

    Column c is basis state c run through the ladder loop ``fock._ladder``
    once per ladder, so each entry is the state rule's own product of
    ``ladder_factor``s, bit for bit; annihilating the vacuum gives a zero
    column.
    """
    for mode, _ in ladders:
        _check_mode(sector.m, mode)
    mat = np.zeros((target.dim, sector.dim), dtype=np.complex128)
    for col, occ in enumerate(sector.basis):
        inner, amps = sector, {occ: 1.0}
        for mode, create in ladders:
            if not (amps and (create or inner.n_total)):
                amps = {}   # a zero column: nothing left, or the vacuum annihilated
                break
            inner, amps = _ladder(inner, amps, mode, create)
        for row, amp in amps.items():
            mat[target.index[row], col] = amp
    return mat


def creation_matrix(sector: FockSector, i: int) -> np.ndarray:
    """Rectangular matrix of chi†_i from the given sector to the one above.

    Shape is (dim(n+1), dim(n)); for fermions at full filling the target
    space is empty and a (0, dim) matrix is returned.
    """
    if sector.spec.is_fermionic and sector.n_total + 1 > sector.m:
        return np.zeros((0, sector.dim), dtype=np.complex128)
    target = enumerate_sector(sector.m, sector.n_total + 1, sector.spec)
    return _ladder_matrix(sector, target, ((i, True),))


def annihilation_matrix(sector: FockSector, i: int) -> np.ndarray:
    """Rectangular matrix of chi_i from the given sector to the one below."""
    if sector.n_total == 0:
        return np.zeros((0, sector.dim), dtype=np.complex128)
    target = enumerate_sector(sector.m, sector.n_total - 1, sector.spec)
    return _ladder_matrix(sector, target, ((i, False),))


def quadratic_matrix(sector: FockSector, i: int, j: int) -> np.ndarray:
    """Matrix of chi†_i chi_j on the sector (number preserving).

    The annihilation rule on mode j followed by the creation rule on
    mode i, so the single phase rule ``ladder_factor`` governs both this
    and every state-level operation.
    """
    return _ladder_matrix(sector, sector, ((j, False), (i, True)))


def number_matrix(sector: FockSector, i: int) -> np.ndarray:
    """Diagonal matrix of n_i = chi†_i chi_i."""
    return np.diag(sector.occ[:, i - 1].astype(np.complex128))


def su2_generators(sector: FockSector, i: int, j: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mode-pair angular momentum operators (J1, J2, J3).

    J1 = (chi†_i chi_j + chi†_j chi_i) / 2
    J2 = -i (chi†_i chi_j - chi†_j chi_i) / 2
    J3 = (n_i - n_j) / 2

    They satisfy [J_k, J_l] = i eps_klm J_m on every sector and for every
    exchange phase, even though the full quadratic algebra does not close.
    """
    qij = quadratic_matrix(sector, i, j)
    qji = quadratic_matrix(sector, j, i)
    j3 = (number_matrix(sector, i) - number_matrix(sector, j)) / 2.0
    return (qij + qji) / 2.0, -0.5j * (qij - qji), j3


@dataclass(frozen=True)
class QuadraticCoeffs:
    """Coefficients of a passive quadratic Hamiltonian.

    a is the real on-site vector, b the off-site hopping matrix with zero
    diagonal.  Hermiticity b_ij = conj(b_ji) is validated and then
    enforced exactly by mirroring the lower triangle.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.complex128)
        if a.ndim != 1:
            raise ValueError("a must be a vector")
        if b.shape != (a.size, a.size):
            raise ValueError(f"b must be {a.size}x{a.size}, got {b.shape}")
        if np.max(np.abs(np.diag(b))) > 0.0:
            raise ValueError("b must have zero diagonal")
        if np.max(np.abs(b - b.conj().T)) > ATOL_ALGEBRA:
            raise ValueError("b must be Hermitian (b_ij = conj(b_ji))")
        lower = np.tril(b, -1)
        b = lower + lower.conj().T
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.a.size


def hamiltonian(sector: FockSector, coeffs: QuadraticCoeffs) -> np.ndarray:
    """H = sum_i a_i n_i + sum_{i != j} b_ij chi†_i chi_j on the sector."""
    if coeffs.m != sector.m:
        raise ValueError(f"coefficients are for {coeffs.m} modes, sector has {sector.m}")
    mat = np.zeros((sector.dim, sector.dim), dtype=np.complex128)
    for i in range(1, sector.m + 1):
        if coeffs.a[i - 1] != 0.0:
            mat += coeffs.a[i - 1] * number_matrix(sector, i)
    for i in range(1, sector.m + 1):
        for j in range(1, sector.m + 1):
            bij = coeffs.b[i - 1, j - 1]
            if i != j and bij != 0.0:
                mat += bij * quadratic_matrix(sector, i, j)
    return mat


def closure_defect_coefficient(spec: AnyonSpec, i: int, j: int, k: int, l: int) -> complex:
    """Coefficient Delta of the quartic remainder in [chi†_i chi_j, chi†_k chi_l].

    Bosonic:   e^{-i phi eps(j,k)} - e^{-i phi (eps(l,i) - eps(k,i) - eps(l,j))}
    Fermionic: the negative of the above.
    """
    first = cmath.exp(-1j * spec.phi * sign_eps(j, k))
    second = cmath.exp(-1j * spec.phi * (sign_eps(l, i) - sign_eps(k, i) - sign_eps(l, j)))
    delta = first - second
    return -delta if spec.is_fermionic else delta


def quartic_term(sector: FockSector, i: int, j: int, k: int, l: int) -> np.ndarray:
    """Matrix of the normal-ordered quartic chi†_i chi†_k chi_j chi_l.

    This is the operator multiplying Delta(i,j,k,l) in the closure
    defect: creations on i and k, annihilations on j and l (with chi_l
    acting first).
    """
    ladders = ((l, False), (j, False), (k, True), (i, True))
    return _ladder_matrix(sector, sector, ladders)


def closure_defect(sector: FockSector, i: int, j: int, k: int, l: int) -> np.ndarray:
    """[chi†_i chi_j, chi†_k chi_l] minus its standard-algebra linear part.

    For standard particles (phi = 0) this is the zero matrix; for anyons
    it equals Delta(i,j,k,l) times the quartic of ``quartic_term``.
    """
    qij = quadratic_matrix(sector, i, j)
    qkl = quadratic_matrix(sector, k, l)
    residual = qij @ qkl - qkl @ qij
    if j == k:
        residual -= quadratic_matrix(sector, i, l)
    if i == l:
        residual += quadratic_matrix(sector, k, j)
    return residual


def jw_image(sector: FockSector, i: int, dagger: bool) -> np.ndarray:
    """Jordan-Wigner image of the standard ladder operator on mode i.

    Returns the matrix of  exp(-+ i phi sum_{k<i} n_k) x (standard
    creation/annihilation), i.e. the string-phase diagonal times the
    phi = 0 operator matrix.  It must coincide with the directly built
    anyonic matrix, which pins the sign and phase conventions of the
    Fock-action rules.
    """
    spec = sector.spec
    std_sector = enumerate_sector(sector.m, sector.n_total, AnyonSpec(spec.particle_class, 0.0))
    base = (creation_matrix if dagger else annihilation_matrix)(std_sector, i)
    if base.shape[0] == 0:
        return base
    target = enumerate_sector(sector.m, sector.n_total + (1 if dagger else -1), spec)
    s = target.occ[:, : i - 1].sum(axis=1)
    return np.exp((-1j if dagger else 1j) * spec.phi * s)[:, None] * base


def kerr_hamiltonian(sector: FockSector, i: int, j: int) -> np.ndarray:
    """Diagonal Kerr Hamiltonian n(n-1)/2 with n = n_i + n_j."""
    n_pair = sector.occ[:, i - 1] + sector.occ[:, j - 1]
    return np.diag((n_pair * (n_pair - 1) / 2.0).astype(np.complex128))
