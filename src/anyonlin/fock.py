"""Truncated Fock spaces for bosonic and fermionic anyons on a 1D lattice.

The particles are defined by deformed (anti)commutation relations in which
the usual +-1 exchange factor between *distinct* lattice sites is replaced
by a complex phase e^{i*phi}:

    chi_i chi†_j -+ e^{-i phi eps(i,j)} chi†_j chi_i = delta_ij,

with eps(i,j) the sign of j - i.  Same-site relations are the standard
bosonic/fermionic ones, so phi = 0 recovers ordinary bosons and fermions.

On occupation-number states |n1, ..., nm> the ladder operators act like
their standard counterparts times a string phase accumulated over the
sites to the left of the target mode,

    chi†_i |..., n_i, ...> = e^{-i phi s} f(n_i) |..., n_i + 1, ...>,
    chi_i  |..., n_i, ...> = e^{+i phi s} g(n_i) |..., n_i - 1, ...>,

where s = n_1 + ... + n_{i-1}.  For bosonic anyons f = sqrt(n_i + 1) and
g = sqrt(n_i); for fermionic anyons the string additionally carries the
Jordan-Wigner parity sign (-1)^s and creation on an occupied mode (or
annihilation of an empty one) gives the zero vector.

Everything here is restricted to sectors of fixed total particle number,
which every phase shifter and beam splitter conserves.  Mode indices are
1-based in all public signatures.  Values are immutable after
construction and all operations are pure, so sectors and states can be
shared freely across threads.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "PRUNE_EPS",
    "ParticleClass",
    "AnyonSpec",
    "EmptySectorError",
    "FockSector",
    "enumerate_sector",
    "StateVector",
    "vacuum_state",
    "apply_create",
    "apply_annihilate",
    "ladder_factor",
    "sector_dim",
    "number_expectation",
    "sign_eps",
    "state_to_jsonable",
]

#: Amplitudes below this magnitude are dropped after each operator application.
PRUNE_EPS = 1e-14

_TWO_PI = 2.0 * math.pi


class ParticleClass(enum.Enum):
    """Statistics of the underlying standard particle."""

    BOSONIC = "bosonic"
    FERMIONIC = "fermionic"


def sign_eps(i: int, j: int) -> int:
    """Sign of j - i (the eps(i,j) entering the deformed relations)."""
    return (j > i) - (j < i)


@dataclass(frozen=True)
class AnyonSpec:
    """Particle class plus statistical exchange phase phi (radians).

    phi is reduced into [0, 2*pi) on construction.  phi = 0 gives standard
    bosons or fermions.
    """

    particle_class: ParticleClass
    phi: float

    def __post_init__(self) -> None:
        if isinstance(self.particle_class, str):
            object.__setattr__(self, "particle_class", ParticleClass(self.particle_class))
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {phi!r}")
        phi %= _TWO_PI
        # a tiny negative phi reduces to 2 pi itself, which is phi = 0
        object.__setattr__(self, "phi", 0.0 if phi == _TWO_PI else phi)

    @classmethod
    def bosonic(cls, phi: float) -> "AnyonSpec":
        return cls(ParticleClass.BOSONIC, phi)

    @classmethod
    def fermionic(cls, phi: float) -> "AnyonSpec":
        return cls(ParticleClass.FERMIONIC, phi)

    @property
    def is_fermionic(self) -> bool:
        return self.particle_class is ParticleClass.FERMIONIC


class EmptySectorError(ValueError):
    """Requested sector contains no basis states (e.g. fermions with n > m)."""


class _ShapeBasis(NamedTuple):
    """The phi-independent basis of one sector shape (m, n_total, class)."""

    basis: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int]
    occ: np.ndarray


@lru_cache(maxsize=256)
def _shape_basis(m: int, n_total: int, fermionic: bool) -> _ShapeBasis:
    """All occupation tuples of length m summing to n_total that the class
    admits (at most one particle per mode for fermions), in
    lexicographically decreasing order, with their positions and the
    same basis as a read-only (dim, m) integer array."""
    cap = 1 if fermionic else n_total

    def gen(modes: int, left: int) -> Iterator[tuple[int, ...]]:
        if modes == 1:
            if left <= cap:
                yield (left,)
            return
        for k in range(min(cap, left), -1, -1):
            if left - k > cap * (modes - 1):
                continue
            for rest in gen(modes - 1, left - k):
                yield (k,) + rest

    basis = tuple(gen(m, n_total))
    occ = np.array(basis, dtype=np.int64).reshape(-1, m)
    occ.setflags(write=False)
    return _ShapeBasis(basis, {t: pos for pos, t in enumerate(basis)}, occ)


def sector_dim(m: int, n_total: int, fermionic: bool) -> int:
    """Closed-form sector size: C(m, n) fermionic, C(m + n - 1, n) bosonic."""
    return math.comb(m, n_total) if fermionic else math.comb(m + n_total - 1, n_total)


class FockSector:
    """Canonically ordered basis of a fixed-particle-number sector.

    The basis lists every occupation vector with the given total that
    the particle class admits (at most one particle per mode for
    fermions), in lexicographically decreasing order, so matrix
    representations are reproducible bit-for-bit across runs.  ``basis``,
    ``index`` and the (dim, m) array ``occ`` belong to the sector shape
    and are shared by every phi.
    """

    __slots__ = ("spec", "m", "n_total", "basis", "index", "occ", "_hash")

    def __init__(self, spec: AnyonSpec, m: int, n_total: int, shape: _ShapeBasis):
        self.spec = spec
        self.m = m
        self.n_total = n_total
        self.basis, self.index, self.occ = shape
        # sectors key the unitary caches, so hash once; numbers only, since
        # their hashes (unlike the enum's) are the same in every process
        self._hash = hash((spec.phi, spec.is_fermionic, m, n_total))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __len__(self) -> int:
        return len(self.basis)

    def __contains__(self, occ: tuple[int, ...]) -> bool:
        return occ in self.index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockSector):
            return NotImplemented
        return (self.spec, self.m, self.n_total) == (other.spec, other.m, other.n_total)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (f"FockSector(m={self.m}, n_total={self.n_total}, "
                f"dim={self.dim}, {self.spec.particle_class.value}, phi={self.spec.phi:g})")


# bounded because every new phi makes new sectors; 256 matches the dense
# unitary cache, whose keys hold that many sectors alive anyway
@lru_cache(maxsize=256)
def _sector_cached(spec: AnyonSpec, m: int, n_total: int) -> FockSector:
    shape = _shape_basis(m, n_total, spec.is_fermionic)
    if not shape.basis:
        raise EmptySectorError(
            f"no {spec.particle_class.value} occupation vectors for m={m}, n_total={n_total}")
    return FockSector(spec, m, n_total, shape)


def enumerate_sector(m: int, n_total: int, spec: AnyonSpec) -> FockSector:
    """Build the complete canonical basis of the (m, n_total) sector.

    The particle class fixes each mode's limit: one particle for
    fermions, n_total for bosons, so the sector is exact.  Its size is
    C(m + n - 1, n) bosonic and C(m, n) fermionic.

    Raises EmptySectorError when the class admits no states, i.e.
    fermions with n_total > m.
    """
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    if n_total < 0:
        raise ValueError(f"total particle number must be >= 0, got {n_total}")
    return _sector_cached(spec, m, n_total)


def _kept(amps: Mapping) -> dict:
    """The amplitudes above PRUNE_EPS in magnitude, in insertion order."""
    return {occ: a for occ, a in amps.items() if abs(a) > PRUNE_EPS}


class StateVector:
    """Sparse complex amplitudes over one sector's basis.

    Instances are treated as immutable; arithmetic returns new objects.
    """

    __slots__ = ("sector", "amps")

    def __init__(self, sector: FockSector, amps: Mapping[tuple[int, ...], complex]):
        for occ in amps:
            if occ not in sector.index:
                raise ValueError(f"occupation {occ} not in sector {sector!r}")
        self.sector = sector
        self.amps = {occ: complex(a) for occ, a in amps.items()}

    @classmethod
    def basis_state(cls, sector: FockSector, occ: Sequence[int]) -> "StateVector":
        return cls(sector, {tuple(occ): 1.0 + 0.0j})

    @classmethod
    def zero(cls, sector: FockSector) -> "StateVector":
        return cls(sector, {})

    @classmethod
    def from_vector(cls, sector: FockSector, vec: np.ndarray) -> "StateVector":
        amps = {occ: complex(vec[pos]) for pos, occ in enumerate(sector.basis)
                if abs(vec[pos]) > PRUNE_EPS}
        return cls(sector, amps)

    def to_vector(self) -> np.ndarray:
        vec = np.zeros(self.sector.dim, dtype=np.complex128)
        for occ, amp in self.amps.items():
            vec[self.sector.index[occ]] = amp
        return vec

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amps.values()))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.sector, {occ: a / n for occ, a in self.amps.items()})

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if self.sector != other.sector:
            raise ValueError("inner product between different sectors")
        return sum(a.conjugate() * other.amps.get(occ, 0.0)
                   for occ, a in self.amps.items())

    def amplitude(self, occ: Sequence[int]) -> complex:
        return self.amps.get(tuple(occ), 0.0 + 0.0j)

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.sector != other.sector:
            raise ValueError("sum of states from different sectors")
        amps = dict(self.amps)
        for occ, a in other.amps.items():
            amps[occ] = amps.get(occ, 0.0) + a
        return StateVector(self.sector, _kept(amps))

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (-1.0) * other

    def __mul__(self, c: complex) -> "StateVector":
        return StateVector(self.sector, {occ: c * a for occ, a in self.amps.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        terms = sorted(self.amps.items(), key=lambda kv: self.sector.index[kv[0]])
        body = " + ".join(f"({a:.4g})|{','.join(map(str, occ))}>" for occ, a in terms)
        return body or "0"


def vacuum_state(m: int, spec: AnyonSpec) -> StateVector:
    sector = enumerate_sector(m, 0, spec)
    return StateVector.basis_state(sector, (0,) * m)


def _check_mode(m: int, i: int) -> None:
    if not 1 <= i <= m:
        raise ValueError(f"mode index {i} outside 1..{m}")


def ladder_factor(phi: float, fermionic: bool, s: int, k: int, create: bool) -> complex:
    """The one phase rule: the factor of chi†_i (create) or chi_i on a basis
    state holding k particles on mode i and s to its left.

    e^{-+i phi s} sqrt(k + 1) or sqrt(k) for bosonic anyons; the
    fermionic string carries (-1)^s instead of the square root.  Callers
    drop the states that the ladder sends out of the target sector.
    """
    string = cmath.exp((-1j if create else 1j) * phi * s)
    if fermionic:
        return (-1) ** s * string
    return string * math.sqrt(k + 1 if create else k)


def _apply_ladder(state: StateVector, i: int, create: bool) -> StateVector:
    sector = state.sector
    spec = sector.spec
    _check_mode(sector.m, i)
    step = 1 if create else -1
    if sector.n_total + step < 0:
        return StateVector.zero(sector)
    target = enumerate_sector(sector.m, sector.n_total + step, spec)
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.amps.items():
        k = occ[i - 1]
        new_occ = occ[: i - 1] + (k + step,) + occ[i:]
        if new_occ not in target.index:
            continue
        factor = ladder_factor(spec.phi, spec.is_fermionic, sum(occ[: i - 1]), k, create)
        out[new_occ] = out.get(new_occ, 0.0) + amp * factor
    return StateVector(target, _kept(out))


def apply_create(state: StateVector, i: int) -> StateVector:
    """Apply the anyonic creation operator on mode i (1-based).

    The result lives in the sector with one more particle, built on
    demand.  On a full fermionic sector (n_total = m) that sector does
    not exist and EmptySectorError is raised.
    """
    return _apply_ladder(state, i, create=True)


def apply_annihilate(state: StateVector, i: int) -> StateVector:
    """Apply the anyonic annihilation operator on mode i (adjoint of creation).

    Annihilating an empty mode contributes nothing; annihilating the
    vacuum sector returns the zero vector on the input sector.
    """
    return _apply_ladder(state, i, create=False)


def number_expectation(state: StateVector, i: int) -> float:
    """<n_i> for a normalized state."""
    _check_mode(state.sector.m, i)
    return sum(abs(a) ** 2 * occ[i - 1] for occ, a in state.amps.items())


def state_to_jsonable(state: StateVector) -> list[dict]:
    """Amplitudes above PRUNE_EPS as [{"occ": [...], "re": x, "im": y}, ...] in basis order."""
    out = []
    for occ in state.sector.basis:
        amp = state.amps.get(occ)
        if amp is not None and abs(amp) > PRUNE_EPS:
            out.append({"occ": list(occ), "re": amp.real, "im": amp.imag})
    return out
