"""Optical networks of phase shifters and beam splitters for anyons.

A network is an ordered list of two kinds of elements acting on m modes,

    PS_i(tau)    = exp(i tau n_i),
    BS_ij(theta) = exp(i theta (chi†_i chi_j + chi†_j chi_i)),

composed left to right: element k is applied to the state before
element k+1.  Because the anyonic quadratic algebra does not close,
multimode interferometers are *defined* by such networks rather than by
an m x m matrix; two different networks with the same single-particle
matrix can act differently on multi-particle states.

Three independent evolution paths are provided:

* ``evolve``: exact dense spectral path; every element's Hermitian
  generator is diagonalized on the whole sector and exponentiated.  It
  is the reference the other paths are tested against.
* ``evolve_amplitudes``: block kernel on (dim,) or (dim, k) amplitude
  arrays; each beam splitter acts on blocks of fixed pair total as the
  phi = 0 rotation dressed by a diagonal winding phase, so nothing of
  size dim x dim is built.  The dual-rail circuits run through it.
* ``propagate_algebraic``: pushes a single beam splitter through a
  string of creation operators using the propagation identities

      G(n) chi†_i = (cos(t) chi†_i + i e^{-i n phi} sin(t) chi†_j) G(n+1)
      G(n) chi†_j = (cos(t) chi†_j + i e^{+i n phi} sin(t) chi†_i) G(n+1)
      G(n) chi†_k = chi†_k G(n+2)                 for i < k < j,

  where G(n) = e^{i n phi J3} BS(t) e^{-i n phi J3} tracks the
  accumulated statistical winding and acts trivially on the vacuum.

Agreement of the two paths is the core correctness theorem of this
module.  The intermediate-mode rule is also the source of the lattice
Aharonov-Bohm phase: a particle hopping across n occupied intermediate
modes under a long-range beam splitter picks up e^{-i n phi} (bosonic)
or e^{-i n (phi + pi)} (fermionic).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .fock import (
    AnyonSpec,
    FockSector,
    StateVector,
    _basis_tuples,
    apply_create,
    enumerate_sector,
    vacuum_state,
)
from .operators import OperatorMatrix, number_matrix, quadratic_matrix

__all__ = [
    "PhaseShifter",
    "BeamSplitter",
    "Element",
    "Network",
    "GOperator",
    "ModeMismatchError",
    "UnsupportedPropagationError",
    "element_generator",
    "element_unitary",
    "evolve",
    "evolve_amplitudes",
    "propagate_algebraic",
    "build_braiding_network",
    "single_particle_matrix",
]


class ModeMismatchError(ValueError):
    """State and network are defined over different mode counts."""


class UnsupportedPropagationError(ValueError):
    """The algebraic path has no pushing rule for the requested mode."""


@dataclass(frozen=True)
class PhaseShifter:
    mode: int
    tau: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.tau):
            raise ValueError("phase shifter angle must be finite")

    @property
    def modes(self) -> tuple[int, ...]:
        return (self.mode,)


@dataclass(frozen=True)
class BeamSplitter:
    mode_i: int
    mode_j: int
    theta: float

    def __post_init__(self) -> None:
        if self.mode_i == self.mode_j:
            raise ValueError("beam splitter needs two distinct modes")
        if not math.isfinite(self.theta):
            raise ValueError("beam splitter angle must be finite")

    @property
    def modes(self) -> tuple[int, ...]:
        return (self.mode_i, self.mode_j)


Element = Union[PhaseShifter, BeamSplitter]


@dataclass(frozen=True)
class Network:
    """Ordered optical elements over m modes; earlier elements act first."""

    m: int
    elements: tuple[Element, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.m < 1:
            raise ValueError("mode count must be >= 1")
        for el in self.elements:
            for mode in el.modes:
                if not 1 <= mode <= self.m:
                    raise ValueError(f"element mode {mode} outside 1..{self.m}")

    def to_jsonable(self) -> dict:
        elements = []
        for el in self.elements:
            if isinstance(el, PhaseShifter):
                elements.append({"type": "ps", "i": el.mode, "tau": el.tau})
            else:
                elements.append({"type": "bs", "i": el.mode_i, "j": el.mode_j,
                                 "theta": el.theta})
        return {"m": self.m, "elements": elements}

    @classmethod
    def from_jsonable(cls, doc: dict) -> "Network":
        elements: list[Element] = []
        for entry in doc["elements"]:
            if entry["type"] == "ps":
                elements.append(PhaseShifter(entry["i"], entry["tau"]))
            elif entry["type"] == "bs":
                elements.append(BeamSplitter(entry["i"], entry["j"], entry["theta"]))
            else:
                raise ValueError(f"unknown element type {entry['type']!r}")
        return cls(doc["m"], tuple(elements))


def element_generator(sector: FockSector, element: Element) -> OperatorMatrix:
    """Hermitian generator of the element on the sector."""
    if isinstance(element, PhaseShifter):
        return OperatorMatrix(sector, element.tau * number_matrix(sector, element.mode).mat)
    i, j = element.mode_i, element.mode_j
    hop = quadratic_matrix(sector, i, j).mat + quadratic_matrix(sector, j, i).mat
    return OperatorMatrix(sector, element.theta * hop)


@lru_cache(maxsize=256)
def _element_unitary_cached(sector: FockSector, element: Element) -> OperatorMatrix:
    if isinstance(element, PhaseShifter):
        diag = np.array([cmath.exp(1j * element.tau * occ[element.mode - 1])
                         for occ in sector.basis])
        mat = np.diag(diag)
    else:
        gen = element_generator(sector, element).mat
        vals, vecs = np.linalg.eigh(gen)
        mat = (vecs * np.exp(1j * vals)) @ vecs.conj().T
    mat.setflags(write=False)
    return OperatorMatrix(sector, mat)


def element_unitary(sector: FockSector, element: Element) -> OperatorMatrix:
    """Unitary exp(i G) of the element via spectral decomposition.

    Phase shifters are diagonal and exponentiated exactly; beam-splitter
    generators are Hermitian and small, so eigendecomposition is exact
    to machine precision.  Results are cached per (sector, element),
    which is sound because both are immutable.
    """
    return _element_unitary_cached(sector, element)


def evolve(network: Network, state: StateVector) -> StateVector:
    """Exact spectral evolution of a state through the network.

    Norm is preserved to roundoff since every factor is unitary on the
    sector.
    """
    if network.m != state.sector.m:
        raise ModeMismatchError(
            f"network has {network.m} modes, state has {state.sector.m}")
    vec = _apply_dense(state.sector, network.elements, state.to_vector())
    return StateVector.from_vector(state.sector, vec)


def _apply_dense(sector: FockSector, elements: Sequence[Element], vec: np.ndarray
                 ) -> np.ndarray:
    """Multiply a sector vector by each element's cached dense unitary in turn.

    ``ndarray.dot`` makes the same BLAS call as ``@`` with less overhead
    per call, which dominates on the small matrices of truncated shells.
    """
    for element in elements:
        vec = element_unitary(sector, element).mat.dot(vec)
    return vec


@lru_cache(maxsize=16)
def _occupations(m: int, n_total: int, cap: int) -> np.ndarray:
    """The sector basis as a read-only (dim, m) integer array."""
    occ = np.array(_basis_tuples(m, n_total, cap), dtype=np.int64).reshape(-1, m)
    occ.setflags(write=False)
    return occ


@dataclass(frozen=True)
class _BlockFamily:
    """All beam-splitter blocks of one pair total N = n_lo + n_hi.

    Row b of ``idx`` lists the sector positions of the states that share
    every occupation outside (lo, hi), ordered by n_lo = k0, k0 + 1, ...;
    ``winding`` holds k(k - 1)/2 + s k for each of them, where s counts
    the particles strictly between lo and hi.
    """

    n_pair: int
    k0: int
    idx: np.ndarray
    winding: np.ndarray


@lru_cache(maxsize=256)
def _block_families(m: int, n_total: int, cap: int, lo: int, hi: int
                    ) -> tuple[_BlockFamily, ...]:
    """Gather indices of BS_{lo,hi} on a sector shape; independent of phi.

    States are sorted by their occupations outside (lo, hi), then by
    n_lo; a run of equal outside occupations is one block.  Blocks of a
    single state are left out: the hop vanishes on them.
    """
    occ = _occupations(m, n_total, cap)
    k = occ[:, lo - 1]
    rest = np.delete(occ, [lo - 1, hi - 1], axis=1)
    order = np.lexsort((k,) + tuple(rest.T[::-1]))
    rest = rest[order]
    starts = np.flatnonzero(np.r_[True, np.any(rest[1:] != rest[:-1], axis=1)])
    lengths = np.diff(np.r_[starts, len(order)])
    n_pair = occ[order[starts], lo - 1] + occ[order[starts], hi - 1]
    between = occ[order[starts], lo:hi - 1].sum(axis=1)
    families = []
    for n in sorted(set(n_pair[lengths > 1].tolist())):
        pick = np.flatnonzero((n_pair == n) & (lengths > 1))
        size = int(lengths[pick[0]])
        idx = order[starts[pick][:, None] + np.arange(size)]
        kk = k[idx]
        winding = kk * (kk - 1) / 2.0 + between[pick][:, None] * kk
        for arr in (idx, winding):
            arr.setflags(write=False)
        families.append(_BlockFamily(int(n), int(kk[0, 0]), idx, winding))
    return tuple(families)


@lru_cache(maxsize=256)
def _pair_hop_eigh(n_pair: int, k0: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the phi = 0 pair hop on n_lo = k0 .. k0 + size - 1.

    The hop is real tridiagonal with entries sqrt((k + 1)(N - k)); a
    capped bosonic sector truncates it to the allowed range of n_lo.
    """
    kk = np.arange(k0, k0 + size - 1)
    off = np.sqrt((kk + 1.0) * (n_pair - kk))
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


def evolve_amplitudes(network: Network, sector: FockSector, amps: np.ndarray) -> np.ndarray:
    """Evolve a (dim,) amplitude vector or a (dim, k) batch through the network.

    Block kernel, an exact path independent of ``element_unitary``: a
    phase shifter multiplies each basis amplitude by exp(i tau n_i).
    BS_ij conserves n_i + n_j and leaves every other mode alone, so it
    splits into blocks of at most n + 1 states.  On a block of pair
    total N the beam splitter is D W_N(theta) D†, where W_N is the
    phi = 0 hop exponentiated through a cached small eigendecomposition
    and D_k = exp(i phi (k(k-1)/2 + s k)) (-1)^{s k} dresses it with the
    statistical winding of the k = n_lo particles (the sign only for
    fermions).  Nothing of size dim x dim is built.
    """
    if network.m != sector.m:
        raise ModeMismatchError(f"network has {network.m} modes, sector has {sector.m}")
    out = np.array(amps, dtype=np.complex128)
    if out.ndim not in (1, 2) or out.shape[0] != sector.dim:
        raise ValueError(f"amplitudes of shape {out.shape} do not fit sector dim {sector.dim}")
    batch = out.reshape(sector.dim, -1)
    shape = (sector.m, sector.n_total, sector.cap)
    # fermions: (-1)^{s k} exp(i phi s k) = exp(i (phi + pi) s k) since k <= 1
    phi = sector.spec.phi + (math.pi if sector.spec.is_fermionic else 0.0)
    for element in network.elements:
        if isinstance(element, PhaseShifter):
            n_mode = _occupations(*shape)[:, element.mode - 1]
            batch *= np.exp(1j * element.tau * n_mode)[:, None]
            continue
        lo, hi = sorted((element.mode_i, element.mode_j))
        for fam in _block_families(*shape, lo, hi):
            vals, vecs = _pair_hop_eigh(fam.n_pair, fam.k0, fam.idx.shape[1])
            w = (vecs * np.exp(1j * element.theta * vals)) @ vecs.T
            dress = np.exp(1j * phi * fam.winding)[:, :, None]
            batch[fam.idx] = dress * (w @ (dress.conj() * batch[fam.idx]))
    return out


@dataclass(frozen=True)
class GOperator:
    """Winding-dressed beam splitter e^{i n phi J3} BS_ij(theta) e^{-i n phi J3}."""

    i: int
    j: int
    n: int
    theta: float

    def matrix(self, sector: FockSector) -> OperatorMatrix:
        phi = sector.spec.phi
        bs = element_unitary(sector, BeamSplitter(self.i, self.j, self.theta)).mat
        j3 = np.array([(occ[self.i - 1] - occ[self.j - 1]) / 2.0
                       for occ in sector.basis])
        phase = np.exp(1j * self.n * phi * j3)
        return OperatorMatrix(sector, (phase[:, None] * bs) * phase.conj()[None, :])


def propagate_algebraic(spec: AnyonSpec, network: Network,
                        monomial: Sequence[int]) -> StateVector:
    """Evolve chi†_{m1} ... chi†_{mk} |0> through a single beam splitter
    using the propagation identities instead of matrix exponentials.

    The beam splitter, initially with winding zero, is commuted through
    the creation string left to right; winding grows by 1 at the coupled
    modes and by 2 at strictly intermediate ones, and the final dressed
    operator drops on the vacuum.  The resulting creation polynomial is
    expanded into Fock amplitudes with the same creation rule used
    everywhere else, so no second phase bookkeeping exists.

    Modes outside [min(i,j), max(i,j)] other than i, j themselves have no
    pushing rule and raise UnsupportedPropagationError (the spectral path
    handles those).  A fermionic monomial longer than the mode count
    targets an empty sector and raises EmptySectorError.
    """
    if len(network.elements) != 1 or not isinstance(network.elements[0], BeamSplitter):
        raise ValueError("algebraic propagation expects a network of exactly one beam splitter")
    bs = network.elements[0]
    lo, hi = sorted((bs.mode_i, bs.mode_j))
    theta = bs.theta
    phi = spec.phi
    for mode in monomial:
        if not 1 <= mode <= network.m:
            raise ValueError(f"monomial mode {mode} outside 1..{network.m}")
        if not lo <= mode <= hi:
            raise UnsupportedPropagationError(
                f"mode {mode} lies outside the beam splitter span [{lo}, {hi}]")

    cos_t = math.cos(theta)
    sin_t = math.sin(theta)
    winding = 0
    terms: list[tuple[complex, tuple[int, ...]]] = [(1.0 + 0.0j, ())]
    for mode in monomial:
        if mode == lo:
            branch = cmath.exp(-1j * winding * phi)
            terms = [t for c, ops in terms
                     for t in ((c * cos_t, ops + (lo,)),
                               (c * 1j * branch * sin_t, ops + (hi,)))]
            winding += 1
        elif mode == hi:
            branch = cmath.exp(1j * winding * phi)
            terms = [t for c, ops in terms
                     for t in ((c * cos_t, ops + (hi,)),
                               (c * 1j * branch * sin_t, ops + (lo,)))]
            winding += 1
        else:
            terms = [(c, ops + (mode,)) for c, ops in terms]
            winding += 2

    target = enumerate_sector(network.m, len(monomial), spec) if monomial \
        else vacuum_state(network.m, spec).sector
    result = StateVector.zero(target)
    for coeff, ops in terms:
        piece = vacuum_state(network.m, spec)
        for mode in reversed(ops):
            piece = apply_create(piece, mode)
        result = result + coeff * piece
    return result


def build_braiding_network() -> Network:
    """The three-mode braiding network.

    Reading the circuit left to right: BS_23(pi/2), BS_12(pi/2),
    BS_13(pi/2), BS_12(pi/2), then phase boxes -1, i, i on modes 1, 2, 3.
    It acts as the identity on the whole single-particle sector for every
    particle class and phase, yet on doubly occupied-mode-pair states it
    is diagonal with eigenphases

        |0,1,1> -> |0,1,1>,   |1,0,1> -> e^{-i phi} |1,0,1>,
        |1,1,0> -> e^{+i phi} |1,1,0>,   |1,1,1> -> |1,1,1>,

    which is what makes a network-level description richer than the
    single-particle matrix for anyons.
    """
    half_pi = math.pi / 2.0
    return Network(3, (
        BeamSplitter(2, 3, half_pi),
        BeamSplitter(1, 2, half_pi),
        BeamSplitter(1, 3, half_pi),
        BeamSplitter(1, 2, half_pi),
        PhaseShifter(1, math.pi),
        PhaseShifter(2, half_pi),
        PhaseShifter(3, half_pi),
    ))


def single_particle_matrix(network: Network) -> np.ndarray:
    """m x m matrix of the network on the single-particle subspace.

    Identical for all particle classes and exchange phases; for anyons it
    does not determine the multi-particle action.
    """
    mat = np.eye(network.m, dtype=np.complex128)
    for el in network.elements:
        if isinstance(el, PhaseShifter):
            factor = np.eye(network.m, dtype=np.complex128)
            factor[el.mode - 1, el.mode - 1] = cmath.exp(1j * el.tau)
        else:
            factor = np.eye(network.m, dtype=np.complex128)
            a, b = el.mode_i - 1, el.mode_j - 1
            factor[a, a] = factor[b, b] = math.cos(el.theta)
            factor[a, b] = factor[b, a] = 1j * math.sin(el.theta)
        mat = factor @ mat
    return mat
