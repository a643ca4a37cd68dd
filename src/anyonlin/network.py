"""Optical networks of phase shifters and beam splitters for anyons.

A network is an ordered list of two kinds of elements acting on m modes,

    PS_i(tau)    = exp(i tau n_i),
    BS_ij(theta) = exp(i theta (chi†_i chi_j + chi†_j chi_i)),

composed left to right: element k is applied to the state before
element k+1.  Because the anyonic quadratic algebra does not close,
multimode interferometers are *defined* by such networks rather than by
an m x m matrix; two different networks with the same single-particle
matrix can act differently on multi-particle states.

Two independent evolution paths are provided:

* ``evolve_amplitudes``: block kernel on (dim,) or (dim, k) amplitude
  arrays; each beam splitter acts on blocks of fixed pair total as the
  phi = 0 rotation dressed by a diagonal winding phase, applied as one
  gather of every block's rows, one matrix product per pair total and
  one scatter, so nothing of size dim x dim is built.  ``evolve`` runs a
  ``StateVector`` through it, and so do the dual-rail circuits.
* ``propagate_algebraic``: pushes a single beam splitter through a
  string of creation operators using the propagation identities

      G(n) chi†_i = (cos(t) chi†_i + i e^{-i n phi} sin(t) chi†_j) G(n+1)
      G(n) chi†_j = (cos(t) chi†_j + i e^{+i n phi} sin(t) chi†_i) G(n+1)
      G(n) chi†_k = chi†_k G(n+2)                 for i < k < j,

  where G(n) = e^{i n phi J3} BS(t) e^{-i n phi J3} tracks the
  accumulated statistical winding and acts trivially on the vacuum.

``_build_element_unitary`` diagonalizes an element's Hermitian generator
on the whole sector and exponentiates it.  It is the dense oracle the
tests compare both paths against; at run time only ``GOperator.matrix``
and the truncated-state shells of ``coherent`` use it.

Agreement of the paths with each other and with the dense oracle is
the core correctness theorem of this module.  The intermediate-mode
rule is also the source of the lattice Aharonov-Bohm phase: a particle
hopping across n occupied intermediate modes under a long-range beam
splitter picks up e^{-i n phi} (bosonic) or e^{-i n (phi + pi)}
(fermionic).
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
    _shape_basis,
    apply_create,
    vacuum_state,
)
from .operators import quadratic_matrix

__all__ = [
    "PhaseShifter",
    "BeamSplitter",
    "Element",
    "Network",
    "GOperator",
    "ModeMismatchError",
    "UnsupportedPropagationError",
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


def _build_element_unitary(sector: FockSector, element: Element) -> np.ndarray:
    """The element's dense unitary exp(i G) on the sector, built afresh, read-only.

    Phase shifters are diagonal and exponentiated exactly; a beam
    splitter's generator theta (chi†_i chi_j + chi†_j chi_i) is Hermitian,
    so its eigendecomposition gives the unitary to machine precision.
    """
    if isinstance(element, PhaseShifter):
        mat = np.diag(np.exp(1j * element.tau * sector.occ[:, element.mode - 1]))
    else:
        i, j = element.mode_i, element.mode_j
        gen = element.theta * (quadratic_matrix(sector, i, j) + quadratic_matrix(sector, j, i))
        vals, vecs = np.linalg.eigh(gen)
        mat = (vecs * np.exp(1j * vals)) @ vecs.conj().T
    mat.setflags(write=False)
    return mat


def evolve(network: Network, state: StateVector) -> StateVector:
    """Exact evolution of a state through the network on the block kernel.

    Norm is preserved to roundoff since every factor is unitary on the
    sector.  A network over another mode count raises ModeMismatchError.
    """
    vec = evolve_amplitudes(network, state.sector, state.to_vector())
    return StateVector.from_vector(state.sector, vec)


@dataclass(frozen=True)
class _PairBlocks:
    """Every beam-splitter block of BS_{lo,hi} on one sector shape.

    ``rows`` lists the sector positions of the states in blocks of more
    than one state, family by family, one family per pair total
    N = n_lo + n_hi.  ``families`` holds each family's (N, start, stop)
    in ``rows``; inside a family the positions run n_lo-major, so
    ``rows[start:stop]`` reshapes to (N + 1, B) with one block per
    column.  ``winding`` holds the integer k(k - 1)/2 + s k of each row,
    where k = n_lo and s counts the particles strictly between lo and
    hi; ``w_max`` is its largest value.
    """

    rows: np.ndarray
    winding: np.ndarray
    w_max: int
    families: tuple[tuple[int, int, int], ...]


@lru_cache(maxsize=256)
def _pair_blocks(m: int, n_total: int, fermionic: bool, lo: int, hi: int) -> _PairBlocks:
    """Gather record of BS_{lo,hi} on a sector shape; independent of phi.

    States are sorted by their occupations outside (lo, hi), then by
    n_lo; a run of equal outside occupations is one block, and it holds
    every n_lo = 0..N of its pair total N that the class admits, which
    leaves N = 1 for fermions.  Blocks of a single state are left out:
    the hop vanishes on them.
    """
    occ = _shape_basis(m, n_total, fermionic).occ
    k = occ[:, lo - 1]
    rest = np.delete(occ, [lo - 1, hi - 1], axis=1)
    order = np.lexsort((k,) + tuple(rest.T[::-1]))
    rest = rest[order]
    starts = np.flatnonzero(np.r_[True, np.any(rest[1:] != rest[:-1], axis=1)])
    lengths = np.diff(np.r_[starts, len(order)])
    n_pair = occ[order[starts], lo - 1] + occ[order[starts], hi - 1]
    between = occ[order[starts], lo:hi - 1].sum(axis=1)
    rows, winding, families = [np.empty(0, np.intp)], [np.empty(0, np.intp)], []
    stop = 0
    for n in sorted(set(n_pair[lengths > 1].tolist())):
        pick = np.flatnonzero((n_pair == n) & (lengths > 1))
        idx = order[starts[pick] + np.arange(n + 1)[:, None]]
        kk = k[idx]
        rows.append(idx.ravel())
        winding.append((kk * (kk - 1) // 2 + between[pick] * kk).ravel())
        families.append((int(n), stop, stop + idx.size))
        stop += idx.size
    rows_arr, winding_arr = np.concatenate(rows), np.concatenate(winding)
    for arr in (rows_arr, winding_arr):
        arr.setflags(write=False)
    return _PairBlocks(rows_arr, winding_arr, int(winding_arr.max(initial=0)), tuple(families))


@lru_cache(maxsize=64)
def _pair_hop_eigh(totals: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the phi = 0 pair hop for each pair total N in ``totals``.

    Entry f holds the eigenvalues of the hop of N = totals[f] on
    n_lo = 0..N in its first N + 1 places and its eigenvectors in its
    top-left (N + 1) x (N + 1) corner; the rest is zero, so one batched
    product exponentiates every N at once.  The stack holds only the
    totals asked for, padded to the largest: a two-mode sector of n
    particles has the single total n, and a stack of every total up to
    n would cost n times the memory and eigendecompositions.  The hop is
    real tridiagonal with entries sqrt((k + 1)(N - k)), twice the J1 of
    spin N/2, so its eigenvalues are -N, -N + 2, ..., N.
    """
    top = max(totals)
    vals = np.zeros((len(totals), top + 1))
    vecs = np.zeros((len(totals), top + 1, top + 1))
    for pos, n_pair in enumerate(totals):
        kk = np.arange(n_pair)
        off = np.sqrt((kk + 1.0) * (n_pair - kk))
        size = n_pair + 1
        vals[pos, :size], vecs[pos, :size, :size] = \
            np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    for arr in (vals, vecs):
        arr.setflags(write=False)
    return vals, vecs


def _lookup_exp(x: float, codes: np.ndarray, top: int) -> np.ndarray:
    """exp(i x c) for integer codes c in 0..top, from a table of top + 1 values.

    The table entries are the same ``exp`` arguments as ``exp(1j * x *
    codes)``, so the factors are bit-identical to it.
    """
    return np.exp(1j * x * np.arange(top + 1))[codes]


def evolve_amplitudes(network: Network, sector: FockSector, amps: np.ndarray) -> np.ndarray:
    """Evolve a (dim,) amplitude vector or a (dim, k) batch through the network.

    Block kernel, an exact path independent of the dense oracle
    ``_build_element_unitary``: a phase shifter multiplies each basis
    amplitude by exp(i tau n_i), looked up from the n + 1 values of n_i.
    BS_ij conserves n_i + n_j and leaves every other mode alone, so it
    splits into blocks of at most n + 1 states.  On a block of pair total N the beam splitter is
    D W_N(theta) D†, where W_N is the phi = 0 hop exponentiated through
    a cached small eigendecomposition and D_k = exp(i phi (k(k-1)/2 +
    s k)) (-1)^{s k} dresses it with the statistical winding of the
    k = n_lo particles (the sign only for fermions).  Each beam splitter
    is one gather of its blocks' rows, one matrix product per pair total
    N over all its blocks (a (N + 1) x (N + 1) by (N + 1) x B BLAS call
    per batch column), and one scatter; nothing of size dim x dim is
    built.
    """
    if network.m != sector.m:
        raise ModeMismatchError(f"network has {network.m} modes, sector has {sector.m}")
    amps = np.asarray(amps)
    if amps.ndim not in (1, 2) or amps.shape[0] != sector.dim:
        raise ValueError(f"amplitudes of shape {amps.shape} do not fit sector dim {sector.dim}")
    # one row per input column, so every column meets the same BLAS calls
    # whatever the batch width: a vector and a batch column agree bit for bit
    state = np.array(amps.reshape(sector.dim, -1).T, dtype=np.complex128, order="C")
    # sector row r of input column c sits at flat[c * dim + r]
    flat = state.reshape(-1)
    columns = sector.dim * np.arange(len(state))[:, None]
    shape = (sector.m, sector.n_total, sector.spec.is_fermionic)
    # fermions: (-1)^{s k} exp(i phi s k) = exp(i (phi + pi) s k) since k <= 1
    phi = sector.spec.phi + (math.pi if sector.spec.is_fermionic else 0.0)
    for element in network.elements:
        if isinstance(element, PhaseShifter):
            state *= _lookup_exp(element.tau, sector.occ[:, element.mode - 1], sector.n_total)
            continue
        lo, hi = sorted((element.mode_i, element.mode_j))
        blocks = _pair_blocks(*shape, lo, hi)
        if not blocks.families:
            continue
        vals, vecs = _pair_hop_eigh(tuple(n_pair for n_pair, _, _ in blocks.families))
        w = (vecs * np.exp(1j * element.theta * vals)[:, None, :]) @ vecs.transpose(0, 2, 1)
        dress = _lookup_exp(phi, blocks.winding, blocks.w_max)
        where = blocks.rows + columns
        part = flat[where]
        part *= dress.conj()
        hopped = np.empty_like(part)
        for pos, (n_pair, start, stop) in enumerate(blocks.families):
            fam_shape = (len(part), n_pair + 1, -1)
            np.matmul(w[pos, :n_pair + 1, :n_pair + 1],
                      part[:, start:stop].reshape(fam_shape),
                      out=hopped[:, start:stop].reshape(fam_shape))
        hopped *= dress
        flat[where] = hopped
    return np.ascontiguousarray(state.T).reshape(amps.shape)


@dataclass(frozen=True)
class GOperator:
    """Winding-dressed beam splitter e^{i n phi J3} BS_ij(theta) e^{-i n phi J3}."""

    i: int
    j: int
    n: int
    theta: float

    def matrix(self, sector: FockSector) -> np.ndarray:
        phi = sector.spec.phi
        bs = _build_element_unitary(sector, BeamSplitter(self.i, self.j, self.theta))
        j3 = (sector.occ[:, self.i - 1] - sector.occ[:, self.j - 1]) / 2.0
        phase = np.exp(1j * self.n * phi * j3)
        return (phase[:, None] * bs) * phase.conj()[None, :]


def propagate_algebraic(spec: AnyonSpec, network: Network,
                        monomial: Sequence[int]) -> StateVector:
    """Evolve chi†_{m1} ... chi†_{mk} |0> through a single beam splitter
    using the propagation identities instead of matrix exponentials.

    The beam splitter, initially with winding zero, is commuted through
    the creation string left to right; each creation operator becomes
    its pushed factor (a two-term combination at the coupled modes, where
    the winding grows by 1, and chi†_k itself at strictly intermediate
    modes, where it grows by 2), and the final dressed operator drops on
    the vacuum.  The factors are then applied right to left to the
    vacuum, one or two ``apply_create`` calls and one sum each, so the
    product is never multiplied out and no second phase bookkeeping
    exists.

    Modes outside [min(i,j), max(i,j)] other than i, j themselves have no
    pushing rule and raise UnsupportedPropagationError (``evolve``
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
    factors: list[tuple[tuple[int, complex], ...]] = []
    for mode in monomial:
        if mode in (lo, hi):
            other, sign = (hi, -1j) if mode == lo else (lo, 1j)
            branch = cmath.exp(sign * winding * phi)
            factors.append(((mode, cos_t), (other, 1j * branch * sin_t)))
            winding += 1
        else:
            factors.append(((mode, 1.0),))
            winding += 2

    state = vacuum_state(network.m, spec)
    for factor in reversed(factors):
        pieces = [c * apply_create(state, mode) for mode, c in factor]
        state = sum(pieces[1:], pieces[0])
    return state


@lru_cache(maxsize=1)  # a constant; every compiled CP asks for it
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
