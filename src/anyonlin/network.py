"""Optical networks of phase shifters and beam splitters for anyons.

A network is an ordered list of elements acting on m modes,

    PS_i(tau)    = exp(i tau n_i),
    BS_ij(theta) = exp(i theta (chi†_i chi_j + chi†_j chi_i)),

and ``Window(first, sub)``, a fixed sub-network placed on the contiguous
modes first .. first + sub.m - 1, composed left to right: element k is
applied to the state before element k+1.  Because the anyonic quadratic
algebra does not close, multimode interferometers are *defined* by such
networks rather than by an m x m matrix; two different networks with the
same single-particle matrix can act differently on multi-particle
states.

Two independent evolution paths are provided:

* ``evolve_amplitudes``: block kernel on (dim,) or (dim, k) amplitude
  arrays; each beam splitter acts on blocks of fixed pair total as the
  phi = 0 rotation dressed by a diagonal winding phase, applied as one
  gather of its live blocks' rows, one matrix product per pair total and
  one scatter, so nothing of size dim x dim is built.  A window is one
  such step too: its blocks are the states of equal occupations outside
  the window, and on the blocks of window total T it is the sub-network's
  unitary U_T on the small (width, T) sector, built once by running that
  sector's identity through this same kernel and cached.  The kernel
  keeps one mask of live sector rows, those nonzero in some batch column
  of the input; a step multiplies only the blocks that hold a live row
  and marks every row of them live.  Any other block holds exact zeros,
  which a unitary maps to zeros, so skipping it is exact, not a
  tolerance cut; phase shifters multiply the whole state.  ``evolve``
  runs a ``StateVector`` through it, and so do the dual-rail circuits,
  whose CP gates are each one window holding the braiding network.
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
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import NamedTuple, Sequence, Union

import numpy as np

from .fock import (
    AnyonSpec,
    FockSector,
    StateVector,
    _shape_basis,
    apply_create,
    enumerate_sector,
    vacuum_state,
)
from .operators import quadratic_matrix

__all__ = [
    "KERNEL_CACHE_BYTES",
    "PhaseShifter",
    "BeamSplitter",
    "Window",
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


@dataclass(frozen=True)
class Window:
    """A fixed sub-network on the contiguous modes first .. first + network.m - 1.

    It acts as its placed elements would, one after another, but the
    kernel applies it as one block step (see ``evolve_amplitudes``).
    """

    first: int
    network: Network

    @property
    def modes(self) -> tuple[int, ...]:
        return tuple(range(self.first, self.first + self.network.m))

    def placed(self) -> tuple[PhaseShifter | BeamSplitter, ...]:
        """The sub-network's phase shifters and beam splitters on the outer modes."""
        shift = self.first - 1
        out: list[PhaseShifter | BeamSplitter] = []
        for el in self.network.elements:
            for inner in el.placed() if isinstance(el, Window) else (el,):
                if isinstance(inner, PhaseShifter):
                    out.append(PhaseShifter(inner.mode + shift, inner.tau))
                else:
                    out.append(BeamSplitter(inner.mode_i + shift, inner.mode_j + shift,
                                            inner.theta))
        return tuple(out)


Element = Union[PhaseShifter, BeamSplitter, Window]


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
        """A JSON document; a window holds its start and its sub-network's document."""
        elements = []
        for el in self.elements:
            if isinstance(el, PhaseShifter):
                elements.append({"type": "ps", "i": el.mode, "tau": el.tau})
            elif isinstance(el, BeamSplitter):
                elements.append({"type": "bs", "i": el.mode_i, "j": el.mode_j,
                                 "theta": el.theta})
            else:
                elements.append({"type": "window", "first": el.first, **el.network.to_jsonable()})
        return {"m": self.m, "elements": elements}

    @classmethod
    def from_jsonable(cls, doc: dict) -> "Network":
        elements: list[Element] = []
        for entry in doc["elements"]:
            if entry["type"] == "ps":
                elements.append(PhaseShifter(entry["i"], entry["tau"]))
            elif entry["type"] == "bs":
                elements.append(BeamSplitter(entry["i"], entry["j"], entry["theta"]))
            elif entry["type"] == "window":
                elements.append(Window(entry["first"], cls.from_jsonable(entry)))
            else:
                raise ValueError(f"unknown element type {entry['type']!r}")
        return cls(doc["m"], tuple(elements))


def _build_element_unitary(sector: FockSector, element: Element) -> np.ndarray:
    """The element's dense unitary exp(i G) on the sector, built afresh, read-only.

    Phase shifters are diagonal and exponentiated exactly; a beam
    splitter's generator theta (chi†_i chi_j + chi†_j chi_i) is Hermitian,
    so its eigendecomposition gives the unitary to machine precision.  A
    window is the product of its placed elements' unitaries.
    """
    if isinstance(element, Window):
        mat = np.eye(sector.dim, dtype=np.complex128)
        for el in element.placed():
            mat = _build_element_unitary(sector, el) @ mat
    elif isinstance(element, PhaseShifter):
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


#: Bytes that the kernel's cached gather records, eigenpair stacks and
#: window unitaries may hold together.
KERNEL_CACHE_BYTES = 256 * 2 ** 20


class _ByteLRU:
    """Tuples by key, held within ``budget`` bytes of their array fields.

    A value is sized by the ``nbytes`` of its read-only arrays; its other
    fields are a few small ints.  When a new value would pass the budget, the least recently used
    values are dropped first; a value larger than the whole budget is
    built and returned but not kept.  The lock guards the bookkeeping
    only: a build may look up other keys (a window unitary is built
    through the kernel), and two threads that miss one key both build it.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.held = 0
        self.entries: OrderedDict[tuple, tuple[tuple[np.ndarray, ...], int]] = OrderedDict()
        self.lock = threading.Lock()

    def get(self, key: tuple, build) -> tuple[np.ndarray, ...]:
        with self.lock:
            hit = self.entries.get(key)
            if hit is not None:
                self.entries.move_to_end(key)
                return hit[0]
        value = build()
        size = sum(arr.nbytes for arr in value if isinstance(arr, np.ndarray))
        with self.lock:
            if size <= self.budget and key not in self.entries:
                while self.held + size > self.budget:
                    _key, (_value, old) = self.entries.popitem(last=False)
                    self.held -= old
                self.entries[key] = (value, size)
                self.held += size
        return value

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.held = 0


_KERNEL_CACHE = _ByteLRU(KERNEL_CACHE_BYTES)


def _kernel_cached(build):
    """``build`` memoised by its arguments in the kernel's byte-bounded cache.

    Arguments are positional only and ``build`` has no defaults, so each
    value has one key; a keyword call fails with ``TypeError``.
    """
    @wraps(build)
    def cached(*args):
        return _KERNEL_CACHE.get((build, args), lambda: build(*args))
    return cached


class _Blocks(NamedTuple):
    """Every block of one kernel step on one sector shape.

    A block is a run of states with equal occupations outside the modes
    the step acts on: the pair (lo, hi) of BS_{lo,hi}, or every mode
    lo..hi of a window.  ``rows`` lists the sector positions of the
    states in blocks, family by family, one family per total T of the
    step's modes.  ``families`` holds each family's (T, start, stop) in
    ``rows``, and ``totals`` its T alone, the key of the step's
    matrices; inside a family the positions run by the step's
    occupations in increasing lexicographic order, which for a pair is
    n_lo = 0..T, so ``rows[start:stop]`` reshapes to (block size, B)
    with one block per column.  ``block`` holds the
    block number of each entry of ``rows``, counted over the families in
    order, so a block's entries are the equal values of ``block``.  For a
    pair, ``winding`` holds the integer k(k - 1)/2 + s k of each row,
    where k = n_lo and s counts the particles strictly between lo and
    hi, and ``w_max`` is its largest value; a window has no winding.
    The arrays are read-only.
    """

    rows: np.ndarray
    winding: np.ndarray
    w_max: int
    block: np.ndarray
    families: tuple[tuple[int, int, int], ...]
    totals: tuple[int, ...]


@_kernel_cached
def _blocks(m: int, n_total: int, fermionic: bool, lo: int, hi: int,
            window: bool) -> _Blocks:
    """Gather record of BS_{lo,hi}, or of a window on lo..hi, on a sector shape.

    Independent of phi.  States are sorted by their occupations outside
    the step's modes, then by the occupations inside; a run of equal
    outside occupations is one block, and it holds every inside
    occupation of its total T that the class admits, which for a pair
    leaves T = 1 for fermions.  Blocks the step leaves alone are left
    out: a pair's blocks of a single state, on which the hop vanishes,
    and a window's blocks of T = 0, on which every element is the
    identity (a window's other single-state blocks, all modes filled
    with fermions, can still take a phase).
    """
    occ = _shape_basis(m, n_total, fermionic).occ
    inside = list(range(lo - 1, hi)) if window else [lo - 1, hi - 1]
    rest = np.delete(occ, inside, axis=1)
    order = np.lexsort(tuple(occ[:, inside].T[::-1]) + tuple(rest.T[::-1]))
    rest = rest[order]
    starts = np.flatnonzero(np.r_[True, np.any(rest[1:] != rest[:-1], axis=1)])
    lengths = np.diff(np.r_[starts, len(order)])
    totals = n_total - rest[starts].sum(axis=1)
    keep = totals > 0 if window else lengths > 1
    rows, winding, block = ([np.empty(0, np.intp)] for _ in range(3))
    families = []
    stop = n_blocks = 0
    for total in sorted(set(totals[keep].tolist())):
        pick = np.flatnonzero((totals == total) & keep)
        idx = order[starts[pick] + np.arange(lengths[pick[0]])[:, None]]
        rows.append(idx.ravel())
        block.append(np.tile(np.arange(n_blocks, n_blocks + len(pick)), len(idx)))
        n_blocks += len(pick)
        if not window:
            kk, between = occ[idx, lo - 1], occ[idx, lo:hi - 1].sum(axis=-1)
            winding.append((kk * (kk - 1) // 2 + between * kk).ravel())
        families.append((int(total), stop, stop + idx.size))
        stop += idx.size
    arrays = [np.concatenate(parts) for parts in (rows, winding, block)]
    for arr in arrays:
        arr.setflags(write=False)
    return _Blocks(arrays[0], arrays[1], int(arrays[1].max(initial=0)), arrays[2],
                   tuple(families), tuple(total for total, _, _ in families))


@_kernel_cached
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


@_kernel_cached
def _window_unitaries(network: Network, spec: AnyonSpec,
                      totals: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The sub-network's unitary U_T on the (network.m, T) sector for each T in ``totals``.

    Each U_T comes from running the identity of that small sector through
    ``evolve_amplitudes``; its rows and columns are then put in the order
    of a window block, the inside occupations lexicographically
    increasing.
    """
    mats = []
    for total in totals:
        small = enumerate_sector(network.m, total, spec)
        order = np.lexsort(small.occ.T[::-1])
        mat = evolve_amplitudes(network, small, np.eye(small.dim))[np.ix_(order, order)]
        mat.setflags(write=False)
        mats.append(mat)
    return tuple(mats)


def _lookup_exp(x: float, codes: np.ndarray, top: int) -> np.ndarray:
    """exp(i x c) for integer codes c in 0..top, from a table of top + 1 values.

    The table entries are the same ``exp`` arguments as ``exp(1j * x *
    codes)``, so the factors are bit-identical to it.
    """
    return np.exp(1j * x * np.arange(top + 1))[codes]


def _live_blocks(blocks: _Blocks, live: np.ndarray):
    """The rows and families of one step's blocks that hold a live row.

    ``live`` flags the sector rows that may be nonzero in some batch
    column.  A block with no live row holds exact zeros, which its
    unitary maps to zeros, so the step skips it; every row of a kept
    block is marked live.  Returns the kept entries of ``blocks.rows``,
    the mask ``keep`` that picks them and the kept families as
    (f, T, start, stop): f is the family's place in ``blocks.families``
    and start:stop its span in the kept rows.  When every block is kept
    these are the record's own rows and families.
    Inside a family the kept blocks are whole columns of its (block
    size, B) layout, so the kept span reshapes the same way.
    """
    hit = np.zeros(len(blocks.rows), dtype=bool)
    hit[blocks.block[live[blocks.rows]]] = True
    keep = hit[blocks.block]
    rows = blocks.rows[keep]
    live[rows] = True
    kept, stop = [], 0
    for f, (total, first, last) in enumerate(blocks.families):
        start, stop = stop, stop + np.count_nonzero(keep[first:last])
        if stop > start:
            kept.append((f, total, start, stop))
    return rows, keep, kept


def _block_products(part: np.ndarray, mats, families) -> np.ndarray:
    """Each family of the gathered rows ``part`` times its matrix, column by column.

    ``families`` holds (f, T, start, stop) as ``_live_blocks`` gives
    them.  One (size x size) by (size x B) BLAS call per family and batch
    column, so every column meets the same calls whatever the batch
    width; B counts the blocks kept for the step, so a vector and a batch
    column agree bit for bit when the same blocks are live.
    """
    out = np.empty_like(part)
    for mat, (_f, _total, start, stop) in zip(mats, families):
        fam_shape = (len(part), len(mat), -1)
        np.matmul(mat, part[:, start:stop].reshape(fam_shape),
                  out=out[:, start:stop].reshape(fam_shape))
    return out


def _steps(elements, m: int):
    """The elements in order, with each window as wide as all m modes run in place."""
    for element in elements:
        if isinstance(element, Window) and element.network.m == m:
            yield from _steps(element.network.elements, m)
        else:
            yield element


def evolve_amplitudes(network: Network, sector: FockSector, amps: np.ndarray) -> np.ndarray:
    """Evolve a (dim,) amplitude vector or a (dim, k) batch through the network.

    Block kernel, an exact path independent of the dense oracle
    ``_build_element_unitary``: a phase shifter multiplies each basis
    amplitude by exp(i tau n_i), looked up from the n + 1 values of n_i.
    BS_ij conserves n_i + n_j and leaves every other mode alone, so it
    splits into blocks of at most n + 1 states.  On a block of pair
    total N the beam splitter is D W_N(theta) D†, where W_N is the
    phi = 0 hop exponentiated through a cached small eigendecomposition
    and D_k = exp(i phi (k(k-1)/2 + s k)) (-1)^{s k} dresses it with the
    statistical winding of the k = n_lo particles (the sign only for
    fermions).  A window conserves its modes' total T and leaves the
    other modes alone; the phases of its elements count only particles
    between their own modes, all inside the window, so on a block of
    total T it is the sub-network's unitary U_T on the (width, T) sector,
    cached per (sub-network, spec, totals).  A window as wide as the
    sector runs its elements in place instead, so no sector-sized U_T is
    built.  Each beam splitter or window is one gather of its live
    blocks' rows, one matrix product per total over those blocks (one
    BLAS call per batch column), and one scatter; nothing of size
    dim x dim is built.  A block is live when one of its rows is nonzero
    in some batch column, or was in a block an earlier step kept; the
    other blocks hold exact zeros and stay zero, so skipping them is
    exact.  Each batch column goes through the same arithmetic as a lone
    vector, bit for bit, when the same blocks are live, which always
    holds for inputs with no zero amplitude.
    """
    if network.m != sector.m:
        raise ModeMismatchError(f"network has {network.m} modes, sector has {sector.m}")
    amps = np.asarray(amps)
    if amps.ndim not in (1, 2) or amps.shape[0] != sector.dim:
        raise ValueError(f"amplitudes of shape {amps.shape} do not fit sector dim {sector.dim}")
    # one row per input column, so every column meets the same BLAS calls
    # whatever the batch width: a vector and a batch column agree bit for
    # bit when the same blocks are live, as they are for dense inputs
    state = np.array(amps.reshape(sector.dim, -1).T, dtype=np.complex128, order="C")
    # sector row r of input column c sits at flat[c * dim + r]
    flat = state.reshape(-1)
    columns = sector.dim * np.arange(len(state))[:, None]
    # rows that may be nonzero in some column; a phase shifter keeps zeros
    live = state.any(axis=0)
    shape = (sector.m, sector.n_total, sector.spec.is_fermionic)
    # fermions: (-1)^{s k} exp(i phi s k) = exp(i (phi + pi) s k) since k <= 1
    phi = sector.spec.phi + (math.pi if sector.spec.is_fermionic else 0.0)
    for element in _steps(network.elements, sector.m):
        if isinstance(element, PhaseShifter):
            state *= _lookup_exp(element.tau, sector.occ[:, element.mode - 1], sector.n_total)
            continue
        window = isinstance(element, Window)
        if window:
            blocks = _blocks(*shape, element.first, element.modes[-1], True)
        else:
            blocks = _blocks(*shape, *sorted((element.mode_i, element.mode_j)), False)
        rows, keep, families = _live_blocks(blocks, live)
        if not families:
            continue
        where = rows + columns
        if window:
            unitaries = _window_unitaries(element.network, sector.spec, blocks.totals)
            flat[where] = _block_products(flat[where], [unitaries[f] for f, *_ in families],
                                          families)
            continue
        vals, vecs = _pair_hop_eigh(blocks.totals)
        w = (vecs * np.exp(1j * element.theta * vals)[:, None, :]) @ vecs.transpose(0, 2, 1)
        dress = _lookup_exp(phi, blocks.winding[keep], blocks.w_max)
        part = flat[where]
        part *= dress.conj()
        hopped = _block_products(part, [w[f, :n_pair + 1, :n_pair + 1]
                                        for f, n_pair, _, _ in families], families)
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
    for el in Window(1, network).placed():  # every window expanded
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
