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
  sector's identity through this same kernel and cached.  The input's
  support, the basis states nonzero in some batch column, decides which
  blocks are live: a step multiplies only the blocks that hold a live
  row and marks every row of them live.  Any other block holds exact
  zeros, which a unitary maps to zeros, so skipping it is exact, not a
  tolerance cut.  A window whose U_T are diagonal on the totals its live
  blocks hold, as the CP braid's are (every particle returns to its own
  mode and picks up a phase), is a diagonal step instead: like a phase
  shifter it multiplies each live row by a phase, read off U_T's
  diagonal, and marks no row live.  Dropping U_T's off-diagonal roundoff,
  at most 1e-14, is the only change that makes to the numbers.  All of
  this depends on the network's skeleton (its modes, and each window's
  sub-network and spec, not the angles around them) and the support
  alone, so it is planned once and cached.  A plan names each row by
  its occupation tuple, never by a rank in its sector, and builds each
  step's live blocks from the rows it already holds, each live row's
  occupations outside the step's modes completed by every inside
  occupation of the same total, so no plan enumerates its sector.  The
  plan holds what each step needs that no angle changes: a diagonal
  window's phase per row, a beam splitter's hop eigenpairs and whether
  its kept rows wind at all (a pair of adjacent modes holding at most
  one particle needs no dress).  The state is then a (k, L) array over
  the L rows that ever become live, and a phase shifter or diagonal
  window multiplies only the rows live before it.  One walk of a
  network splits it into its skeleton, the plan's key, and its angles,
  and one runner passes the angles through the plan in one batched
  pass: one ``exp`` over an (n_ps, n + 1) table and one gather give
  every phase shifter's factors, one batched eigen-product per shared
  eigenpair record every beam splitter's W_N(theta), so the step loop
  only gathers, multiplies and scatters, and each factor keeps the bits
  of its own angle's formula.  ``evolve`` runs a ``StateVector``'s
  support, keyed by occupations as the plan is, through it, and so do
  the dual-rail circuits, whose CP gates are each one window holding
  the braiding network, so a circuit's plan stays on its 2^n code rows
  at any depth; ``dualrail.logical_unitary`` caches that plan per
  circuit signature and hands the runner the gates' angles alone.
* ``propagate_algebraic``: pushes a single beam splitter through a
  string of creation operators using the propagation identities

      G(n) chi†_i = (cos(t) chi†_i + i e^{-i n phi} sin(t) chi†_j) G(n+1)
      G(n) chi†_j = (cos(t) chi†_j + i e^{+i n phi} sin(t) chi†_i) G(n+1)
      G(n) chi†_k = chi†_k G(n+2)                 for i < k < j,

  where G(n) = e^{i n phi J3} BS(t) e^{-i n phi J3} tracks the
  accumulated statistical winding and acts trivially on the vacuum.

The tests hold a third, dense oracle that diagonalizes each element's
Hermitian generator on the whole sector; nothing here uses it.

Agreement of the paths with each other and with the dense oracle is
the core correctness theorem of this module.  The intermediate-mode
rule is also the source of the lattice Aharonov-Bohm phase: a particle
hopping across n occupied intermediate modes under a long-range beam
splitter picks up e^{-i n phi} (bosonic) or e^{-i n (phi + pi)}
(fermionic).
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from typing import NamedTuple, Sequence, Union

import numpy as np

from .fock import (
    PRUNE_EPS,
    AnyonSpec,
    FockSector,
    StateVector,
    _ladder,
    _shape_basis,
    _sum,
    enumerate_sector,
    vacuum_state,
)

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


def _integer(element, field: str) -> None:
    """Store ``element.field`` as the int its ``__index__`` gives, so numpy
    ints plan and run as Python ints; ValueError when it has none (a
    float or a string), before a kernel indexes by it."""
    value = getattr(element, field)
    try:
        object.__setattr__(element, field, operator.index(value))
    except TypeError:
        raise ValueError(f"{type(element).__name__} {field} must be an integer, "
                         f"got {value!r}") from None


@dataclass(frozen=True)
class PhaseShifter:
    mode: int
    tau: float

    def __post_init__(self) -> None:
        _integer(self, "mode")
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
        _integer(self, "mode_i")
        _integer(self, "mode_j")
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

    def __post_init__(self) -> None:
        _integer(self, "first")

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
        _integer(self, "m")
        object.__setattr__(self, "elements", tuple(self.elements))
        if self.m < 1:
            raise ValueError("mode count must be >= 1")
        for el in self.elements:
            for mode in el.modes:
                if not 1 <= mode <= self.m:
                    raise ValueError(f"element mode {mode} outside 1..{self.m}")

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # the dataclass hash, computed once per object: kernel cache keys hold
        # networks and are hashed on every lookup, and this walks every element
        return hash((self.m, self.elements))

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
        """Inverse of ``to_jsonable``.  A malformed document raises
        ValueError naming the bad entry: a missing key, a value of the
        wrong type or an unknown element type."""
        try:
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
        except KeyError as err:
            raise ValueError(f"bad network document: missing key {err}") from None
        except TypeError as err:
            raise ValueError(f"bad network document: {err}") from None


def evolve(network: Network, state: StateVector) -> StateVector:
    """Exact evolution of a state through the network on the block kernel.

    The kernel runs on the state's nonzero amplitudes, named by their
    occupation tuples and sorted into sector order (lexicographically
    decreasing), and the result keeps the entries whose Python ``abs``
    is above PRUNE_EPS, the rule of the ladders and of the algebraic
    path, keyed by the plan's rows sorted the same way; no (dim,) vector
    is built and no sector position is looked up.  Norm is preserved to
    roundoff since every factor is unitary on the sector.  A network over
    another mode count raises ModeMismatchError.
    """
    # sector order is lexicographically decreasing, and no two keys are equal
    entries = sorted(((occ, amp) for occ, amp in state.amps.items() if amp != 0), reverse=True)
    values = np.array([amp for _occ, amp in entries], dtype=np.complex128)
    rows, out = _evolve_support(network, state.sector, tuple(occ for occ, _amp in entries),
                                values[:, None])
    kept = sorted(((row, amp) for row, amp in zip(rows, out[0].tolist()) if abs(amp) > PRUNE_EPS),
                  reverse=True)
    return StateVector._of(state.sector, dict(kept))


#: Bytes that the kernel's cached plans (with their support keys),
#: eigenpair stacks and window unitary stacks may hold together.  The
#: window stacks hold every fixed network's per-total unitaries: each CP
#: braid's, and the band stacks of 16 shell unitaries of the cat path's
#: two-mode networks.
KERNEL_CACHE_BYTES = 256 * 2 ** 20


class _ByteLRU:
    """Tuples by (build, args) key, held within ``budget`` bytes of their arrays.

    An entry is sized by the ``_footprint`` of its key and value, their
    arrays' buffers and headers and their tuples and numbers, each
    counted once (a plan's rows are its support key's occupation
    tuples), plus ``_ENTRY_BYTES`` of bookkeeping, so a plan of a tiny
    support, mostly Python objects, counts what it holds; the networks
    and specs a key names are shared and not counted.  When a new value would pass the budget, the least recently used values are
    dropped first; a value larger than the whole budget is built and
    returned but not kept.  ``entries`` maps each key to its (value,
    size) pair and ``order`` lists the keys by the id of that pair, least
    recent first, so a hit hashes its key once.  The lock guards the
    bookkeeping only: a build may look up other keys (a window unitary
    is built through the kernel), and two threads that miss one key both
    build it.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.held = 0
        self.entries: dict[tuple, tuple[tuple[np.ndarray, ...], int]] = {}
        self.order: OrderedDict[int, tuple] = OrderedDict()
        self.lock = threading.Lock()

    def get(self, key: tuple, build) -> tuple[np.ndarray, ...]:
        with self.lock:
            hit = self.entries.get(key)
            if hit is not None:
                self.order.move_to_end(id(hit))
                return hit[0]
        value = build()
        size = _ENTRY_BYTES + _footprint(key, value)
        with self.lock:
            if size <= self.budget and key not in self.entries:
                while self.held + size > self.budget:
                    _id, old_key = self.order.popitem(last=False)
                    self.held -= self.entries.pop(old_key)[1]
                entry = self.entries[key] = (value, size)
                self.order[id(entry)] = key
                self.held += size
        return value

    def clear(self) -> None:
        with self.lock:
            self.entries.clear()
            self.order.clear()
            self.held = 0


#: The bookkeeping of one held entry: its slots in ``entries`` and
#: ``order``, its (value, size) pair and the id that keys it in ``order``.
_ENTRY_BYTES = 200


def _footprint(*objs) -> int:
    """The bytes ``objs`` hold of their own, as ``_ByteLRU`` sizes an entry.

    A tuple counts itself and what it holds, an array its header and
    buffer, and an int itself, except the ints -5..256, which CPython
    shares.  Each object counts once however often ``objs`` reach it, so
    a plan's rows count nothing more when its support key holds the same
    tuples.  Anything else (a bool, a network, a spec, the
    build function of a key) is shared with its callers and counts
    nothing, and so does a ``_Hops`` record held inside a tuple: it is
    the value of its own ``_pair_hop_eigh`` entry, which counts it, and
    every plan step of its totals shares it.
    """
    seen: set[int] = set()

    def walk(obj) -> int:
        if id(obj) in seen:
            return 0
        if isinstance(obj, tuple):
            seen.add(id(obj))
            return sys.getsizeof(obj) + sum(walk(x) for x in obj if type(x) is not _Hops)
        kind = type(obj)
        if kind is int:
            if -5 <= obj <= 256:
                return 0
            seen.add(id(obj))
            return sys.getsizeof(obj)
        if kind is np.ndarray:
            seen.add(id(obj))
            return sys.getsizeof(obj) + (0 if obj.base is None else obj.nbytes)
        return 0

    return sum(map(walk, objs))


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


class _Hops(NamedTuple):
    """Eigenvalue and eigenvector stacks of pair hops (see ``_pair_hop_eigh``)."""

    vals: np.ndarray
    vecs: np.ndarray


@_kernel_cached
def _pair_hop_eigh(totals: tuple[int, ...]) -> _Hops:
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
    return _Hops(vals, vecs)


def _pair_hops(hops: _Hops, thetas: np.ndarray) -> np.ndarray:
    """W_N(theta) = exp(i theta hop_N) for each theta of the (B, 1, 1) column
    ``thetas`` and each N of the eigenpair stacks ``hops``, as
    ``_pair_hop_eigh`` gives them and padded like them: entry [b, f] is
    W_N(thetas[b]) of N = totals[f].

    One product for every angle: each W_N is the same (N + 1)-square
    product of the same factors as for its angle alone, so its bits do
    not depend on the other angles.
    """
    vals, vecs = hops
    return (vecs * np.exp(1j * thetas * vals)[:, :, None, :]) @ vecs.transpose(0, 2, 1)


@_kernel_cached
def _window_unitaries(network: Network, spec: AnyonSpec,
                      totals: tuple[int, ...]) -> tuple[np.ndarray]:
    """The network's unitary U_T on the (network.m, T) sector for each T in ``totals``.

    Each U_T comes from running the identity of that small sector through
    ``evolve_amplitudes``; its rows and columns are then reversed from the
    sector's decreasing lexicographic order into the order of a window
    block's members (see ``_live_blocks``), the inside occupations
    lexicographically increasing, which on two modes is n_1 = 0..T.
    Entry f of the one read-only stack holds U_T of T = totals[f] in its
    top-left dim_T x dim_T corner and zeros elsewhere, padded like
    ``_pair_hops`` to the largest dim_T.  A plan
    reads the stack of the totals a window's live blocks hold; when no
    off-diagonal entry passes ``_DIAGONAL_TOL`` the window runs as a
    diagonal step on the stack's diagonal, dropping that roundoff, and
    otherwise as one product per total.
    """
    smalls = [enumerate_sector(network.m, total, spec) for total in totals]
    top = max(small.dim for small in smalls)
    stack = np.zeros((len(smalls), top, top), dtype=np.complex128)
    for mat, small in zip(stack, smalls):
        mat[:small.dim, :small.dim] = \
            evolve_amplitudes(network, small, np.eye(small.dim))[::-1, ::-1]
    stack.setflags(write=False)
    return (stack,)


def _lookup_exp(x: float | np.ndarray, codes: np.ndarray, top: int) -> np.ndarray:
    """exp(i x c) for integer codes c in 0..top, from a table of top + 1 values.

    ``x`` is a number, or an (n, 1) column of them whose table rows are
    laid end to end, so code r (top + 1) + c picks exp(i x_r c).  The
    table entries are the same ``exp`` arguments as ``exp(1j * x *
    codes)``, so the factors are bit-identical to it.
    """
    return np.exp(1j * x * np.arange(top + 1)).ravel()[codes]


def _live_blocks(fermionic: bool, live, lo: int, hi: int, window: bool):
    """The blocks of BS_{lo,hi}, or of a window on lo..hi, that hold one
    of the occupation tuples ``live``, built from those tuples alone.

    A block is the states with equal occupations outside the step's
    modes (lo and hi for a pair, every mode lo..hi for a window): a live
    row's outside occupations with every inside occupation of their
    total T that the class admits, in increasing lexicographic order,
    which for a pair is n_lo = 0..T.  A block with no live row holds
    exact zeros, which its unitary maps to zeros, so no step needs it.
    Blocks the step leaves alone are left out: a pair's of a single
    state (T = 0, and T = 2 for fermions), on which the hop vanishes,
    and a window's of T = 0, on which every element is the identity (a
    window's other single-state blocks, all modes filled with fermions,
    can still take a phase).

    Returns the blocks' rows as occupation tuples, one family per T in
    increasing T, its blocks by their outside occupations in increasing
    lexicographic order and laid out member by member, so a family's
    span reshapes to (block size, B) with one block per column; the
    families as (T, size, start, stop) spans of those rows in Python
    ints, which a plan holds and ``_footprint`` sizes; and for a pair the
    winding k(k - 1)/2 + s k of each row, k = n_lo and s the particles
    strictly between lo and hi (None for a window).
    """
    if window:
        def cut(row):
            return sum(row[lo - 1:hi]), row[:lo - 1] + row[hi:]

        def join(outer, inner):
            return outer[:lo - 1] + inner + outer[lo - 1:]
    else:
        def cut(row):
            return row[lo - 1] + row[hi - 1], row[:lo - 1] + row[lo:hi - 1] + row[hi:]

        def join(outer, inner):
            return outer[:lo - 1] + inner[:1] + outer[lo - 1:hi - 2] + inner[1:] + outer[hi - 2:]
    blocks = sorted(set(map(cut, live)))
    rows, winding, families = [], [], []
    for total, group in itertools.groupby(blocks, key=operator.itemgetter(0)):
        members = _shape_basis(hi - lo + 1 if window else 2, total, fermionic).basis[::-1]
        if total == 0 or len(members) == 1 and not window:
            continue
        rest = [outer for _total, outer in group]
        start = len(rows)
        rows += [join(outer, inner) for inner in members for outer in rest]
        if not window:
            between = [sum(outer[lo - 1:hi - 2]) for outer in rest]
            winding += [k * (k - 1) // 2 + s * k for (k, _n_hi) in members for s in between]
        families.append((total, len(members), start, len(rows)))
    return rows, families, None if window else winding


def _block_products(part: np.ndarray, stack: np.ndarray, families) -> np.ndarray:
    """Each family of the gathered rows ``part`` times its matrix, column by column.

    ``families`` holds (f, size, start, stop) as a plan step gives them,
    and family f's matrix is the top-left size x size corner of
    ``stack[f]``, a padded stack as ``_pair_hops`` and
    ``_window_unitaries`` give it.  One (size x size) by (size x B) BLAS
    call per family and batch column, so every column meets the same
    calls whatever the batch width; B counts the blocks kept for the
    step, so a vector and a batch column agree bit for bit when the same
    blocks are live.
    """
    out = np.empty_like(part)
    for f, size, start, stop in families:
        fam_shape = (len(part), size, -1)
        np.matmul(stack[f, :size, :size], part[:, start:stop].reshape(fam_shape),
                  out=out[:, start:stop].reshape(fam_shape))
    return out


def _steps(elements, m: int):
    """The elements in order, with each window as wide as all m modes run in place."""
    for element in elements:
        if isinstance(element, Window) and element.network.m == m:
            yield from _steps(element.network.elements, m)
        else:
            yield element


def _split(network: Network, spec: AnyonSpec) -> tuple[tuple, list]:
    """The network's skeleton and its angles, from one walk of its steps.

    The skeleton holds each step's mode for a phase shifter, its modes
    (lo, hi, False) for a beam splitter, and (lo, hi, True, sub-network,
    spec) for a window, led by the ``_live_blocks`` arguments; the
    angles list each phase shifter's tau and each beam splitter's theta,
    in step order.  A window's entry holds what the plan's diagonal
    decision reads (see ``_plan``), so a network without windows has an
    angle-free skeleton, and the angles are all a plan leaves to each
    run.
    """
    skeleton, angles = [], []
    for step in _steps(network.elements, network.m):
        if isinstance(step, PhaseShifter):
            skeleton.append(step.mode)
            angles.append(step.tau)
        elif isinstance(step, BeamSplitter):
            i, j = step.mode_i, step.mode_j
            skeleton.append((i, j, False) if i < j else (j, i, False))
            angles.append(step.theta)
        else:
            skeleton.append((step.first, step.first + step.network.m - 1, True,
                             step.network, spec))
    return tuple(skeleton), angles


#: A window whose unitaries have no off-diagonal entry above this on the
#: totals a plan reaches runs as a diagonal step; the CP braid's stay
#: below 1.5e-15 on the totals 1..3 a code row reaches, and reach 1-2e-14
#: only from T = 13 on.
_DIAGONAL_TOL = 1e-14


def _is_diagonal(stack: np.ndarray) -> bool:
    """Whether every off-diagonal entry of the padded stack is at most ``_DIAGONAL_TOL``."""
    return bool(np.abs(stack - stack * np.eye(stack.shape[1])).max() <= _DIAGONAL_TOL)


#: The kinds of plan step (see ``_Plan``), the first entry of each.
_PHASE, _DIAGONAL, _WINDOW, _HOP = range(4)

#: The read-only empty ``gathered``, ``winding`` or ``codes`` and empty
#: ``taus`` that every plan without such entries holds.
_NO_ROWS = np.empty(0, dtype=np.intp)
_NO_TAUS = np.empty((0, 1), dtype=np.intp)
_NO_ROWS.setflags(write=False)
_NO_TAUS.setflags(write=False)


class _Plan(NamedTuple):
    """What a network skeleton does on one input support.

    ``rows`` lists the occupation tuples of the support-sized state in
    the order they first become live: the support, in sector order, then
    the rows of each block step's kept blocks that were not live before,
    so the rows live before any step are a prefix; a row is named by its
    occupations alone, never by a rank in its sector.  ``steps`` holds
    one entry per step that acts, everything about it that no angle
    changes, led by its kind.  A phase shifter's is (_PHASE, width,
    first): it multiplies the live prefix of that width by its factors,
    entries first:first + width of one gather ``_lookup_exp(angles[taus],
    codes, top)``; the code of a prefix row is o (top + 1) + c, with c its
    occupation of the shifter's mode, o the shifter's ordinal among the
    network's phase shifters and top = n_total.  A window whose unitaries
    U_T are diagonal on its kept totals (see ``_plan``) has (_DIAGONAL,
    width, phases, totals): ``phases`` holds, for each row of the prefix,
    its entry of U_T's diagonal, or 1 for a row in no block (window total
    0), and ``totals`` the kept totals.  Any other window and every beam
    splitter with a kept block is a block step; one with no kept block
    acts on exact zeros and has no entry.  ``gathered[start:stop]`` holds
    the state positions of its kept blocks' rows in ``_live_blocks``
    order, and ``families`` its kept families as (f, size, start, stop),
    with f counted over its kept totals.  A window's is (_WINDOW, start,
    stop, families, sub-network, totals).  A beam splitter's is (_HOP,
    start, stop, families, first, w_max, group, member): the winding codes of
    its kept rows run from ``winding[first]``, w_max is their largest, 0
    when no kept row winds (then the step has no dress and no codes), and
    its W_N(theta) is entry ``member`` of the product of
    ``hop_groups[group]``.  ``hop_groups`` holds, per ``_pair_hop_eigh``
    record of the kept totals the beam splitters share, (eigenpairs, the
    positions of their angles as a (B, 1, 1) column), so one batched
    product forms every W_N of a record.  ``taus`` holds the angle
    position of each phase shifter as an (n_ps, 1) column, ``w_top`` the
    largest winding code.  The arrays are read-only and every number is a
    Python int.
    """

    rows: tuple
    gathered: np.ndarray
    winding: np.ndarray
    codes: np.ndarray
    taus: np.ndarray
    steps: tuple
    hop_groups: tuple
    top: int
    w_top: int


@_kernel_cached
def _plan(n_total: int, fermionic: bool, skeleton: tuple, support: tuple) -> _Plan:
    """The plan of a network skeleton (see ``_split``) on an input support.

    ``support`` holds the occupation tuples of the n_total particles
    nonzero in some input column, in sector order (lexicographically
    decreasing), and every row the plan adds is an occupation tuple too,
    so no sector is enumerated: each row's place in the state is kept in
    a dict by its tuple.  Each beam splitter or window keeps the blocks
    that hold a live row, built by ``_live_blocks`` from the rows the
    plan holds.  A window whose cached unitaries (``_window_unitaries``)
    have no off-diagonal entry above ``_DIAGONAL_TOL`` on the kept totals
    becomes a diagonal step holding their diagonal, and marks no row
    live; this reads the totals the plan reaches only, so the stack it
    builds is the one the run would ask for.  Any other window, and
    every beam splitter, marks every row of its kept blocks live.
    """
    place = {row: pos for pos, row in enumerate(support)}   # each live row's state position
    gathered, winding, codes = [], [], []
    steps, taus, groups = [], [], {}
    angle = 0
    for step in skeleton:
        if isinstance(step, int):
            codes += [row[step - 1] + len(taus) * (n_total + 1) for row in place]
            taus.append(angle)
            angle += 1
            steps.append((_PHASE, len(place), len(codes) - len(place)))
            continue
        if not step[2]:
            angle += 1      # a beam splitter's; a window takes no angle
        kept_rows, kept, step_winding = _live_blocks(fermionic, place, *step[:3])
        if not kept:
            continue
        totals = tuple(total for total, *_span in kept)
        stack = _window_unitaries(*step[3:], totals)[0] if step[2] else None
        if stack is not None and _is_diagonal(stack):
            # a live row's phase is its block's U_T diagonal at its rank in the
            # block, its row in the family's (size, B) layout, and 1 in no
            # block (window total 0)
            phases = np.ones(len(place), dtype=np.complex128)
            for pos, (_total, size, start, stop) in enumerate(kept):
                for offset, row in enumerate(kept_rows[start:stop]):
                    if row in place:
                        rank = offset * size // (stop - start)
                        phases[place[row]] = stack[pos, rank, rank]
            phases.setflags(write=False)
            steps.append((_DIAGONAL, len(place), phases, totals))
            continue
        for row in kept_rows:
            place.setdefault(row, len(place))
        families = tuple((pos, *extent) for pos, (_total, *extent) in enumerate(kept))
        head = (len(gathered), len(gathered) + len(kept_rows), families)
        gathered += [place[row] for row in kept_rows]
        if step[2]:
            steps.append((_WINDOW, *head, step[3], totals))
            continue
        w_max = max(step_winding, default=0)
        # beam splitters of the same kept totals share one eigenpair record
        group, members = groups.setdefault(totals, (len(groups), []))
        steps.append((_HOP, *head, len(winding), w_max, group, len(members)))
        members.append(angle - 1)
        if w_max:
            winding += step_winding
    # angle positions as columns, so a gather of the angles broadcasts
    # against the phase table's powers and the hop eigenvalue stacks; a
    # plan with nothing to hold in one of them shares the empty constant
    arrays = [np.array(parts, dtype=np.intp) if parts else _NO_ROWS
              for parts in (gathered, winding, codes)]
    arrays.append(np.array(taus, dtype=np.intp).reshape(-1, 1) if taus else _NO_TAUS)
    hop_groups = tuple((_pair_hop_eigh(totals),
                        np.array(members, dtype=np.intp).reshape(-1, 1, 1))
                       for totals, (_group, members) in groups.items())
    for arr in arrays + [members for _hops, members in hop_groups]:
        arr.setflags(write=False)
    return _Plan(tuple(place), *arrays, tuple(steps), hop_groups, n_total,
                 max(winding, default=0))


def _run(plan: _Plan, angles, spec: AnyonSpec, values: np.ndarray) -> np.ndarray:
    """The (k, L) state over the plan's rows after its steps, from the
    (len(support), k) amplitudes ``values`` of its support and the
    network's ``angles`` (see ``_split``).

    The angles go through the plan in one batched pass: one ``exp`` and
    one gather give every phase shifter's factors, and one product per
    ``hop_groups`` record every beam splitter's W_N(theta); the steps
    then only gather, multiply and scatter.  A plan with no step, whose
    beam splitters all met exact zeros, converts no angle.
    """
    state = np.zeros((values.shape[1], len(plan.rows)), dtype=np.complex128)
    state[:, :len(values)] = values.T
    if not plan.steps:
        return state
    # plan row r of input column c sits at flat[c * L + r]
    flat = state.reshape(-1)
    columns = len(plan.rows) * np.arange(len(state))[:, None]
    angles = np.asarray(angles, dtype=np.float64)
    if len(plan.taus):
        factors = _lookup_exp(angles[plan.taus], plan.codes, plan.top)
    hops = [_pair_hops(record, angles[thetas]) for record, thetas in plan.hop_groups]
    if plan.w_top:
        # fermions: (-1)^{s k} exp(i phi s k) = exp(i (phi + pi) s k) since k <= 1
        phi = spec.phi + (math.pi if spec.is_fermionic else 0.0)
        dresses = _lookup_exp(phi, plan.winding, plan.w_top)
    for step in plan.steps:
        kind = step[0]
        if kind == _HOP:
            _kind, start, stop, families, first, w_max, group, member = step
            where = plan.gathered[start:stop] + columns
            part = flat[where]
            if w_max:
                dress = dresses[first:first + stop - start]
                part *= dress.conj()
            part = _block_products(part, hops[group][member], families)
            if w_max:
                part *= dress
            flat[where] = part
            continue
        if kind == _WINDOW:
            _kind, start, stop, families, network, totals = step
            where = plan.gathered[start:stop] + columns
            stack, = _window_unitaries(network, spec, totals)
            flat[where] = _block_products(flat[where], stack, families)
            continue
        if kind == _PHASE:
            _kind, width, first = step
            phases = factors[first:first + width]
        else:
            _kind, width, phases, _totals = step
        if width == 1:
            # numpy would run one strided loop down the batch, whose complex
            # multiply can round apart from a lone vector's loop of one
            for row in state:
                row[:1] *= phases
        else:
            state[:, :width] *= phases
    return state


def _evolve_support(network: Network, sector: FockSector, support: tuple,
                    values: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Evolve the (len(support), k) amplitudes ``values`` of the occupation
    tuples ``support``, in sector order (every other state zero), through
    the network.

    One walk of the network gives its skeleton, which keys the cached
    plan with the support, and its angles, which ``_run`` passes through
    that plan.  Returns the plan's rows, occupation tuples, and the (k,
    L) state over them, one row per input column, so every column meets
    the same BLAS calls whatever the batch width; the support leads the
    rows in its own order.  A network over another mode count raises
    ModeMismatchError.
    """
    if network.m != sector.m:
        raise ModeMismatchError(f"network has {network.m} modes, sector has {sector.m}")
    spec = sector.spec
    skeleton, angles = _split(network, spec)
    plan = _plan(sector.n_total, spec.is_fermionic, skeleton, support)
    return plan.rows, _run(plan, angles, spec, values)


def evolve_amplitudes(network: Network, sector: FockSector, amps: np.ndarray) -> np.ndarray:
    """Evolve a (dim,) amplitude vector or a (dim, k) batch through the network.

    Block kernel, an exact path independent of the tests' dense oracle:
    a phase shifter multiplies each basis
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
    blocks' rows, one matrix product per kept total over those blocks
    (one BLAS call per batch column), and one scatter; nothing of size
    dim x dim is built.  A block is live when one of its rows is in the
    support, nonzero in some batch column, or was in a block an earlier
    step kept; the other blocks hold exact zeros and stay zero, so
    skipping them is exact.  A window whose U_T have no off-diagonal
    entry above 1e-14 on the kept totals, such as the CP braid, is
    instead a diagonal step like a phase shifter: it multiplies each
    live row by its U_T's diagonal entry and keeps no other row, so it
    differs from the product only by that dropped roundoff.  Which blocks
    are live, and where their rows sit in the support-sized state, is a
    cached plan per network skeleton and support, built from the live
    rows' occupations alone (``_live_blocks``), so a network of fresh
    angles on the same support selects no block again, and its angles go
    through that plan in one batched pass (``_run``); a diagonal step
    multiplies only the rows live before it.  The plan names its rows by
    their occupation tuples; this function, whose interface is a (dim,)
    vector, alone turns the support's positions into tuples and the
    plan's rows back into positions.  Rows that never become live read
    exactly +0.
    Each batch column goes through the same arithmetic as a lone vector,
    bit for bit, when it has the batch's zero rows, which always holds
    for inputs with no zero amplitude.
    """
    amps = np.asarray(amps)
    if amps.ndim not in (1, 2) or amps.shape[0] != sector.dim:
        raise ValueError(f"amplitudes of shape {amps.shape} do not fit sector dim {sector.dim}")
    batch = amps.reshape(sector.dim, -1)
    support = np.flatnonzero(batch.any(axis=1))
    occupations = tuple(map(sector.basis.__getitem__, support.tolist()))
    rows, state = _evolve_support(network, sector, occupations, batch[support])
    out = np.zeros((sector.dim, len(state)), dtype=np.complex128)
    out[np.array(list(map(sector.index.__getitem__, rows)), dtype=np.intp)] = state.T
    return out.reshape(amps.shape)


@dataclass(frozen=True)
class GOperator:
    """Winding-dressed beam splitter e^{i n phi J3} BS_ij(theta) e^{-i n phi J3}."""

    i: int
    j: int
    n: int
    theta: float

    def matrix(self, sector: FockSector) -> np.ndarray:
        """The sector's identity run by the block kernel through the network
        PS_i(-n phi/2), PS_j(n phi/2), BS_ij(theta), PS_i(n phi/2), PS_j(-n phi/2),
        since J3 = (n_i - n_j) / 2."""
        half = self.n * sector.spec.phi / 2.0
        network = Network(sector.m, (
            PhaseShifter(self.i, -half), PhaseShifter(self.j, half),
            BeamSplitter(self.i, self.j, self.theta),
            PhaseShifter(self.i, half), PhaseShifter(self.j, -half)))
        return evolve_amplitudes(network, sector, np.eye(sector.dim))


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
    vacuum's amplitudes as plain dicts, one or two passes of the ladder
    loop behind ``apply_create`` and one sum each, and the result is
    wrapped as one state, so the product is never multiplied out and no
    second phase bookkeeping exists.

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

    vacuum = vacuum_state(network.m, spec)
    sector, amps = vacuum.sector, vacuum.amps
    for factor in reversed(factors):
        pieces = []
        for mode, c in factor:
            target, kept = _ladder(sector, amps, mode, True)
            pieces.append({occ: c * a for occ, a in kept.items()})
        sector = target
        amps = _sum(*pieces) if len(pieces) == 2 else pieces[0]
    return StateVector._of(sector, amps)


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
        factor = np.eye(network.m, dtype=np.complex128)
        if isinstance(el, PhaseShifter):
            factor[el.mode - 1, el.mode - 1] = cmath.exp(1j * el.tau)
        else:
            a, b = el.mode_i - 1, el.mode_j - 1
            factor[a, a] = factor[b, b] = math.cos(el.theta)
            factor[a, b] = factor[b, a] = 1j * math.sin(el.theta)
        mat = factor @ mat
    return mat
