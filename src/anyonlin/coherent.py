"""Coherent states of bosonic anyons on a truncated Fock space.

A single anyonic mode obeys the ordinary bosonic algebra, so single-mode
coherent states, displacement operators D(g) = exp(g b† - g* b) and the
coherence functions

    c(n) = <(b†)^n b^n> / <n>^n

behave exactly as in standard quantum optics (full coherence means
c(n) = 1 for all n).  The anyonic exchange phase only shows up with two
or more modes, where it splits the notion of coherence into inequivalent
families over a mode pair (amplitudes u on mode 1, v on mode 2):

* exact coherent states, ordered displacement products
  D1(u) D2(v) |0>  ("less") and  D2(v) D1(u) |0>  ("greater"),
  whose Fock expansion carries a cross phase e^{-i phi k l} in the
  "greater" order and none in the "less" order;

* type-1 / type-2 dynamically coherent states, the orbits of
  single-mode coherent states under two-mode linear optics, with
  occupation-dependent phases

      type 1: e^{-i phi (l k + k (k - 1) / 2)},
      type 2: e^{+i phi l (l - 1) / 2}

  on the |l, k> amplitude.  Linear optics rotates the (u, v) pair of a
  type-1/2 state by the network's single-particle matrix but never maps
  one family into another; the diagonal Kerr unitary exp(i phi n(n-1)/2)
  with n = n_1 + n_2 converts type 1 into type 2 exactly.

At phi = pi the mirror network PS1(pi/2) BS12(pi/2) PS2(pi/2) reflects a
single-mode coherent state into an equal-weight superposition of two
coherent branches, i.e. a cat state.

``evolve_truncated`` runs a two-mode state through any two-mode network
exactly.  Total occupation is conserved and, on two modes, each shell N
is one block of the network kernel, so the network acts on it as one
(N + 1) x (N + 1) unitary.  The kernel builds these 16 shells to a band
(``network._window_unitaries``) by running each shell's identity
through the network, and keeps them in its byte-bounded cache.

States here are dense amplitude arrays over a per-mode occupation cutoff
n_max.  All shipped routines keep |amplitude| <= 1 with n_max = 40 by
default, which makes every truncation tail irrelevant at the 1e-8 level.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Union

import numpy as np

from .fock import PRUNE_EPS, AnyonSpec
from .network import BeamSplitter, Network, PhaseShifter, _window_unitaries, single_particle_matrix
from .network import evolve  # unused here; perfbench instruments and counts it by this name

__all__ = [
    "DEFAULT_N_MAX",
    "Truncation",
    "DegenerateStateError",
    "NotClosedUnderLinearOpticsError",
    "TruncationRiskWarning",
    "TruncatedState",
    "ExactLess",
    "ExactGreater",
    "Type1",
    "Type2",
    "SingleMode",
    "CoherentFamily",
    "displacement",
    "coherent_amplitudes",
    "coherent_state",
    "generalized_coherent_state",
    "coherence_function",
    "displacement_product_factor",
    "two_mode_family_state",
    "evolve_family",
    "evolve_truncated",
    "kerr_interconvert",
    "mirror_network",
    "mirror_cat",
    "mirror_cat_reference",
    "cat_closed_form",
    "deformed_binomial_coeffs",
    "deformed_binomial_prefactor",
]

DEFAULT_N_MAX = 40


class DegenerateStateError(ValueError):
    """Coherence function undefined: the mean occupation vanishes."""


class NotClosedUnderLinearOpticsError(ValueError):
    """Exact coherent families leave their family under linear optics."""


class TruncationRiskWarning(UserWarning):
    """The cutoff is too close to the coherent amplitude for comfort."""


@dataclass(frozen=True)
class Truncation:
    """Per-mode Fock cutoff; amplitudes with any occupation > n_max are dropped."""

    n_max: int = DEFAULT_N_MAX

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")


class TruncatedState:
    """Dense complex amplitudes over one or two cut-off modes.

    ``amps[l]`` (one mode) or ``amps[l, k]`` (two modes) is the amplitude
    on occupation |l> or |l, k>.  Treated as immutable.
    """

    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray):
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.ndim not in (1, 2):
            raise ValueError("expected a 1- or 2-mode amplitude array")
        if amps.ndim == 2 and amps.shape[0] != amps.shape[1]:
            raise ValueError("two-mode amplitudes must share one cutoff")
        amps.setflags(write=False)
        self.amps = amps

    @property
    def num_modes(self) -> int:
        return self.amps.ndim

    @property
    def n_max(self) -> int:
        return self.amps.shape[0] - 1

    def norm(self) -> float:
        return _norm(self.amps)

    def normalized(self) -> "TruncatedState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return TruncatedState(self.amps / n)

    def overlap(self, other: "TruncatedState") -> complex:
        """<self|other>."""
        if self.amps.shape != other.amps.shape:
            raise ValueError("states live on different truncated spaces")
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "TruncatedState") -> float:
        return abs(self.overlap(other)) ** 2 / (self.norm() ** 2 * other.norm() ** 2)

    def occupations(self, mode: int) -> np.ndarray:
        """Occupation value of each amplitude entry along the given mode."""
        if not 1 <= mode <= self.num_modes:
            raise ValueError(f"mode {mode} outside 1..{self.num_modes}")
        n = np.arange(self.amps.shape[mode - 1])
        if self.num_modes == 1:
            return n
        return n[:, None] if mode == 1 else n[None, :]


def _norm(amps: np.ndarray) -> float:
    """``float(np.linalg.norm(amps))`` of a complex array, bit for bit: the
    same flattening and real and imaginary dot products, without the
    wrapper's dispatch."""
    flat = amps.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _ladder(n_max: int) -> np.ndarray:
    """Truncated annihilation matrix a with a[n-1, n] = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, n_max + 1)), 1).astype(np.complex128)


def displacement(g: complex, truncation: Truncation = Truncation()) -> np.ndarray:
    """Truncated single-mode displacement D(g) = exp(g b† - g* b).

    Built by exponentiating the truncated anti-Hermitian generator
    through its spectral decomposition, so the matrix is exactly unitary
    and D(-g) = D(g)† holds to roundoff; only its action near the cutoff
    boundary deviates from the untruncated operator.  Emits a
    TruncationRiskWarning when |g|^2 > n_max / 4.
    """
    g = complex(g)
    n_max = truncation.n_max
    if abs(g) ** 2 > n_max / 4.0:
        warnings.warn(
            f"|g|^2 = {abs(g) ** 2:.3g} is large for cutoff n_max = {n_max}",
            TruncationRiskWarning, stacklevel=2)
    a = _ladder(n_max)
    herm = -1j * (g * a.conj().T - g.conjugate() * a)
    vals, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def coherent_amplitudes(g: complex, n_max: int) -> np.ndarray:
    """Closed-form amplitudes e^{-|g|^2 / 2} g^n / sqrt(n!) up to the cutoff.

    Raises ValueError when g is not finite or |g|^2 overflows a float.
    """
    g = complex(g)
    try:
        norm2 = abs(g) ** 2
    except OverflowError:
        norm2 = math.inf
    if not math.isfinite(norm2):
        raise ValueError(f"coherent amplitude {g} out of range: |g|^2 is not a finite float")
    factors = np.empty(n_max + 1, dtype=np.complex128)
    factors[0] = math.exp(-0.5 * norm2)
    factors[1:] = g / _sqrt_counts(n_max)
    return np.cumprod(factors)


@lru_cache(maxsize=8)
def _sqrt_counts(n_max: int) -> np.ndarray:
    """The read-only sqrt(1), ..., sqrt(n_max) that ``coherent_amplitudes`` divides by."""
    table = np.sqrt(np.arange(1.0, n_max + 1))
    table.setflags(write=False)
    return table


def _normalized(amps: np.ndarray, mean_name: str, mean: float) -> TruncatedState:
    """``TruncatedState(amps).normalized()``, bit for bit, for the amplitudes
    of a coherent input of mean occupation ``mean``.

    When that mean is so far above the cutoff that the norm underflows
    to 0, raises ValueError naming it as ``mean_name`` and the cutoff.
    """
    norm = _norm(amps)
    if norm == 0.0:
        raise _underflow(mean_name, mean, amps.shape[0] - 1)
    return TruncatedState(amps / norm)


def _underflow(mean_name: str, mean: float, n_max: int) -> ValueError:
    return ValueError(f"{mean_name} = {mean:.6g} is too large for n_max = "
                      f"{n_max}: the truncated amplitudes' norm underflows to 0")


def _check_mode(mode: int) -> None:
    if mode not in (1, 2):
        raise ValueError("mode must be 1 or 2")


def _on_mode(axis: np.ndarray, mode: int) -> np.ndarray:
    """Two-mode amplitudes with the one-mode ``axis`` on ``mode`` (1, else 2)
    and the other mode empty."""
    vac = np.zeros(len(axis), dtype=np.complex128)
    vac[0] = 1.0
    return np.outer(axis, vac) if mode == 1 else np.outer(vac, axis)


def coherent_state(g: complex, truncation: Truncation = Truncation()) -> TruncatedState:
    """Single-mode coherent state, normalized after truncation.

    Raises ValueError when |g|^2 is so far above the cutoff that the
    truncated amplitudes' norm underflows to 0 (above about 907 at
    n_max = 40).
    """
    return _normalized(coherent_amplitudes(g, truncation.n_max), "|g|^2", abs(g) ** 2)


def generalized_coherent_state(g: complex, rho, truncation: Truncation = Truncation()
                               ) -> TruncatedState:
    """Coherent state with arbitrary per-occupation phases rho_n.

    The amplitude on |n> is e^{i rho_n} times the standard coherent one;
    any such state has c(n) = 1 at every order.  Missing trailing phases
    are taken to be zero, so rho = [] reproduces ``coherent_state``, and
    its ValueError past the norm's underflow.
    """
    base = coherent_amplitudes(g, truncation.n_max)
    phases = np.zeros(truncation.n_max + 1)
    rho = np.asarray(rho, dtype=np.float64)
    phases[: min(rho.size, phases.size)] = rho[: phases.size]
    return _normalized(base * np.exp(1j * phases), "|g|^2", abs(g) ** 2)


def coherence_function(state: TruncatedState, mode: int, n: int) -> float:
    """n-th order coherence c(n) = <(b†)^n b^n> / <n_mode>^n of one mode.

    Both factors are diagonal in the occupation basis, so only the
    probabilities enter; string phases cancel.  Raises
    DegenerateStateError when the mean occupation vanishes.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    probs = np.abs(state.amps) ** 2
    total = probs.sum()
    occ = state.occupations(mode)
    mean = float((probs * occ).sum() / total) if total > 0.0 else 0.0
    if mean <= 0.0:
        raise DegenerateStateError("mean occupation is zero")
    falling = np.ones_like(occ, dtype=np.float64)
    for k in range(n):
        falling = falling * np.maximum(occ - k, 0)
    moment = float((probs * falling).sum() / total)
    return moment / mean ** n


def displacement_product_factor(g: complex, h: complex,
                                truncation: Truncation = Truncation()) -> complex:
    """Scalar lambda with D(g) D(h) = lambda D(g + h) on truncated matrices.

    Measured numerically on the sub-block n <= n_max / 2 (away from
    cutoff edge effects) by least squares, not assumed from any algebra
    convention; with these matrices it comes out as the half-exponent
    form e^{(g h* - h g*) / 2}.
    """
    product = displacement(g, truncation) @ displacement(h, truncation)
    reference = displacement(g + h, truncation)
    block = truncation.n_max // 2 + 1
    pb = product[:block, :block]
    rb = reference[:block, :block]
    return complex(np.vdot(rb, pb) / np.vdot(rb, rb))


@dataclass(frozen=True)
class ExactLess:
    """D1(u) D2(v) |0>: mode-1 displacement applied after mode-2."""

    u: complex
    v: complex


@dataclass(frozen=True)
class ExactGreater:
    """D2(v) D1(u) |0>: opposite displacement order, cross phase e^{-i phi k l}."""

    u: complex
    v: complex


@dataclass(frozen=True)
class Type1:
    """Linear-optics orbit of a mode-1 coherent state."""

    u: complex
    v: complex


@dataclass(frozen=True)
class Type2:
    """Linear-optics orbit of a mode-2 coherent state."""

    u: complex
    v: complex


@dataclass(frozen=True)
class SingleMode:
    """Coherent amplitude g on one mode, vacuum on the other."""

    g: complex
    mode: int

    def __post_init__(self) -> None:
        _check_mode(self.mode)


CoherentFamily = Union[ExactLess, ExactGreater, Type1, Type2, SingleMode]


def _family_phase(family: CoherentFamily, phi: float, n_max: int) -> np.ndarray:
    l = np.arange(n_max + 1)[:, None]
    k = np.arange(n_max + 1)[None, :]
    if isinstance(family, ExactLess):
        return np.ones((n_max + 1, n_max + 1), dtype=np.complex128)
    if isinstance(family, ExactGreater):
        return np.exp(-1j * phi * k * l)
    if isinstance(family, Type1):
        return np.exp(-1j * phi * (l * k + k * (k - 1) / 2.0))
    if isinstance(family, Type2):
        return np.exp(1j * phi * l * (l - 1) / 2.0)
    raise TypeError(f"no phase profile for {family!r}")


def two_mode_family_state(family: CoherentFamily, spec: AnyonSpec,
                          truncation: Truncation = Truncation()) -> TruncatedState:
    """Two-mode amplitudes of a coherent family, normalized after truncation.

    Built directly from the double-sum expansion: the |l, k> amplitude is
    the family phase times u^l v^k / sqrt(l! k!).  Raises ValueError when
    the mean occupation is so far above the cutoff that the norm of the
    truncated amplitudes underflows to zero (|u|^2 above about 907 at
    n_max = 40).
    """
    if spec.is_fermionic:
        raise ValueError("coherent families are defined for bosonic anyons")
    n_max = truncation.n_max
    if isinstance(family, SingleMode):
        return _normalized(_on_mode(coherent_amplitudes(family.g, n_max), family.mode),
                           "|u|^2", abs(family.g) ** 2)
    base = np.outer(coherent_amplitudes(family.u, n_max), coherent_amplitudes(family.v, n_max))
    return _normalized(base * _family_phase(family, spec.phi, n_max),
                       "|u|^2 + |v|^2", abs(family.u) ** 2 + abs(family.v) ** 2)


def evolve_family(family: CoherentFamily, network: Network, spec: AnyonSpec
                  ) -> CoherentFamily:
    """Image of a dynamically coherent family under a two-mode network.

    The (u, v) amplitude pair rotates by the network's single-particle
    matrix while the family tag is preserved; a single-mode state enters
    the type-1 orbit from mode 1 and the type-2 orbit from mode 2.
    Exact coherent families are not closed under linear optics and
    raise NotClosedUnderLinearOpticsError.
    """
    if spec.is_fermionic:
        raise ValueError("coherent families are defined for bosonic anyons")
    if network.m != 2:
        raise ValueError("family evolution is defined over two-mode networks")
    if isinstance(family, (ExactLess, ExactGreater)):
        raise NotClosedUnderLinearOpticsError(
            "ordered displacement products do not stay in their family under linear optics")
    if isinstance(family, SingleMode):
        pair = (family.g, 0.0) if family.mode == 1 else (0.0, family.g)
        family = Type1(*pair) if family.mode == 1 else Type2(*pair)
    a = single_particle_matrix(network)
    u = a[0, 0] * family.u + a[0, 1] * family.v
    v = a[1, 0] * family.u + a[1, 1] * family.v
    return type(family)(u, v)


#: Consecutive shell totals built and cached as one stack.  A wider band
#: means fewer products per call but more zero padding and more shells
#: built past the top live one; at 16 a ``cat`` at n_max = 40 multiplies
#: two or three bands.
_BAND = 16


def _shell_view(grid: np.ndarray, n_max: int) -> np.ndarray:
    """The (n_max + 1)^2 view of ``grid`` whose entry [l, k] is grid[l + k, l]."""
    row, item = grid.strides
    return np.ndarray((n_max + 1, n_max + 1), grid.dtype, grid, 0, (row + item, row))


def evolve_truncated(state: TruncatedState, network: Network, spec: AnyonSpec
                     ) -> TruncatedState:
    """Exact evolution of a two-mode truncated state, all shells at once.

    Phase shifters and beam splitters conserve total particle number, so
    each total-occupation shell N evolves independently by the whole
    network's unitary on the bosonic (2, N) sector.  The amplitudes are
    laid into a zero-padded (2 n_max + 1)^2 grid, row N = l + k holding
    shell N in column l = n_1, and each band of 16 shells that holds a
    live one is multiplied in one batched product, cut to the top live
    shell, by its stack of shell unitaries: the kernel's unitaries of
    the whole network on the band's totals
    (``network._window_unitaries``), whose n_1 = 0..N order is the
    grid's column order and whose zero padding keeps each shell inside
    its N + 1 columns.  A shell of norm <= PRUNE_EPS / 2 is not live: a
    unitary keeps its every output below PRUNE_EPS, so leaving it
    unevolved changes nothing once amplitudes of magnitude <= PRUNE_EPS
    are dropped.
    Amplitude pushed past the per-mode cutoff (only possible on shells
    above n_max) is dropped, with a warning when its probability exceeds
    1e-12.  That loss is summed only when a live shell lies above n_max;
    below, it is exactly 0.
    """
    if state.num_modes != 2:
        raise ValueError("expected a two-mode state")
    if network.m != 2:
        raise ValueError("expected a two-mode network")
    if spec.is_fermionic:
        raise ValueError("truncated two-mode states are defined for bosonic anyons")
    n_max = state.n_max
    grid = np.zeros((2 * n_max + 1, 2 * n_max + 1), dtype=np.complex128)
    shells = _shell_view(grid, n_max)
    shells[...] = state.amps
    parts = grid.view(np.float64)
    live = np.flatnonzero(np.einsum("ij,ij->i", parts, parts) > (0.5 * PRUNE_EPS) ** 2)
    top = int(live[-1]) + 1 if live.size else 0
    for band in sorted(set((live // _BAND).tolist())):
        lo, hi = band * _BAND, min((band + 1) * _BAND, top)
        stack, = _window_unitaries(network, spec, tuple(range(lo, lo + _BAND)))
        grid[lo:hi, :hi] = np.matmul(stack[:hi - lo, :hi, :hi], grid[lo:hi, :hi, None])[..., 0]
    evolved = grid[:top, :top]
    evolved[~(np.abs(evolved) > PRUNE_EPS)] = 0.0
    grid[top:] = 0.0    # shells past the top live one: every amplitude is below the prune
    # += into zeros, not assignment, so that a kept -0.0 part reads +0.0
    out = np.zeros_like(state.amps)
    out += shells
    if top > n_max + 1:     # below, every live shell N <= n_max fits the cutoff whole
        shells[...] = 0.0
        lost = np.vdot(evolved, evolved).real
        if lost > 1e-12:
            warnings.warn(f"dropped probability {lost:.3g} past the cutoff",
                          TruncationRiskWarning, stacklevel=2)
    return TruncatedState(out)


def kerr_interconvert(state: TruncatedState, spec: AnyonSpec) -> TruncatedState:
    """Apply the Kerr unitary exp(i phi n (n - 1) / 2), n = n_1 + n_2.

    Diagonal in the occupation basis; maps a type-1 family state onto
    the type-2 state with the same (u, v).
    """
    if state.num_modes != 2:
        raise ValueError("expected a two-mode state")
    n = np.arange(state.n_max + 1)
    total = n[:, None] + n[None, :]
    phase = np.exp(1j * spec.phi * total * (total - 1) / 2.0)
    return TruncatedState(state.amps * phase)


@lru_cache(maxsize=1)  # a constant; mirror_cat and its reference both ask for it per call
def mirror_network() -> Network:
    """The two-mode mirror: PS2(pi/2), then BS12(pi/2), then PS1(pi/2).

    Its single-particle matrix is [[0, -i], [i, 0]], i.e. it reflects
    mode 1 into mode 2 with amplitude u -> i u and mode 2 into mode 1
    with v -> -i v.
    """
    half_pi = math.pi / 2.0
    return Network(2, (
        PhaseShifter(2, half_pi),
        BeamSplitter(1, 2, half_pi),
        PhaseShifter(1, half_pi),
    ))


@lru_cache(maxsize=1)
def _mirror_reflections() -> tuple[complex, complex]:
    """The mirror's reflection amplitudes: mode 1 -> 2 and mode 2 -> 1."""
    a = single_particle_matrix(mirror_network())
    return a[1, 0], a[0, 1]


def cat_closed_form(w: complex, truncation: Truncation = Truncation(),
                    mode: int = 2) -> TruncatedState:
    """Normalized e^{i pi/4} |-i w> - e^{3 i pi/4} |+i w> on one mode.

    This is the two-branch resolution of a type-1 or type-2 profile at
    phi = pi, with the quarter roots of -1 on the principal branch.
    Raises ValueError for a mode other than 1 or 2, and when |w|^2 is so
    far above the cutoff that the norm underflows to 0.
    """
    _check_mode(mode)
    return _normalized(_on_mode(_cat_branch(w, truncation.n_max), mode), "|w|^2", abs(w) ** 2)


def _cat_branch(w: complex, n_max: int) -> np.ndarray:
    """The unnormalized one-mode amplitudes e^{i pi/4} |-i w> - e^{3 i pi/4} |+i w>."""
    return (cmath.exp(1j * math.pi / 4.0) * coherent_amplitudes(-1j * w, n_max)
            - cmath.exp(3j * math.pi / 4.0) * coherent_amplitudes(1j * w, n_max))


def mirror_cat_reference(u: complex, truncation: Truncation = Truncation(),
                         mode: int = 1) -> TruncatedState:
    """The mirror's closed-form cat for a coherent input u on ``mode``.

    The mirror reflects the input onto the other mode (i u onto mode 2
    for a mode-1 input, -i u onto mode 1 for a mode-2 input), where
    phi = pi resolves it into the two branches of ``cat_closed_form``.
    A mode other than 1 or 2 raises ValueError.
    """
    _check_mode(mode)
    w, live = _mirror_image(u, mode)
    return cat_closed_form(w, truncation, mode=live)


def _mirror_image(u: complex, mode: int) -> tuple[complex, int]:
    """The mirror's reflection w of an input u on ``mode``, and the mode it lands on."""
    to_two, to_one = _mirror_reflections()
    return (to_two * u, 2) if mode == 1 else (to_one * u, 1)


def mirror_cat(u: complex, spec: AnyonSpec,
               truncation: Truncation = Truncation(), mode: int = 1) -> TruncatedState:
    """Cat state produced by the mirror at phi = pi on a coherent input.

    Evolves the single-mode coherent state through the mirror network by
    brute force, then checks its fidelity with ``mirror_cat_reference``,
    which is nonzero on one live mode only (mode 2 for a mode-1 input):
    the evolved state is normalized, so that fidelity is
    |<live mode of the evolved state, b>|^2 / <b, b> for the closed-form
    branch b of ``cat_closed_form``.  Below 1 - 1e-8 an ArithmeticError
    signals a failed self-check; a branch whose norm underflows to 0
    raises the ValueError of ``cat_closed_form``.  Returns the evolved
    state.
    """
    if spec.is_fermionic:
        raise ValueError("the mirror cat construction needs bosonic anyons")
    if not math.isclose(spec.phi, math.pi, abs_tol=1e-12):
        raise ValueError("the two-branch cat form holds at phi = pi only")
    state = two_mode_family_state(SingleMode(u, mode), spec, truncation)
    evolved = evolve_truncated(state, mirror_network(), spec).normalized()
    w, live = _mirror_image(u, mode)
    branch = _cat_branch(w, truncation.n_max)
    weight = float(branch.real.dot(branch.real) + branch.imag.dot(branch.imag))
    if weight == 0.0:
        raise _underflow("|w|^2", abs(w) ** 2, truncation.n_max)
    on_live = evolved.amps[:, 0] if live == 1 else evolved.amps[0]
    fidelity = abs(complex(np.vdot(on_live, branch))) ** 2 / weight
    if fidelity < 1.0 - 1e-8:
        raise ArithmeticError(
            f"mirror output missed the cat closed form: fidelity {fidelity!r}")
    return evolved


def deformed_binomial_coeffs(n: int, phi: float) -> np.ndarray:
    """Coefficients of the anyonic binomial expansion.

    prod_{k=0}^{n-1} (e^{i k phi} a b†_i + b b†_j)  expands into
    sum_l  C(n, l) e^{i phi l (l - 1) / 2} (a b†_i)^l (b b†_j)^{n-l};
    the returned entry l is the coefficient of the l-th monomial.  At
    phi = 0 these are the ordinary binomial coefficients.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return np.array([comb(n, l) * cmath.exp(1j * phi * l * (l - 1) / 2.0)
                     for l in range(n + 1)], dtype=np.complex128)


def deformed_binomial_prefactor(n: int, phi: float) -> complex:
    """Phase relating the two ordered product forms.

    prod_{k} (a b†_i + e^{-i k phi} b b†_j)
        = e^{-i phi n (n - 1) / 2} prod_{k} (e^{i k phi} a b†_i + b b†_j).
    """
    return cmath.exp(-1j * phi * n * (n - 1) / 2.0)
