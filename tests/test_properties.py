"""Randomly generated checks that the independent evolution paths agree.

Hypothesis is installed but not a declared dependency, so the module is
skipped without it.  Examples are derandomized, so every run of the
suite draws the same cases.
"""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from anyonlin import AnyonSpec, BeamSplitter, Network, PhaseShifter, Window, \
    build_braiding_network, evolve, evolve_amplitudes, propagate_algebraic, \
    single_particle_matrix  # noqa: E402
from anyonlin import network as network_module  # noqa: E402
from anyonlin import operators as operators_module  # noqa: E402
from anyonlin.coherent import TruncatedState, TruncationRiskWarning, \
    evolve_truncated  # noqa: E402
from anyonlin.fock import PRUNE_EPS, StateVector, apply_create, enumerate_sector, \
    vacuum_state  # noqa: E402

from conftest import dense_evolve, evolve_support, live_blocks, reference_blocks, \
    reference_propagate_algebraic, shellwise_oracle, stepwise_evolve_support  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)

TWO_PI = 2.0 * math.pi

# phi near both ends of [0, 2 pi), including inputs that reduce onto them
phis = st.one_of(
    st.floats(0.0, TWO_PI, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, 1e-12, -1e-20, math.pi, TWO_PI - 1e-9, TWO_PI - 1e-15]),
)
angles = st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False)


@st.composite
def specs(draw):
    phi = draw(phis)
    return AnyonSpec.fermionic(phi) if draw(st.booleans()) else AnyonSpec.bosonic(phi)


@st.composite
def beam_splitter_cases(draw):
    """A class, phi, m <= 6, one beam splitter and a creation monomial in its span."""
    spec = draw(specs())
    m = draw(st.integers(2, 6))
    lo = draw(st.integers(1, m - 1))
    hi = draw(st.integers(lo + 1, m))
    i, j = (lo, hi) if draw(st.booleans()) else (hi, lo)
    span = st.sampled_from(range(lo, hi + 1))
    if spec.is_fermionic:   # a repeated fermionic mode gives the zero vector
        monomial = draw(st.lists(span, min_size=1, max_size=min(4, hi - lo + 1), unique=True))
    else:
        monomial = draw(st.lists(span, min_size=1, max_size=4))
    return spec, Network(m, (BeamSplitter(i, j, draw(angles)),)), monomial


@st.composite
def networks(draw, m):
    elements = []
    for _ in range(draw(st.integers(1, 5))):
        if m == 1 or draw(st.booleans()):
            elements.append(PhaseShifter(draw(st.integers(1, m)), draw(angles)))
        else:
            i, j = draw(st.lists(st.integers(1, m), min_size=2, max_size=2, unique=True))
            elements.append(BeamSplitter(i, j, draw(angles)))
    return Network(m, tuple(elements))


@st.composite
def window_cases(draw, full_width):
    """A class, phi, a sector of m <= 6 modes, a network holding one window
    of a random sub-network, and a random amplitude vector.

    The window is as wide as the sector when ``full_width`` is set, and
    strictly narrower otherwise, then often at either end of the modes.
    """
    spec = draw(specs())
    m = draw(st.integers(1 if full_width else 2, 6))
    width = m if full_width else draw(st.integers(1, m - 1))
    first = draw(st.one_of(st.just(1), st.just(m - width + 1), st.integers(1, m - width + 1)))
    window = Window(first, draw(networks(width)))
    around = draw(networks(m)).elements if m > 1 else ()
    network = Network(m, around[:1] + (window,) + around[1:])
    n = draw(st.integers(0, m if spec.is_fermionic else 4))
    sector = enumerate_sector(m, n, spec)
    amps = np.array(draw(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=sector.dim,
                                  max_size=sector.dim)), dtype=np.complex128)
    return network, sector, amps


@st.composite
def windowed_cases(draw):
    """A class, phi, a network of m <= 6 modes holding a window of a random
    sub-network, its sector of n >= 1 particles, and the window's first
    mode and width."""
    spec = draw(specs())
    m = draw(st.integers(2, 6))
    width = draw(st.integers(1, m))
    first = draw(st.integers(1, m - width + 1))
    window = Window(first, draw(networks(width)))
    around = draw(networks(m)).elements
    network = Network(m, around[:1] + (window,) + around[1:])
    n = draw(st.integers(1, m if spec.is_fermionic else 4))
    return network, enumerate_sector(m, n, spec), first, width


@st.composite
def sparse_cases(draw):
    """A windowed network and sector (``windowed_cases``) and a one-hot or
    few-hot (dim, k) batch, k <= 4, that may hold a zero column.

    For fermions the hot rows are often states that fill every mode of
    the window, whose single-state block still takes a phase.
    """
    network, sector, first, width = draw(windowed_cases())
    rows = np.arange(sector.dim)
    filled = np.all(sector.occ[:, first - 1:first - 1 + width] == 1, axis=1)
    if sector.spec.is_fermionic and filled.any() and draw(st.booleans()):
        rows = rows[filled]
    batch = np.zeros((sector.dim, draw(st.integers(1, 4))), dtype=np.complex128)
    for col in range(batch.shape[1] - draw(st.sampled_from([0, 0, 0, 1]))):
        hot = draw(st.lists(st.sampled_from(rows.tolist()), min_size=1, max_size=3, unique=True))
        for row in hot:
            batch[row, col] = draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0))
    return network, sector, batch


@st.composite
def support_cases(draw):
    """A windowed network and sector (``windowed_cases``) and a (dim, k)
    batch, k <= 4, of Gaussian amplitudes on a random set of rows and
    zeros on every other row of every column."""
    network, sector, _first, _width = draw(windowed_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (sector.dim, draw(st.integers(1, 4)))
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    batch[rng.random(sector.dim) < draw(st.sampled_from([0.2, 0.5, 0.9, 1.0]))] = 0
    return network, sector, batch


@st.composite
def braided_cases(draw):
    """A class, phi, a network of 3 <= m <= 6 modes holding one or two
    braiding-network windows among random elements, its sector, and a
    (dim, k) batch, k <= 4, of Gaussian amplitudes on a random set of
    rows and zeros on every other row of every column."""
    spec = draw(specs())
    m = draw(st.integers(3, 6))
    elements = list(draw(networks(m)).elements)
    windows = []
    for _ in range(draw(st.integers(1, 2))):
        windows.append(Window(draw(st.integers(1, m - 2)), build_braiding_network()))
        elements.insert(draw(st.integers(0, len(elements))), windows[-1])
    n = draw(st.integers(1, m if spec.is_fermionic else 4))
    sector = enumerate_sector(m, n, spec)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (sector.dim, draw(st.integers(1, 4)))
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    batch[rng.random(sector.dim) < draw(st.sampled_from([0.2, 0.5, 0.9]))] = 0
    return Network(m, tuple(elements)), Network(m, tuple(windows)), sector, batch


@st.composite
def batched_pass_cases(draw):
    """A class, phi, a network of 3 <= m <= 6 modes of up to ten phase
    shifters and beam splitters of angles up to 20 in magnitude, among
    which sit up to three windows, each a braid (a diagonal step) or a
    random 3-mode sub-network (most often a dense step), its sector of up
    to four particles, and a (dim, k) batch, k <= 3, of Gaussian
    amplitudes on a random set of rows."""
    spec = draw(specs())
    m = draw(st.integers(3, 6))
    wide = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
    elements = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.booleans()):
            elements.append(PhaseShifter(draw(st.integers(1, m)), draw(wide)))
        else:
            i, j = draw(st.lists(st.integers(1, m), min_size=2, max_size=2, unique=True))
            elements.append(BeamSplitter(i, j, draw(wide)))
    for _ in range(draw(st.integers(0, 3))):
        sub = build_braiding_network() if draw(st.booleans()) else draw(networks(3))
        elements.insert(draw(st.integers(0, len(elements))),
                        Window(draw(st.integers(1, m - 2)), sub))
    n = draw(st.integers(1, m if spec.is_fermionic else 4))
    sector = enumerate_sector(m, n, spec)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (sector.dim, draw(st.integers(1, 3)))
    batch = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    batch[rng.random(sector.dim) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = 0
    return Network(m, tuple(elements)), sector, batch


@st.composite
def truncated_cases(draw):
    """A bosonic phi, a two-mode network that often holds a window, and a
    two-mode state of cutoff n_max <= 12.

    Each total-occupation shell is zero, of norm on either side of the
    PRUNE_EPS / 2 below which it is left unevolved, a little above
    PRUNE_EPS, or of order one; shells above n_max may lose probability
    past the cutoff.
    """
    spec = AnyonSpec.bosonic(draw(phis))
    around = draw(networks(2)).elements
    if draw(st.booleans()):
        first = draw(st.integers(1, 2))
        around = around[:1] + (Window(first, draw(networks(3 - first))),) + around[1:]
    n_max = draw(st.integers(1, 12))
    norms = draw(st.lists(st.sampled_from([0.0, 0.0, 0.3 * PRUNE_EPS, 0.49 * PRUNE_EPS,
                                           0.51 * PRUNE_EPS, 2 * PRUNE_EPS, 1.0]),
                          min_size=2 * n_max + 1, max_size=2 * n_max + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    amps = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
    for n, norm in enumerate(norms):
        ls = np.arange(max(0, n - n_max), min(n, n_max) + 1)
        z = rng.normal(size=len(ls)) + 1j * rng.normal(size=len(ls))
        amps[ls, n - ls] = z * (norm / np.linalg.norm(z))
    return spec, Network(2, around), TruncatedState(amps)


@st.composite
def live_block_cases(draw):
    """A sector of m <= 6 modes and n <= 4 particles, one kernel step on it
    (an adjacent pair, a long-range pair or a window) as (lo, hi, window),
    and live rows in a random order: none, one, a random set or the whole
    sector."""
    spec = draw(specs())
    m = draw(st.integers(2, 6))
    sector = enumerate_sector(m, draw(st.integers(0, min(m, 4) if spec.is_fermionic else 4)), spec)
    kind = draw(st.sampled_from(["adjacent", "long-range", "window"]))
    if kind == "window":
        width = draw(st.integers(1, m))
        lo = draw(st.integers(1, m - width + 1))
        hi = lo + width - 1
    else:
        lo = draw(st.integers(1, m - 1))
        hi = lo + 1 if kind == "adjacent" else draw(st.integers(min(lo + 2, m), m))
    rows = st.integers(0, sector.dim - 1)
    live = draw(st.one_of(st.just([]), st.lists(rows, min_size=1, max_size=1),
                          st.lists(rows, unique=True), st.just(list(range(sector.dim)))))
    return sector, draw(st.permutations(live)), lo, hi, kind == "window"


def creation_monomial(spec, m, monomial):
    """chi†_{m1} ... chi†_{mk} |0>, the rightmost operator acting first."""
    state = vacuum_state(m, spec)
    for mode in reversed(monomial):
        state = apply_create(state, mode)
    return state


@PROPERTY
@given(beam_splitter_cases())
def test_dense_kernel_and_algebraic_paths_agree(case):
    spec, network, monomial = case
    state = creation_monomial(spec, network.m, monomial)
    norm = state.norm()
    dense = dense_evolve(network, state.sector, state.to_vector())
    kernel = evolve_amplitudes(network, state.sector, state.to_vector())
    algebraic = propagate_algebraic(spec, network, monomial)
    assert algebraic.sector == state.sector
    assert np.max(np.abs(dense - kernel)) <= 1e-10 * norm
    assert np.max(np.abs(dense - algebraic.to_vector())) <= 1e-10 * norm


@st.composite
def monomial_cases(draw):
    """A class, phi, m in 2..6, one beam splitter BS(i, j) and a creation
    monomial in its span: empty, or with repeated modes for either class,
    so a fermionic one can hold a zero state, and at most m long.  The
    angle is random or one where cos or sin is roundoff, whose terms the
    sum of a pushed factor prunes."""
    spec = draw(specs())
    m = draw(st.integers(2, 6))
    lo = draw(st.integers(1, m - 1))
    hi = draw(st.integers(lo + 1, m))
    i, j = (lo, hi) if draw(st.booleans()) else (hi, lo)
    monomial = draw(st.lists(st.sampled_from(range(lo, hi + 1)), max_size=min(m, 5)))
    theta = draw(st.one_of(angles, st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi])))
    return spec, Network(m, (BeamSplitter(i, j, theta),)), monomial


def exact_entries(state):
    """A state's entries in key order, each amplitude's type and the bits of its parts."""
    return [(occ, type(a), a.real.hex(), a.imag.hex()) for occ, a in state.amps.items()]


@PROPERTY
@given(monomial_cases())
def test_algebraic_path_matches_state_arithmetic_bit_for_bit(case):
    spec, network, monomial = case
    got = propagate_algebraic(spec, network, monomial)
    want = reference_propagate_algebraic(spec, network, monomial)
    assert got.sector == want.sector
    assert exact_entries(got) == exact_entries(want)


@PROPERTY
@given(st.data())
def test_evolution_preserves_the_norm(data):
    spec = data.draw(specs())
    m = data.draw(st.integers(1, 6))
    n = data.draw(st.integers(0, m if spec.is_fermionic else 4))
    network = data.draw(networks(m)) if m > 1 else Network(1, (PhaseShifter(1, 0.7),))
    sector = enumerate_sector(m, n, spec)
    amps = np.array(data.draw(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=sector.dim,
                                       max_size=sector.dim)), dtype=np.complex128)
    norm = np.linalg.norm(amps)
    out = evolve_amplitudes(network, sector, amps)
    assert abs(np.linalg.norm(out) - norm) <= 1e-12 * max(norm, 1.0)
    dense = dense_evolve(network, sector, amps)
    assert abs(np.linalg.norm(dense) - norm) <= 1e-12 * max(norm, 1.0)


@PROPERTY
@given(st.data())
def test_one_particle_evolves_by_the_single_particle_matrix(data):
    spec = data.draw(specs())
    m = data.draw(st.integers(2, 6))
    network = data.draw(networks(m))
    mode = data.draw(st.integers(1, m))
    out = evolve(network, creation_monomial(spec, m, [mode])).to_vector()
    column = single_particle_matrix(network)[:, mode - 1]
    # the one-particle basis |1,0,...>, |0,1,...>, ... is ordered by mode
    assert np.max(np.abs(out - column)) <= 1e-12


@PROPERTY
@given(st.data())
def test_braiding_network_is_one_particle_identity_with_two_particle_eigenphases(data):
    spec = data.draw(specs())
    braid = build_braiding_network()
    one = enumerate_sector(3, 1, spec)
    amps = np.array(data.draw(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=3,
                                       max_size=3)), dtype=np.complex128)
    dense = dense_evolve(braid, one, amps)
    assert np.max(np.abs(dense - amps)) <= 1e-12
    assert np.max(np.abs(evolve_amplitudes(braid, one, amps) - amps)) <= 1e-12
    two = enumerate_sector(3, 2, spec)
    for occ, phase in (((0, 1, 1), 1.0), ((1, 0, 1), np.exp(-1j * spec.phi)),
                       ((1, 1, 0), np.exp(1j * spec.phi))):
        state = StateVector.basis_state(two, occ)
        expected = phase * state.to_vector()
        dense = dense_evolve(braid, two, state.to_vector())
        assert np.max(np.abs(dense - expected)) <= 1e-12
        kernel = evolve_amplitudes(braid, two, state.to_vector())
        assert np.max(np.abs(kernel - expected)) <= 1e-12


@PROPERTY
@given(window_cases(full_width=False))
def test_window_step_matches_the_dense_oracle(case):
    network, sector, amps = case
    kernel = evolve_amplitudes(network, sector, amps)
    dense = dense_evolve(network, sector, amps)
    assert np.max(np.abs(kernel - dense)) <= 1e-12


@PROPERTY
@given(window_cases(full_width=True))
def test_window_as_wide_as_the_sector_runs_in_place(case):
    # no sector-sized matrix: neither the dense generator nor a window unitary
    network, sector, amps = case
    dense = dense_evolve(network, sector, amps)

    def no_matrix(*args):
        raise AssertionError("sector-sized matrix requested")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators_module, "quadratic_matrix", no_matrix)
        patch.setattr(network_module, "_window_unitaries", no_matrix)
        kernel = evolve_amplitudes(network, sector, amps)
    assert np.max(np.abs(kernel - dense)) <= 1e-12


@PROPERTY
@given(sparse_cases())
def test_sparse_inputs_match_the_dense_oracle(case):
    # the kernel skips blocks that hold no amplitude; a lone vector may
    # have a smaller support than the batch, so its plan keeps fewer
    # blocks and places its rows elsewhere: it meets BLAS calls of other
    # widths and agrees with its column to roundoff, not bit for bit
    network, sector, batch = case
    out = evolve_amplitudes(network, sector, batch)
    assert np.max(np.abs(out - dense_evolve(network, sector, batch))) <= 1e-12
    for col in range(batch.shape[1]):
        vec = evolve_amplitudes(network, sector, batch[:, col])
        assert np.max(np.abs(vec - out[:, col])) <= 1e-15


@PROPERTY
@given(support_cases())
def test_inputs_sharing_their_zero_rows_evolve_on_their_support(case):
    # the columns share one support and so one plan: each meets the same
    # arithmetic as a lone vector, and a row the plan never reaches is +0
    network, sector, batch = case
    out = evolve_amplitudes(network, sector, batch)
    assert np.max(np.abs(out - dense_evolve(network, sector, batch))) <= 1e-12
    for col in range(batch.shape[1]):
        assert evolve_amplitudes(network, sector, batch[:, col]).tobytes() == out[:, col].tobytes()
    support = np.flatnonzero(batch.any(axis=1))
    rows, _state = evolve_support(network, sector, support, batch[support])
    assert set(support) <= set(rows)
    outside = np.ones(sector.dim, dtype=bool)
    outside[rows] = False
    assert not out[outside].view(np.uint8).any()


@PROPERTY
@given(braided_cases())
def test_braid_windows_run_as_diagonal_steps(case):
    # each braid window narrower than the sector is a diagonal step: it
    # adds no row to the plan, and dropping its off-diagonal roundoff keeps
    # the dense oracle's result; the columns share one plan, so each is
    # its lone vector's bits.  A window as wide as the sector runs its
    # beam splitters in place
    network, windows, sector, batch = case
    out = evolve_amplitudes(network, sector, batch)
    assert np.max(np.abs(out - dense_evolve(network, sector, batch))) <= 1e-12
    for col in range(batch.shape[1]):
        assert evolve_amplitudes(network, sector, batch[:, col]).tobytes() == out[:, col].tobytes()
    support = np.flatnonzero(batch.any(axis=1))
    rows, state = evolve_support(windows, sector, support, batch[support])
    assert rows.tobytes() == support.tobytes() or sector.m == 3
    want = dense_evolve(windows, sector, batch)
    assert np.max(np.abs(state.T - want[rows]), initial=0.0) <= 1e-12


@PROPERTY
@given(batched_pass_cases())
def test_batched_angle_pass_keeps_each_steps_bits(case):
    # one exp for every phase shifter and one product per eigenpair record
    # give each step the bits of its own per-angle formula
    network, sector, batch = case
    support = np.flatnonzero(batch.any(axis=1))
    rows, state = evolve_support(network, sector, support, batch[support])
    want_rows, want = stepwise_evolve_support(network, sector, support, batch[support])
    assert rows.tobytes() == want_rows.tobytes()
    assert state.tobytes() == want.tobytes()


@PROPERTY
@given(live_block_cases())
def test_live_blocks_match_the_grouped_sector_basis(case):
    # blocks built from the live rows alone are the sector's blocks that
    # hold a live row: same rows in the same order, same families, same
    # windings, whatever order the live rows come in
    sector, live, lo, hi, window = case
    rows, families, winding = live_blocks(sector, live, lo, hi, window)
    want_rows, want_families, want_winding = reference_blocks(sector, live, lo, hi, window)
    assert rows.dtype == np.intp and rows.tolist() == want_rows
    assert families == want_families
    assert all(type(number) is int for family in families for number in family)
    if window:
        assert winding is None
    else:
        assert winding.dtype == np.intp and winding.tolist() == want_winding


@PROPERTY
@given(truncated_cases())
def test_truncated_evolution_matches_the_shellwise_oracle(case):
    spec, network, state = case
    want, lost = shellwise_oracle(state, network, spec)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = evolve_truncated(state, network, spec)
    assert np.max(np.abs(got.amps - want)) <= 1e-13
    warned = any(w.category is TruncationRiskWarning for w in caught)
    # both sides sum the lost probability to roundoff, so only a loss
    # clear of the 1e-12 bound must meet the same decision
    if abs(lost - 1e-12) > 1e-15:
        assert warned == (lost > 1e-12)
