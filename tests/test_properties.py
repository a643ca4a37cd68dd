"""Randomly generated checks that the independent evolution paths agree.

Hypothesis is installed but not a declared dependency, so the module is
skipped without it.  Examples are derandomized, so every run of the
suite draws the same cases.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from anyonlin import AnyonSpec, BeamSplitter, Network, PhaseShifter, Window, \
    build_braiding_network, evolve, evolve_amplitudes, propagate_algebraic, \
    single_particle_matrix  # noqa: E402
from anyonlin import network as network_module  # noqa: E402
from anyonlin.fock import StateVector, apply_create, enumerate_sector, \
    vacuum_state  # noqa: E402

from conftest import dense_evolve  # noqa: E402

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
def sparse_cases(draw):
    """A class, phi, a network of m <= 6 modes holding a window, and a
    one-hot or few-hot (dim, k) batch, k <= 4, that may hold a zero column.

    For fermions the hot rows are often states that fill every mode of
    the window, whose single-state block still takes a phase.
    """
    spec = draw(specs())
    m = draw(st.integers(2, 6))
    width = draw(st.integers(1, m))
    first = draw(st.integers(1, m - width + 1))
    window = Window(first, draw(networks(width)))
    around = draw(networks(m)).elements
    network = Network(m, around[:1] + (window,) + around[1:])
    n = draw(st.integers(1, m if spec.is_fermionic else 4))
    sector = enumerate_sector(m, n, spec)
    rows = np.arange(sector.dim)
    filled = np.all(sector.occ[:, first - 1:first - 1 + width] == 1, axis=1)
    if spec.is_fermionic and filled.any() and draw(st.booleans()):
        rows = rows[filled]
    batch = np.zeros((sector.dim, draw(st.integers(1, 4))), dtype=np.complex128)
    for col in range(batch.shape[1] - draw(st.sampled_from([0, 0, 0, 1]))):
        hot = draw(st.lists(st.sampled_from(rows.tolist()), min_size=1, max_size=3, unique=True))
        for row in hot:
            batch[row, col] = draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0))
    return network, sector, batch


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
    # no sector-sized matrix: neither the dense oracle nor a window unitary
    network, sector, amps = case
    dense = dense_evolve(network, sector, amps)

    def no_matrix(*args):
        raise AssertionError("sector-sized matrix requested")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network_module, "_build_element_unitary", no_matrix)
        patch.setattr(network_module, "_window_unitaries", no_matrix)
        kernel = evolve_amplitudes(network, sector, amps)
    assert np.max(np.abs(kernel - dense)) <= 1e-12


@PROPERTY
@given(sparse_cases())
def test_sparse_inputs_match_the_dense_oracle(case):
    # the kernel skips blocks that hold no amplitude; a lone vector may
    # keep fewer blocks than the batch, so it meets BLAS calls of other
    # widths and agrees with its column to roundoff, not bit for bit
    network, sector, batch = case
    out = evolve_amplitudes(network, sector, batch)
    assert np.max(np.abs(out - dense_evolve(network, sector, batch))) <= 1e-12
    for col in range(batch.shape[1]):
        vec = evolve_amplitudes(network, sector, batch[:, col])
        assert np.max(np.abs(vec - out[:, col])) <= 1e-15
