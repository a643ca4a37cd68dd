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

from anyonlin import AnyonSpec, BeamSplitter, Network, PhaseShifter, evolve, \
    evolve_amplitudes, propagate_algebraic, single_particle_matrix  # noqa: E402
from anyonlin.fock import StateVector, apply_create, enumerate_sector, \
    vacuum_state  # noqa: E402

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
        if draw(st.booleans()):
            elements.append(PhaseShifter(draw(st.integers(1, m)), draw(angles)))
        else:
            i, j = draw(st.lists(st.integers(1, m), min_size=2, max_size=2, unique=True))
            elements.append(BeamSplitter(i, j, draw(angles)))
    return Network(m, tuple(elements))


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
    dense = evolve(network, state).to_vector()
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
    if norm > 0.0:
        dense = evolve(network, StateVector.from_vector(sector, amps))
        assert abs(dense.norm() - norm) <= 1e-12 * max(norm, 1.0)


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
