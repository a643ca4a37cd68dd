"""Optical elements, evolution, propagation identities, braiding."""

import cmath
import gc
import itertools
import math
import sys
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from anyonlin import AnyonSpec, BeamSplitter, GOperator, Network, PhaseShifter, Window, \
    build_braiding_network, enumerate_sector, evolve, propagate_algebraic, \
    single_particle_matrix
from anyonlin import network as network_module
from anyonlin.fock import PRUNE_EPS, EmptySectorError, StateVector, apply_create, vacuum_state
from anyonlin.network import ModeMismatchError, UnsupportedPropagationError, evolve_amplitudes
from anyonlin.operators import ATOL_ALGEBRA, creation_matrix

from conftest import PHI_GRID, beam_splitter_steps, both_classes, dense_evolve, dense_unitary, \
    evolve_support, kernel_plan, live_blocks, occupations, plan_leaves, \
    reference_propagate_algebraic, state_deviation, states_close


def test_element_validation():
    with pytest.raises(ValueError):
        BeamSplitter(2, 2, 0.3)
    with pytest.raises(ValueError):
        PhaseShifter(1, math.nan)
    with pytest.raises(ValueError):
        Network(2, (BeamSplitter(1, 3, 0.1),))


@pytest.mark.parametrize("build", [
    lambda: PhaseShifter(1.5, 0.2),
    lambda: PhaseShifter("2", 0.2),
    lambda: BeamSplitter(1.0, 3, 0.4),
    lambda: BeamSplitter(1, "3", 0.4),
    lambda: Window(2.0, build_braiding_network()),
    lambda: Network(3.0, ()),
], ids=["ps-float", "ps-str", "bs-float", "bs-str", "window-float", "network-float"])
def test_a_mode_that_is_not_an_integer_is_refused_at_construction(build):
    # a float or string mode used to pass construction and fail inside the
    # kernel with TypeError or IndexError
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_numpy_integer_modes_evolve_like_python_ints():
    # a mode is stored as the int its __index__ gives, so a numpy int plans
    # and runs as that int, bit for bit
    braid = build_braiding_network()

    def net(idx):
        return Network(idx(5), (PhaseShifter(idx(2), 0.2), BeamSplitter(idx(1), idx(4), 0.7),
                                Window(idx(2), braid), BeamSplitter(idx(5), idx(3), -0.3)))

    for spec in both_classes(0.9):
        sector = enumerate_sector(5, 3, spec)
        rng = np.random.default_rng(8)
        batch = rng.normal(size=(sector.dim, 2)) + 1j * rng.normal(size=(sector.dim, 2))
        batch[::2] = 0.0
        want = evolve_amplitudes(net(int), sector, batch)
        state = StateVector.from_vector(sector, batch[:, 0])
        for idx in (np.int64, np.int32, np.uint8):
            assert net(idx) == net(int)
            assert all(type(mode) is int for el in net(idx).elements for mode in el.modes)
            assert evolve_amplitudes(net(idx), sector, batch).tobytes() == want.tobytes()
            assert evolve(net(idx), state).amps == evolve(net(int), state).amps


@pytest.mark.parametrize("doc, named", [
    ({"m": 3, "elements": [{"type": "bs", "i": 1, "theta": 0.4}]}, "missing key 'j'"),
    ({"m": 3}, "missing key 'elements'"),
    ({"m": "2", "elements": []}, "m must be an integer, got '2'"),
])
def test_malformed_network_documents_raise_value_error_naming_the_entry(doc, named):
    # these raised KeyError 'j', KeyError 'elements' and TypeError
    with pytest.raises(ValueError, match=named):
        Network.from_jsonable(doc)


def test_bs_zero_angle_is_identity():
    sector = enumerate_sector(3, 2, AnyonSpec.bosonic(1.9))
    u = dense_unitary(sector, BeamSplitter(1, 3, 0.0))
    assert np.max(np.abs(u - np.eye(sector.dim))) < 1e-14


def test_ps_is_diagonal_occupation_phase():
    for spec in both_classes(0.8):
        sector = enumerate_sector(2, 2, spec) if not spec.is_fermionic \
            else enumerate_sector(3, 2, spec)
        tau = 1.234
        u = dense_unitary(sector, PhaseShifter(1, tau))
        expected = np.diag([cmath.exp(1j * tau * occ[0]) for occ in sector.basis])
        assert np.max(np.abs(u - expected)) < 1e-14


def test_element_unitaries_are_unitary():
    for phi in PHI_GRID:
        for spec in both_classes(phi):
            sector = enumerate_sector(4, 2, spec)
            for el in (BeamSplitter(1, 4, 0.37), BeamSplitter(2, 3, -1.2),
                       PhaseShifter(3, 2.2)):
                u = dense_unitary(sector, el)
                assert np.max(np.abs(u.conj().T @ u - np.eye(sector.dim))) <= ATOL_ALGEBRA


def test_balanced_bs_on_two_bosonic_anyons():
    # the two-anyon interference column: (i e^{i phi}/sqrt 2, 0, i/sqrt 2)
    for phi in PHI_GRID:
        sector = enumerate_sector(2, 2, AnyonSpec.bosonic(phi))
        u = dense_unitary(sector, BeamSplitter(1, 2, math.pi / 4))
        col = u[:, sector.index[(1, 1)]]
        expected = np.array([1j * cmath.exp(1j * phi) / math.sqrt(2), 0.0,
                             1j / math.sqrt(2)])
        assert np.max(np.abs(col - expected)) < 1e-12


def test_evolve_empty_network_is_identity():
    spec = AnyonSpec.fermionic(2.3)
    sector = enumerate_sector(3, 2, spec)
    st = StateVector(sector, {(1, 1, 0): 0.6, (0, 1, 1): 0.8j})
    out = evolve(Network(3, ()), st)
    assert states_close(st, out) < 1e-15


def test_evolve_prunes_by_python_abs_like_the_ladders():
    # near PRUNE_EPS, Python's abs and np.abs round some magnitudes
    # differently; evolve keeps an amplitude exactly when abs (the rule
    # of fock._ladder and fock._sum) puts it above PRUNE_EPS
    rng = np.random.default_rng(29)
    split = {}
    while len(split) < 2:
        z = complex(*rng.normal(size=2))
        z *= PRUNE_EPS / abs(z)
        if (abs(z) > PRUNE_EPS) != bool(np.abs(z) > PRUNE_EPS):
            split.setdefault(abs(z) > PRUNE_EPS, z)
    sector = enumerate_sector(3, 2, AnyonSpec.bosonic(0.4))
    amps = {(2, 0, 0): 0.6, (1, 1, 0): split[True], (0, 1, 1): split[False]}
    out = evolve(Network(3, ()), StateVector(sector, amps))
    assert out.amps == {(2, 0, 0): 0.6, (1, 1, 0): split[True]}


def test_evolve_mode_mismatch():
    spec = AnyonSpec.bosonic(0.0)
    st = vacuum_state(2, spec)
    with pytest.raises(ModeMismatchError):
        evolve(Network(3, ()), st)


def test_fermionic_anyon_exclusion_at_any_beam_splitter():
    for phi in PHI_GRID:
        spec = AnyonSpec.fermionic(phi)
        sector = enumerate_sector(2, 2, spec)
        st = StateVector.basis_state(sector, (1, 1))
        for theta in (math.pi / 7, math.pi / 4, math.pi / 2):
            out = evolve(Network(2, (BeamSplitter(1, 2, theta),)), st)
            assert state_deviation(out, {(1, 1): 1.0}) < 1e-12


def test_aharonov_bohm_phase_with_occupied_intermediate_mode():
    theta = 1.1
    net = Network(3, (BeamSplitter(1, 3, theta),))
    for phi in PHI_GRID:
        for spec, shift in ((AnyonSpec.bosonic(phi), 0.0),
                            (AnyonSpec.fermionic(phi), math.pi)):
            for n in (0, 1):
                sector = enumerate_sector(3, 1 + n, spec)
                out = evolve(net, StateVector.basis_state(sector, (1, n, 0)))
                expected = {(1, n, 0): math.cos(theta),
                            (0, n, 1): 1j * cmath.exp(-1j * n * (phi + shift)) * math.sin(theta)}
                assert state_deviation(out, expected) < 1e-10


def test_propagate_single_creation_is_rotation_row():
    net = Network(2, (BeamSplitter(1, 2, 0.6),))
    for spec in both_classes(1.0):
        out = propagate_algebraic(spec, net, [1])
        expected = {(1, 0): math.cos(0.6), (0, 1): 1j * math.sin(0.6)}
        assert state_deviation(out, expected) < 1e-14


def test_propagate_balanced_bs_interference():
    net = Network(2, (BeamSplitter(1, 2, math.pi / 4),))
    for phi in PHI_GRID:
        spec = AnyonSpec.bosonic(phi)
        out = propagate_algebraic(spec, net, [1, 2])
        expected = {(2, 0): 1j * cmath.exp(1j * phi) / math.sqrt(2),
                    (0, 2): 1j / math.sqrt(2)}
        assert state_deviation(out, expected) < 1e-13


def test_propagate_intermediate_mode_winding():
    theta = 0.9
    net = Network(3, (BeamSplitter(1, 3, theta),))
    for phi in PHI_GRID:
        spec = AnyonSpec.bosonic(phi)
        # beta†_1 beta†_2 |0>: mode 2 is strictly intermediate
        out = propagate_algebraic(spec, net, [1, 2])
        expected = {(1, 1, 0): math.cos(theta),
                    (0, 1, 1): 1j * cmath.exp(-1j * phi) * math.sin(theta)}
        assert state_deviation(out, expected) < 1e-13


def test_propagate_rejects_modes_outside_span():
    net = Network(3, (BeamSplitter(2, 3, 0.4),))
    spec = AnyonSpec.bosonic(0.3)
    with pytest.raises(UnsupportedPropagationError):
        propagate_algebraic(spec, net, [1])
    with pytest.raises(ValueError):
        propagate_algebraic(spec, Network(3, (BeamSplitter(2, 3, 0.4), PhaseShifter(1, 1.0))), [2])


def test_propagate_applies_each_pushed_factor_once(monkeypatch):
    # each pushed factor costs at most two creation passes; expanding the
    # product would cost one pass per operator of each of 2^c strings
    calls = []
    ladder = network_module._ladder

    def counting_ladder(sector, amps, mode, create):
        calls.append(mode)
        return ladder(sector, amps, mode, create)

    monkeypatch.setattr(network_module, "_ladder", counting_ladder)
    net = Network(4, (BeamSplitter(1, 4, 0.7),))
    # fermions cannot repeat a mode, so their monomial adds an intermediate one
    for spec, mono in zip(both_classes(1.1), ([1, 4, 1, 4], [1, 2, 4])):
        calls.clear()
        out = propagate_algebraic(spec, net, mono)
        assert len(calls) <= 2 * len(mono)
        assert out.norm() > 0.5
        st = vacuum_state(4, spec)
        for mode in reversed(mono):
            st = apply_create(st, mode)
        assert states_close(out, evolve(net, st)) < 1e-12


def test_propagate_fermionic_monomial_longer_than_mode_count_raises():
    net = Network(2, (BeamSplitter(1, 2, 0.5),))
    with pytest.raises(EmptySectorError):
        propagate_algebraic(AnyonSpec.fermionic(0.8), net, [1, 2, 1])


@pytest.mark.parametrize("spec, m, modes, monomial, error", [
    (AnyonSpec.fermionic(0.8), 2, (1, 2), [1, 2, 1], EmptySectorError),
    # the repeated mode leaves the zero state, whose sector still grows
    (AnyonSpec.fermionic(0.8), 3, (3, 1), [2, 2, 1, 3], EmptySectorError),
    (AnyonSpec.bosonic(0.8), 4, (2, 3), [2, 4], UnsupportedPropagationError),
    (AnyonSpec.fermionic(2.1), 4, (3, 2), [3, 1], UnsupportedPropagationError),
])
def test_propagate_and_its_reference_raise_alike(spec, m, modes, monomial, error):
    net = Network(m, (BeamSplitter(*modes, 0.5),))
    for path in (propagate_algebraic, reference_propagate_algebraic):
        with pytest.raises(error):
            path(spec, net, monomial)


def test_propagate_matches_spectral_evolution():
    # dual-route equivalence on a compact slice; the acceptance suite
    # runs the exhaustive scan
    theta = 0.93
    for phi in (0.0, math.pi / 5, math.pi):
        for spec in both_classes(phi):
            for m, lo, hi in [(2, 1, 2), (3, 1, 3), (4, 2, 4)]:
                net = Network(m, (BeamSplitter(lo, hi, theta),))
                for mono in itertools.product(range(lo, hi + 1), repeat=2):
                    st = vacuum_state(m, spec)
                    for mode in reversed(mono):
                        st = apply_create(st, mode)
                    alg = propagate_algebraic(spec, net, mono)
                    if st.norm() == 0.0:
                        assert alg.norm() < 1e-13
                        continue
                    assert states_close(alg, evolve(net, st)) < 1e-12


def test_g_operator_propagation_identities_as_matrices():
    theta = 0.8
    for phi in (math.pi / 5, math.pi / 2):
        for spec in both_classes(phi):
            for m, i, j in [(2, 1, 2), (3, 1, 3)]:
                for n_tot in (0, 1):
                    sector = enumerate_sector(m, n_tot, spec)
                    upper = enumerate_sector(m, n_tot + 1, spec)
                    for wind in (0, 1, 3):
                        g_up = GOperator(i, j, wind, theta).matrix(upper)
                        g_next = GOperator(i, j, wind + 1, theta).matrix(sector)
                        ci = creation_matrix(sector, i)
                        cj = creation_matrix(sector, j)
                        rot_i = math.cos(theta) * ci \
                            + 1j * cmath.exp(-1j * wind * phi) * math.sin(theta) * cj
                        rot_j = math.cos(theta) * cj \
                            + 1j * cmath.exp(1j * wind * phi) * math.sin(theta) * ci
                        assert np.max(np.abs(g_up @ ci - rot_i @ g_next)) < 1e-12
                        assert np.max(np.abs(g_up @ cj - rot_j @ g_next)) < 1e-12
                        for k in range(i + 1, j):
                            ck = creation_matrix(sector, k)
                            g_skip = GOperator(i, j, wind + 2, theta).matrix(sector)
                            assert np.max(np.abs(g_up @ ck - ck @ g_skip)) < 1e-12


def test_g_operator_winding_zero_is_plain_beam_splitter():
    spec = AnyonSpec.bosonic(1.1)
    sector = enumerate_sector(2, 2, spec)
    bs = dense_unitary(sector, BeamSplitter(1, 2, 0.5))
    assert np.max(np.abs(GOperator(1, 2, 0, 0.5).matrix(sector) - bs)) < 1e-14


def test_g_operator_matches_the_dense_dressed_beam_splitter():
    # the dense formula e^{i n phi J3} BS_ij(theta) e^{-i n phi J3}, with the
    # beam splitter from the oracle; the pairs (1, 3) and (4, 1) skip modes
    theta = 0.7
    for spec in both_classes(1.3):
        sector = enumerate_sector(4, 2, spec)
        for i, j in [(1, 2), (1, 3), (4, 1), (2, 4)]:
            bs = dense_unitary(sector, BeamSplitter(i, j, theta))
            j3 = (sector.occ[:, i - 1] - sector.occ[:, j - 1]) / 2.0
            for wind in (0, 1, 3):
                phase = np.exp(1j * wind * spec.phi * j3)
                dense = (phase[:, None] * bs) * phase.conj()[None, :]
                assert np.max(np.abs(GOperator(i, j, wind, theta).matrix(sector) - dense)) < 1e-13


def test_braiding_network_structure():
    b = build_braiding_network()
    assert b.m == 3
    kinds = [type(el).__name__ for el in b.elements]
    assert kinds == ["BeamSplitter"] * 4 + ["PhaseShifter"] * 3
    assert all(el.theta == math.pi / 2 for el in b.elements[:4])
    assert [el.tau for el in b.elements[4:]] == [math.pi, math.pi / 2, math.pi / 2]


def test_braiding_identity_on_single_particles():
    b = build_braiding_network()
    for phi in PHI_GRID:
        for spec in both_classes(phi):
            sector = enumerate_sector(3, 1, spec)
            for occ in sector.basis:
                out = evolve(b, StateVector.basis_state(sector, occ))
                assert state_deviation(out, {occ: 1.0}) < 1e-12
    assert np.max(np.abs(single_particle_matrix(b) - np.eye(3))) < 1e-15


def test_braiding_eigenphases_on_multi_particle_states():
    b = build_braiding_network()
    for phi in PHI_GRID:
        for spec in both_classes(phi):
            sec2 = enumerate_sector(3, 2, spec)
            phases = {(0, 1, 1): 1.0, (1, 0, 1): cmath.exp(-1j * phi),
                      (1, 1, 0): cmath.exp(1j * phi)}
            for occ, phase in phases.items():
                out = evolve(b, StateVector.basis_state(sec2, occ))
                assert state_deviation(out, {occ: phase}) < 1e-12
            sec3 = enumerate_sector(3, 3, spec)
            out = evolve(b, StateVector.basis_state(sec3, (1, 1, 1)))
            assert state_deviation(out, {(1, 1, 1): 1.0}) < 1e-12


def test_braiding_is_identity_everywhere_at_phi_zero():
    b = build_braiding_network()
    for spec in both_classes(0.0):
        for n in (0, 1, 2, 3):
            if spec.is_fermionic and n > 3:
                continue
            sector = enumerate_sector(3, n, spec)
            for occ in sector.basis:
                out = evolve(b, StateVector.basis_state(sector, occ))
                assert state_deviation(out, {occ: 1.0}) < 1e-12


def test_evolution_preserves_norm():
    net = Network(4, (BeamSplitter(1, 3, 0.7), PhaseShifter(2, 1.1),
                      BeamSplitter(2, 4, -0.4), BeamSplitter(1, 2, 2.0)))
    for phi in PHI_GRID:
        for spec in both_classes(phi):
            sector = enumerate_sector(4, 3, spec)
            rng = np.random.default_rng(5)
            vec = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
            st = StateVector.from_vector(sector, vec / np.linalg.norm(vec))
            assert abs(evolve(net, st).norm() - 1.0) < 1e-12


def test_single_particle_matrix_composition():
    net = Network(2, (PhaseShifter(2, 0.3), BeamSplitter(1, 2, 0.9), PhaseShifter(1, 1.7)))
    u = single_particle_matrix(net)
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-14
    # matches evolve on the single-particle sector
    spec = AnyonSpec.bosonic(1.3)
    sector = enumerate_sector(2, 1, spec)
    st = evolve(net, StateVector.basis_state(sector, (1, 0)))
    assert abs(st.amplitude((1, 0)) - u[0, 0]) < 1e-12
    assert abs(st.amplitude((0, 1)) - u[1, 0]) < 1e-12


def test_network_json_round_trip():
    net = build_braiding_network()
    doc = net.to_jsonable()
    assert doc["m"] == 3
    assert doc["elements"][0] == {"type": "bs", "i": 2, "j": 3, "theta": math.pi / 2}
    assert Network.from_jsonable(doc) == net
    windowed = Network(5, (PhaseShifter(1, 0.2), Window(2, net)))
    doc = windowed.to_jsonable()
    assert doc["elements"][1] == {"type": "window", "first": 2, **net.to_jsonable()}
    assert Network.from_jsonable(doc) == windowed


def test_window_acts_as_its_placed_elements():
    braid = build_braiding_network()
    inner = Network(4, (BeamSplitter(1, 4, 0.4), Window(2, braid), PhaseShifter(3, -0.6)))
    win = Window(2, inner)
    assert win.modes == (2, 3, 4, 5)
    shifted = (BeamSplitter(2, 5, 0.4),) + Window(3, braid).placed() + (PhaseShifter(4, -0.6),)
    assert win.placed() == shifted
    assert Window(3, braid).placed()[0] == BeamSplitter(4, 5, math.pi / 2)
    flat = Network(6, (PhaseShifter(1, 0.3),) + shifted)
    net = Network(6, (PhaseShifter(1, 0.3), win))
    assert np.max(np.abs(single_particle_matrix(net) - single_particle_matrix(flat))) <= 1e-15
    sector = enumerate_sector(6, 2, AnyonSpec.fermionic(0.9))
    dense = dense_unitary(sector, win)
    assert not dense.flags.writeable
    want = dense_evolve(Network(6, shifted), sector, np.eye(sector.dim))
    assert np.max(np.abs(dense - want)) <= 1e-13
    with pytest.raises(ValueError):
        Network(3, (Window(2, braid),))
    with pytest.raises(ValueError):
        Network(4, (Window(0, braid),))


# ------------------------------------------------------------- block kernel

KERNEL_PHIS = (0.0, 1.3, math.pi, 2 * math.pi - 1e-9)


def kernel_unitary(sector, element):
    """Sector matrix of one element through the block kernel, column by column."""
    return evolve_amplitudes(Network(sector.m, (element,)), sector,
                             np.eye(sector.dim, dtype=complex))


def test_block_kernel_matches_dense_unitary_on_every_ordered_pair():
    # full sectors hold every pattern of occupied intermediate modes, so
    # long-range pairs see each string winding s
    theta = 0.77
    worst = 0.0
    for phi in KERNEL_PHIS:
        for spec in both_classes(phi):
            for m in range(2, 7):
                for n in (1, 2, 3):
                    if spec.is_fermionic and n > m:
                        continue
                    sector = enumerate_sector(m, n, spec)
                    if sector.dim > 40:     # keeps the dense oracle cheap
                        continue
                    for i, j in itertools.permutations(range(1, m + 1), 2):
                        el = BeamSplitter(i, j, theta)
                        dev = np.max(np.abs(kernel_unitary(sector, el)
                                            - dense_unitary(sector, el)))
                        worst = max(worst, float(dev))
    assert worst <= 1e-12


def test_block_kernel_long_range_pair_with_four_bosons():
    # blocks of up to five states and windings s up to 4 across modes 2..5
    for phi in (1.3, 2 * math.pi - 1e-9):
        sector = enumerate_sector(6, 4, AnyonSpec.bosonic(phi))
        for i, j in ((6, 1), (2, 5)):
            el = BeamSplitter(i, j, -1.1)
            dev = np.max(np.abs(kernel_unitary(sector, el) - dense_unitary(sector, el)))
            assert dev <= 1e-12


def test_block_kernel_on_vacuum_and_full_fermionic_sector():
    for phi in KERNEL_PHIS:
        spec_b, spec_f = both_classes(phi)
        for sector in (enumerate_sector(3, 0, spec_b), enumerate_sector(3, 0, spec_f),
                       enumerate_sector(4, 4, spec_f)):
            for el in (BeamSplitter(1, 3, 0.9), BeamSplitter(3, 2, 0.4), PhaseShifter(2, 0.6)):
                dev = np.max(np.abs(kernel_unitary(sector, el)
                                    - dense_unitary(sector, el)))
                assert dev <= 1e-12


def test_every_beam_splitter_block_is_a_full_pair_multiplet():
    # the kernel exponentiates the whole n_lo = 0..N hop, never a truncated one
    shapes = [(m, n) for m in range(1, 7) for n in range(5)] + [(11, 7)]
    for spec in both_classes(0.0):
        for m, n in shapes:
            if spec.is_fermionic and n > m:
                continue
            sector = enumerate_sector(m, n, spec)
            occ = sector.occ
            for lo, hi in itertools.combinations(range(1, m + 1), 2):
                rows, families, _winding = live_blocks(sector, np.arange(sector.dim), lo, hi,
                                                       False)
                for n_pair, size, start, stop in families:
                    assert size == n_pair + 1
                    idx = rows[start:stop].reshape(size, -1)
                    assert (occ[idx, lo - 1] == np.arange(n_pair + 1)[:, None]).all()


def test_pair_hop_spectrum_is_evenly_spaced_from_minus_n_to_n():
    # the stack holds the totals asked for, in their order, padded to the largest
    cases = [tuple(range(1, n_max + 1)) for n_max in range(1, 9)] + [(7,), (2, 5, 8)]
    for totals in cases:
        vals, vecs = network_module._pair_hop_eigh(totals)
        top = max(totals)
        assert vals.shape == (len(totals), top + 1)
        assert vecs.shape == (len(totals), top + 1, top + 1)
        for pos, n_pair in enumerate(totals):
            spectrum = vals[pos, :n_pair + 1]
            assert np.max(np.abs(spectrum - np.arange(-n_pair, n_pair + 1, 2))) <= 1e-12
            assert (vals[pos, n_pair + 1:] == 0).all()
            assert (vecs[pos, n_pair + 1:] == 0).all()
            assert (vecs[pos, :, n_pair + 1:] == 0).all()


def test_two_mode_beam_splitter_diagonalizes_only_its_own_pair_total(monkeypatch):
    # |300,0> has the single pair total 300: one 301 x 301 eigh, no stack of 1..300
    sizes = []

    def eigh_spy(a, *args, **kwargs):
        sizes.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    real_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
    network_module._KERNEL_CACHE.clear()
    sector = enumerate_sector(2, 300, AnyonSpec.bosonic(0.4))
    out = evolve(Network(2, (BeamSplitter(1, 2, 0.3),)),
                 StateVector.basis_state(sector, (300, 0)))
    assert sizes == [(301, 301)]
    assert abs(out.norm() - 1.0) <= 1e-12


def test_phase_tables_match_direct_exponentials_byte_for_byte():
    # the kernel looks its phase-shifter and winding factors up from small
    # tables of the same exp arguments, so not one bit may move
    for phi in KERNEL_PHIS:
        for spec in both_classes(phi):
            x = phi + (math.pi if spec.is_fermionic else 0.0)
            for m, n in ((4, 2), (6, 3), (8, 5)):
                sector = enumerate_sector(m, n, spec)
                occ = sector.occ
                for lo, hi in itertools.combinations(range(1, m + 1), 2):
                    _rows, _families, winding = live_blocks(sector, np.arange(sector.dim), lo, hi,
                                                            False)
                    got = network_module._lookup_exp(x, winding, int(winding.max(initial=0)))
                    want = np.exp(1j * x * winding.astype(float))
                    assert got.tobytes() == want.tobytes()
                # a column of angles lays its table rows end to end: row r's
                # codes are offset by r (n + 1)
                taus = np.array([[phi - 0.7], [-phi], [3.1 * phi]])
                for mode in range(1, m + 1):
                    for r, tau in enumerate(taus.ravel().tolist()):
                        got = network_module._lookup_exp(taus, occ[:, mode - 1] + r * (n + 1), n)
                        assert got.tobytes() == np.exp(1j * tau * occ[:, mode - 1]).tobytes()


def test_block_kernel_batch_and_vector_match_spectral_evolve():
    # every batch column meets the same BLAS calls as a lone vector, so
    # they agree bit for bit, windows included
    rng = np.random.default_rng(11)
    sub = Network(3, (BeamSplitter(1, 3, 0.5), PhaseShifter(2, -1.1), BeamSplitter(2, 1, 0.8)))
    nets = (Network(4, (BeamSplitter(1, 4, 0.7), PhaseShifter(2, 1.9), BeamSplitter(3, 2, -0.4),
                        BeamSplitter(2, 4, 1.2), PhaseShifter(4, -0.3))),
            Network(4, (PhaseShifter(1, 0.4), Window(2, sub), BeamSplitter(1, 2, -0.9),
                        Window(1, sub))))
    for net in nets:
        for width in (1, 2, 3, 4, 8):
            for phi in KERNEL_PHIS:
                for spec in both_classes(phi):
                    sector = enumerate_sector(4, 2, spec)
                    batch = (rng.normal(size=(sector.dim, width))
                             + 1j * rng.normal(size=(sector.dim, width)))
                    got = evolve_amplitudes(net, sector, batch)
                    assert got.shape == (sector.dim, width)
                    ref = dense_evolve(net, sector, batch)
                    for col in range(width):
                        assert np.max(np.abs(got[:, col] - ref[:, col])) <= 1e-12
                        vec = evolve_amplitudes(net, sector, batch[:, col])
                        assert vec.shape == (sector.dim,)
                        assert vec.tobytes() == got[:, col].tobytes()


def test_beam_splitter_across_an_occupied_mode_keeps_its_dress():
    # BS(1, 3) across a particle on mode 2 (s = 1) winds its k = 1 rows,
    # so its step keeps the dress and the plan holds its winding codes
    rng = np.random.default_rng(12)
    net = Network(3, (PhaseShifter(2, 0.3), BeamSplitter(1, 3, 0.7), PhaseShifter(1, -1.2)))
    for phi in KERNEL_PHIS:
        for spec in both_classes(phi):
            sector = enumerate_sector(3, 2, spec)
            support = np.array(sorted(sector.index[occ] for occ in ((1, 1, 0), (0, 1, 1))))
            plan = kernel_plan(net, sector, support)
            (step,) = beam_splitter_steps(plan)
            _kind, start, stop, _families, first, w_max, _group, _member = step
            assert w_max == 1 and first == 0 and len(plan.winding) == stop - start == 2
            batch = np.zeros((sector.dim, 3), dtype=complex)
            batch[support] = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
            out = evolve_amplitudes(net, sector, batch)
            assert np.max(np.abs(out - dense_evolve(net, sector, batch))) <= 1e-12
            for col in range(3):
                assert evolve_amplitudes(net, sector, batch[:, col]).tobytes() == \
                    out[:, col].tobytes()


def test_evolve_runs_on_the_state_support(monkeypatch):
    # evolve hands the kernel the state's nonzero entries in sector order and
    # keeps what from_vector would keep of the whole evolved vector, bit for
    # bit, without building a (dim,) vector either way
    rng = np.random.default_rng(5)
    net = Network(4, (BeamSplitter(1, 4, 0.7), PhaseShifter(2, 1.9), BeamSplitter(3, 2, -0.4),
                      Window(2, build_braiding_network())))
    cases = []
    for phi in KERNEL_PHIS:
        for spec in both_classes(phi):
            sector = enumerate_sector(4, 2, spec)
            for size in (0, 1, 2, 4):
                picks = rng.choice(sector.dim, size=size, replace=False)
                amps = {sector.basis[p]: complex(*rng.normal(size=2)) for p in picks}
                if amps:   # an explicit zero is no support row
                    amps[next(iter(amps))] = 0j
                cases.append(StateVector(sector, amps))
    wants = [StateVector.from_vector(state.sector,
                                     evolve_amplitudes(net, state.sector, state.to_vector()))
             for state in cases]

    def no_vector(*args):
        raise AssertionError("(dim,) vector built")

    monkeypatch.setattr(StateVector, "to_vector", no_vector)
    monkeypatch.setattr(StateVector, "from_vector", no_vector)
    for state, want in zip(cases, wants):
        got = evolve(net, state)
        assert list(got.amps) == list(want.amps)
        assert np.array(list(got.amps.values())).tobytes() == \
            np.array(list(want.amps.values())).tobytes()
    with pytest.raises(ModeMismatchError):
        evolve(Network(3, ()), cases[1])


def test_block_kernel_multiplies_only_the_blocks_that_hold_amplitude(monkeypatch):
    # an all-zero input makes no product call, and a one-hot input
    # gathers the one block of its row; a block of zeros stays zero
    shapes = []
    real_products = network_module._block_products

    def spy(part, stack, families):
        shapes.append(part.shape)
        return real_products(part, stack, families)

    sub = Network(3, (BeamSplitter(1, 3, 0.5), PhaseShifter(2, -1.1), BeamSplitter(2, 1, 0.8)))
    net = Network(5, (BeamSplitter(1, 4, 0.7), Window(2, sub), PhaseShifter(3, 0.2),
                      BeamSplitter(2, 5, -0.3)))
    # the plan reads the window's unitaries on the totals 1 and 2 that the
    # one-hot row's block reaches; built here, their small products stay
    # out of the spy
    for spec in both_classes(0.9):
        network_module._window_unitaries(sub, spec, (1, 2))
    monkeypatch.setattr(network_module, "_block_products", spy)
    for spec in both_classes(0.9):
        sector = enumerate_sector(5, 3, spec)
        for amps in (np.zeros(sector.dim), np.zeros((sector.dim, 3), dtype=complex)):
            out = evolve_amplitudes(net, sector, amps)
            assert out.shape == amps.shape and not out.any()
        assert shapes == []
        # pair (1, 4) of |1,0,1,0,1> holds one particle: a block of 2 states
        hot = StateVector.basis_state(sector, (1, 0, 1, 0, 1)).to_vector()
        out = evolve_amplitudes(net, sector, hot)
        assert shapes[0] == (1, 2)
        assert np.max(np.abs(out - dense_evolve(net, sector, hot))) <= 1e-12
        shapes.clear()


def test_plans_of_a_shape_sweep_are_held_by_bytes(monkeypatch):
    # one-step plans over a sweep of sector shapes, beam splitters and
    # dense windows, under a small budget evict the first plan; its
    # rebuild is byte-identical and read-only like the first
    cache = network_module._KERNEL_CACHE
    cache.clear()
    spec = AnyonSpec.bosonic(0.6)

    def plan(m, n, lo, hi, window):
        sector = enumerate_sector(m, n, spec)
        sub = Network(hi - lo + 1, (BeamSplitter(1, hi - lo + 1, 0.3),))
        step = (lo, hi, True, sub, spec) if window else (lo, hi, False)
        args = (n, False, (step,), occupations(sector, np.arange(0, sector.dim, 3)))
        return network_module._plan(*args), (network_module._plan.__wrapped__, args)

    first, key = plan(8, 5, 2, 7, False)
    assert first.steps and len(first.rows) > len(np.arange(0, 792, 3))
    saved = [arr.copy() for arr in first[1:5]]
    monkeypatch.setattr(cache, "budget", 4 * cache.entries[key][1])
    for m in range(3, 9):
        for n in range(1, 6):
            for lo, hi in itertools.combinations(range(1, m + 1), 2):
                for window in (False, True):
                    if window and hi - lo + 1 == m:
                        continue    # a window as wide as the sector runs in place
                    plan(m, n, lo, hi, window)
                    assert cache.held == sum(size for _value, size in cache.entries.values())
                    assert cache.held <= cache.budget
    assert key not in cache.entries
    again, _key = plan(8, 5, 2, 7, False)
    assert again is not first and again.rows is not first.rows and again.rows == first.rows
    for arr, want in zip(again[1:5], saved):
        assert arr.dtype == want.dtype and arr.shape == want.shape
        assert arr.tobytes() == want.tobytes()
        assert not arr.flags.writeable
    assert by_value(again.steps) == by_value(first.steps)
    assert by_value(again.hop_groups) == by_value(first.hop_groups) and again[7:] == first[7:]
    # every plan has one key: a keyword call fails instead of missing it
    with pytest.raises(TypeError):
        network_module._plan(*key[1][:3], support=key[1][3])
    cache.clear()


def by_value(obj):
    """Nested tuples with each array as its dtype, shape and bytes, so two plans compare."""
    if isinstance(obj, tuple):
        return tuple(map(by_value, obj))
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    return obj


def test_plans_are_held_by_bytes_with_their_support_keys(monkeypatch):
    # an entry counts its plan's arrays and its support key; a sweep of
    # supports under a small budget evicts the first plan, whose rebuild
    # is byte-identical and read-only like the first
    cache = network_module._KERNEL_CACHE
    cache.clear()
    braid, spec = build_braiding_network(), AnyonSpec.bosonic(0.7)
    net = Network(5, (BeamSplitter(1, 4, 0.7), Window(2, braid),
                      PhaseShifter(3, 0.2), BeamSplitter(2, 5, -0.3), PhaseShifter(1, 0.5)))
    skeleton, angles = network_module._split(net, spec)
    # a window's entry holds what the plan's diagonal decision reads, and
    # the angles are the phase shifters' and beam splitters' in step order
    assert skeleton == ((1, 4, False), (2, 4, True, braid, spec), 3, (2, 5, False), 1)
    assert angles == [0.7, 0.2, -0.3, 0.5]

    sector = enumerate_sector(5, 3, spec)

    def plan(rows):
        support = occupations(sector, rows)
        return network_module._plan(3, False, skeleton, support), \
            (network_module._plan.__wrapped__, (3, False, skeleton, support))

    first, key = plan([0, 7, 20])
    arrays = first[1:5]
    assert all(not arr.flags.writeable for arr in arrays)
    # a step's numbers are Python ints, which ``_footprint`` sizes (a numpy
    # scalar would count 0), and the arrays it holds are read-only too
    leaves = list(plan_leaves(first.steps + first.hop_groups + first[7:]))
    assert not any(isinstance(leaf, np.generic) for leaf in leaves)
    assert all(not leaf.flags.writeable for leaf in leaves if isinstance(leaf, np.ndarray))
    # the phase shifters' angles sit at positions 1 and 3, the beam
    # splitters' at 0 and 2; each beam splitter is one member of its group
    assert first.taus.ravel().tolist() == [1, 3]
    members = [first.hop_groups[step[6]][1][step[7], 0, 0] for step in beam_splitter_steps(first)]
    assert members == [0, 2]
    # a beam splitter's eigenpairs are the shared value of their own
    # ``_pair_hop_eigh`` entry, counted there and not again in the plan
    for hops, _members in first.hop_groups:
        assert type(hops) is network_module._Hops
        assert network_module._footprint((hops,)) == sys.getsizeof((hops,))
        assert network_module._footprint(hops) > hops.vals.nbytes + hops.vecs.nbytes
    # the arrays' buffers and the support's tuples, and the Python objects
    # of the plan and its key too, but not the network or spec it names
    size = cache.entries[key][1]
    assert size > sum(arr.nbytes for arr in arrays) + sum(map(sys.getsizeof, key[1][3]))
    assert size == network_module._ENTRY_BYTES + network_module._footprint(key, first)
    assert network_module._footprint(braid) == network_module._footprint(spec) == 0
    saved = [arr.copy() for arr in arrays]
    monkeypatch.setattr(cache, "budget", 4 * cache.entries[key][1])
    dim = sector.dim
    for row in range(dim):
        for other in range(row, dim, 5):
            plan(sorted({row, other}))
            assert cache.held == sum(size for _value, size in cache.entries.values())
            assert cache.held <= cache.budget
    assert key not in cache.entries
    again, _key = plan([0, 7, 20])
    assert again is not first and by_value(again.steps) == by_value(first.steps)
    assert by_value(again.hop_groups) == by_value(first.hop_groups)
    assert again[7:] == first[7:] and again.rows == first.rows
    for arr, want in zip(again[1:5], saved):
        assert arr.dtype == want.dtype and arr.shape == want.shape
        assert arr.tobytes() == want.tobytes()
        assert not arr.flags.writeable
    cache.clear()


def test_kernel_cache_counts_the_objects_of_its_plans():
    # a plan of a tiny support is mostly Python objects: over a sweep of
    # distinct two-row supports, the traced heap grows by about what the
    # cache says it holds, the window stacks those plans build included
    cache = network_module._KERNEL_CACHE
    cache.clear()
    spec = AnyonSpec.bosonic(0.3)
    net = Network(6, (BeamSplitter(1, 4, 0.7), Window(2, build_braiding_network()),
                      PhaseShifter(3, 0.2), BeamSplitter(2, 5, -0.3), PhaseShifter(1, 0.5)))
    skeleton, _angles = network_module._split(net, spec)
    basis = enumerate_sector(6, 3, spec).basis
    # the whole sector as a support builds the records and small sectors
    network_module._plan(3, False, skeleton, basis)
    supports = list(itertools.combinations(basis, 2))
    assert len(supports) == 1540
    gc.collect()
    tracemalloc.start()
    try:
        traced, held = tracemalloc.get_traced_memory()[0], cache.held
        for support in supports:
            network_module._plan(3, False, skeleton, support)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - traced
    finally:
        tracemalloc.stop()
    counted = cache.held - held
    assert counted / 1.5 <= grown <= 1.5 * counted
    cache.clear()


def test_kernel_cache_counts_each_object_of_a_plan_once():
    # a plan's rows hold its support key's occupation tuples, and its
    # entry counts them once; over the sweep of two-row supports, each
    # evolved as ``_evolve_support`` does it (a skeleton from its own walk
    # of the network, the support's tuples from the state's keys, here
    # the sector basis), the traced heap grows by about what it counts
    cache = network_module._KERNEL_CACHE
    cache.clear()
    spec = AnyonSpec.bosonic(0.3)
    net = Network(6, (BeamSplitter(1, 4, 0.7), Window(2, build_braiding_network()),
                      PhaseShifter(3, 0.2), BeamSplitter(2, 5, -0.3), PhaseShifter(1, 0.5)))
    basis = enumerate_sector(6, 3, spec).basis
    network_module._plan(3, False, network_module._split(net, spec)[0], basis)
    pairs = list(itertools.combinations(range(len(basis)), 2))
    assert len(pairs) == 1540
    gc.collect()
    tracemalloc.start()
    try:
        traced, held = tracemalloc.get_traced_memory()[0], cache.held
        for first, second in pairs:
            network_module._plan(3, False, network_module._split(net, spec)[0],
                                 (basis[first], basis[second]))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - traced
    finally:
        tracemalloc.stop()
    counted = cache.held - held
    assert 0.97 <= grown / counted <= 1.15
    support = (basis[0], basis[7])
    args = (3, False, network_module._split(net, spec)[0], support)
    plan = network_module._plan(*args)
    key = (network_module._plan.__wrapped__, args)
    assert all(any(row is occ for row in plan.rows) for occ in support)
    assert cache.entries[key][1] == network_module._ENTRY_BYTES \
        + network_module._footprint(key) + network_module._footprint(plan) \
        - sum(map(sys.getsizeof, support))
    cache.clear()


def test_plans_with_nothing_to_hold_share_one_empty_array_each():
    # two plans of no step (the beam splitter meets only a block of
    # pair total 0) and one whose kept block does not wind, none with a
    # phase shifter
    bosons = enumerate_sector(3, 2, AnyonSpec.bosonic(0.4))
    fermions = enumerate_sector(2, 1, AnyonSpec.fermionic(0.4))
    idle = [kernel_plan(Network(3, (BeamSplitter(*pair, 0.3),)), bosons, [bosons.index[occ]])
            for pair, occ in (((1, 2), (0, 0, 2)), ((2, 3), (2, 0, 0)))]
    plain = kernel_plan(Network(2, (BeamSplitter(1, 2, 0.3),)), fermions, [0])
    assert [len(plan.steps) for plan in idle + [plain]] == [0, 0, 1]
    assert idle[0].gathered is idle[1].gathered
    for field in ("winding", "codes", "taus"):
        first, second, third = (getattr(plan, field) for plan in idle + [plain])
        assert first is second is third and not first.flags.writeable


def assert_diagonal_phases(sub, sector, plan):
    """The diagonal window step plan.steps[1] holds, for each live row, U_T's
    diagonal entry at the row's rank in its block (the window occupations
    lexicographically increasing, the small sector's order reversed), and 1
    at window total 0."""
    _kind, width, phases, totals = plan.steps[1]
    stack, = network_module._window_unitaries(sub, sector.spec, totals)
    want = np.ones(width, dtype=complex)
    for pos, row in enumerate(plan.rows[:width]):
        inside = tuple(sector.occ[row, 1:4].tolist())
        if sum(inside):
            small = enumerate_sector(3, sum(inside), sector.spec)
            rank = small.dim - 1 - small.index[inside]
            want[pos] = stack[totals.index(sum(inside)), rank, rank]
    assert phases.tobytes() == want.tobytes() and not phases.flags.writeable


@pytest.mark.parametrize("sub, diagonal", [
    (build_braiding_network(), True),
    (Network(3, (PhaseShifter(1, 0.3), PhaseShifter(3, -1.2), PhaseShifter(1, 2.0))), True),
    (Network(3, (BeamSplitter(1, 3, 0.5), PhaseShifter(2, -1.1), BeamSplitter(2, 1, 0.8))), False),
])
def test_window_is_a_diagonal_step_only_when_its_unitaries_are_diagonal(sub, diagonal):
    # a diagonal window multiplies the rows live before it and adds none;
    # any other window gathers its kept blocks and marks their rows live
    rng = np.random.default_rng(3)
    net = Network(5, (PhaseShifter(2, 0.4), Window(2, sub), BeamSplitter(1, 2, 0.6)))
    for spec in both_classes(0.9):
        sector = enumerate_sector(5, 3, spec)
        support = np.sort(rng.choice(sector.dim, size=3, replace=False))
        batch = np.zeros((sector.dim, 2), dtype=complex)
        batch[support] = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        plan = kernel_plan(net, sector, support)
        window_step = plan.steps[1]
        kept_rows, kept, _winding = live_blocks(sector, support, 2, 4, True)
        assert kept
        if diagonal:
            assert window_step[0] == network_module._DIAGONAL
            assert window_step[1] == len(support)
            assert window_step[3] == tuple(total for total, *_span in kept)
            # bosonic |1,0,0,0,2> has window total 0, so its phase is 1
            empty = [sector.index[occ] for occ in [(1, 0, 0, 0, 2)] if occ in sector]
            for rows in (support, np.union1d(support, empty)):
                assert_diagonal_phases(sub, sector, kernel_plan(net, sector, rows))
        else:
            assert window_step[0] == network_module._WINDOW
            assert window_step[2] - window_step[1] == len(kept_rows)
            assert set(kept_rows) <= set(plan.rows[:len(kept_rows) + len(support)])
        reached = set(support) | (set() if diagonal else set(kept_rows))
        # the beam splitter after the window marks its own blocks
        assert reached <= set(plan.rows) and len(plan.rows) > len(support)
        out = evolve_amplitudes(net, sector, batch)
        assert np.max(np.abs(out - dense_evolve(net, sector, batch))) <= 1e-12
        for col in range(2):
            assert evolve_amplitudes(net, sector, batch[:, col]).tobytes() == out[:, col].tobytes()
    # alone, a diagonal window leaves the plan on its support; |2,1,0,0,0>
    # shares its block of window total 1 with two other states
    alone = Network(5, (Window(2, sub),))
    sector = enumerate_sector(5, 3, AnyonSpec.bosonic(0.9))
    one = np.array([sector.index[(2, 1, 0, 0, 0)]])
    rows, _state = evolve_support(alone, sector, one, np.eye(1, dtype=complex))
    assert len(rows) == (1 if diagonal else 3)


@pytest.mark.parametrize("fermionic, phis, top", [
    (False, (0.3, 0.7, 2.1, math.pi, 5.9), 12),
    (True, (0.4, 2.3), 3),
])
def test_braid_unitaries_are_its_aharonov_bohm_phases(fermionic, phis, top):
    # every particle returns to its own mode: U_T is diagonal with phases
    # exp(i phi q), q = n1 n2 - n1 n3 + [n3(n3 - 1) - n2(n2 - 1)] / 2 and
    # the bracket 0 for fermions.  On the totals 1..3 a code row reaches
    # the off-diagonal roundoff (at most 1.45e-15 with numpy 2.4) stays five
    # times below the kernel's 1e-14 decision, so a numpy or BLAS change
    # that erodes that margin fails here
    braid = build_braiding_network()
    for phi in phis:
        spec = AnyonSpec.fermionic(phi) if fermionic else AnyonSpec.bosonic(phi)
        for total in range(1, top + 1):
            stack, = network_module._window_unitaries(braid, spec, (total,))
            small = enumerate_sector(3, total, spec)
            n1, n2, n3 = small.occ[np.lexsort(small.occ.T[::-1])].T
            bracket = 0 if fermionic else (n3 * (n3 - 1) - n2 * (n2 - 1)) // 2
            mat = stack[0]
            assert mat.shape == (small.dim, small.dim)
            diagonal = np.diagonal(mat)
            assert np.max(np.abs(diagonal - np.exp(1j * phi * (n1 * n2 - n1 * n3 + bracket)))) \
                <= 6e-14
            if total <= 3:
                assert np.max(np.abs(mat - np.diag(diagonal))) <= 2e-15


def test_block_kernel_rejects_mismatched_inputs():
    sector = enumerate_sector(3, 2, AnyonSpec.bosonic(0.5))
    with pytest.raises(ModeMismatchError):
        evolve_amplitudes(Network(2, ()), sector, np.ones(sector.dim))
    with pytest.raises(ValueError):
        evolve_amplitudes(Network(3, ()), sector, np.ones(sector.dim + 1))
    with pytest.raises(ValueError):
        evolve_amplitudes(Network(3, ()), sector, np.ones((sector.dim, 2, 2)))


def test_kernel_cache_stays_within_its_byte_budget(monkeypatch):
    # a sweep of distinct two-mode totals: each eigenpair stack is
    # (N + 1)^2 float64s, so a 1 MiB budget holds only a few of them
    cache = network_module._KERNEL_CACHE
    cache.clear()
    monkeypatch.setattr(cache, "budget", 2 ** 20)
    first = [arr.copy() for arr in network_module._pair_hop_eigh((100,))]
    for n_pair in range(101, 160):
        vals, vecs = network_module._pair_hop_eigh((n_pair,))
        assert vals.shape == (1, n_pair + 1)
        assert cache.held == sum(size for _value, size in cache.entries.values())
        assert cache.held <= cache.budget
    assert 1 < len(cache.entries) < 59
    key = (network_module._pair_hop_eigh.__wrapped__, ((100,),))
    assert key not in cache.entries
    again = network_module._pair_hop_eigh((100,))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, first))
    assert key in cache.entries
    # a value larger than the whole budget is returned but not kept
    held = dict(cache.entries)
    big = network_module._pair_hop_eigh((400,))
    assert big[1].nbytes > cache.budget
    assert dict(cache.entries) == held
    cache.clear()
    assert cache.held == 0 and not cache.entries


def test_kernel_cache_bookkeeping_holds_under_threads(monkeypatch):
    # more threads than cores hit and evict one small budget; a lost
    # update would leave ``held`` off the sum of what the cache holds
    cache = network_module._KERNEL_CACHE
    cache.clear()
    monkeypatch.setattr(cache, "budget", 2500)   # one to three tiny stacks of 0.7-1.6 KB each
    errors = []

    def work(offset):
        try:
            for step in range(5000):
                network_module._pair_hop_eigh((1 + (offset + step) % 9,))
        except Exception as err:  # reported below, with the thread's result
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert cache.held == sum(size for _value, size in cache.entries.values())
    assert cache.held <= cache.budget
    cache.clear()


def test_window_unitaries_are_cached_and_evicted_by_bytes(monkeypatch):
    # U_1, U_2, U_3 of the braid (dims 3, 6, 10) in one stack padded to 10
    cache = network_module._KERNEL_CACHE
    cache.clear()
    braid = build_braiding_network()
    spec = AnyonSpec.bosonic(0.7)
    first = network_module._window_unitaries(braid, spec, (1, 2, 3))
    stack, = first
    assert stack.shape == (3, 10, 10) and not stack.flags.writeable
    assert network_module._window_unitaries(braid, spec, (1, 2, 3)) is first
    # room for one stack's entry: its buffer, its objects and its key's
    key = (network_module._window_unitaries.__wrapped__, (braid, spec, (1, 2, 3)))
    monkeypatch.setattr(cache, "budget", cache.entries[key][1])
    for phi in (0.1, 0.2, 0.3):
        network_module._window_unitaries(braid, AnyonSpec.bosonic(phi), (1, 2, 3))
        assert cache.held <= cache.budget
    again, = network_module._window_unitaries(braid, spec, (1, 2, 3))
    assert again is not stack and not again.flags.writeable
    assert again.tobytes() == stack.tobytes()
    cache.clear()


@pytest.mark.parametrize("network, spec, totals", [
    (build_braiding_network(), AnyonSpec.bosonic(0.7), (1, 2, 3)),
    # fermionic dims 3, 3, 1: the padding follows the largest dim, not total
    (build_braiding_network(), AnyonSpec.fermionic(0.7), (1, 2, 3)),
    (Network(4, (BeamSplitter(1, 4, 0.4), Window(2, build_braiding_network()),
                 PhaseShifter(3, -0.6))), AnyonSpec.bosonic(2.1), (2, 1)),
    # one band of 16 shells of a two-mode network, as the cat path asks for it
    (Network(2, (PhaseShifter(1, 0.9), BeamSplitter(1, 2, 0.6), BeamSplitter(2, 1, -0.35))),
     AnyonSpec.bosonic(1.1), tuple(range(16, 32))),
    (Network(2, (PhaseShifter(2, math.pi / 2), BeamSplitter(1, 2, math.pi / 2),
                 PhaseShifter(1, math.pi / 2))), AnyonSpec.bosonic(math.pi), tuple(range(16))),
])
def test_window_unitaries_match_the_dense_oracle(network, spec, totals):
    # entry f holds U_T in its dim_T corner, rows and columns by increasing
    # inside occupations, and exact zeros elsewhere: the cat path sums the
    # probability past its cutoff over that padding
    stack, = network_module._window_unitaries(network, spec, totals)
    dims = [enumerate_sector(network.m, total, spec).dim for total in totals]
    assert stack.shape == (len(totals), max(dims), max(dims))
    for mat, total, dim in zip(stack, totals, dims):
        small = enumerate_sector(network.m, total, spec)
        order = np.lexsort(small.occ.T[::-1])
        want = dense_evolve(network, small, np.eye(dim))[np.ix_(order, order)]
        assert np.max(np.abs(mat[:dim, :dim] - want)) <= 1e-13
        assert not mat[dim:].any() and not mat[:, dim:].any()


def test_kernel_cache_hit_hashes_its_key_once(monkeypatch):
    # a network hashes its elements once per object, and a hit hashes its
    # key, so the network in it, once
    monkeypatch.setattr(network_module, "_KERNEL_CACHE",
                        network_module._ByteLRU(network_module.KERNEL_CACHE_BYTES))
    hashes = Counter()
    for cls in (PhaseShifter, BeamSplitter, Window, Network):
        def counting(self, original=cls.__hash__, name=cls.__name__):
            hashes[name] += 1
            return original(self)
        monkeypatch.setattr(cls, "__hash__", counting)
    spec = AnyonSpec.bosonic(0.7)

    def fresh_braid():
        return Network(3, (Window(1, Network(3, build_braiding_network().elements)),))

    braid = fresh_braid()
    first = network_module._window_unitaries(braid, spec, (1, 2, 3))
    hashes.clear()
    for _ in range(10):
        assert network_module._window_unitaries(braid, spec, (1, 2, 3)) is first
    assert hashes == {"Network": 10}
    # an equal network object hits the same entry; its first hash walks
    # its elements once, every later one is read back
    twin = fresh_braid()
    hashes.clear()
    for _ in range(10):
        assert network_module._window_unitaries(twin, spec, (1, 2, 3)) is first
    assert hashes == {"Network": 11, "Window": 1, "BeamSplitter": 4, "PhaseShifter": 3}
    assert twin == braid and hash(twin) == hash(braid)
