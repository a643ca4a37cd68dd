"""Optical elements, evolution, propagation identities, braiding."""

import cmath
import itertools
import math
import sys
import threading

import numpy as np
import pytest

from anyonlin import AnyonSpec, BeamSplitter, GOperator, Network, PhaseShifter, Window, \
    build_braiding_network, enumerate_sector, evolve, propagate_algebraic, \
    single_particle_matrix
from anyonlin import network as network_module
from anyonlin.fock import EmptySectorError, StateVector, apply_create, vacuum_state
from anyonlin.network import ModeMismatchError, UnsupportedPropagationError, \
    _build_element_unitary, evolve_amplitudes
from anyonlin.operators import ATOL_ALGEBRA, creation_matrix

from conftest import PHI_GRID, both_classes, dense_evolve, state_deviation, states_close


def test_element_validation():
    with pytest.raises(ValueError):
        BeamSplitter(2, 2, 0.3)
    with pytest.raises(ValueError):
        PhaseShifter(1, math.nan)
    with pytest.raises(ValueError):
        Network(2, (BeamSplitter(1, 3, 0.1),))


def test_bs_zero_angle_is_identity():
    sector = enumerate_sector(3, 2, AnyonSpec.bosonic(1.9))
    u = _build_element_unitary(sector, BeamSplitter(1, 3, 0.0))
    assert np.max(np.abs(u - np.eye(sector.dim))) < 1e-14


def test_ps_is_diagonal_occupation_phase():
    for spec in both_classes(0.8):
        sector = enumerate_sector(2, 2, spec) if not spec.is_fermionic \
            else enumerate_sector(3, 2, spec)
        tau = 1.234
        u = _build_element_unitary(sector, PhaseShifter(1, tau))
        expected = np.diag([cmath.exp(1j * tau * occ[0]) for occ in sector.basis])
        assert np.max(np.abs(u - expected)) < 1e-14


def test_element_unitaries_are_unitary():
    for phi in PHI_GRID:
        for spec in both_classes(phi):
            sector = enumerate_sector(4, 2, spec)
            for el in (BeamSplitter(1, 4, 0.37), BeamSplitter(2, 3, -1.2),
                       PhaseShifter(3, 2.2)):
                u = _build_element_unitary(sector, el)
                assert np.max(np.abs(u.conj().T @ u - np.eye(sector.dim))) <= ATOL_ALGEBRA


def test_balanced_bs_on_two_bosonic_anyons():
    # the two-anyon interference column: (i e^{i phi}/sqrt 2, 0, i/sqrt 2)
    for phi in PHI_GRID:
        sector = enumerate_sector(2, 2, AnyonSpec.bosonic(phi))
        u = _build_element_unitary(sector, BeamSplitter(1, 2, math.pi / 4))
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
    # each pushed factor costs at most two creation calls; expanding the
    # product would cost one call per operator of each of 2^c strings
    calls = []

    def counting_create(state, mode):
        calls.append(mode)
        return apply_create(state, mode)

    monkeypatch.setattr(network_module, "apply_create", counting_create)
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
    bs = _build_element_unitary(sector, BeamSplitter(1, 2, 0.5))
    assert np.max(np.abs(GOperator(1, 2, 0, 0.5).matrix(sector) - bs)) < 1e-14


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
    dense = _build_element_unitary(sector, win)
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
                                            - _build_element_unitary(sector, el)))
                        worst = max(worst, float(dev))
    assert worst <= 1e-12


def test_block_kernel_long_range_pair_with_four_bosons():
    # blocks of up to five states and windings s up to 4 across modes 2..5
    for phi in (1.3, 2 * math.pi - 1e-9):
        sector = enumerate_sector(6, 4, AnyonSpec.bosonic(phi))
        for i, j in ((6, 1), (2, 5)):
            el = BeamSplitter(i, j, -1.1)
            dev = np.max(np.abs(kernel_unitary(sector, el) - _build_element_unitary(sector, el)))
            assert dev <= 1e-12


def test_block_kernel_on_vacuum_and_full_fermionic_sector():
    for phi in KERNEL_PHIS:
        spec_b, spec_f = both_classes(phi)
        for sector in (enumerate_sector(3, 0, spec_b), enumerate_sector(3, 0, spec_f),
                       enumerate_sector(4, 4, spec_f)):
            for el in (BeamSplitter(1, 3, 0.9), BeamSplitter(3, 2, 0.4), PhaseShifter(2, 0.6)):
                dev = np.max(np.abs(kernel_unitary(sector, el)
                                    - _build_element_unitary(sector, el)))
                assert dev <= 1e-12


def test_every_beam_splitter_block_is_a_full_pair_multiplet():
    # the kernel exponentiates the whole n_lo = 0..N hop, never a truncated one
    shapes = [(m, n) for m in range(1, 7) for n in range(5)] + [(11, 7)]
    for spec in both_classes(0.0):
        for m, n in shapes:
            if spec.is_fermionic and n > m:
                continue
            occ = enumerate_sector(m, n, spec).occ
            for lo, hi in itertools.combinations(range(1, m + 1), 2):
                blocks = network_module._blocks(m, n, spec.is_fermionic, lo, hi, False)
                for n_pair, start, stop in blocks.families:
                    idx = blocks.rows[start:stop].reshape(n_pair + 1, -1)
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
                occ = enumerate_sector(m, n, spec).occ
                for lo, hi in itertools.combinations(range(1, m + 1), 2):
                    blocks = network_module._blocks(m, n, spec.is_fermionic, lo, hi, False)
                    got = network_module._lookup_exp(x, blocks.winding, blocks.w_max)
                    want = np.exp(1j * x * blocks.winding.astype(float))
                    assert got.tobytes() == want.tobytes()
                for mode in range(1, m + 1):
                    tau = phi - 0.7
                    got = network_module._lookup_exp(tau, occ[:, mode - 1], n)
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


def test_block_kernel_multiplies_only_the_blocks_that_hold_amplitude(monkeypatch):
    # an all-zero input makes no product call, and a one-hot input
    # gathers the one block of its row; a block of zeros stays zero
    shapes = []
    real_products = network_module._block_products

    def spy(part, mats, families):
        shapes.append(part.shape)
        return real_products(part, mats, families)

    monkeypatch.setattr(network_module, "_block_products", spy)
    sub = Network(3, (BeamSplitter(1, 3, 0.5), PhaseShifter(2, -1.1), BeamSplitter(2, 1, 0.8)))
    net = Network(5, (BeamSplitter(1, 4, 0.7), Window(2, sub), PhaseShifter(3, 0.2),
                      BeamSplitter(2, 5, -0.3)))
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


def test_gather_records_are_held_by_bytes(monkeypatch):
    # a sweep of shapes under a small budget evicts the first record; its
    # rebuild is byte-identical and read-only like the first
    cache = network_module._KERNEL_CACHE
    cache.clear()
    first = network_module._blocks(8, 5, False, 2, 7, False)
    saved = [arr.copy() for arr in (first.rows, first.winding, first.block)]
    monkeypatch.setattr(cache, "budget", 4 * sum(arr.nbytes for arr in saved))
    for m in range(3, 9):
        for n in range(1, 6):
            for lo, hi in itertools.combinations(range(1, m + 1), 2):
                for window in (False, True):
                    network_module._blocks(m, n, False, lo, hi, window)
                    assert cache.held == sum(size for _value, size in cache.entries.values())
                    assert cache.held <= cache.budget
    key = (network_module._blocks.__wrapped__, (8, 5, False, 2, 7, False))
    assert key not in cache.entries
    again = network_module._blocks(8, 5, False, 2, 7, False)
    assert again is not first
    for arr, want in zip((again.rows, again.winding, again.block), saved):
        assert arr.dtype == want.dtype and arr.shape == want.shape
        assert arr.tobytes() == want.tobytes()
        assert not arr.flags.writeable
    assert (again.w_max, again.families, again.totals) == \
        (first.w_max, first.families, first.totals)
    # every record has one key: a keyword call fails instead of missing it
    with pytest.raises(TypeError):
        network_module._blocks(8, 5, False, 2, 7, window=False)
    cache.clear()


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
    monkeypatch.setattr(cache, "budget", 1000)   # two or three tiny stacks
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
    cache = network_module._KERNEL_CACHE
    cache.clear()
    braid = build_braiding_network()
    spec = AnyonSpec.bosonic(0.7)
    first = network_module._window_unitaries(braid, spec, (1, 2, 3))
    assert [mat.shape for mat in first] == [(3, 3), (6, 6), (10, 10)]
    assert all(not mat.flags.writeable for mat in first)
    assert network_module._window_unitaries(braid, spec, (1, 2, 3)) is first
    monkeypatch.setattr(cache, "budget", sum(mat.nbytes for mat in first))
    for phi in (0.1, 0.2, 0.3):
        network_module._window_unitaries(braid, AnyonSpec.bosonic(phi), (1, 2, 3))
        assert cache.held <= cache.budget
    again = network_module._window_unitaries(braid, spec, (1, 2, 3))
    assert again is not first
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again, first))
    cache.clear()
