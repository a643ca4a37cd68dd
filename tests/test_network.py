"""Optical elements, spectral evolution, propagation identities, braiding."""

import cmath
import itertools
import math

import numpy as np
import pytest

from anyonlin import AnyonSpec, BeamSplitter, GOperator, Network, PhaseShifter, \
    build_braiding_network, element_unitary, enumerate_sector, evolve, \
    propagate_algebraic, single_particle_matrix
from anyonlin import network as network_module
from anyonlin.fock import EmptySectorError, StateVector, apply_create, vacuum_state
from anyonlin.network import ModeMismatchError, UnsupportedPropagationError, \
    evolve_amplitudes
from anyonlin.operators import creation_matrix

from conftest import PHI_GRID, both_classes, state_deviation, states_close


def test_element_validation():
    with pytest.raises(ValueError):
        BeamSplitter(2, 2, 0.3)
    with pytest.raises(ValueError):
        PhaseShifter(1, math.nan)
    with pytest.raises(ValueError):
        Network(2, (BeamSplitter(1, 3, 0.1),))


def test_bs_zero_angle_is_identity():
    sector = enumerate_sector(3, 2, AnyonSpec.bosonic(1.9))
    u = element_unitary(sector, BeamSplitter(1, 3, 0.0))
    assert np.max(np.abs(u.mat - np.eye(sector.dim))) < 1e-14


def test_ps_is_diagonal_occupation_phase():
    for spec in both_classes(0.8):
        sector = enumerate_sector(2, 2, spec) if not spec.is_fermionic \
            else enumerate_sector(3, 2, spec)
        tau = 1.234
        u = element_unitary(sector, PhaseShifter(1, tau))
        expected = np.diag([cmath.exp(1j * tau * occ[0]) for occ in sector.basis])
        assert np.max(np.abs(u.mat - expected)) < 1e-14


def test_element_unitaries_are_unitary():
    for phi in PHI_GRID:
        for spec in both_classes(phi):
            sector = enumerate_sector(4, 2, spec)
            for el in (BeamSplitter(1, 4, 0.37), BeamSplitter(2, 3, -1.2),
                       PhaseShifter(3, 2.2)):
                assert element_unitary(sector, el).is_unitary()


def test_balanced_bs_on_two_bosonic_anyons():
    # the two-anyon interference column: (i e^{i phi}/sqrt 2, 0, i/sqrt 2)
    for phi in PHI_GRID:
        sector = enumerate_sector(2, 2, AnyonSpec.bosonic(phi))
        u = element_unitary(sector, BeamSplitter(1, 2, math.pi / 4))
        col = u.mat[:, sector.index[(1, 1)]]
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
                        g_up = GOperator(i, j, wind, theta).matrix(upper).mat
                        g_next = GOperator(i, j, wind + 1, theta).matrix(sector).mat
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
                            g_skip = GOperator(i, j, wind + 2, theta).matrix(sector).mat
                            assert np.max(np.abs(g_up @ ck - ck @ g_skip)) < 1e-12


def test_g_operator_winding_zero_is_plain_beam_splitter():
    spec = AnyonSpec.bosonic(1.1)
    sector = enumerate_sector(2, 2, spec)
    bs = element_unitary(sector, BeamSplitter(1, 2, 0.5)).mat
    assert np.max(np.abs(GOperator(1, 2, 0, 0.5).matrix(sector).mat - bs)) < 1e-14


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
    # matches the spectral path on the single-particle sector
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
                                            - element_unitary(sector, el).mat))
                        worst = max(worst, float(dev))
    assert worst <= 1e-12


def test_block_kernel_long_range_pair_with_four_bosons():
    # blocks of up to five states and windings s up to 4 across modes 2..5
    for phi in (1.3, 2 * math.pi - 1e-9):
        sector = enumerate_sector(6, 4, AnyonSpec.bosonic(phi))
        for i, j in ((6, 1), (2, 5)):
            el = BeamSplitter(i, j, -1.1)
            dev = np.max(np.abs(kernel_unitary(sector, el) - element_unitary(sector, el).mat))
            assert dev <= 1e-12


def test_block_kernel_on_vacuum_and_full_fermionic_sector():
    for phi in KERNEL_PHIS:
        spec_b, spec_f = both_classes(phi)
        for sector in (enumerate_sector(3, 0, spec_b), enumerate_sector(3, 0, spec_f),
                       enumerate_sector(4, 4, spec_f)):
            for el in (BeamSplitter(1, 3, 0.9), BeamSplitter(3, 2, 0.4), PhaseShifter(2, 0.6)):
                dev = np.max(np.abs(kernel_unitary(sector, el)
                                    - element_unitary(sector, el).mat))
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
                blocks = network_module._pair_blocks(m, n, spec.is_fermionic, lo, hi)
                for n_pair, start, stop in blocks.families:
                    idx = blocks.rows[start:stop].reshape(n_pair + 1, -1)
                    assert (occ[idx, lo - 1] == np.arange(n_pair + 1)[:, None]).all()


def test_pair_hop_spectrum_is_evenly_spaced_from_minus_n_to_n():
    for n_max in range(1, 9):
        vals, vecs = network_module._pair_hop_eigh(n_max)
        assert vals.shape == (n_max, n_max + 1) and vecs.shape == (n_max, n_max + 1, n_max + 1)
        for n_pair in range(1, n_max + 1):
            spectrum = vals[n_pair - 1, :n_pair + 1]
            assert np.max(np.abs(spectrum - np.arange(-n_pair, n_pair + 1, 2))) <= 1e-12
            assert (vals[n_pair - 1, n_pair + 1:] == 0).all()
            assert (vecs[n_pair - 1, n_pair + 1:] == 0).all()
            assert (vecs[n_pair - 1, :, n_pair + 1:] == 0).all()


def test_phase_tables_match_direct_exponentials_byte_for_byte():
    # the kernel looks its phase-shifter and winding factors up from small
    # tables of the same exp arguments, so not one bit may move
    for phi in KERNEL_PHIS:
        for spec in both_classes(phi):
            x = phi + (math.pi if spec.is_fermionic else 0.0)
            for m, n in ((4, 2), (6, 3), (8, 5)):
                occ = enumerate_sector(m, n, spec).occ
                for lo, hi in itertools.combinations(range(1, m + 1), 2):
                    blocks = network_module._pair_blocks(m, n, spec.is_fermionic, lo, hi)
                    got = network_module._lookup_exp(x, blocks.winding, blocks.w_max)
                    want = np.exp(1j * x * blocks.winding.astype(float))
                    assert got.tobytes() == want.tobytes()
                for mode in range(1, m + 1):
                    tau = phi - 0.7
                    got = network_module._lookup_exp(tau, occ[:, mode - 1], n)
                    assert got.tobytes() == np.exp(1j * tau * occ[:, mode - 1]).tobytes()


def test_block_kernel_batch_and_vector_match_spectral_evolve():
    rng = np.random.default_rng(11)
    net = Network(4, (BeamSplitter(1, 4, 0.7), PhaseShifter(2, 1.9), BeamSplitter(3, 2, -0.4),
                      BeamSplitter(2, 4, 1.2), PhaseShifter(4, -0.3)))
    for width in (1, 2, 3, 4, 8):
        for phi in KERNEL_PHIS:
            for spec in both_classes(phi):
                sector = enumerate_sector(4, 2, spec)
                batch = (rng.normal(size=(sector.dim, width))
                         + 1j * rng.normal(size=(sector.dim, width)))
                got = evolve_amplitudes(net, sector, batch)
                assert got.shape == (sector.dim, width)
                for col in range(width):
                    ref = evolve(net, StateVector.from_vector(sector, batch[:, col]))
                    assert np.max(np.abs(got[:, col] - ref.to_vector())) <= 1e-12
                    vec = evolve_amplitudes(net, sector, batch[:, col])
                    assert vec.shape == (sector.dim,)
                    assert np.max(np.abs(vec - got[:, col])) <= 1e-15


def test_block_kernel_rejects_mismatched_inputs():
    sector = enumerate_sector(3, 2, AnyonSpec.bosonic(0.5))
    with pytest.raises(ModeMismatchError):
        evolve_amplitudes(Network(2, ()), sector, np.ones(sector.dim))
    with pytest.raises(ValueError):
        evolve_amplitudes(Network(3, ()), sector, np.ones(sector.dim + 1))
    with pytest.raises(ValueError):
        evolve_amplitudes(Network(3, ()), sector, np.ones((sector.dim, 2, 2)))
