"""Dual-rail encoding, gate compilation, and logical-circuit simulation."""

import cmath
import math
import sys

import numpy as np
import pytest

from anyonlin import AnyonSpec, CP, CompileError, LogicalLayout, Rx, Rz, U1, \
    decode, encode, enumerate_sector, evolve
from anyonlin.dualrail import _circuit_plan, _code_space, auxiliary_occupations, compile_circuit, \
    euler_zxz, logical_unitary, run_circuit
from anyonlin import dualrail as dualrail_module
from anyonlin import fock as fock_module
from anyonlin import network as network_module
from anyonlin import operators as operators_module
from anyonlin.fock import StateVector
from anyonlin.network import BeamSplitter, Network, PhaseShifter, Window, build_braiding_network, \
    evolve_amplitudes

from conftest import PHI_GRID, beam_splitter_steps, both_classes, circuit_oracle, dense_evolve, \
    evolve_support, haar_unitary, kernel_plan, live_blocks, phase_align, plan_leaves, positions, \
    rx_mat, rz_mat


def cp_mat(phi):
    return np.diag([1.0, 1.0, 1.0, cmath.exp(1j * phi)])


def test_layout_modes():
    layout = LogicalLayout(2)
    assert layout.m == 5
    assert layout.qubit_modes == ((1, 2), (4, 5))
    assert layout.aux_modes == (3,)
    assert layout.n_particles == 3
    assert LogicalLayout(3).m == 8
    with pytest.raises(ValueError):
        LogicalLayout(0)


def test_encode_examples():
    spec = AnyonSpec.bosonic(0.5)
    one = encode(spec, LogicalLayout(1), "0")
    assert one.amplitude((1, 0)) == 1.0
    two = encode(spec, LogicalLayout(2), "11")
    assert two.amplitude((0, 1, 1, 0, 1)) == 1.0
    zeros = encode(spec, LogicalLayout(2), "00")
    assert zeros.amplitude((1, 0, 1, 1, 0)) == 1.0
    with pytest.raises(ValueError):
        encode(spec, LogicalLayout(2), "012")


def test_decode_round_trip_has_no_leakage():
    for spec in both_classes(1.2):
        layout = LogicalLayout(2)
        for idx in range(4):
            bits = format(idx, "02b")
            amps, leakage = decode(layout, encode(spec, layout, bits))
            assert abs(amps[idx] - 1.0) < 1e-15
            assert abs(leakage) < 1e-15


def test_decode_of_a_state_outside_the_code_sector_is_all_leakage():
    layout = LogicalLayout(2)
    for spec in both_classes(0.9):
        # one particle too many: no code occupation is in the state's sector
        sector = enumerate_sector(layout.m, layout.n_particles + 1, spec)
        amps, leakage = decode(layout, StateVector.basis_state(sector, sector.basis[0]))
        assert amps.tolist() == [0j] * 4
        assert leakage == 1.0
    # a state of the other class still reads its code occupations
    state = encode(AnyonSpec.fermionic(0.9), layout, "10")
    amps, leakage = decode(layout, StateVector(
        enumerate_sector(layout.m, layout.n_particles, AnyonSpec.bosonic(0.9)), state.amps))
    assert amps.tolist() == [0j, 0j, 1 + 0j, 0j] and leakage == 0.0


def test_beam_splitter_inside_a_pair_keeps_code_space():
    # particle number within the pair is conserved, so no leakage
    spec = AnyonSpec.bosonic(2.2)
    layout = LogicalLayout(2)
    net = Network(layout.m, (BeamSplitter(1, 2, 0.77),))
    out = evolve(net, encode(spec, layout, "01"))
    _, leakage = decode(layout, out)
    assert abs(leakage) < 1e-12


def test_euler_zxz_reconstructs_haar_unitaries():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        u = haar_unitary(rng)
        alpha, beta, gamma, delta = euler_zxz(u)
        rebuilt = cmath.exp(1j * alpha) * rz_mat(beta) @ rx_mat(gamma) @ rz_mat(delta)
        assert np.max(np.abs(phase_align(u, rebuilt) - u)) < 1e-12
    for u in (np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, 1j]),
              np.array([[0, -1j], [1j, 0]])):
        alpha, beta, gamma, delta = euler_zxz(np.asarray(u, dtype=complex))
        rebuilt = cmath.exp(1j * alpha) * rz_mat(beta) @ rx_mat(gamma) @ rz_mat(delta)
        assert np.max(np.abs(phase_align(u, rebuilt) - u)) < 1e-12


def test_compile_identity_target():
    spec = AnyonSpec.bosonic(0.4)
    layout = LogicalLayout(1)
    got = logical_unitary(spec, layout, [U1(1, 0.0, 0.0, 0.0, 0.0)])
    assert np.max(np.abs(got - np.eye(2))) < 1e-12


def test_compile_not_gate():
    # X needs full off-diagonal magnitude; the compiled beam splitter
    # angle is -pi/2 under the exp(i theta X) convention
    spec = AnyonSpec.fermionic(1.0)
    layout = LogicalLayout(1)
    gates = [U1(1, *euler_zxz(np.array([[0, 1], [1, 0]], dtype=complex)))]
    bs = [el for el in compile_circuit(layout, gates).elements if isinstance(el, BeamSplitter)]
    assert len(bs) == 1 and abs(abs(bs[0].theta) - math.pi / 2) < 1e-12
    got = logical_unitary(spec, layout, gates)
    assert abs(abs(got[1, 0]) - 1.0) < 1e-12
    assert abs(abs(got[0, 1]) - 1.0) < 1e-12
    assert abs(got[0, 0]) < 1e-12


def test_compile_hundred_haar_targets():
    layout = LogicalLayout(1)
    for spec in (AnyonSpec.bosonic(1.3), AnyonSpec.fermionic(2.7)):
        rng = np.random.default_rng(99)
        worst = 0.0
        for _ in range(100):
            target = haar_unitary(rng)
            got = logical_unitary(spec, layout, [U1(1, *euler_zxz(target))])
            worst = max(worst, float(np.max(np.abs(phase_align(target, got) - target))))
        assert worst < 1e-9


def test_cp_logical_matrix_and_auxiliary_return():
    layout = LogicalLayout(2)
    for phi in PHI_GRID:
        for spec in both_classes(phi):
            got = logical_unitary(spec, layout, [CP(1, 2)])
            assert np.max(np.abs(got - cp_mat(phi))) < 1e-10
            for bits in ("00", "01", "10", "11"):
                final = run_circuit(spec, layout, [CP(1, 2)], bits)
                aux = auxiliary_occupations(layout, final)[0]
                assert abs(aux - 1.0) < 1e-10
                _, leakage = decode(layout, final)
                assert abs(leakage) < 1e-10


def test_cp_at_phi_zero_is_identity():
    layout = LogicalLayout(2)
    for spec in both_classes(0.0):
        got = logical_unitary(spec, layout, [CP(1, 2)])
        assert np.max(np.abs(got - np.eye(4))) < 1e-10


def reshuffle(mat):
    r = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    r[2 * a + c, 2 * b + d] = mat[2 * a + b, 2 * c + d]
    return r


def test_cp_is_entangling_for_nonzero_phi():
    layout = LogicalLayout(2)
    for phi in (math.pi / 2, math.pi / 5, math.pi):
        spec = AnyonSpec.bosonic(phi)
        got = logical_unitary(spec, layout, [CP(1, 2)])
        singulars = np.linalg.svd(reshuffle(got), compute_uv=False)
        assert singulars[1] > 1e-6
    # phi = 0: a tensor product, reshuffle rank 1
    got = logical_unitary(AnyonSpec.bosonic(0.0), layout, [CP(1, 2)])
    singulars = np.linalg.svd(reshuffle(got), compute_uv=False)
    assert singulars[1] < 1e-10


def test_cp_requires_adjacent_qubits():
    layout = LogicalLayout(3)
    for bad in ((1, 3), (2, 1)):
        with pytest.raises(CompileError, match="CP needs adjacent qubits"):
            compile_circuit(layout, [CP(*bad)])
    for bad in ((3, 4), (0, 1)):
        with pytest.raises(CompileError, match="outside 1..3"):
            compile_circuit(layout, [CP(*bad)])
    with pytest.raises(CompileError, match="qubit 4 outside 1..3"):
        compile_circuit(layout, [U1(4, 0.0, 0.0, 0.0, 0.0)])


def test_empty_circuit_round_trips():
    spec = AnyonSpec.bosonic(0.9)
    layout = LogicalLayout(2)
    amps = decode(layout, run_circuit(spec, layout, [], "10"))[0]
    assert abs(amps[0b10] - 1.0) < 1e-15


def test_circuit_against_dense_qubit_oracle():
    h_angles = euler_zxz(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    layout = LogicalLayout(2)
    for phi in (math.pi, math.pi / 2, 0.7):
        for spec in both_classes(phi):
            gates = [U1(1, *h_angles), U1(2, *h_angles), CP(1, 2),
                     Rx(1, 0.7), Rz(2, -1.1)]
            got = logical_unitary(spec, layout, gates)
            want = circuit_oracle(gates, phi, 2)
            assert np.max(np.abs(phase_align(want, got) - want)) < 1e-9


def test_cp_on_plus_plus_matches_oracle():
    # CP(pi/2) on (|0> + |1>)(|0> + |1>)/2 produces an entangled state
    phi = math.pi / 2
    spec = AnyonSpec.bosonic(phi)
    layout = LogicalLayout(2)
    h_angles = euler_zxz(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    gates = [U1(1, *h_angles), U1(2, *h_angles), CP(1, 2)]
    got = decode(layout, run_circuit(spec, layout, gates, "00"))[0]
    want = circuit_oracle(gates, phi, 2) @ np.array([1.0, 0, 0, 0])
    assert np.max(np.abs(phase_align(want, got) - want)) < 1e-10


def test_leakage_stays_tiny_across_compiled_circuits():
    layout = LogicalLayout(2)
    h_angles = euler_zxz(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
    gates = [U1(1, *h_angles), CP(1, 2), Rx(2, 1.9), CP(1, 2), Rz(1, 0.3)]
    for spec in both_classes(math.pi / 5):
        for idx in range(4):
            final = run_circuit(spec, layout, gates, format(idx, "02b"))
            _, leakage = decode(layout, final)
            assert abs(leakage) < 1e-10


def test_three_qubit_layout_cp_pairs():
    # adjacent CPs on a wider register leave spectator qubits alone
    spec = AnyonSpec.bosonic(1.0)
    layout = LogicalLayout(3)
    got = logical_unitary(spec, layout, [CP(2, 3)])
    want = np.kron(np.eye(2), cp_mat(1.0))
    assert np.max(np.abs(got - want)) < 1e-10
    got12 = logical_unitary(spec, layout, [CP(1, 2)])
    want12 = np.kron(cp_mat(1.0), np.eye(2))
    assert np.max(np.abs(got12 - want12)) < 1e-10


def test_compile_circuit_concatenates_elements():
    layout = LogicalLayout(2)
    gates = [Rz(1, 0.5), CP(1, 2)]
    net = compile_circuit(layout, gates)
    assert net.m == layout.m
    assert len(net.elements) == 3 + 1
    assert net.elements[-1] == Window(2, build_braiding_network())


def test_cp_window_braids_the_left_qubit_aux_and_right_qubit_modes():
    layout = LogicalLayout(3)
    (window,) = compile_circuit(layout, [CP(2, 3)]).elements
    braid_modes = (layout.qubit_modes[1][1], layout.aux_modes[1], layout.qubit_modes[2][0])
    assert window.modes == braid_modes == (5, 6, 7)
    remapped = []
    for el in build_braiding_network().elements:
        if isinstance(el, PhaseShifter):
            remapped.append(PhaseShifter(braid_modes[el.mode - 1], el.tau))
        else:
            remapped.append(BeamSplitter(braid_modes[el.mode_i - 1], braid_modes[el.mode_j - 1],
                                         el.theta))
    assert window.placed() == tuple(remapped)


def test_compile_circuit_validates_one_network(monkeypatch):
    layout = LogicalLayout(3)
    gates = [Rz(1, 0.5), Rx(2, -0.7), U1(3, 0.1, 0.2, 0.3, 0.4), CP(1, 2), CP(2, 3)]
    per_gate = tuple(el for gate in gates for el in compile_circuit(layout, [gate]).elements)
    built = []
    post_init = Network.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Network, "__post_init__", counting_post_init)
    net = compile_circuit(layout, gates)
    assert built == [net]
    assert net.elements == per_gate


def dense_logical_unitary(spec, layout, gates):
    """Every logical column through the dense oracle at once, then decoded."""
    n = layout.num_qubits
    network = compile_circuit(layout, gates)
    inputs = [encode(spec, layout, format(col, f"0{n}b")) for col in range(2 ** n)]
    sector = inputs[0].sector
    outs = dense_evolve(network, sector, np.stack([st.to_vector() for st in inputs], axis=1))
    mat = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for col in range(2 ** n):
        mat[:, col], _ = decode(layout, StateVector.from_vector(sector, outs[:, col]))
    return mat


def test_logical_unitary_matches_per_column_spectral_evolution():
    # three bosonic qubits (dim 792) run at one phi: each dense matrix costs ~0.5 s
    rng = np.random.default_rng(5)
    cases = [(1, 1.3, [U1(1, 0.2, 1.1, 2.3, -0.7)]),
             (1, math.pi, [U1(1, *euler_zxz(haar_unitary(rng)))]),
             (2, 1.3, [U1(1, *euler_zxz(haar_unitary(rng))), CP(1, 2), Rx(2, 0.4)]),
             (2, math.pi, [CP(1, 2), U1(2, *euler_zxz(haar_unitary(rng))), Rz(1, -0.9)]),
             (3, 2.2, [U1(2, *euler_zxz(haar_unitary(rng))), CP(2, 3)])]
    for qubits, phi, gates in cases:
        layout = LogicalLayout(qubits)
        for spec in both_classes(phi):
            got = logical_unitary(spec, layout, gates)
            want = dense_logical_unitary(spec, layout, gates)
            assert np.max(np.abs(got - want)) <= 1e-12


def test_four_qubit_circuit_against_dense_oracle():
    # bosonic sector dim 19448: out of reach of dense sector matrices
    rng = np.random.default_rng(44)
    layout = LogicalLayout(4)
    phi = 1.1
    gates = [U1(q, *euler_zxz(haar_unitary(rng))) for q in range(1, 5)]
    gates += [CP(1, 2), CP(2, 3), CP(3, 4)]
    want = circuit_oracle(gates, phi, 4)
    for spec in both_classes(phi):
        got = logical_unitary(spec, layout, gates)
        assert np.max(np.abs(phase_align(want, got) - want)) < 1e-9
        leakage = 1.0 - np.sum(np.abs(got) ** 2, axis=0)
        assert np.max(np.abs(leakage)) <= 1e-10
        final = run_circuit(spec, layout, gates, "0110")
        amps, leak = decode(layout, final)
        assert abs(leak) <= 1e-10
        assert np.max(np.abs(amps - got[:, 0b0110])) <= 1e-12


def test_circuit_paths_build_no_sector_matrix(monkeypatch):
    # logical_unitary and run_circuit never reach the dense sector
    # unitaries; every eigendecomposition is of one block, at most n + 1
    def no_dense(*args):
        raise AssertionError("dense sector unitary requested")

    sizes = []

    def eigh_spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return real_eigh(a, *args, **kwargs)

    real_eigh = np.linalg.eigh
    monkeypatch.setattr(operators_module, "quadratic_matrix", no_dense)
    monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
    network_module._KERNEL_CACHE.clear()
    layout = LogicalLayout(3)
    gates = [U1(1, 0.1, 0.2, 0.3, 0.4), CP(1, 2), Rx(3, 0.5), CP(2, 3)]
    for spec in both_classes(0.9):
        logical_unitary(spec, layout, gates)
        run_circuit(spec, layout, gates, "011")
    assert sizes and max(sizes) <= layout.n_particles + 1


def test_second_circuit_at_one_phi_builds_no_window_unitary(monkeypatch):
    # a braid's unitaries depend on phi and the class only, so fresh U1
    # angles reuse the ones the first operation built
    rng = np.random.default_rng(8)
    layout = LogicalLayout(3)

    def gates():
        singles = [U1(q, *euler_zxz(haar_unitary(rng))) for q in range(1, 4)]
        return singles + [CP(1, 2), CP(2, 3)]

    built = []
    real_evolve = network_module.evolve_amplitudes

    def spy(network, sector, amps):
        built.append(network)
        return real_evolve(network, sector, amps)

    # the kernel builds window unitaries through this module name; the
    # circuit itself goes straight to ``_evolve_support``
    monkeypatch.setattr(network_module, "evolve_amplitudes", spy)
    network_module._KERNEL_CACHE.clear()
    for spec in both_classes(1.7):
        logical_unitary(spec, layout, gates())
        assert built and set(built) == {build_braiding_network()}
        built.clear()
        logical_unitary(spec, layout, gates())
        assert built == []


def test_first_beam_splitter_gathers_only_the_code_rows(monkeypatch):
    # the 8 encoded inputs lie in 4 blocks of qubit 1's pair; the other
    # 532 rows of that beam splitter's blocks on the whole bosonic sector
    # hold exact zeros
    shapes = []
    real_products = network_module._block_products

    def spy(part, stack, families):
        shapes.append(part.shape)
        return real_products(part, stack, families)

    # the plan reads each CP window's unitaries on the totals 1..3 its code
    # rows reach; built here, their small products stay out of the spy
    for spec in both_classes(1.1):
        network_module._window_unitaries(build_braiding_network(), spec, (1, 2, 3))
    monkeypatch.setattr(network_module, "_block_products", spy)
    layout = LogicalLayout(3)
    gates = [U1(q, 0.1 * q, 0.2, 0.3, 0.4) for q in range(1, 4)] + [CP(1, 2), CP(2, 3)]
    sector = enumerate_sector(layout.m, layout.n_particles, AnyonSpec.bosonic(1.1))
    rows, _families, _winding = live_blocks(sector, np.arange(sector.dim), 1, 2, False)
    assert len(rows) == 540
    for spec in both_classes(1.1):
        shapes.clear()
        logical_unitary(spec, layout, gates)
        assert shapes[0] == (8, 8)


def test_second_circuit_on_a_layout_reuses_its_plan(monkeypatch):
    # the plan depends on the layout's skeleton and code rows, not on any
    # angle: fresh U1 angles select no block again.  Every qubit's pair
    # holds one particle on every code row, so each beam splitter needs W_1
    # only; the three share one eigenpair record, whose top eigenvalue on
    # pair total N is N, and one batched product forms their three W_1
    rng = np.random.default_rng(4)
    layout = LogicalLayout(3)
    selections, hop_totals = [], []
    real_live, real_hops = network_module._live_blocks, network_module._pair_hops

    def live_spy(fermionic, live, lo, hi, window):
        selections.append((lo, hi, window))
        return real_live(fermionic, live, lo, hi, window)

    def hops_spy(hops, thetas):
        hop_totals.append((tuple(int(round(top)) for top in hops[0].max(axis=1)), len(thetas)))
        return real_hops(hops, thetas)

    def gates():
        return [U1(q, *euler_zxz(haar_unitary(rng))) for q in range(1, 4)] + [CP(1, 2), CP(2, 3)]

    monkeypatch.setattr(network_module, "_live_blocks", live_spy)
    monkeypatch.setattr(network_module, "_pair_hops", hops_spy)
    network_module._KERNEL_CACHE.clear()
    for spec in both_classes(1.3):
        logical_unitary(spec, layout, gates())
        assert selections and hop_totals[0][0] == (1,)
        selections.clear()
        hop_totals.clear()
        circuit = gates()
        got = logical_unitary(spec, layout, circuit)
        assert selections == [] and hop_totals == [((1,), 3)]
        network_module._KERNEL_CACHE.clear()
        assert logical_unitary(spec, layout, circuit).tobytes() == got.tobytes()
        selections.clear()
        hop_totals.clear()


@pytest.mark.parametrize("qubits, reached, dim", [(3, 8, 792), (4, 16, 19448)])
def test_one_layer_circuit_runs_on_the_rows_it_reaches(qubits, reached, dim):
    # a U1 on every qubit, then CP on every adjacent pair: each CP braid is
    # a diagonal step and each U1's beam splitter meets pair total 1 only,
    # so the bosonic kernel state holds the code rows, not the whole sector
    layout = LogicalLayout(qubits)
    sector = enumerate_sector(layout.m, layout.n_particles, AnyonSpec.bosonic(0.8))
    assert sector.dim == dim
    gates = [U1(q, 0.1, 0.2, 0.3, 0.4) for q in range(1, qubits + 1)]
    gates += [CP(q, q + 1) for q in range(1, qubits)]
    code = positions(sector, _code_space(layout))
    # binary order is sector order, so the code rows are a sorted support
    assert (np.diff(code) > 0).all()
    rows, state = evolve_support(compile_circuit(layout, gates), sector, code, np.eye(len(code)))
    assert len(rows) == reached and state.shape == (len(code), reached)
    assert (rows[:len(code)] == code).all()
    assert state[:, :len(code)].T.tobytes() == logical_unitary(sector.spec, layout, gates).tobytes()


def test_cold_circuit_caches_no_array_as_long_as_its_sector():
    # each step's blocks come from the rows the plan holds, so a cold
    # 4-qubit circuit leaves no record of the 19 448-row sector in the
    # kernel cache: every array there is sized by the 16 code rows or by
    # a small window or pair total, none by a tenth of the sector (a
    # record of a beam splitter's blocks over the whole sector held 16 016)
    layout = LogicalLayout(4)
    spec = AnyonSpec.bosonic(0.8)
    assert enumerate_sector(layout.m, layout.n_particles, spec).dim == 19448
    gates = [U1(q, 0.1 * q, 0.2, 0.3, 0.4) for q in range(1, 5)]
    gates += [CP(q, q + 1) for q in range(1, 4)]
    cache = network_module._KERNEL_CACHE
    cache.clear()
    logical_unitary(spec, layout, gates)
    arrays = [leaf for key, (value, _size) in cache.entries.items()
              for leaf in plan_leaves((key, value)) if isinstance(leaf, np.ndarray)]
    assert arrays and max(arr.size for arr in arrays) < 19448 // 10
    cache.clear()


@pytest.mark.parametrize("fermionic", [False, True])
@pytest.mark.parametrize("layers", [1, 6])
@pytest.mark.parametrize("qubits", [3, 4])
def test_circuit_plan_stays_on_its_code_rows_at_any_depth(qubits, layers, fermionic):
    # every particle of a CP braid returns to its own mode, so no layer
    # adds a row to the plan: it holds the 2^n code rows at any depth
    rng = np.random.default_rng(100 * qubits + layers)
    phi = 1.3
    spec = AnyonSpec.fermionic(phi) if fermionic else AnyonSpec.bosonic(phi)
    layout = LogicalLayout(qubits)
    gates = []
    for _layer in range(layers):
        gates += [U1(q, *euler_zxz(haar_unitary(rng))) for q in range(1, qubits + 1)]
        gates += [CP(q, q + 1) for q in range(1, qubits)]
    sector = enumerate_sector(layout.m, layout.n_particles, spec)
    code = positions(sector, _code_space(layout))
    rows, state = evolve_support(compile_circuit(layout, gates), sector, code, np.eye(len(code)))
    assert len(code) == 2 ** qubits and rows.tobytes() == code.tobytes()
    got = state.T
    assert got.tobytes() == logical_unitary(spec, layout, gates).tobytes()
    want = circuit_oracle(gates, phi, qubits)
    assert np.max(np.abs(phase_align(want, got) - want)) < 1e-9


def test_cold_circuit_never_asks_for_its_own_sector(monkeypatch):
    # a plan names its rows by their occupations, so a cold circuit asks
    # for no basis of its (m, n_particles) shape: only the braid's small
    # (3, T) sectors and the two-mode pair shapes its blocks are cut from
    layout = LogicalLayout(3)
    asked = []

    def spy(name, real, shape_of):
        def recorded(*args):
            asked.append((name, *shape_of(*args)))
            return real(*args)
        return recorded

    shapes = {"_shape_basis": lambda m, n, _fermionic: (m, n),
              "_sector_cached": lambda _spec, m, n: (m, n),
              "enumerate_sector": lambda m, n, _spec: (m, n)}
    for module in (fock_module, network_module, dualrail_module, operators_module):
        for name, shape_of in shapes.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name), shape_of))
    network_module._KERNEL_CACHE.clear()
    gates = [U1(q, 0.1 * q, 0.2, 0.3, 0.4) for q in range(1, 4)] + [CP(1, 2), CP(2, 3)]
    for spec in both_classes(2.345):
        logical_unitary(spec, layout, gates)
    assert ("enumerate_sector", 3, 2) in asked and ("_shape_basis", 2, 1) in asked
    assert all(m in (2, 3) and n <= layout.n_particles for _name, m, n in asked)
    assert all((m, n) != (layout.m, layout.n_particles) for _name, m, n in asked)
    network_module._KERNEL_CACHE.clear()


@pytest.mark.parametrize("spec", both_classes(1.3), ids=["bosonic", "fermionic"])
def test_eight_qubit_circuit_runs_on_its_code_rows(spec):
    # the bosonic sector of 8 dual-rail qubits holds 9.4e9 states and is
    # never enumerated: the circuit runs on its 256 code rows alone
    qubits = 8
    rng = np.random.default_rng(88)
    layout = LogicalLayout(qubits)
    gates = [U1(q, *euler_zxz(haar_unitary(rng))) for q in range(1, qubits + 1)]
    gates += [CP(q, q + 1) for q in range(1, qubits)]
    got = logical_unitary(spec, layout, gates)
    assert got.shape == (2 ** qubits, 2 ** qubits)
    want = circuit_oracle(gates, spec.phi, qubits)
    assert np.max(np.abs(phase_align(want, got) - want)) < 1e-9
    leakage = 1.0 - np.sum(np.abs(got) ** 2, axis=0)
    assert np.max(np.abs(leakage)) <= 1e-10


@pytest.mark.parametrize("qubits", [2, 3, 4])
def test_dual_rail_beam_splitters_run_without_a_dress(qubits):
    # a U1's rails are adjacent (s = 0) and hold at most one particle
    # (k <= 1), so no kept row winds: every beam-splitter step has w_max 0
    # and the plan holds no winding code
    rng = np.random.default_rng(30 + qubits)
    layout = LogicalLayout(qubits)
    gates = [U1(q, *euler_zxz(haar_unitary(rng))) for q in range(1, qubits + 1)]
    gates += [CP(q, q + 1) for q in range(1, qubits)] + [Rx(1, 0.4), Rz(qubits, -0.9)]
    network = compile_circuit(layout, gates)
    for spec in both_classes(1.1):
        sector = enumerate_sector(layout.m, layout.n_particles, spec)
        code = positions(sector, _code_space(layout))
        plan = kernel_plan(network, sector, code)
        steps = beam_splitter_steps(plan)
        assert len(steps) == qubits + 2     # an Rz compiles to PS-BS(0)-PS too
        assert all(step[5] == 0 for step in steps) and plan.w_top == 0
        assert len(plan.winding) == 0
        if qubits > 2:
            continue
        # every column nonzero on every code row, so all meet the same plan
        batch = np.zeros((sector.dim, 3), dtype=complex)
        batch[code] = rng.normal(size=(len(code), 3)) + 1j * rng.normal(size=(len(code), 3))
        out = evolve_amplitudes(network, sector, batch)
        assert np.max(np.abs(out - dense_evolve(network, sector, batch))) <= 1e-12
        for col in range(3):
            assert evolve_amplitudes(network, sector, batch[:, col]).tobytes() == \
                out[:, col].tobytes()


def test_logical_unitary_reads_the_code_rows_once_per_shape(monkeypatch):
    layout = LogicalLayout(2)
    logical_unitary(AnyonSpec.bosonic(0.3), layout, [CP(1, 2)])
    both_up = layout.code_occupation("11")

    def no_occupation(*args):
        raise AssertionError("code-space rows rebuilt")

    monkeypatch.setattr(LogicalLayout, "code_occupation", no_occupation)
    for phi in (0.3, 2.9):
        got = logical_unitary(AnyonSpec.bosonic(phi), layout, [CP(1, 2)])
        assert np.max(np.abs(got - cp_mat(phi))) <= 1e-12
        # decode reads the same record
        sector = enumerate_sector(layout.m, layout.n_particles, AnyonSpec.bosonic(phi))
        out = evolve(compile_circuit(layout, [CP(1, 2)]), StateVector.basis_state(sector, both_up))
        amps, _leak = decode(layout, out)
        assert abs(amps[3] - cmath.exp(1j * phi)) <= 1e-12


def test_code_space_records_are_held_by_bytes(monkeypatch):
    # a layout's code-space record, the occupation tuples of its code
    # states, is an entry of the kernel's byte-bounded cache: its counted
    # size is added to what the cache holds, and once a sweep of layouts
    # under a small budget evicts it, it rebuilds equal
    cache = network_module._KERNEL_CACHE
    cache.clear()
    layout = LogicalLayout(3)
    occupations = _code_space(layout)
    key = (_code_space.__wrapped__, (layout,))
    size = cache.entries[key][1]
    assert cache.held == size
    assert size == network_module._ENTRY_BYTES + network_module._footprint(key) \
        + network_module._footprint(occupations)
    assert size > 8 * sys.getsizeof(occupations[0])
    monkeypatch.setattr(cache, "budget", 3 * size)
    for qubits in (1, 2, 4, 5):
        _code_space(LogicalLayout(qubits))
        assert cache.held == sum(size for _value, size in cache.entries.values())
        assert cache.held <= cache.budget
    assert key not in cache.entries
    again = _code_space(layout)
    assert again is not occupations and again == occupations
    assert all(type(occ) is tuple and type(n) is int for occ in again for n in occ)
    cache.clear()


def circuit_plan_keys():
    """The signatures the kernel cache holds a circuit plan for."""
    return [key[1][1] for key in network_module._KERNEL_CACHE.entries
            if key[0] is _circuit_plan.__wrapped__]


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("gate, element", [
    (lambda bad: U1(2, 0.1, 0.2, 0.3, bad), "phase shifter"),    # delta
    (lambda bad: U1(2, 0.1, 0.2, bad, 0.3), "beam splitter"),    # gamma
    (lambda bad: U1(2, 0.1, bad, 0.2, 0.3), "phase shifter"),    # beta
    (lambda bad: Rz(2, bad), "phase shifter"),
    (lambda bad: Rx(2, bad), "beam splitter"),
])
def test_non_finite_angles_raise_the_elements_error(gate, element, warm):
    # the cached compile reads the angles straight from the gates; a NaN or
    # an infinity still raises the ValueError of the element it would set,
    # whether or not the circuit's signature is cached
    layout = LogicalLayout(3)
    spec = AnyonSpec.bosonic(0.7)
    network_module._KERNEL_CACHE.clear()
    for bad in (math.nan, math.inf, -math.inf):
        circuit = [U1(1, 0.1, 0.2, 0.3, 0.4), CP(1, 2), gate(bad), CP(2, 3)]
        if warm:
            logical_unitary(spec, layout, [U1(1, 0.1, 0.2, 0.3, 0.4), CP(1, 2), gate(0.5),
                                           CP(2, 3)])
        with pytest.raises(ValueError, match=f"^{element} angle must be finite$") as err:
            logical_unitary(spec, layout, circuit)
        assert type(err.value) is ValueError
        with pytest.raises(ValueError, match=f"^{element} angle must be finite$"):
            compile_circuit(layout, circuit)
    assert len(circuit_plan_keys()) == (1 if warm else 0)
    network_module._KERNEL_CACHE.clear()


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("bad, message", [
    (CP(1, 3), "CP needs adjacent qubits"),
    (CP(3, 4), "qubit 4 outside 1..3"),
    (U1(4, 0.1, 0.2, 0.3, 0.4), "qubit 4 outside 1..3"),
    (Rz(0, 0.5), "qubit 0 outside 1..3"),
])
def test_bad_qubits_raise_on_every_call(bad, message, warm):
    # a circuit that fails the compile's checks raises CompileError on
    # every call, and no failed compile is cached
    layout = LogicalLayout(3)
    spec = AnyonSpec.fermionic(2.1)
    good = [U1(1, 0.1, 0.2, 0.3, 0.4), CP(1, 2), Rx(3, 0.6)]
    network_module._KERNEL_CACHE.clear()
    if warm:
        logical_unitary(spec, layout, good)
    for _call in range(3):
        with pytest.raises(CompileError, match=message):
            logical_unitary(spec, layout, good + [bad])
    assert circuit_plan_keys() == ([((1,), (1, 2), (3,))] if warm else [])
    network_module._KERNEL_CACHE.clear()


def test_qubits_that_are_not_ints_meet_the_compile_checks_on_every_call():
    # 1.0 == 1 would find the plan of an int circuit: a float qubit still
    # raises as compile_circuit does, cold or warm, while an int-like
    # numpy qubit runs like its int
    layout = LogicalLayout(2)
    spec = AnyonSpec.bosonic(0.4)
    network_module._KERNEL_CACHE.clear()
    for warm in (False, True):
        for qubit, error in ((1.0, TypeError), (1.5, TypeError), (7.0, CompileError)):
            with pytest.raises(error):
                logical_unitary(spec, layout, [U1(qubit, 0.1, 0.2, 0.3, 0.4), CP(1, 2)])
            with pytest.raises(error):
                compile_circuit(layout, [U1(qubit, 0.1, 0.2, 0.3, 0.4), CP(1, 2)])
        want = logical_unitary(spec, layout, [U1(1, 0.1, 0.2, 0.3, 0.4), CP(1, 2)])
    got = logical_unitary(spec, layout, [U1(np.int64(1), 0.1, 0.2, 0.3, 0.4),
                                         CP(np.int64(1), np.int64(2))])
    assert got.tobytes() == want.tobytes()
    network_module._KERNEL_CACHE.clear()


def test_warm_logical_unitary_builds_no_network(monkeypatch):
    # once a signature is compiled, a call with fresh angles builds no
    # network and no element, and gives the bits of a cold call
    rng = np.random.default_rng(21)
    layout = LogicalLayout(3)
    spec = AnyonSpec.bosonic(1.9)

    def gates():
        return [U1(q, *euler_zxz(haar_unitary(rng))) for q in range(1, 4)] \
            + [CP(1, 2), Rz(2, rng.normal()), Rx(3, rng.normal()), CP(2, 3)]

    network_module._KERNEL_CACHE.clear()
    logical_unitary(spec, layout, gates())
    circuits = [gates() for _ in range(4)]
    cold = []
    for circuit in circuits:
        network_module._KERNEL_CACHE.clear()
        cold.append(logical_unitary(spec, layout, circuit))
    logical_unitary(spec, layout, gates())

    def no_network(self):
        raise AssertionError("network built")

    monkeypatch.setattr(Network, "__post_init__", no_network)
    monkeypatch.setattr(PhaseShifter, "__post_init__", no_network)
    monkeypatch.setattr(BeamSplitter, "__post_init__", no_network)
    for circuit, want in zip(circuits, cold):
        assert logical_unitary(spec, layout, circuit).tobytes() == want.tobytes()
    network_module._KERNEL_CACHE.clear()
