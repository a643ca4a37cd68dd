"""Dual-rail encoding, gate compilation, and logical-circuit simulation."""

import cmath
import math

import numpy as np
import pytest

from anyonlin import AnyonSpec, CP, CompileError, LogicalLayout, Rx, Rz, U1, \
    decode, encode, evolve
from anyonlin.dualrail import auxiliary_occupations, compile_circuit, compile_cp, \
    compile_gate, compile_single_qubit, euler_zxz, logical_unitary, run_circuit, \
    simulate_circuit
from anyonlin import network as network_module
from anyonlin.fock import StateVector
from anyonlin.network import BeamSplitter, Network, PhaseShifter, Window, build_braiding_network

from conftest import PHI_GRID, both_classes, dense_evolve, haar_unitary, phase_align


# dense 2x2 oracles, independent of the compiler's conventions
def rz_mat(beta):
    return np.diag([cmath.exp(-1j * beta / 2), cmath.exp(1j * beta / 2)])


def rx_mat(gamma):
    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def embed(gate, qubit, n):
    out = np.eye(1)
    for q in range(1, n + 1):
        out = np.kron(out, gate if q == qubit else np.eye(2))
    return out


def cp_mat(phi):
    return np.diag([1.0, 1.0, 1.0, cmath.exp(1j * phi)])


def cp_embed(phi, a, b, n):
    """CP(phi) between qubits a and b of n; qubit 1 is the leading bit."""
    both = [(idx >> (n - a)) & 1 and (idx >> (n - b)) & 1 for idx in range(2 ** n)]
    return np.diag([cmath.exp(1j * phi) if hit else 1.0 for hit in both])


def circuit_oracle(gates, phi, n):
    """Dense 2^n matrix of the logical circuit."""
    total = np.eye(2 ** n, dtype=complex)
    for gate in gates:
        if isinstance(gate, Rz):
            factor = embed(rz_mat(gate.beta), gate.qubit, n)
        elif isinstance(gate, Rx):
            factor = embed(rx_mat(gate.gamma), gate.qubit, n)
        elif isinstance(gate, U1):
            u = cmath.exp(1j * gate.alpha) * rz_mat(gate.beta) @ rx_mat(gate.gamma) \
                @ rz_mat(gate.delta)
            factor = embed(u, gate.qubit, n)
        elif isinstance(gate, CP):
            factor = cp_embed(phi, gate.qubit_a, gate.qubit_b, n)
        total = factor @ total
    return total


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
    net = compile_single_qubit(layout, 1, *euler_zxz(np.array([[0, 1], [1, 0]], dtype=complex)))
    bs = [el for el in net.elements if isinstance(el, BeamSplitter)]
    assert len(bs) == 1 and abs(abs(bs[0].theta) - math.pi / 2) < 1e-12
    got = logical_unitary(spec, layout, [U1(1, *euler_zxz(np.array([[0, 1], [1, 0]], dtype=complex)))])
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
    with pytest.raises(CompileError):
        compile_cp(layout, 1, 3)
    with pytest.raises(CompileError):
        compile_cp(layout, 2, 1)
    with pytest.raises(CompileError):
        compile_cp(layout, 3, 4)


def test_empty_circuit_round_trips():
    spec = AnyonSpec.bosonic(0.9)
    layout = LogicalLayout(2)
    amps = simulate_circuit(spec, layout, [], "10")
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
    got = simulate_circuit(spec, layout, gates, "00")
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
    (window,) = compile_cp(layout, 2, 3).elements
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
    per_gate = tuple(el for gate in gates for el in compile_gate(layout, gate).elements)
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
    monkeypatch.setattr(network_module, "_build_element_unitary", no_dense)
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
    # circuit itself goes through dualrail's own binding
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
    # 532 rows of that beam splitter's bosonic record hold exact zeros
    shapes = []
    real_products = network_module._block_products

    def spy(part, mats, families):
        shapes.append(part.shape)
        return real_products(part, mats, families)

    monkeypatch.setattr(network_module, "_block_products", spy)
    layout = LogicalLayout(3)
    gates = [U1(q, 0.1 * q, 0.2, 0.3, 0.4) for q in range(1, 4)] + [CP(1, 2), CP(2, 3)]
    record = network_module._blocks(layout.m, layout.n_particles, False, 1, 2, False)
    assert len(record.rows) == 540
    for spec in both_classes(1.1):
        shapes.clear()
        logical_unitary(spec, layout, gates)
        assert shapes[0] == (8, 8)


def test_logical_unitary_reads_the_code_rows_once_per_shape(monkeypatch):
    layout = LogicalLayout(2)
    logical_unitary(AnyonSpec.bosonic(0.3), layout, [CP(1, 2)])

    def no_occupation(*args):
        raise AssertionError("code-space rows rebuilt")

    monkeypatch.setattr(LogicalLayout, "code_occupation", no_occupation)
    for phi in (0.3, 2.9):
        got = logical_unitary(AnyonSpec.bosonic(phi), layout, [CP(1, 2)])
        assert np.max(np.abs(got - cp_mat(phi))) <= 1e-12
