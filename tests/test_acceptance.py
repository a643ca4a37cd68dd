"""Acceptance criteria: exact identities and oracle equivalences.

Each test prints one pass/fail line; run with ``pytest -s`` to see them.
Every tolerance is stated inline and comes from the library's contracts.
"""

import cmath
import io
import itertools
import json
import math
from contextlib import redirect_stdout

import numpy as np

from anyonlin import AnyonSpec, BeamSplitter, CP, LogicalLayout, Network, \
    U1, build_braiding_network, closure_defect, \
    closure_defect_coefficient, enumerate_sector, evolve, propagate_algebraic, \
    su2_generators
from anyonlin.cli import main as cli_main
from anyonlin.coherent import Truncation, Type1, Type2, \
    cat_closed_form, coherence_function, coherent_state, kerr_interconvert, \
    mirror_cat, two_mode_family_state
from anyonlin.dualrail import auxiliary_occupations, decode, euler_zxz, \
    logical_unitary, run_circuit
from anyonlin.fock import StateVector, apply_create, vacuum_state
from anyonlin.operators import quartic_term
from anyonlin.operators import creation_matrix as _cre
from anyonlin.operators import annihilation_matrix as _ann

from conftest import PHI_GRID, PHI_GRID_SU2, both_classes, haar_unitary, phase_align


def report(criterion, worst, tolerance):
    ok = worst < tolerance
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} "
          f"(worst {worst:.3e}, tolerance {tolerance:.0e})")
    assert ok, f"{criterion}: worst deviation {worst:.3e} exceeds {tolerance:.0e}"


def balanced_hom_output(phi):
    sector = enumerate_sector(2, 2, AnyonSpec.bosonic(phi))
    state = StateVector.basis_state(sector, (1, 1))
    return evolve(Network(2, (BeamSplitter(1, 2, math.pi / 4),)), state)


def test_c01_standard_hong_ou_mandel():
    out = balanced_hom_output(0.0)
    worst = max(abs(out.amplitude((2, 0)) - 1j / math.sqrt(2)),
                abs(out.amplitude((1, 1))),
                abs(out.amplitude((0, 2)) - 1j / math.sqrt(2)))
    report("C01 standard two-particle interference", worst, 1e-10)


def test_c02_anyonic_hong_ou_mandel():
    worst_amp = 0.0
    worst_coincidence = 0.0
    for phi in (math.pi / 5, math.pi / 2, math.pi, 7 * math.pi / 4):
        out = balanced_hom_output(phi)
        worst_amp = max(worst_amp,
                        abs(out.amplitude((2, 0)) - 1j * cmath.exp(1j * phi) / math.sqrt(2)),
                        abs(out.amplitude((0, 2)) - 1j / math.sqrt(2)))
        worst_coincidence = max(worst_coincidence, abs(out.amplitude((1, 1))))
    report("C02 anyonic interference amplitudes", worst_amp, 1e-10)
    report("C02 coincidence suppression", worst_coincidence, 1e-12)


def test_c03_fermionic_anyon_exclusion():
    worst = 0.0
    for phi in PHI_GRID:
        sector = enumerate_sector(2, 2, AnyonSpec.fermionic(phi))
        state = StateVector.basis_state(sector, (1, 1))
        for theta in (math.pi / 7, math.pi / 4, math.pi / 2):
            out = evolve(Network(2, (BeamSplitter(1, 2, theta),)), state)
            worst = max(worst, abs(out.amplitude((1, 1)) - 1.0),
                        abs(out.norm() - 1.0))
    report("C03 fermionic-anyon exclusion", worst, 1e-12)


def test_c04_aharonov_bohm_phases():
    worst = 0.0
    for theta in (math.pi / 7, math.pi / 4, 1.0):
        net = Network(3, (BeamSplitter(1, 3, theta),))
        for phi in PHI_GRID:
            for spec, shift in ((AnyonSpec.bosonic(phi), 0.0),
                                (AnyonSpec.fermionic(phi), math.pi)):
                for n in (0, 1):
                    sector = enumerate_sector(3, 1 + n, spec)
                    out = evolve(net, StateVector.basis_state(sector, (1, n, 0)))
                    expected = {
                        (1, n, 0): math.cos(theta),
                        (0, n, 1): 1j * cmath.exp(-1j * n * (phi + shift)) * math.sin(theta),
                    }
                    for occ, amp in expected.items():
                        worst = max(worst, abs(out.amplitude(occ) - amp))
    report("C04 lattice Aharonov-Bohm phases", worst, 1e-10)


def test_c05_braiding_network_eigenphases():
    braid = build_braiding_network()
    worst = 0.0
    for phi in PHI_GRID:
        for spec in both_classes(phi):
            one = enumerate_sector(3, 1, spec)
            for occ in one.basis:
                out = evolve(braid, StateVector.basis_state(one, occ))
                worst = max(worst, abs(out.amplitude(occ) - 1.0))
            two = enumerate_sector(3, 2, spec)
            for occ, phase in (((0, 1, 1), 1.0),
                               ((1, 0, 1), cmath.exp(-1j * phi)),
                               ((1, 1, 0), cmath.exp(1j * phi))):
                out = evolve(braid, StateVector.basis_state(two, occ))
                worst = max(worst, abs(out.amplitude(occ) - phase),
                            abs(out.norm() - 1.0))
            three = enumerate_sector(3, 3, spec)
            out = evolve(braid, StateVector.basis_state(three, (1, 1, 1)))
            worst = max(worst, abs(out.amplitude((1, 1, 1)) - 1.0))
    report("C05 braiding-network eigenphases", worst, 1e-10)


def _reshuffle(mat):
    r = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    r[2 * a + c, 2 * b + d] = mat[2 * a + b, 2 * c + d]
    return r


def test_c06_controlled_phase_gate():
    layout = LogicalLayout(2)
    worst = 0.0
    for phi in PHI_GRID:
        for spec in both_classes(phi):
            got = logical_unitary(spec, layout, [CP(1, 2)])
            target = np.diag([1.0, 1.0, 1.0, cmath.exp(1j * phi)])
            worst = max(worst, float(np.max(np.abs(got - target))))
            for bits in ("00", "01", "10", "11"):
                final = run_circuit(spec, layout, [CP(1, 2)], bits)
                worst = max(worst, abs(auxiliary_occupations(layout, final)[0] - 1.0))
                worst = max(worst, abs(decode(layout, final)[1]))
    report("C06 controlled-phase logical matrix and auxiliary return", worst, 1e-10)
    entangling = logical_unitary(AnyonSpec.bosonic(math.pi / 2), layout, [CP(1, 2)])
    second_singular = np.linalg.svd(_reshuffle(entangling), compute_uv=False)[1]
    report("C06 entangling at phi = pi/2 (reshuffle rank > 1)", 1e-6 / second_singular, 1.0)


def test_c07_single_qubit_compilation():
    layout = LogicalLayout(1)
    spec = AnyonSpec.bosonic(1.3)
    rng = np.random.default_rng(20240917)
    worst = 0.0
    for _ in range(100):
        target = haar_unitary(rng)
        got = logical_unitary(spec, layout, [U1(1, *euler_zxz(target))])
        worst = max(worst, float(np.max(np.abs(phase_align(target, got) - target))))
    report("C07 hundred random single-qubit targets", worst, 1e-9)


def test_c08_algebraic_vs_spectral_evolution():
    theta = 0.93
    worst = 0.0
    cases = 0
    for m in (2, 3, 4):
        for lo in range(1, m + 1):
            for hi in range(lo + 1, m + 1):
                net = Network(m, (BeamSplitter(lo, hi, theta),))
                span = range(lo, hi + 1)
                for length in (1, 2, 3):
                    for mono in itertools.product(span, repeat=length):
                        for phi in PHI_GRID:
                            for spec in both_classes(phi):
                                if spec.is_fermionic and length > m:
                                    continue
                                alg = propagate_algebraic(spec, net, mono)
                                state = vacuum_state(m, spec)
                                for mode in reversed(mono):
                                    state = apply_create(state, mode)
                                cases += 1
                                if state.norm() == 0.0:
                                    worst = max(worst, alg.norm())
                                    continue
                                ref = evolve(net, state)
                                keys = set(alg.amps) | set(ref.amps)
                                worst = max(worst, max(abs(alg.amplitude(k) - ref.amplitude(k))
                                                       for k in keys))
    report(f"C08 propagation identities vs block kernel ({cases} monomials)",
           worst, 1e-10)


def test_c09_su2_closure_and_commutator_defect():
    worst_su2 = 0.0
    for phi in PHI_GRID_SU2:
        for spec in both_classes(phi):
            for m in (2, 3, 4):
                for n in range(0, 4):
                    if spec.is_fermionic and n > m:
                        continue
                    sector = enumerate_sector(m, n, spec)
                    pairs = [(1, 2)] if m == 2 else [(1, 2), (1, m), (2, m)]
                    for i, j in pairs:
                        j1, j2, j3 = su2_generators(sector, i, j)
                        for a, b, c in ((j1, j2, j3), (j2, j3, j1), (j3, j1, j2)):
                            worst_su2 = max(worst_su2,
                                            float(np.max(np.abs(a @ b - b @ a - 1j * c))))
    report("C09 mode-pair SU(2) closure", worst_su2, 1e-12)

    worst_defect = 0.0
    patterns = [(1, 2, 3, 4), (1, 3, 2, 4), (1, 2, 2, 3), (2, 3, 3, 1), (1, 4, 2, 3)]
    for phi in (0.0, math.pi / 2, 4 * math.pi / 3):
        for spec in both_classes(phi):
            sector = enumerate_sector(4, 2, spec)
            for idx in patterns:
                lhs = closure_defect(sector, *idx)
                rhs = closure_defect_coefficient(spec, *idx) * quartic_term(sector, *idx)
                worst_defect = max(worst_defect, float(np.max(np.abs(lhs - rhs))))
    report("C09 quartic commutator defect", worst_defect, 1e-12)


def test_c10_jordan_wigner_consistency():
    from anyonlin import jw_image
    worst = 0.0
    for phi in PHI_GRID:
        for spec in both_classes(phi):
            for m in (2, 3):
                for n in range(0, 4):
                    if n > m and spec.is_fermionic:
                        continue
                    sector = enumerate_sector(m, n, spec)
                    for i in range(1, m + 1):
                        for dagger, direct in ((True, _cre(sector, i)),
                                               (False, _ann(sector, i))):
                            diff = jw_image(sector, i, dagger) - direct
                            if diff.size:
                                worst = max(worst, float(np.max(np.abs(diff))))
    report("C10 Jordan-Wigner image equality", worst, 1e-12)


def test_c11_deformed_binomial_identities():
    from anyonlin.coherent import deformed_binomial_coeffs, deformed_binomial_prefactor
    a, b = 0.8, 0.5 - 0.4j
    worst = 0.0
    for phi in PHI_GRID:
        spec = AnyonSpec.bosonic(phi)
        for n in range(0, 7):
            dressed_first = vacuum_state(2, spec)
            plain_order = vacuum_state(2, spec)
            for k in reversed(range(n)):
                dressed_first = (cmath.exp(1j * k * phi) * a) * apply_create(dressed_first, 1) \
                    + b * apply_create(dressed_first, 2)
                plain_order = a * apply_create(plain_order, 1) \
                    + (cmath.exp(-1j * k * phi) * b) * apply_create(plain_order, 2)
            coeffs = deformed_binomial_coeffs(n, phi)
            expansion = None
            for l in range(n + 1):
                term = vacuum_state(2, spec)
                for _ in range(n - l):
                    term = b * apply_create(term, 2)
                for _ in range(l):
                    term = a * apply_create(term, 1)
                term = coeffs[l] * term
                expansion = term if expansion is None else expansion + term
            keys = set(dressed_first.amps) | set(expansion.amps)
            worst = max(worst, max((abs(dressed_first.amplitude(k) - expansion.amplitude(k))
                                    for k in keys), default=0.0))
            scaled = deformed_binomial_prefactor(n, phi) * dressed_first
            keys = set(plain_order.amps) | set(scaled.amps)
            worst = max(worst, max((abs(plain_order.amplitude(k) - scaled.amplitude(k))
                                    for k in keys), default=0.0))
    report("C11 deformed binomial identities (n <= 6)", worst, 1e-12)


def test_c12_coherent_state_suite():
    tr = Truncation(40)
    worst_c = 0.0
    for g in (0.3, 1.0, 0.6 + 0.5j, 0.9j):
        state = coherent_state(g, tr)
        for n in (1, 2, 3, 4):
            worst_c = max(worst_c, abs(coherence_function(state, 1, n) - 1.0))
    report("C12 full coherence of displaced vacua", worst_c, 1e-8)

    worst_olap = 0.0
    for g, h in [(0.5, 0.2 + 0.4j), (1.0, -0.3j), (0.8j, 0.6)]:
        overlap = coherent_state(g, tr).overlap(coherent_state(h, tr))
        worst_olap = max(worst_olap, abs(abs(overlap) ** 2 - math.exp(-abs(g - h) ** 2)))
    report("C12 coherent overlap modulus", worst_olap, 1e-8)

    worst_kerr = 0.0
    for phi in (math.pi / 2, math.pi, 1.1):
        spec = AnyonSpec.bosonic(phi)
        st1 = two_mode_family_state(Type1(0.5, 0.5j), spec, tr)
        st2 = two_mode_family_state(Type2(0.5, 0.5j), spec, tr)
        worst_kerr = max(worst_kerr, 1.0 - kerr_interconvert(st1, spec).fidelity(st2))
    report("C12 Kerr interconversion fidelity deficit", worst_kerr, 1e-8)

    spec_pi = AnyonSpec.bosonic(math.pi)
    worst_cat = 0.0
    for u in (1.0, 0.7 + 0.3j):
        cat = mirror_cat(u, spec_pi, tr)
        worst_cat = max(worst_cat, 1.0 - cat.fidelity(cat_closed_form(1j * u, tr, mode=2)))
    report("C12 mirror cat fidelity deficit", worst_cat, 1e-8)


def test_c13_cli_byte_determinism():
    commands = [["hom", "--phi", "0"],
                ["braid", "--phi", "1.0", "--input", "|1,1,0>"],
                ["cat", "--u", "1"]]
    worst = 0.0
    for argv in commands:
        outputs = []
        for _ in range(2):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli_main(argv)
            assert code == 0
            outputs.append(buf.getvalue().encode())
        worst = max(worst, 0.0 if outputs[0] == outputs[1] else 1.0)
        json.loads(outputs[0])
    report("C13 deterministic CLI bytes across runs", worst, 0.5)
