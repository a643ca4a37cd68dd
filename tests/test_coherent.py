"""Displacements, coherence functions, two-mode families, Kerr, cats."""

import cmath
import math
import warnings

import numpy as np
import pytest

from anyonlin import AnyonSpec, BeamSplitter, Network, PhaseShifter
from anyonlin.coherent import DegenerateStateError, ExactGreater, ExactLess, \
    NotClosedUnderLinearOpticsError, SingleMode, TruncatedState, Truncation, \
    TruncationRiskWarning, Type1, Type2, cat_closed_form, coherence_function, \
    coherent_amplitudes, coherent_state, deformed_binomial_coeffs, \
    deformed_binomial_prefactor, displacement, displacement_product_factor, \
    evolve_family, evolve_truncated, generalized_coherent_state, kerr_interconvert, \
    mirror_cat, mirror_network, two_mode_family_state
from anyonlin.fock import StateVector, apply_create, enumerate_sector, vacuum_state
from anyonlin.network import evolve, single_particle_matrix

TR = Truncation(40)


def ladder(n_max):
    a = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(1, n_max + 1):
        a[n - 1, n] = math.sqrt(n)
    return a


# ---------------------------------------------------------------- displacement

def test_displacement_zero_is_identity():
    assert np.max(np.abs(displacement(0.0, TR) - np.eye(41))) < 1e-14


def test_displacement_is_unitary_and_inverse_is_adjoint():
    g = 0.6 - 0.3j
    d = displacement(g, TR)
    assert np.max(np.abs(d.conj().T @ d - np.eye(41))) < 1e-12
    assert np.max(np.abs(displacement(-g, TR) - d.conj().T)) < 1e-12


def test_displaced_vacuum_matches_closed_form_amplitudes():
    for g in (0.5, 0.9j, 0.7 + 0.2j):
        d = displacement(g, TR)
        assert np.max(np.abs(d[:, 0] - coherent_amplitudes(g, 40))) < 1e-10


def test_displacement_identity_on_interior_block():
    # D(-g) b D(g) = b + g away from the cutoff boundary
    g = 0.8
    a = ladder(40)
    conj = displacement(-g, TR) @ a @ displacement(g, TR)
    cut = int(40 - abs(g) ** 2 - 5 * math.sqrt(40))
    dev = np.max(np.abs((conj - (a + g * np.eye(41)))[:cut, :cut]))
    assert dev < 1e-10


def test_displacement_warns_when_cutoff_is_tight():
    with pytest.warns(TruncationRiskWarning):
        displacement(4.0, Truncation(8))


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(0)


# ---------------------------------------------------------------- coherence

def test_coherent_states_have_full_coherence():
    for g in (0.3, 1.0, 0.7 + 0.2j, 1j):
        state = coherent_state(g, TR)
        for n in (1, 2, 3, 4):
            assert abs(coherence_function(state, 1, n) - 1.0) < 1e-8


def test_fock_state_second_order_coherence_vanishes():
    one = TruncatedState(np.eye(41)[1])
    assert coherence_function(one, 1, 2) == 0.0


def test_vacuum_coherence_is_degenerate():
    vac = TruncatedState(np.eye(41)[0])
    with pytest.raises(DegenerateStateError):
        coherence_function(vac, 1, 1)


def test_generalized_coherent_state_keeps_full_coherence():
    rng = np.random.default_rng(11)
    for g in (0.9, 0.4 + 0.6j):
        state = generalized_coherent_state(g, rng.uniform(0, 2 * math.pi, size=41), TR)
        for n in (1, 2):
            assert abs(coherence_function(state, 1, n) - 1.0) < 1e-8


def test_generalized_coherent_state_zero_phases_is_plain():
    st = generalized_coherent_state(0.8, [], TR)
    ref = coherent_state(0.8, TR)
    assert abs(1.0 - st.fidelity(ref)) < 1e-14


def test_mirror_phase_profile_as_generalized_coherent_state():
    # rho_n = pi n (n - 1) / 2 is exactly the mirror-output profile at phi = pi
    u = 0.9
    rho = [math.pi * n * (n - 1) / 2 for n in range(41)]
    st = generalized_coherent_state(u, rho, TR)
    profile = two_mode_family_state(Type1(0.0, u), AnyonSpec.bosonic(math.pi), TR)
    assert abs(1.0 - st.fidelity(TruncatedState(profile.amps[0, :]))) < 1e-12


def test_coherence_of_cat_state_against_direct_moments():
    spec = AnyonSpec.bosonic(math.pi)
    cat = mirror_cat(1.0, spec, TR)
    assert abs(coherence_function(cat, 2, 1) - 1.0) < 1e-8
    # brute-force moment on the two-branch amplitudes
    probs = np.abs(cat.amps) ** 2
    occ = np.arange(41)[None, :]
    mean = (probs * occ).sum()
    second = (probs * occ * np.maximum(occ - 1, 0)).sum()
    assert abs(coherence_function(cat, 2, 2) - second / mean ** 2) < 1e-12


# ------------------------------------------------------- displacement algebra

def test_product_factor_trivial_cases():
    assert abs(displacement_product_factor(0.7, 0.0, TR) - 1.0) < 1e-12
    lam = displacement_product_factor(0.5, 0.3, TR)
    assert abs(lam.imag) < 1e-12 and lam.real > 0.9


def test_product_factor_measures_half_exponent_convention():
    # the matrices obey D(g) D(h) = e^{(g h* - h g*)/2} D(g + h); the
    # factor is measured, never assumed
    tr = Truncation(60)
    g, h = 1.0, 1.0j
    lam = displacement_product_factor(g, h, tr)
    half = cmath.exp((g * h.conjugate() - h * g.conjugate()) / 2)
    full = cmath.exp(g * h.conjugate() - h * g.conjugate())
    assert abs(lam - half) < 1e-10
    assert abs(lam - full) > 0.5
    # residual of the scaled identity on the interior block
    prod = displacement(g, tr) @ displacement(h, tr)
    ref = displacement(g + h, tr)
    assert np.max(np.abs((prod - lam * ref)[:31, :31])) < 1e-10


def test_overlap_modulus_of_coherent_states():
    for g, h in [(0.5, 0.2 + 0.4j), (1.0, -0.3j), (0.9j, 0.1)]:
        overlap = coherent_state(g, TR).overlap(coherent_state(h, TR))
        assert abs(abs(overlap) ** 2 - math.exp(-abs(g - h) ** 2)) < 1e-8


def test_annihilation_eigenstate_residual_bound():
    a = ladder(40)
    for g in (0.4, 1.0, 0.8j):
        vec = coherent_state(g, TR).amps
        residual = np.linalg.norm(a @ vec - g * vec)
        assert residual < 10 * math.exp(-40 / 4)
        assert residual < 1e-8


def test_quadrature_commutator_on_interior_block():
    # q = (b† + b)/2, p = (b† - b)/(2i): [q, p] = -i/2 on the interior;
    # the magnitude 1/2 is the meaningful statement (not 1), and the
    # sign follows from these operator definitions
    a = ladder(40)
    q = (a.conj().T + a) / 2
    p = (a.conj().T - a) / (2j)
    comm = q @ p - p @ q
    interior = comm[:39, :39]
    assert np.max(np.abs(interior - (-0.5j) * np.eye(39))) < 1e-12


def test_uncertainty_product_is_minimal_on_coherent_states():
    a = ladder(40)
    q = (a.conj().T + a) / 2
    p = (a.conj().T - a) / (2j)
    for g in (0.3, 0.8 + 0.1j):
        vec = coherent_state(g, TR).amps
        var_q = np.vdot(vec, q @ q @ vec).real - np.vdot(vec, q @ vec).real ** 2
        var_p = np.vdot(vec, p @ p @ vec).real - np.vdot(vec, p @ vec).real ** 2
        assert abs(math.sqrt(var_q * var_p) - 0.25) < 1e-8


# ------------------------------------------------------------------- families

def test_families_coincide_at_phi_zero():
    spec = AnyonSpec.bosonic(0.0)
    states = [two_mode_family_state(fam(0.4, 0.3j), spec, TR)
              for fam in (ExactLess, ExactGreater, Type1, Type2)]
    for other in states[1:]:
        assert abs(1.0 - states[0].fidelity(other)) < 1e-14


def test_type1_with_vacuum_second_mode_is_single_mode():
    spec = AnyonSpec.bosonic(2.0)
    t1 = two_mode_family_state(Type1(0.7, 0.0), spec, TR)
    single = two_mode_family_state(SingleMode(0.7, 1), spec, TR)
    assert abs(1.0 - t1.fidelity(single)) < 1e-14
    t2 = two_mode_family_state(Type2(0.0, 0.7), spec, TR)
    single2 = two_mode_family_state(SingleMode(0.7, 2), spec, TR)
    assert abs(1.0 - t2.fidelity(single2)) < 1e-14


def test_families_reject_fermions():
    with pytest.raises(ValueError):
        two_mode_family_state(Type1(0.1, 0.1), AnyonSpec.fermionic(1.0), TR)


def family_product_oracle(factor_fn, n_shells, m_spec, n_max):
    """sum_n (1/n!) prod_{k=0}^{n-1} factor_k |0>, expanded in Fock space.

    factor_fn(k) returns the pair (coefficient on mode 1, coefficient on
    mode 2) of the k-th creation factor; factors apply rightmost first.
    """
    total = {}
    for n in range(n_shells + 1):
        st = vacuum_state(2, m_spec)
        for k in reversed(range(n)):
            c1, c2 = factor_fn(k)
            st = c1 * apply_create(st, 1) + c2 * apply_create(st, 2)
        for occ, amp in st.amps.items():
            total[occ] = total.get(occ, 0.0) + amp / math.factorial(n)
    arr = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for (l, k), amp in total.items():
        if l <= n_max and k <= n_max:
            arr[l, k] = amp
    return arr


def test_type2_amplitudes_match_product_expansion():
    phi = math.pi / 2
    spec = AnyonSpec.bosonic(phi)
    u = v = 0.5
    n_max = 12
    direct = two_mode_family_state(Type2(u, v), spec, Truncation(n_max))
    oracle = family_product_oracle(
        lambda k: (cmath.exp(1j * k * phi) * u, v), n_max, spec, n_max)
    # compare shell by shell up to the expansion order
    direct_arr = direct.amps / direct.amps[0, 0] * oracle[0, 0]
    for l in range(n_max + 1):
        for k in range(n_max + 1 - l):
            assert abs(direct_arr[l, k] - oracle[l, k]) < 1e-10, (l, k)


def test_type1_amplitudes_match_product_expansion():
    phi = 2 * math.pi / 3
    spec = AnyonSpec.bosonic(phi)
    u, v = 0.4, 0.6j
    n_max = 10
    direct = two_mode_family_state(Type1(u, v), spec, Truncation(n_max))
    oracle = family_product_oracle(
        lambda k: (u, cmath.exp(-1j * k * phi) * v), n_max, spec, n_max)
    direct_arr = direct.amps / direct.amps[0, 0] * oracle[0, 0]
    for l in range(n_max + 1):
        for k in range(n_max + 1 - l):
            assert abs(direct_arr[l, k] - oracle[l, k]) < 1e-10, (l, k)


def test_exact_families_match_ordered_displacement_products():
    # D1(u) D2(v) |0> and D2(v) D1(u) |0> expanded against the stated
    # double sums; the anyonic D2 is the standard one dressed by the
    # string phase of the mode-1 occupation
    phi = 0.9
    spec = AnyonSpec.bosonic(phi)
    n_max = 18
    tr = Truncation(n_max)
    u, v = 0.5, 0.4j
    d = displacement(u, tr)
    less = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    greater = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    vac = np.zeros(n_max + 1, dtype=complex)
    vac[0] = 1.0
    # mode-2 displacement restricted to mode-1 occupation l displaces by
    # v e^{-i phi l}: build both orders from that block action
    for l in range(n_max + 1):
        less[l, :] = d[l, 0] * (displacement(v, tr) @ vac)  # D2 first, no dressing
        greater[l, :] = d[l, 0] * (displacement(v * cmath.exp(-1j * phi * l), tr) @ vac)
    got_less = two_mode_family_state(ExactLess(u, v), spec, tr)
    got_greater = two_mode_family_state(ExactGreater(u, v), spec, tr)
    assert abs(1.0 - got_less.fidelity(TruncatedState(less))) < 1e-10
    assert abs(1.0 - got_greater.fidelity(TruncatedState(greater))) < 1e-10


# ------------------------------------------------------------------ evolution

def test_phase_shifter_rotates_family_amplitude():
    spec = AnyonSpec.bosonic(1.1)
    net = Network(2, (PhaseShifter(1, 0.8),))
    fam = evolve_family(Type1(0.5, 0.2), net, spec)
    assert isinstance(fam, Type1)
    assert abs(fam.u - 0.5 * cmath.exp(0.8j)) < 1e-14
    assert abs(fam.v - 0.2) < 1e-14


def test_beam_splitter_splits_single_mode_state():
    spec = AnyonSpec.bosonic(2.2)
    theta = 0.7
    fam = evolve_family(SingleMode(0.9, 1), Network(2, (BeamSplitter(1, 2, theta),)), spec)
    assert isinstance(fam, Type1)
    assert abs(fam.u - 0.9 * math.cos(theta)) < 1e-14
    assert abs(fam.v - 0.9 * 1j * math.sin(theta)) < 1e-14
    fam2 = evolve_family(SingleMode(0.9, 2), Network(2, (BeamSplitter(1, 2, theta),)), spec)
    assert isinstance(fam2, Type2)


def test_beam_splitter_group_property_on_families():
    spec = AnyonSpec.bosonic(0.6)
    one = evolve_family(Type2(0.4, 0.1j), Network(2, (BeamSplitter(1, 2, 0.5),)), spec)
    two = evolve_family(one, Network(2, (BeamSplitter(1, 2, 0.3),)), spec)
    direct = evolve_family(Type2(0.4, 0.1j), Network(2, (BeamSplitter(1, 2, 0.8),)), spec)
    assert abs(two.u - direct.u) < 1e-14
    assert abs(two.v - direct.v) < 1e-14


def test_family_evolution_matches_brute_force():
    net = Network(2, (BeamSplitter(1, 2, 0.6), PhaseShifter(1, 0.9),
                      BeamSplitter(1, 2, -0.3)))
    for phi in (0.0, math.pi / 2, math.pi, 1.2):
        spec = AnyonSpec.bosonic(phi)
        for fam in (Type1(0.5, 0.3j), Type2(-0.2, 0.6), SingleMode(0.8, 1)):
            start = two_mode_family_state(fam, spec, TR)
            brute = evolve_truncated(start, net, spec)
            closed = two_mode_family_state(evolve_family(fam, net, spec), spec, TR)
            assert abs(1.0 - brute.normalized().fidelity(closed)) < 1e-8


def shellwise_oracle(state, network, spec):
    """Per-shell StateVector route through ``evolve``: (amplitudes, lost probability)."""
    n_max = state.n_max
    out = np.zeros_like(state.amps)
    lost = 0.0
    for n in range(2 * n_max + 1):
        entries = {(l, n - l): state.amps[l, n - l]
                   for l in range(max(0, n - n_max), min(n, n_max) + 1)
                   if state.amps[l, n - l] != 0.0}
        if not entries:
            continue
        evolved = evolve(network, StateVector(enumerate_sector(2, n, spec), entries))
        for (l, k), amp in evolved.amps.items():
            if l <= n_max and k <= n_max:
                out[l, k] += amp
            else:
                lost += abs(amp) ** 2
    return out, lost


def test_evolve_truncated_is_byte_identical_to_shellwise_evolve():
    networks = (mirror_network(),
                Network(2, (PhaseShifter(1, 0.9), BeamSplitter(1, 2, 0.6),
                            BeamSplitter(2, 1, -0.35))))
    families = (SingleMode(0.8, 1), SingleMode(0.6 - 0.3j, 2),
                Type1(0.5, 0.3j), Type2(-0.2, 0.6))
    # network outside family: one network's n_max = 40 shells fill most of
    # the 256-entry unitary cache
    for n_max in (3, 8, 40):
        for phi in (0.0, 1.1, math.pi):
            spec = AnyonSpec.bosonic(phi)
            for net in networks:
                for fam in families:
                    start = two_mode_family_state(fam, spec, Truncation(n_max))
                    want, lost = shellwise_oracle(start, net, spec)
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        got = evolve_truncated(start, net, spec)
                    assert got.amps.tobytes() == want.tobytes()
                    warned = [w for w in caught if w.category is TruncationRiskWarning]
                    assert bool(warned) == (lost > 1e-12)


def test_evolve_truncated_reads_signed_zero_parts_as_positive_zero():
    # the shellwise route adds every kept amplitude into zeros
    amps = np.array([[complex(-0.6, -0.0), complex(-0.0, 0.5)],
                     [complex(0.4, -0.0), 0.3j]])
    spec = AnyonSpec.bosonic(1.1)
    for net in (Network(2, ()), Network(2, (PhaseShifter(2, 0.0),))):
        want, _ = shellwise_oracle(TruncatedState(amps), net, spec)
        got = evolve_truncated(TruncatedState(amps), net, spec)
        assert got.amps.tobytes() == want.tobytes()
        parts = got.amps.view(np.float64)
        assert not np.any((parts == 0.0) & np.signbit(parts))


def test_evolve_truncated_warns_on_probability_past_cutoff():
    spec = AnyonSpec.bosonic(1.1)
    start = two_mode_family_state(Type1(0.9, 0.9), spec, Truncation(3))
    net = Network(2, (BeamSplitter(1, 2, math.pi / 4),))
    want, lost = shellwise_oracle(start, net, spec)
    assert lost > 1e-3
    with pytest.warns(TruncationRiskWarning, match="dropped probability"):
        got = evolve_truncated(start, net, spec)
    assert got.amps.tobytes() == want.tobytes()
    assert abs(1.0 - got.norm() ** 2 - lost) < 1e-12


def test_evolve_truncated_rejects_fermions():
    start = two_mode_family_state(SingleMode(0.5, 1), AnyonSpec.bosonic(1.0), Truncation(4))
    with pytest.raises(ValueError):
        evolve_truncated(start, mirror_network(), AnyonSpec.fermionic(1.0))


def test_mirror_cat_makes_no_state_vector_round_trip(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("StateVector round trip on the truncated path")

    monkeypatch.setattr(StateVector, "to_vector", refuse)
    monkeypatch.setattr(StateVector, "from_vector", refuse)
    spec = AnyonSpec.bosonic(math.pi)
    for truncation in (Truncation(12), TR):     # a fresh cutoff builds its unitaries too
        assert mirror_cat(0.7, spec, truncation).num_modes == 2


def test_exact_families_refuse_linear_optics():
    spec = AnyonSpec.bosonic(1.0)
    net = Network(2, (BeamSplitter(1, 2, 0.4),))
    for fam in (ExactLess(0.3, 0.2), ExactGreater(0.3, 0.2)):
        with pytest.raises(NotClosedUnderLinearOpticsError):
            evolve_family(fam, net, spec)


# ----------------------------------------------------------------------- Kerr

def test_kerr_at_phi_zero_is_identity():
    spec = AnyonSpec.bosonic(0.0)
    st = two_mode_family_state(Type1(0.5, 0.5j), spec, TR)
    assert np.max(np.abs(kerr_interconvert(st, spec).amps - st.amps)) < 1e-15


def test_kerr_converts_type1_to_type2():
    for phi in (math.pi, math.pi / 2, 1.8):
        spec = AnyonSpec.bosonic(phi)
        st1 = two_mode_family_state(Type1(0.5, 0.5j), spec, TR)
        st2 = two_mode_family_state(Type2(0.5, 0.5j), spec, TR)
        assert kerr_interconvert(st1, spec).fidelity(st2) >= 1 - 1e-8


def test_kerr_on_single_mode_state_shifts_number_shells_only():
    spec = AnyonSpec.bosonic(0.7)
    st = two_mode_family_state(SingleMode(0.6, 1), spec, TR)
    out = kerr_interconvert(st, spec)
    expected = st.amps[:, 0] * np.exp(1j * 0.7 * np.arange(41) * (np.arange(41) - 1) / 2)
    assert np.max(np.abs(out.amps[:, 0] - expected)) < 1e-14


# ----------------------------------------------------------------------- cats

def test_mirror_single_particle_matrix():
    u = single_particle_matrix(mirror_network())
    assert np.max(np.abs(u - np.array([[0, -1j], [1j, 0]]))) < 1e-15


def test_mirror_cat_trivial_input_is_vacuum():
    spec = AnyonSpec.bosonic(math.pi)
    cat = mirror_cat(0.0, spec, TR)
    assert abs(abs(cat.amps[0, 0]) - 1.0) < 1e-12


def test_mirror_cat_matches_two_branch_closed_form():
    spec = AnyonSpec.bosonic(math.pi)
    for u in (1.0, 0.7 + 0.3j):
        cat = mirror_cat(u, spec, TR)
        reference = cat_closed_form(1j * u, TR, mode=2)
        assert cat.fidelity(reference) >= 1 - 1e-8


def test_mirror_cat_from_mode_two_lands_on_mode_one():
    spec = AnyonSpec.bosonic(math.pi)
    v = 0.8
    cat = mirror_cat(v, spec, TR, mode=2)
    reference = cat_closed_form(-1j * v, TR, mode=1)
    assert cat.fidelity(reference) >= 1 - 1e-8
    # all weight on mode 1
    assert np.max(np.abs(cat.amps[:, 1:])) < 1e-10


def test_mirror_cat_requires_phi_pi():
    with pytest.raises(ValueError):
        mirror_cat(0.5, AnyonSpec.bosonic(1.0), TR)
    with pytest.raises(ValueError):
        mirror_cat(0.5, AnyonSpec.fermionic(math.pi), TR)


def test_cat_is_a_genuine_two_branch_superposition():
    # every shell keeps weight (the branch pair is +-u, not +-i u, so no
    # parity class cancels) yet no single coherent branch fits the state
    spec = AnyonSpec.bosonic(math.pi)
    cat = mirror_cat(1.0, spec, TR)
    assert np.min(np.abs(cat.amps[0, :6])) > 1e-3
    for branch in (1.0, -1.0, 1j, -1j):
        single = two_mode_family_state(SingleMode(branch, 2), spec, TR)
        assert cat.fidelity(single) < 0.75


# ------------------------------------------------------------------ binomials

def test_binomial_coefficients_reduce_to_standard_at_phi_zero():
    assert np.allclose(deformed_binomial_coeffs(4, 0.0), [1, 4, 6, 4, 1])


def test_binomial_small_case_structure():
    phi = 0.77
    coeffs = deformed_binomial_coeffs(2, phi)
    assert abs(coeffs[0] - 1.0) < 1e-15
    assert abs(coeffs[1] - 2.0) < 1e-15
    assert abs(coeffs[2] - cmath.exp(1j * phi)) < 1e-15


def binomial_product_state(a, b, n, phi, dressed):
    """prod_{k=0}^{n-1} (e^{i k phi} a c1† + b c2†)|0> or the A-form with
    e^{-i k phi} on the second slot; factors apply rightmost first."""
    spec = AnyonSpec.bosonic(phi)
    st = vacuum_state(2, spec)
    for k in reversed(range(n)):
        if dressed == "first":
            c1, c2 = cmath.exp(1j * k * phi) * a, b
        else:
            c1, c2 = a, cmath.exp(-1j * k * phi) * b
        st = c1 * apply_create(st, 1) + c2 * apply_create(st, 2)
    return st


def test_binomial_identity_against_operator_products():
    a, b = 0.8, 0.5 - 0.4j
    for phi in (2 * math.pi / 3, math.pi / 5):
        spec = AnyonSpec.bosonic(phi)
        for n in range(0, 7):
            product = binomial_product_state(a, b, n, phi, "first")
            coeffs = deformed_binomial_coeffs(n, phi)
            expansion = None
            for l in range(n + 1):
                st = vacuum_state(2, spec)
                for _ in range(n - l):
                    st = b * apply_create(st, 2)
                for _ in range(l):
                    st = a * apply_create(st, 1)
                term = coeffs[l] * st
                expansion = term if expansion is None else expansion + term
            keys = set(product.amps) | set(expansion.amps)
            dev = max((abs(product.amplitude(k) - expansion.amplitude(k)) for k in keys),
                      default=0.0)
            assert dev < 1e-12, (phi, n)


def test_binomial_prefactor_relates_both_orderings():
    a, b = 0.7, 0.6j
    phi = math.pi / 5
    for n in range(0, 7):
        lhs = binomial_product_state(a, b, n, phi, "second")
        rhs = deformed_binomial_prefactor(n, phi) * binomial_product_state(a, b, n, phi, "first")
        keys = set(lhs.amps) | set(rhs.amps)
        dev = max((abs(lhs.amplitude(k) - rhs.amplitude(k)) for k in keys), default=0.0)
        assert dev < 1e-12, n


# ----------------------------------------------------------------- JSON specs

def test_family_json_round_trip():
    from anyonlin.coherent import family_from_jsonable, family_to_jsonable
    for family in (Type1(0.5, 0.5j), Type2(-0.2, 0.1), ExactLess(0.3, 0.4),
                   ExactGreater(0.1j, 0.2), SingleMode(0.9 + 0.1j, 2)):
        doc = family_to_jsonable(family, Truncation(25))
        back, truncation = family_from_jsonable(doc)
        assert back == family
        assert truncation.n_max == 25


def test_family_json_schema_fields():
    from anyonlin.coherent import family_from_jsonable, family_to_jsonable
    doc = family_to_jsonable(Type1(0.5, 0.5j), Truncation(40))
    assert doc == {"family": "type1", "u": {"re": 0.5, "im": 0.0},
                   "v": {"re": 0.0, "im": 0.5}, "nmax": 40}
    fam, tr = family_from_jsonable({"family": "type1", "u": {"re": 0.5, "im": 0},
                                    "v": {"re": 0, "im": 0.5}, "nmax": 40})
    assert fam == Type1(0.5, 0.5j) and tr.n_max == 40
    with pytest.raises(ValueError):
        family_from_jsonable({"family": "type3"})
