"""Displacements, coherence functions, two-mode families, Kerr, cats."""

import cmath
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from anyonlin import AnyonSpec, BeamSplitter, Network, PhaseShifter
from anyonlin import coherent
from anyonlin import network as network_module
from anyonlin.coherent import DegenerateStateError, ExactGreater, ExactLess, \
    NotClosedUnderLinearOpticsError, SingleMode, TruncatedState, Truncation, \
    TruncationRiskWarning, Type1, Type2, cat_closed_form, coherence_function, \
    coherent_amplitudes, coherent_state, deformed_binomial_coeffs, \
    deformed_binomial_prefactor, displacement, displacement_product_factor, \
    evolve_family, evolve_truncated, generalized_coherent_state, kerr_interconvert, \
    mirror_cat, mirror_network, two_mode_family_state
from anyonlin.fock import PRUNE_EPS, StateVector, apply_create, vacuum_state
from anyonlin.network import single_particle_matrix

from conftest import shellwise_oracle

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


def test_coherent_amplitudes_match_the_recurrence():
    # the cumulative product rounds each step as g / sqrt(n) first, the
    # recurrence as (a_{n-1} g) / sqrt(n); amplitudes stay below 1
    for g, n_max in ((0.0, 5), (0.5, 40), (0.7 + 0.2j, 40), (-1.5j, 60), (5.0 - 2.0j, 120)):
        ref = [math.exp(-0.5 * abs(g) ** 2) + 0j]
        for n in range(1, n_max + 1):
            ref.append(ref[-1] * g / math.sqrt(n))
        assert np.max(np.abs(coherent_amplitudes(g, n_max) - np.array(ref))) <= 1e-15


@pytest.mark.parametrize("g", [math.nan, complex(0.5, math.nan), math.inf, 1e200,
                               complex(1e300, 1e300), np.complex128(1e200)])
def test_coherent_amplitudes_refuse_an_amplitude_out_of_range(g):
    # |g|^2 nan, infinite or overflowing: a ValueError, no OverflowError or
    # numpy warning (warnings are errors here)
    with pytest.raises(ValueError, match="coherent amplitude .* out of range"):
        coherent_amplitudes(g, 3)


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


def test_coherent_constructors_normalize_bit_for_bit_like_truncated_state():
    rng = np.random.default_rng(17)
    for n_max in (5, 40, 255):
        tr = Truncation(n_max)
        for g in rng.normal(scale=3.0, size=6) + 1j * rng.normal(scale=3.0, size=6):
            rho = rng.uniform(0, 2 * math.pi, size=n_max + 1)
            branch = (cmath.exp(1j * math.pi / 4) * coherent_amplitudes(-1j * g, n_max)
                      - cmath.exp(3j * math.pi / 4) * coherent_amplitudes(1j * g, n_max))
            vac = np.eye(n_max + 1, 1, dtype=complex)[:, 0]
            pairs = [(coherent_state(g, tr), coherent_amplitudes(g, n_max)),
                     (generalized_coherent_state(g, rho, tr),
                      coherent_amplitudes(g, n_max) * np.exp(1j * rho)),
                     (cat_closed_form(g, tr, mode=1), np.outer(branch, vac)),
                     (cat_closed_form(g, tr, mode=2), np.outer(vac, branch))]
            for got, amps in pairs:
                assert got.amps.tobytes() == TruncatedState(amps).normalized().amps.tobytes()


@pytest.mark.parametrize("build, name", [
    (lambda: coherent_state(34, TR), "|g|^2"),
    (lambda: generalized_coherent_state(34j, [0.5], TR), "|g|^2"),
    (lambda: cat_closed_form(-34, TR), "|w|^2"),
    (lambda: cat_closed_form(34, TR, mode=1), "|w|^2"),
])
def test_coherent_constructors_name_the_mean_when_the_norm_underflows(build, name):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == f"{name} = 1156 is too large for n_max = 40: " \
                             "the truncated amplitudes' norm underflows to 0"


def test_fock_state_second_order_coherence_vanishes():
    one = TruncatedState(np.eye(41)[1])
    assert coherence_function(one, 1, 2) == 0.0


def test_vacuum_coherence_is_degenerate():
    vac = TruncatedState(np.eye(41)[0])
    with pytest.raises(DegenerateStateError):
        coherence_function(vac, 1, 1)


@pytest.mark.parametrize("amps, mode", [(np.zeros(5), 1), (np.zeros((4, 4)), 1),
                                        (np.zeros((4, 4)), 2)])
def test_zero_state_coherence_is_degenerate(amps, mode):
    # the zero state gave nan with a RuntimeWarning from 0 / 0
    with pytest.raises(DegenerateStateError):
        coherence_function(TruncatedState(amps), mode, 1)


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


def test_evolve_truncated_matches_the_shellwise_oracle():
    networks = (mirror_network(),
                Network(2, (PhaseShifter(1, 0.9), BeamSplitter(1, 2, 0.6),
                            BeamSplitter(2, 1, -0.35))))
    families = (SingleMode(0.8, 1), SingleMode(0.6 - 0.3j, 2),
                Type1(0.5, 0.3j), Type2(-0.2, 0.6), Type1(1.5, -1.2j))
    # the last family reaches the third band of shells at n_max = 40
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
                    assert np.max(np.abs(got.amps - want)) <= 1e-13
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
    assert np.max(np.abs(got.amps - want)) <= 1e-13
    assert abs(1.0 - got.norm() ** 2 - lost) < 1e-12


def shell_norms(amps):
    """Norm of each total-occupation shell of a two-mode amplitude array."""
    k = np.arange(len(amps))
    shell = (k[:, None] + k[None, :]).ravel()
    return np.sqrt(np.bincount(shell, weights=np.abs(amps.ravel()) ** 2))


@pytest.fixture
def kernel_cache(monkeypatch):
    """A fresh kernel cache of the full budget, in place for one test."""
    cache = network_module._ByteLRU(network_module.KERNEL_CACHE_BYTES)
    monkeypatch.setattr(network_module, "_KERNEL_CACHE", cache)
    return cache


def band_totals(band):
    """The 16 shell totals of one band, the key of its stack of shell unitaries."""
    return tuple(range(band * coherent._BAND, (band + 1) * coherent._BAND))


def band_stack_keys(cache):
    """(network, spec, band) of each band stack the kernel cache holds, least recent first.

    Band stacks are the kernel's window unitaries over the whole two-mode
    network, keyed by the band's totals.
    """
    build = network_module._window_unitaries.__wrapped__
    keys = [args for fn, args in cache.order.values() if fn is build]
    assert all(totals == band_totals(totals[0] // coherent._BAND) for _, _, totals in keys)
    return [(net, spec, totals[0] // coherent._BAND) for net, spec, totals in keys]


def test_evolve_truncated_skips_exactly_the_shells_below_half_the_prune(kernel_cache):
    # shells on both sides of the PRUNE_EPS / 2 bound in three bands of 16
    # shells; the middle band holds no live shell, the last one only one
    n_max = 20
    norms = {1: 0.8, 2: 0.4 * PRUNE_EPS, 3: 0.6 * PRUNE_EPS, 4: 0.6, 5: 2 * PRUNE_EPS,
             17: 0.4 * PRUNE_EPS, 25: 0.3 * PRUNE_EPS,
             33: 0.6 * PRUNE_EPS, 36: 0.4 * PRUNE_EPS, 38: 0.2 * PRUNE_EPS}
    rng = np.random.default_rng(3)
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n, norm in norms.items():
        ls = np.arange(max(0, n - n_max), min(n, n_max) + 1)
        z = rng.normal(size=len(ls)) + 1j * rng.normal(size=len(ls))
        amps[ls, n - ls] = z * (norm / np.linalg.norm(z))
    assert np.allclose(shell_norms(amps)[list(norms)], list(norms.values()), rtol=1e-12)
    spec = AnyonSpec.bosonic(1.1)
    net = Network(2, (PhaseShifter(1, 0.9), BeamSplitter(1, 2, 0.6),
                      BeamSplitter(2, 1, -0.35)))
    want, _ = shellwise_oracle(TruncatedState(amps), net, spec)
    got = evolve_truncated(TruncatedState(amps), net, spec)
    assert np.max(np.abs(got.amps - want)) <= 1e-13
    out = shell_norms(got.amps)
    assert all(out[n] == 0.0 for n, norm in norms.items() if norm < PRUNE_EPS)
    assert band_stack_keys(kernel_cache) == [(net, spec, 0), (net, spec, 2)]


def test_alternating_networks_build_each_shell_unitary_once(monkeypatch, kernel_cache):
    # a band stack holds the whole network on 16 shells and is built once:
    # the kernel runs one identity batch per (network, spec, shell) of it
    builds = Counter()
    real_evolve = network_module.evolve_amplitudes

    def counting_evolve(network, sector, amps):
        builds[network, sector.spec, sector.n_total] += 1
        return real_evolve(network, sector, amps)

    monkeypatch.setattr(network_module, "evolve_amplitudes", counting_evolve)
    spec = AnyonSpec.bosonic(math.pi)
    networks = (mirror_network(),
                Network(2, (PhaseShifter(1, 0.9), BeamSplitter(1, 2, 0.6),
                            BeamSplitter(2, 1, -0.35))))
    start = two_mode_family_state(Type1(1.5, -1.2j), spec, TR)
    first = [evolve_truncated(start, net, spec).amps.tobytes() for net in networks]
    for _ in range(50):
        assert [evolve_truncated(start, net, spec).amps.tobytes() for net in networks] == first
    live = np.flatnonzero(shell_norms(start.amps) > 0.5 * PRUNE_EPS)
    bands = {n // coherent._BAND for n in live}
    assert bands == {0, 1, 2}
    assert set(builds.values()) == {1}
    assert set(builds) == {(net, spec, total) for net in networks
                           for band in bands for total in band_totals(band)}
    assert len(band_stack_keys(kernel_cache)) == len(bands) * len(networks)


def test_band_stacks_stay_within_the_kernel_cache_budget(monkeypatch, kernel_cache):
    networks = (mirror_network(),
                Network(2, (BeamSplitter(1, 2, 0.3),)),
                Network(2, (PhaseShifter(2, 0.4), BeamSplitter(2, 1, 1.2))))
    full = kernel_cache
    # a band-1 stack is 16 x 32^2 complex128s (256 KiB), so 1/512 of the
    # budget holds only a few stacks and drops the least recent
    small = network_module._ByteLRU(network_module.KERNEL_CACHE_BYTES // 512)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationRiskWarning)
        for n_max in (3, 8, 20, 40):
            for phi in (0.0, math.pi):
                spec = AnyonSpec.bosonic(phi)
                start = two_mode_family_state(Type1(0.9, 0.7j), spec, Truncation(n_max))
                for net in networks:
                    outs = []
                    for cache in (full, small):
                        monkeypatch.setattr(network_module, "_KERNEL_CACHE", cache)
                        outs.append(evolve_truncated(start, net, spec).amps.tobytes())
                        assert cache.held == sum(size for _value, size in cache.entries.values())
                        assert cache.held <= cache.budget
                        assert band_stack_keys(cache)[-1][:2] == (net, spec)
                    assert outs[0] == outs[1]
    assert len(band_stack_keys(full)) == 2 * len(networks) * 2     # bands 0 and 1
    assert len(band_stack_keys(small)) < len(band_stack_keys(full))
    stack, = network_module._window_unitaries(net, spec, band_totals(1))
    assert stack.shape == (16, 32, 32) and not stack.flags.writeable


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


@pytest.mark.parametrize("mode", [1, 2])
@pytest.mark.parametrize("wrong", ["unevolved", "cat on the input mode"])
def test_mirror_cat_self_check_refuses_a_wrong_evolution(monkeypatch, mode, wrong):
    # the self-check is the only thing between a broken evolution and the
    # caller: the input left as it is, or the right cat on the wrong mode
    spec, u = AnyonSpec.bosonic(math.pi), cmath.exp(0.3j)
    want = coherent.mirror_cat_reference(u, TR, mode)

    def broken(state, network, spec):
        return state if wrong == "unevolved" else TruncatedState(want.amps.T)

    monkeypatch.setattr(coherent, "evolve_truncated", broken)
    with pytest.raises(ArithmeticError, match="missed the cat closed form: fidelity"):
        mirror_cat(u, spec, TR, mode)


def test_mirror_cat_names_the_mean_when_the_cat_norm_underflows(monkeypatch):
    # a closed-form branch whose norm is 0 raises, not a NaN fidelity
    # that the self-check's < test would let pass
    real, calls = coherent.coherent_amplitudes, []

    def input_only(g, n_max):
        calls.append(g)     # the input's amplitudes come first, then the branches'
        return real(g, n_max) if len(calls) == 1 else np.zeros(n_max + 1, complex)

    monkeypatch.setattr(coherent, "coherent_amplitudes", input_only)
    with pytest.raises(ValueError) as err:
        mirror_cat(1.0, AnyonSpec.bosonic(math.pi), TR)
    assert len(calls) == 3
    assert str(err.value) == "|w|^2 = 1 is too large for n_max = 40: " \
                             "the truncated amplitudes' norm underflows to 0"


def test_mirror_cat_requires_phi_pi():
    with pytest.raises(ValueError):
        mirror_cat(0.5, AnyonSpec.bosonic(1.0), TR)
    with pytest.raises(ValueError):
        mirror_cat(0.5, AnyonSpec.fermionic(math.pi), TR)


@pytest.mark.parametrize("build", [
    lambda mode: cat_closed_form(1.0, Truncation(5), mode=mode),
    lambda mode: coherent.mirror_cat_reference(1.0, Truncation(5), mode=mode),
    lambda mode: mirror_cat(1.0, AnyonSpec.bosonic(math.pi), Truncation(5), mode=mode),
    lambda mode: SingleMode(1.0, mode),
])
@pytest.mark.parametrize("mode", [0, 3, 5, -1])
def test_cat_constructors_refuse_a_mode_other_than_one_or_two(build, mode):
    # every value but 1 once read as 2: mode 5 gave the mode-2 cat
    with pytest.raises(ValueError, match="^mode must be 1 or 2$"):
        build(mode)


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
