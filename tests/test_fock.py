"""Fock sector enumeration and the anyonic ladder-operator rules."""

import cmath
import copy
import itertools
import math
import pickle
from math import comb

import numpy as np
import pytest

from anyonlin import AnyonSpec, EmptySectorError, ParticleClass, enumerate_sector, \
    number_expectation
from anyonlin.fock import PRUNE_EPS, StateVector, _shape_basis, \
    apply_annihilate, apply_create, sector_dim, sign_eps, vacuum_state
from anyonlin.operators import annihilation_matrix, creation_matrix

from conftest import PHI_GRID, both_classes, state_deviation


def brute_force_basis(m, n_total, cap):
    return [occ for occ in itertools.product(range(cap + 1), repeat=m)
            if sum(occ) == n_total]


def test_sector_sizes_match_bruteforce_enumeration():
    for m in range(1, 5):
        for n in range(0, 4):
            for spec in both_classes(0.3):
                cap = 1 if spec.is_fermionic else max(n, 1)
                expected = brute_force_basis(m, n, cap)
                if not expected:
                    with pytest.raises(EmptySectorError):
                        enumerate_sector(m, n, spec)
                    continue
                sector = enumerate_sector(m, n, spec)
                assert sector.dim == len(expected)
                assert sorted(sector.basis) == sorted(expected)
                closed = comb(m, n) if spec.is_fermionic else comb(m + n - 1, n)
                assert sector.dim == closed == sector_dim(m, n, spec.is_fermionic)


def test_sector_examples():
    bos = AnyonSpec.bosonic(0.0)
    fer = AnyonSpec.fermionic(0.0)
    assert enumerate_sector(2, 2, bos).basis == ((2, 0), (1, 1), (0, 2))
    assert enumerate_sector(3, 2, fer).basis == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    assert enumerate_sector(4, 2, bos).dim == len(brute_force_basis(4, 2, 2)) == 10


def test_canonical_order_is_lexicographically_decreasing():
    for spec in both_classes(1.0):
        for m, n in [(3, 2), (4, 3)]:
            if spec.is_fermionic and n > m:
                continue
            basis = enumerate_sector(m, n, spec).basis
            assert list(basis) == sorted(basis, reverse=True)


def test_empty_sector_and_argument_errors():
    with pytest.raises(EmptySectorError):
        enumerate_sector(2, 3, AnyonSpec.fermionic(0.5))
    with pytest.raises(ValueError):
        enumerate_sector(0, 1, AnyonSpec.bosonic(0.0))
    with pytest.raises(ValueError):
        enumerate_sector(2, -1, AnyonSpec.bosonic(0.0))


def test_phi_reduced_mod_2pi():
    assert AnyonSpec.bosonic(2 * math.pi).phi == 0.0
    assert AnyonSpec.bosonic(-math.pi / 2).phi == pytest.approx(3 * math.pi / 2)
    assert AnyonSpec("fermionic", 0.25).is_fermionic
    with pytest.raises(ValueError):
        AnyonSpec.bosonic(math.inf)


def test_phi_just_below_two_pi_folds_to_zero():
    # -1e-20 % (2 pi) is 2 pi itself in floating point
    zero = AnyonSpec.bosonic(0.0)
    for phi in (-1e-20, -1e-17, -0.0, 2 * math.pi, 4 * math.pi):
        spec = AnyonSpec.bosonic(phi)
        assert spec.phi == 0.0 and math.copysign(1.0, spec.phi) == 1.0
        assert spec == zero and hash(spec) == hash(zero)
    assert AnyonSpec.fermionic(-1e-20) == AnyonSpec.fermionic(0.0)
    assert 0.0 < AnyonSpec.bosonic(-1e-9).phi < 2 * math.pi


def test_equal_specs_hash_equal():
    # the hash is taken once, from numbers only, so a spec built from the
    # class name, through a constructor or by unpickling keys the same entries
    for phi in (0.0, 0.7, math.pi, 5.9):
        for name, make in (("bosonic", AnyonSpec.bosonic), ("fermionic", AnyonSpec.fermionic)):
            spec = make(phi)
            twins = (AnyonSpec(name, phi), AnyonSpec(ParticleClass(name), np.float64(phi)),
                     pickle.loads(pickle.dumps(spec)))
            for twin in twins:
                assert twin == spec and hash(twin) == hash(spec)
            assert hash(spec) == hash((spec.phi, spec.is_fermionic))
            assert len({spec, *twins}) == 1
    assert AnyonSpec.bosonic(0.7) != AnyonSpec.fermionic(0.7)
    assert len({AnyonSpec.bosonic(0.7), AnyonSpec.fermionic(0.7), AnyonSpec.bosonic(0.8)}) == 3


def test_sector_cache_stays_bounded_over_a_phi_sweep():
    # a sector is its shape: a phi sweep builds no basis record, and
    # sectors of one shape share the one record of that shape
    first = enumerate_sector(3, 2, AnyonSpec.fermionic(0.0))
    other = enumerate_sector(3, 2, AnyonSpec.fermionic(1.0))
    assert other.basis is first.basis and other.index is first.index
    assert other.occ is first.occ and not other.occ.flags.writeable
    assert first.occ.tolist() == [list(occ) for occ in first.basis]
    shapes = _shape_basis.cache_info().currsize
    for phi in np.linspace(0.001, 6.0, 3000):
        sector = enumerate_sector(3, 2, AnyonSpec.fermionic(float(phi)))
        assert sector.basis is first.basis
    assert _shape_basis.cache_info().currsize == shapes
    again = enumerate_sector(3, 2, AnyonSpec.fermionic(0.0))
    assert again == first and hash(again) == hash(first)


@pytest.mark.parametrize("spec", both_classes(0.7), ids=["bosonic", "fermionic"])
def test_sectors_and_states_survive_pickle_and_deepcopy(spec):
    sector = enumerate_sector(4, 2, spec)
    state = apply_create(apply_create(vacuum_state(4, spec), 1), 3)
    for copy_of in (lambda obj: pickle.loads(pickle.dumps(obj)), copy.deepcopy):
        twin = copy_of(sector)
        assert twin == sector and hash(twin) == hash(sector)
        assert twin.basis == sector.basis and twin.dim == sector.dim
        twin_state = copy_of(state)
        assert twin_state.sector == state.sector == sector
        assert hash(twin_state.sector) == hash(sector)
        assert twin_state.amps == state.amps
        assert twin_state.sector.basis == sector.basis
        assert np.array_equal(twin_state.to_vector(), state.to_vector())


@pytest.mark.parametrize("spec", both_classes(0.9), ids=["bosonic", "fermionic"])
def test_state_repr_lists_its_terms_in_sector_order(spec):
    sector = enumerate_sector(4, 2, spec)
    shuffled = sorted(sector.basis, key=lambda occ: hash(occ) % 7)
    state = StateVector(sector, {occ: 0.5 + rank for rank, occ in enumerate(shuffled)})
    kets = [term.split("|")[1].rstrip(">") for term in repr(state).split(" + ")]
    assert kets == [",".join(map(str, occ)) for occ in sector.basis]
    assert repr(StateVector.zero(sector)) == "0"


@pytest.mark.parametrize("spec", both_classes(0.4), ids=["bosonic", "fermionic"])
def test_membership_rule_equals_the_basis(spec):
    # every tuple of the box [-1, n + 1]^m: wrong totals, negative and
    # over-cap entries, as Python ints and as numpy integers
    for m in range(1, 5):
        for n in range(0, 5):
            if spec.is_fermionic and n > m:
                continue
            sector = enumerate_sector(m, n, spec)
            index = sector.index
            for occ in itertools.product(range(-1, n + 2), repeat=m):
                wide = tuple(np.int64(k) for k in occ)
                assert (occ in sector) == (occ in index) == (wide in sector), (m, n, occ)
    sector = enumerate_sector(2, 1, spec)
    for bad in ((0.5, 0.5), (1,), (1, 0, 0)):
        with pytest.raises(ValueError):
            StateVector(sector, {bad: 1.0})


def test_sign_eps():
    assert sign_eps(1, 3) == 1
    assert sign_eps(3, 1) == -1
    assert sign_eps(2, 2) == 0


def test_create_on_vacuum_has_unit_factor():
    for spec in both_classes(2.1):
        out = apply_create(vacuum_state(4, spec), 1)
        assert state_deviation(out, {(1, 0, 0, 0): 1.0}) < 1e-15


def test_create_string_phase_at_phi_pi():
    # beta†_2 |1,0> picks up e^{-i phi s} with s = 1
    spec = AnyonSpec.bosonic(math.pi)
    sector = enumerate_sector(2, 1, spec)
    out = apply_create(StateVector.basis_state(sector, (1, 0)), 2)
    assert state_deviation(out, {(1, 1): -1.0}) < 1e-12


def test_bosonic_create_factor_combines_sqrt_and_phase():
    spec = AnyonSpec.bosonic(0.7)
    sector = enumerate_sector(3, 3, spec)
    out = apply_create(StateVector.basis_state(sector, (2, 1, 0)), 3)
    assert state_deviation(out, {(2, 1, 1): cmath.exp(-1j * 0.7 * 3)}) < 1e-12


def test_fermionic_creation_order_exchange_phase():
    # xi†_1 xi†_2 |0,0> = -e^{i phi} xi†_2 xi†_1 |0,0>, matching the
    # deformed anticommutator with eps(1,2) = +1.
    for phi in PHI_GRID:
        spec = AnyonSpec.fermionic(phi)
        vac = vacuum_state(2, spec)
        order_12 = apply_create(apply_create(vac, 2), 1)
        order_21 = apply_create(apply_create(vac, 1), 2)
        dev = state_deviation(order_12,
                              {occ: -cmath.exp(1j * phi) * amp
                               for occ, amp in order_21.amps.items()})
        assert dev < 1e-12


def test_fermionic_double_creation_is_zero_map():
    spec = AnyonSpec.fermionic(0.9)
    one = apply_create(vacuum_state(3, spec), 2)
    assert apply_create(one, 2).norm() == 0.0


def test_fermionic_creation_on_full_sector_raises():
    # no sector with m + 1 fermions on m modes exists, so no zero vector
    # can carry the right particle number
    spec = AnyonSpec.fermionic(0.9)
    full = StateVector.basis_state(enumerate_sector(2, 2, spec), (1, 1))
    for mode in (1, 2):
        with pytest.raises(EmptySectorError):
            apply_create(full, mode)
    zero = apply_create(StateVector.basis_state(enumerate_sector(2, 1, spec), (1, 0)), 1)
    assert zero.norm() == 0.0 and zero.sector.n_total == 2


def test_annihilate_vacuum_and_empty_modes():
    for spec in both_classes(1.3):
        assert apply_annihilate(vacuum_state(2, spec), 1).norm() == 0.0
        sector = enumerate_sector(2, 1, spec)
        out = apply_annihilate(StateVector.basis_state(sector, (0, 1)), 1)
        assert out.norm() == 0.0


def test_annihilate_basic_and_adjoint_example():
    for phi in (0.4, math.pi):
        spec = AnyonSpec.bosonic(phi)
        sector = enumerate_sector(2, 2, spec)
        st = StateVector.basis_state(sector, (1, 1))
        assert state_deviation(apply_annihilate(st, 1), {(0, 1): 1.0}) < 1e-15
        # adjoint of the creation example: beta_2 |1,1> = e^{+i phi} |1,0>
        assert state_deviation(apply_annihilate(st, 2),
                               {(1, 0): cmath.exp(1j * phi)}) < 1e-12


def test_annihilation_matrix_is_adjoint_of_creation():
    for phi in PHI_GRID:
        for spec in both_classes(phi):
            for m, n in [(2, 0), (2, 1), (3, 1), (3, 2), (4, 2)]:
                if spec.is_fermionic and n > m:
                    continue
                sector = enumerate_sector(m, n, spec)
                for i in range(1, m + 1):
                    cre = creation_matrix(sector, i)
                    if cre.shape[0] == 0:
                        continue
                    upper = enumerate_sector(m, n + 1, spec)
                    ann = annihilation_matrix(upper, i)
                    assert np.max(np.abs(ann - cre.conj().T)) < 1e-14


def test_single_mode_canonical_relation():
    # create then annihilate on mode i multiplies a basis state by n_i + 1
    for spec in both_classes(0.77):
        for m, n in [(2, 1), (3, 2)]:
            sector = enumerate_sector(m, n, spec)
            for occ in sector.basis:
                for i in range(1, m + 1):
                    if spec.is_fermionic and occ[i - 1] == 1:
                        continue
                    st = StateVector.basis_state(sector, occ)
                    back = apply_annihilate(apply_create(st, i), i)
                    assert state_deviation(back, {occ: occ[i - 1] + 1.0}) < 1e-12


def _commutation_sign(spec):
    return -1.0 if spec.is_fermionic else 1.0


def test_two_sided_commutation_relations_as_matrices():
    """The deformed two-operator relations hold as exact matrix identities."""
    for phi in PHI_GRID:
        for spec in both_classes(phi):
            sign = _commutation_sign(spec)
            for m in (2, 3, 4):
                for n in (0, 1, 2, 3):
                    if spec.is_fermionic and n + 2 > m:
                        continue
                    sector = enumerate_sector(m, n, spec)
                    upper = enumerate_sector(m, n + 1, spec)
                    for i in range(1, m + 1):
                        for j in range(1, m + 1):
                            phase = cmath.exp(1j * phi * sign_eps(i, j))
                            ci_up = creation_matrix(upper, i)
                            cj = creation_matrix(sector, j)
                            cj_up = creation_matrix(upper, j)
                            ci = creation_matrix(sector, i)
                            # chi†_i chi†_j = sign * e^{i phi eps(i,j)} chi†_j chi†_i
                            dev = np.max(np.abs(ci_up @ cj - sign * phase * cj_up @ ci))
                            assert dev < 1e-12, (spec, m, n, i, j)
                            # chi_i chi†_j -+ e^{-i phi eps(i,j)} chi†_j chi_i = d_ij
                            ai_up = annihilation_matrix(upper, i)
                            lhs = ai_up @ cj
                            if n >= 1:
                                lower = enumerate_sector(m, n - 1, spec)
                                cj_low = creation_matrix(lower, j)
                                ai = annihilation_matrix(sector, i)
                                lhs = lhs - sign * phase.conjugate() * cj_low @ ai
                            target = np.eye(sector.dim) if i == j else np.zeros((sector.dim,) * 2)
                            assert np.max(np.abs(lhs - target)) < 1e-12, (spec, m, n, i, j)
                            # chi_i chi_j = sign * e^{i phi eps(i,j)} chi_j chi_i
                            if n >= 2:
                                lower = enumerate_sector(m, n - 1, spec)
                                ai_low = annihilation_matrix(lower, i)
                                aj = annihilation_matrix(sector, j)
                                aj_low = annihilation_matrix(lower, j)
                                ai = annihilation_matrix(sector, i)
                                dev = np.max(np.abs(ai_low @ aj - sign * phase * aj_low @ ai))
                                assert dev < 1e-12, (spec, m, n, i, j)


def test_number_expectation():
    spec = AnyonSpec.bosonic(0.0)
    sector = enumerate_sector(2, 1, spec)
    assert number_expectation(StateVector.basis_state(sector, (1, 0)), 1) == 1.0
    sector2 = enumerate_sector(2, 2, spec)
    st = StateVector(sector2, {(2, 0): 1 / math.sqrt(2), (0, 2): 1 / math.sqrt(2)})
    assert number_expectation(st, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        number_expectation(st, 3)


def test_number_expectation_after_hom_is_one_for_all_phi():
    from anyonlin import BeamSplitter, Network, evolve
    for phi in PHI_GRID:
        spec = AnyonSpec.bosonic(phi)
        sector = enumerate_sector(2, 2, spec)
        out = evolve(Network(2, (BeamSplitter(1, 2, math.pi / 4),)),
                     StateVector.basis_state(sector, (1, 1)))
        assert number_expectation(out, 1) == pytest.approx(1.0, abs=1e-12)


def test_state_vector_arithmetic_and_pruning():
    spec = AnyonSpec.bosonic(0.0)
    sector = enumerate_sector(2, 1, spec)
    a = StateVector.basis_state(sector, (1, 0))
    b = StateVector.basis_state(sector, (0, 1))
    combo = 0.6 * a + 0.8j * b
    assert combo.norm() == pytest.approx(1.0)
    assert (combo - combo).norm() == 0.0
    # exact cancellation prunes the entry entirely
    assert (a + (-1.0) * a).amps == {}
    with pytest.raises(ValueError):
        StateVector(sector, {(2, 0): 1.0})


def test_states_hold_python_complex_values_keyed_in_their_sector():
    spec = AnyonSpec.bosonic(0.7)
    sector = enumerate_sector(3, 2, spec)
    with pytest.raises(ValueError, match="not in sector"):
        StateVector(sector, {(1, 1, 0): 1.0, (3, 0, 0): 1.0})
    state = StateVector(sector, {(1, 1, 0): np.complex128(0.6), (0, 1, 1): np.float64(0.8)})
    pair = apply_create(apply_create(vacuum_state(3, spec), 3), 1)
    results = [state, np.complex128(2) * state, state * np.float64(0.5), state + pair,
               state - pair, state.normalized(), pair, apply_annihilate(pair, 3),
               apply_annihilate(vacuum_state(3, spec), 2)]
    for result in results:
        assert all(type(a) is complex for a in result.amps.values())
        assert all(occ in result.sector.index for occ in result.amps)


def test_invalid_mode_index_raises():
    spec = AnyonSpec.bosonic(0.1)
    with pytest.raises(ValueError):
        apply_create(vacuum_state(2, spec), 0)
    with pytest.raises(ValueError):
        apply_create(vacuum_state(2, spec), 3)


def reference_from_vector(sector, vec):
    """The per-basis-state comprehension ``from_vector`` once was."""
    return {occ: complex(vec[pos]) for pos, occ in enumerate(sector.basis)
            if abs(vec[pos]) > PRUNE_EPS}


@pytest.mark.parametrize("m, n", [(4, 2), (5, 3), (6, 4), (11, 7)])
def test_from_vector_keeps_basis_order_and_exact_values(m, n):
    rng = np.random.default_rng(m * 100 + n)
    for spec in both_classes(0.7):
        sector = enumerate_sector(m, n, spec)
        vec = np.zeros(sector.dim, dtype=np.complex128)
        pos = rng.choice(sector.dim, size=min(sector.dim, 16), replace=False)
        vec[pos] = rng.normal(size=len(pos)) + 1j * rng.normal(size=len(pos))
        # dropped: |a| exactly PRUNE_EPS, just below it, NaN; kept: just above it
        vec[pos[:4]] = [PRUNE_EPS, PRUNE_EPS * (1 - 2 ** -52), complex("nan+nanj"),
                        PRUNE_EPS * (1 + 2 ** -52) * 1j]
        got = StateVector.from_vector(sector, vec).amps
        want = reference_from_vector(sector, vec)
        assert list(got) == list(want)
        assert [sector.index[occ] for occ in got] == sorted(sector.index[occ] for occ in got)
        assert [(a.real.hex(), a.imag.hex()) for a in got.values()] == \
            [(a.real.hex(), a.imag.hex()) for a in want.values()]
        assert not {sector.basis[p] for p in pos[:3]} & set(got)
        assert sector.basis[pos[3]] in got


def test_from_vector_refuses_a_vector_of_another_length():
    sector = enumerate_sector(3, 2, AnyonSpec.bosonic(0.4))
    for shape in ((sector.dim - 1,), (sector.dim + 1,), (sector.dim, 1), ()):
        with pytest.raises(ValueError, match="does not fit sector dim 6"):
            StateVector.from_vector(sector, np.ones(shape, dtype=np.complex128))
