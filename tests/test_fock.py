"""Fock sector enumeration and the anyonic ladder-operator rules."""

import cmath
import itertools
import math
from math import comb

import numpy as np
import pytest

from anyonlin import AnyonSpec, EmptySectorError, enumerate_sector, number_expectation
from anyonlin.fock import StateVector, _sector_cached, apply_annihilate, apply_create, \
    sign_eps, state_to_jsonable, vacuum_state
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
                assert sector.dim == closed


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


def test_sector_cache_stays_bounded_over_a_phi_sweep():
    first = enumerate_sector(3, 2, AnyonSpec.fermionic(0.0))
    for phi in np.linspace(0.001, 6.0, 3000):
        enumerate_sector(3, 2, AnyonSpec.fermionic(float(phi)))
    info = _sector_cached.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize < 3000
    again = enumerate_sector(3, 2, AnyonSpec.fermionic(0.0))
    assert again is not first                # evicted and rebuilt
    assert again == first and hash(again) == hash(first)
    assert again.basis == first.basis and again.index == first.index


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
                    cre = creation_matrix(spec, sector, i)
                    if cre.shape[0] == 0:
                        continue
                    upper = enumerate_sector(m, n + 1, spec)
                    ann = annihilation_matrix(spec, upper, i)
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
                            ci_up = creation_matrix(spec, upper, i)
                            cj = creation_matrix(spec, sector, j)
                            cj_up = creation_matrix(spec, upper, j)
                            ci = creation_matrix(spec, sector, i)
                            # chi†_i chi†_j = sign * e^{i phi eps(i,j)} chi†_j chi†_i
                            dev = np.max(np.abs(ci_up @ cj - sign * phase * cj_up @ ci))
                            assert dev < 1e-12, (spec, m, n, i, j)
                            # chi_i chi†_j -+ e^{-i phi eps(i,j)} chi†_j chi_i = d_ij
                            ai_up = annihilation_matrix(spec, upper, i)
                            lhs = ai_up @ cj
                            if n >= 1:
                                lower = enumerate_sector(m, n - 1, spec)
                                cj_low = creation_matrix(spec, lower, j)
                                ai = annihilation_matrix(spec, sector, i)
                                lhs = lhs - sign * phase.conjugate() * cj_low @ ai
                            target = np.eye(sector.dim) if i == j else np.zeros((sector.dim,) * 2)
                            assert np.max(np.abs(lhs - target)) < 1e-12, (spec, m, n, i, j)
                            # chi_i chi_j = sign * e^{i phi eps(i,j)} chi_j chi_i
                            if n >= 2:
                                lower = enumerate_sector(m, n - 1, spec)
                                ai_low = annihilation_matrix(spec, lower, i)
                                aj = annihilation_matrix(spec, sector, j)
                                aj_low = annihilation_matrix(spec, lower, j)
                                ai = annihilation_matrix(spec, sector, i)
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


def test_invalid_mode_index_raises():
    spec = AnyonSpec.bosonic(0.1)
    with pytest.raises(ValueError):
        apply_create(vacuum_state(2, spec), 0)
    with pytest.raises(ValueError):
        apply_create(vacuum_state(2, spec), 3)


def test_state_json_entries_follow_basis_order():
    spec = AnyonSpec.bosonic(0.0)
    sector = enumerate_sector(2, 2, spec)
    st = StateVector(sector, {(0, 2): 0.6, (2, 0): 0.8})
    doc = state_to_jsonable(st)
    assert doc == [{"occ": [2, 0], "re": 0.8, "im": 0.0},
                   {"occ": [0, 2], "re": 0.6, "im": 0.0}]
