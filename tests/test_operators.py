"""Quadratic operators, SU(2) closure, the algebra defect, and JW images."""

import cmath
import math

import numpy as np
import pytest

from anyonlin import AnyonSpec, QuadraticCoeffs, closure_defect, \
    closure_defect_coefficient, enumerate_sector, hamiltonian, jw_image, \
    kerr_hamiltonian, quadratic_matrix, su2_generators
from anyonlin import fock, operators
from anyonlin.fock import StateVector, apply_annihilate, apply_create
from anyonlin.operators import ATOL_ALGEBRA, annihilation_matrix, creation_matrix, \
    number_matrix, quartic_term

from conftest import PHI_GRID, PHI_GRID_SU2, both_classes


def max_abs(arr):
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def images_matrix(states, target):
    """Dense matrix whose column c holds states[c]; entries outside target are dropped."""
    mat = np.zeros((target.dim, len(states)), dtype=np.complex128)
    for col, state in enumerate(states):
        for occ, amp in state.amps.items():
            row = target.index.get(occ)
            if row is not None:
                mat[row, col] = amp
    return mat


def pushed(states, mode, create):
    """Every state through one state-level ladder rule."""
    return [(apply_create if create else apply_annihilate)(st, mode) for st in states]


def ladder_grid():
    """Sectors of both classes up to m = 6, n = 4."""
    for phi in (0.0, 1.3, math.pi, 2 * math.pi - 1e-9, 5.5):
        for spec in both_classes(phi):
            for m in range(1, 7):
                for n in range(5):
                    if spec.is_fermionic and n > m:
                        continue
                    yield spec, enumerate_sector(m, n, spec)


def test_ladder_matrices_are_byte_identical_to_per_basis_state_rules():
    # reference: every basis state pushed through the state-level rules
    for spec, sector in ladder_grid():
        m, n = sector.m, sector.n_total
        basis = [StateVector.basis_state(sector, occ) for occ in sector.basis]
        for j in range(1, m + 1):
            lowered = pushed(basis, j, False)
            if n > 0:
                down = enumerate_sector(m, n - 1, spec)
                assert annihilation_matrix(sector, j).tobytes() == \
                    images_matrix(lowered, down).tobytes()
            if not (spec.is_fermionic and n == m):
                up = enumerate_sector(m, n + 1, spec)
                assert creation_matrix(sector, j).tobytes() == \
                    images_matrix(pushed(basis, j, True), up).tobytes()
            for i in range(1, m + 1):
                assert quadratic_matrix(sector, i, j).tobytes() == \
                    images_matrix(pushed(lowered, i, True), sector).tobytes()
        if m == 4:
            for i, j, k, l in [(1, 2, 3, 4), (1, 3, 2, 4), (2, 2, 3, 3), (4, 1, 4, 2), (1, 1, 1, 1)]:
                states = pushed(pushed(pushed(pushed(basis, l, False), j, False), k, True), i, True)
                assert quartic_term(sector, i, j, k, l).tobytes() == \
                    images_matrix(states, sector).tobytes()


def test_quadratic_matrix_builds_no_state_vector(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a state vector was built")

    monkeypatch.setattr(StateVector, "__init__", refuse)
    monkeypatch.setattr(StateVector, "basis_state", refuse)
    for module in (fock, operators):
        monkeypatch.setattr(module, "apply_create", refuse, raising=False)
        monkeypatch.setattr(module, "apply_annihilate", refuse, raising=False)
    for spec in both_classes(0.8123):
        sector = enumerate_sector(4, 3, spec)
        for i in range(1, 5):
            for j in range(1, 5):
                quadratic_matrix(sector, i, j)
            creation_matrix(enumerate_sector(4, 2, spec), i)
            annihilation_matrix(sector, i)
        quartic_term(sector, 1, 2, 3, 4)


def test_quadratic_diagonal_is_occupation():
    for spec in both_classes(1.1):
        sector = enumerate_sector(3, 2, spec)
        for i in (1, 2, 3):
            diag = np.array([occ[i - 1] for occ in sector.basis])
            assert np.max(np.abs(quadratic_matrix(sector, i, i) - np.diag(diag))) < 1e-14
            assert np.max(np.abs(number_matrix(sector, i) - np.diag(diag))) < 1e-14


def test_quadratic_single_particle_raising():
    sector = enumerate_sector(2, 1, AnyonSpec.bosonic(0.4))
    mat = quadratic_matrix(sector, 1, 2)
    # basis order ((1,0), (0,1)): chi†_1 chi_2 maps |0,1> -> |1,0>
    assert np.max(np.abs(mat - np.array([[0, 1], [0, 0]]))) < 1e-14


def test_quadratic_long_range_carries_string_phases():
    # chi†_1 chi_3 on (m=3, n=2) at phi = pi/3, composed by hand from
    # the two ladder rules: the annihilation string crosses mode 2.
    phi = math.pi / 3
    sector = enumerate_sector(3, 2, AnyonSpec.bosonic(phi))
    mat = quadratic_matrix(sector, 1, 3)
    expected = {
        ((2, 0, 0), (1, 0, 1)): math.sqrt(2) * cmath.exp(1j * phi),
        ((1, 1, 0), (0, 1, 1)): cmath.exp(1j * phi),
        ((1, 0, 1), (0, 0, 2)): math.sqrt(2),
    }
    built = np.zeros_like(mat)
    for (row_occ, col_occ), value in expected.items():
        built[sector.index[row_occ], sector.index[col_occ]] = value
    assert np.max(np.abs(mat - built)) < 1e-12


def test_su2_vacuum_sector_is_zero():
    sector = enumerate_sector(3, 0, AnyonSpec.bosonic(0.9))
    for j in su2_generators(sector, 1, 2):
        assert j.shape == (1, 1)
        assert np.max(np.abs(j)) == 0.0


def test_su2_single_particle_j3_block():
    for spec in both_classes(2.0):
        sector = enumerate_sector(2, 1, spec)
        _, _, j3 = su2_generators(sector, 1, 2)
        assert np.max(np.abs(j3 - np.diag([0.5, -0.5]))) < 1e-14


def test_su2_commutators_close_on_all_small_sectors():
    worst = 0.0
    for phi in PHI_GRID_SU2:
        for spec in both_classes(phi):
            for m in (2, 3, 4):
                for n in (0, 1, 2, 3):
                    if spec.is_fermionic and n > m:
                        continue
                    sector = enumerate_sector(m, n, spec)
                    for i, j in [(1, 2), (1, m), (2, m)] if m > 2 else [(1, 2)]:
                        if i == j:
                            continue
                        j1, j2, j3 = su2_generators(sector, i, j)
                        for a, b, c in ((j1, j2, j3), (j2, j3, j1), (j3, j1, j2)):
                            worst = max(worst, np.max(np.abs(a @ b - b @ a - 1j * c)))
    assert worst < ATOL_ALGEBRA


def test_hamiltonian_total_number_and_hermiticity():
    spec = AnyonSpec.bosonic(0.8)
    sector = enumerate_sector(3, 2, spec)
    coeffs = QuadraticCoeffs(np.ones(3), np.zeros((3, 3), dtype=complex))
    h = hamiltonian(sector, coeffs)
    assert np.max(np.abs(h - 2.0 * np.eye(sector.dim))) < 1e-14

    rng = np.random.default_rng(42)
    b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    b = b + b.conj().T
    np.fill_diagonal(b, 0.0)
    h2 = hamiltonian(sector, QuadraticCoeffs(rng.normal(size=3), b))
    assert np.max(np.abs(h2 - h2.conj().T)) <= ATOL_ALGEBRA


def test_beam_splitter_generator_equals_two_j1():
    for phi in (0.0, 1.3):
        for spec in both_classes(phi):
            sector = enumerate_sector(3, 2, spec)
            b = np.zeros((3, 3), dtype=complex)
            b[0, 1] = b[1, 0] = 1.0
            h = hamiltonian(sector, QuadraticCoeffs(np.zeros(3), b))
            j1, _, _ = su2_generators(sector, 1, 2)
            assert np.max(np.abs(h - 2.0 * j1)) < 1e-13


def test_quadratic_coeffs_validation():
    with pytest.raises(ValueError):
        QuadraticCoeffs(np.zeros(2), np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        QuadraticCoeffs(np.zeros(2), np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(ValueError):
        QuadraticCoeffs(np.zeros(2), np.zeros((3, 3), dtype=complex))


def test_closure_defect_vanishes_at_phi_zero():
    for spec in both_classes(0.0):
        sector = enumerate_sector(4, 2, spec)
        for idx in [(1, 2, 3, 4), (1, 2, 2, 3), (1, 3, 2, 4), (2, 3, 3, 1)]:
            assert np.max(np.abs(closure_defect(sector, *idx))) < 1e-13
            assert abs(closure_defect_coefficient(spec, *idx)) < 1e-15


def test_closure_defect_quartic_annihilates_small_sectors():
    # with fewer than two particles the quartic term is the zero map,
    # so the commutator must reduce to its standard linear part exactly
    for spec in both_classes(math.pi / 3):
        for n in (0, 1):
            sector = enumerate_sector(4, n, spec)
            for idx in [(1, 2, 3, 4), (1, 3, 2, 4), (2, 2, 3, 4)]:
                assert np.max(np.abs(quartic_term(sector, *idx))) == 0.0
                assert np.max(np.abs(closure_defect(sector, *idx))) < 1e-13


def test_closure_defect_matches_delta_times_quartic():
    # both sides built independently: the commutator from products of
    # bilinear matrices, the quartic directly from the ladder rule
    patterns = [(1, 2, 3, 4), (1, 3, 2, 4), (1, 2, 2, 3), (2, 3, 3, 1), (1, 4, 2, 3)]
    for phi in (math.pi / 2, 2 * math.pi / 3):
        for spec in both_classes(phi):
            sector = enumerate_sector(4, 2, spec)
            for idx in patterns:
                lhs = closure_defect(sector, *idx)
                rhs = closure_defect_coefficient(spec, *idx) * quartic_term(sector, *idx)
                assert np.max(np.abs(lhs - rhs)) < ATOL_ALGEBRA, (spec, idx)


def test_closure_defect_is_nonzero_away_from_phi_zero():
    spec = AnyonSpec.bosonic(math.pi / 2)
    sector = enumerate_sector(4, 2, spec)
    assert np.max(np.abs(closure_defect(sector, 1, 3, 2, 4))) > 0.1
    assert abs(closure_defect_coefficient(spec, 1, 3, 2, 4)) == pytest.approx(2.0)


def test_jw_image_reduces_to_standard_operator_at_phi_zero():
    for spec in both_classes(0.0):
        sector = enumerate_sector(3, 1, spec)
        for i in (1, 2, 3):
            assert np.max(np.abs(jw_image(sector, i, True)
                                 - creation_matrix(sector, i))) < 1e-14


def test_jw_image_mode_one_has_empty_string():
    for phi in (0.9, 2.5):
        for spec in both_classes(phi):
            std = AnyonSpec(spec.particle_class, 0.0)
            sector = enumerate_sector(3, 1, spec)
            std_sector = enumerate_sector(3, 1, std)
            assert np.max(np.abs(jw_image(sector, 1, True)
                                 - creation_matrix(std_sector, 1))) < 1e-14


def test_jw_image_equals_direct_anyonic_matrices():
    for phi in (2 * math.pi / 3,) + PHI_GRID:
        for spec in both_classes(phi):
            for m in (2, 3):
                for n in (0, 1, 2):
                    if spec.is_fermionic and n > m:
                        continue
                    sector = enumerate_sector(m, n, spec)
                    for i in range(1, m + 1):
                        assert max_abs(jw_image(sector, i, True)
                                       - creation_matrix(sector, i)) < ATOL_ALGEBRA
                        assert max_abs(jw_image(sector, i, False)
                                       - annihilation_matrix(sector, i)) < ATOL_ALGEBRA


def test_jw_preserves_number_operator():
    # the JW map sends the standard number operator to the anyonic one
    spec = AnyonSpec.bosonic(1.7)
    sector = enumerate_sector(3, 2, spec)
    lower = enumerate_sector(3, 1, spec)
    for i in (1, 2, 3):
        prod = jw_image(lower, i, True) @ jw_image(sector, i, False)
        assert np.max(np.abs(prod - number_matrix(sector, i))) < 1e-13


def test_kerr_hamiltonian_diagonal_values():
    spec = AnyonSpec.bosonic(0.5)
    assert np.max(np.abs(kerr_hamiltonian(enumerate_sector(2, 0, spec), 1, 2))) == 0.0
    assert np.max(np.abs(kerr_hamiltonian(enumerate_sector(2, 1, spec), 1, 2))) == 0.0
    sec2 = enumerate_sector(2, 2, spec)
    assert np.max(np.abs(kerr_hamiltonian(sec2, 1, 2) - np.eye(sec2.dim))) == 0.0
    sec3 = enumerate_sector(2, 3, spec)
    assert np.max(np.abs(kerr_hamiltonian(sec3, 1, 2) - 3.0 * np.eye(sec3.dim))) == 0.0
    # pair occupation, not total: a third mode does not contribute
    sec_wide = enumerate_sector(3, 2, spec)
    expected = [(occ[0] + occ[1]) * (occ[0] + occ[1] - 1) / 2 for occ in sec_wide.basis]
    assert np.max(np.abs(kerr_hamiltonian(sec_wide, 1, 2) - np.diag(expected))) == 0.0
