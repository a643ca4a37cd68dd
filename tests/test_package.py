"""The package namespace: every public name resolves, on first use."""

import subprocess
import sys

import pytest

import anyonlin

#: The names the package has exported since its first release, by module.
PUBLIC = {
    "fock": ["AnyonSpec", "EmptySectorError", "FockSector", "ParticleClass", "StateVector",
             "apply_annihilate", "apply_create", "enumerate_sector", "number_expectation",
             "sign_eps", "vacuum_state"],
    "network": ["BeamSplitter", "GOperator", "Network", "PhaseShifter", "Window",
                "build_braiding_network", "evolve", "evolve_amplitudes", "propagate_algebraic",
                "single_particle_matrix"],
    "operators": ["ATOL_ALGEBRA", "ATOL_PHYSICS", "QuadraticCoeffs", "closure_defect",
                  "closure_defect_coefficient", "hamiltonian", "jw_image", "kerr_hamiltonian",
                  "quadratic_matrix", "su2_generators"],
    "coherent": ["CoherentFamily", "ExactGreater", "ExactLess", "SingleMode", "TruncatedState",
                 "Truncation", "Type1", "Type2", "coherence_function", "coherent_state",
                 "displacement", "evolve_family", "kerr_interconvert", "mirror_cat",
                 "two_mode_family_state"],
    "dualrail": ["CP", "CompileError", "LogicalLayout", "Rx", "Rz", "U1", "compile_cp",
                 "compile_single_qubit", "decode", "encode", "simulate_circuit"],
}


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_every_public_name_resolves_to_its_module_object(module):
    home = getattr(anyonlin, module)
    assert home.__name__ == f"anyonlin.{module}"
    for name in PUBLIC[module]:
        assert getattr(anyonlin, name) is getattr(home, name)
        assert name in anyonlin.__all__ and name in dir(anyonlin)


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from anyonlin import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(anyonlin.__all__)
    assert sorted(anyonlin.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    assert anyonlin.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        anyonlin.nothing


def test_importing_the_package_loads_no_submodule():
    script = ("import sys, anyonlin\n"
              "print(sorted(name for name in sys.modules if name.startswith('anyonlin')))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "['anyonlin']"
