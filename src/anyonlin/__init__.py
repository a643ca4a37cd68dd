"""Exact linear-optical dynamics of one-dimensional bosonic and fermionic anyons.

The public names below, and the submodules themselves, are imported on
first use (PEP 562), so a program that runs only the Fock space and the
networks never loads the operator, coherent-state or dual-rail modules.
"""

import importlib

#: Each public name by the submodule that defines it.
_HOMES = {
    "fock": ("AnyonSpec", "EmptySectorError", "FockSector", "ParticleClass", "StateVector",
             "apply_annihilate", "apply_create", "enumerate_sector", "number_expectation",
             "sign_eps", "vacuum_state"),
    "network": ("BeamSplitter", "GOperator", "Network", "PhaseShifter", "Window",
                "build_braiding_network", "evolve", "evolve_amplitudes", "propagate_algebraic",
                "single_particle_matrix"),
    "operators": ("ATOL_ALGEBRA", "ATOL_PHYSICS", "QuadraticCoeffs", "closure_defect",
                  "closure_defect_coefficient", "hamiltonian", "jw_image", "kerr_hamiltonian",
                  "quadratic_matrix", "su2_generators"),
    "coherent": ("CoherentFamily", "ExactGreater", "ExactLess", "SingleMode", "TruncatedState",
                 "Truncation", "Type1", "Type2", "coherence_function", "coherent_state",
                 "displacement", "evolve_family", "kerr_interconvert", "mirror_cat",
                 "two_mode_family_state"),
    "dualrail": ("CP", "CompileError", "LogicalLayout", "Rx", "Rz", "U1", "decode", "encode"),
}
_MODULES = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULES)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value     # later lookups find it without this call
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__) | set(_HOMES))
