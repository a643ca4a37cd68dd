"""Exact linear-optical dynamics of one-dimensional bosonic and fermionic anyons."""

from .fock import (
    AnyonSpec,
    EmptySectorError,
    FockSector,
    ParticleClass,
    StateVector,
    apply_annihilate,
    apply_create,
    enumerate_sector,
    number_expectation,
    sign_eps,
    vacuum_state,
)
from .network import (
    BeamSplitter,
    GOperator,
    Network,
    PhaseShifter,
    Window,
    build_braiding_network,
    evolve,
    evolve_amplitudes,
    propagate_algebraic,
    single_particle_matrix,
)
from .operators import (
    ATOL_ALGEBRA,
    ATOL_PHYSICS,
    QuadraticCoeffs,
    closure_defect,
    closure_defect_coefficient,
    hamiltonian,
    jw_image,
    kerr_hamiltonian,
    quadratic_matrix,
    su2_generators,
)
from .coherent import (
    CoherentFamily,
    ExactGreater,
    ExactLess,
    SingleMode,
    TruncatedState,
    Truncation,
    Type1,
    Type2,
    coherence_function,
    coherent_state,
    displacement,
    evolve_family,
    kerr_interconvert,
    mirror_cat,
    two_mode_family_state,
)
from .dualrail import (
    CP,
    CompileError,
    LogicalLayout,
    Rx,
    Rz,
    U1,
    compile_cp,
    compile_single_qubit,
    decode,
    encode,
    simulate_circuit,
)

__version__ = "0.1.0"
