"""Dual-rail qubits on anyonic modes and gate compilation to networks.

A logical qubit is one particle shared by a pair of neighboring modes,
|0_L> = |1,0> and |1_L> = |0,1>.  On a pair, a phase shifter on the
second mode is a logical Z rotation and a beam splitter across the pair
is a logical X rotation, so any single-qubit gate compiles into the
PS-BS-PS sandwich of the ZXZ Euler decomposition

    U = e^{i alpha} e^{-i beta Z / 2} e^{-i gamma X / 2} e^{-i delta Z / 2}.

Between every adjacent qubit pair the layout inserts one auxiliary mode
holding exactly one particle.  Applying the three-mode braiding network
to (second mode of the left qubit, auxiliary, first mode of the right
qubit) turns the lattice Aharonov-Bohm phase into the deterministic
entangling gate CP(phi) = diag(1, 1, 1, e^{i phi}); the auxiliary
particle returns to its mode on every logical input and never leaves
the circuit.  This works for both particle classes and any phi != 0.

Angle conventions used by the compiler (fixed once, verified against
random targets): PS_2(tau) acts as diag(1, e^{i tau}) ~ Rz(tau) up to
global phase, and BS_12(theta) acts as exp(i theta X), so Rx(gamma) is
realized with theta = -gamma / 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .fock import AnyonSpec, StateVector, enumerate_sector, number_expectation
from .network import BeamSplitter, Element, Network, PhaseShifter, Window, _Plan, \
    _kernel_cached, _plan, _run, _split, build_braiding_network, evolve

__all__ = [
    "CompileError",
    "LogicalLayout",
    "Rz",
    "Rx",
    "U1",
    "CP",
    "LogicalGate",
    "encode",
    "decode",
    "euler_zxz",
    "compile_single_qubit",
    "compile_cp",
    "compile_gate",
    "compile_circuit",
    "run_circuit",
    "simulate_circuit",
    "logical_unitary",
]


class CompileError(ValueError):
    """Gate cannot be compiled on this layout (e.g. non-adjacent CP)."""


@dataclass(frozen=True)
class LogicalLayout:
    """Mode bookkeeping for n dual-rail qubits with interleaved auxiliaries.

    Qubit q (1-based) lives on modes (3q - 2, 3q - 1); mode 3q is the
    auxiliary sitting between qubits q and q + 1.  Total modes
    m = 3n - 1, total particles n_qubits + n_aux, conserved throughout.
    """

    num_qubits: int

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError("need at least one qubit")

    @property
    def m(self) -> int:
        return 3 * self.num_qubits - 1

    @cached_property
    def qubit_modes(self) -> tuple[tuple[int, int], ...]:
        return tuple((3 * q - 2, 3 * q - 1) for q in range(1, self.num_qubits + 1))

    @cached_property
    def aux_modes(self) -> tuple[int, ...]:
        return tuple(3 * q for q in range(1, self.num_qubits))

    @property
    def n_particles(self) -> int:
        return self.num_qubits + self.num_qubits - 1

    def code_occupation(self, bits: str) -> tuple[int, ...]:
        """Occupation vector of the code-space state |bits>_L."""
        if len(bits) != self.num_qubits or any(b not in "01" for b in bits):
            raise ValueError(f"bitstring must be {self.num_qubits} characters of 0/1")
        occ = [0] * self.m
        for q, bit in enumerate(bits, start=1):
            lo, hi = self.qubit_modes[q - 1]
            occ[(hi if bit == "1" else lo) - 1] = 1
        for aux in self.aux_modes:
            occ[aux - 1] = 1
        return tuple(occ)


@dataclass(frozen=True)
class Rz:
    qubit: int
    beta: float


@dataclass(frozen=True)
class Rx:
    qubit: int
    gamma: float


@dataclass(frozen=True)
class U1:
    """General single-qubit gate by ZXZ Euler angles (alpha is global phase)."""

    qubit: int
    alpha: float
    beta: float
    gamma: float
    delta: float


@dataclass(frozen=True)
class CP:
    """Controlled phase diag(1, 1, 1, e^{i phi}); phi is the exchange phase."""

    qubit_a: int
    qubit_b: int


LogicalGate = Union[Rz, Rx, U1, CP]


def encode(spec: AnyonSpec, layout: LogicalLayout, bits: str) -> StateVector:
    """Product Fock state for the logical bitstring, auxiliaries occupied."""
    sector = enumerate_sector(layout.m, layout.n_particles, spec)
    return StateVector.basis_state(sector, layout.code_occupation(bits))


def decode(layout: LogicalLayout, state: StateVector) -> tuple[np.ndarray, float]:
    """Amplitudes on the code space plus leakage 1 - sum |amp|^2.

    The code space consists of dual-rail basis states with every
    auxiliary back at occupation one; anything else counts as leakage
    (the state is assumed normalized).
    """
    amps = np.array([state.amps.get(occ, 0j) for occ in _code_space(layout)],
                    dtype=np.complex128)
    leakage = 1.0 - float(np.sum(np.abs(amps) ** 2))
    return amps, leakage


def euler_zxz(u: np.ndarray) -> tuple[float, float, float, float]:
    """ZXZ Euler angles (alpha, beta, gamma, delta) of a 2x2 unitary.

    Satisfies u = e^{i alpha} Rz(beta) Rx(gamma) Rz(delta) up to a
    possible overall sign from the determinant square root, which a
    global-phase comparison absorbs.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    alpha = cmath.phase(det) / 2.0
    su = u * cmath.exp(-1j * alpha)
    # su is special unitary: [[a, b], [-conj(b), conj(a)]] with
    # a = e^{-i (beta + delta) / 2} cos(gamma / 2),
    # b = -i e^{-i (beta - delta) / 2} sin(gamma / 2).
    gamma = 2.0 * math.atan2(abs(su[1, 0]), abs(su[1, 1]))
    sum_bd = 2.0 * cmath.phase(su[1, 1]) if abs(su[1, 1]) > 1e-12 else 0.0
    diff_bd = 2.0 * (cmath.phase(su[1, 0]) + math.pi / 2.0) \
        if abs(su[1, 0]) > 1e-12 else 0.0
    beta = (sum_bd + diff_bd) / 2.0
    delta = (sum_bd - diff_bd) / 2.0
    return alpha, beta, gamma, delta


def _check_qubit(layout: LogicalLayout, qubit: int) -> None:
    if not 1 <= qubit <= layout.num_qubits:
        raise CompileError(f"qubit {qubit} outside 1..{layout.num_qubits}")


def compile_single_qubit(layout: LogicalLayout, qubit: int, alpha: float,
                         beta: float, gamma: float, delta: float) -> Network:
    """PS-BS-PS network realizing the ZXZ gate on one qubit pair.

    alpha only contributes a global phase and is dropped.
    """
    return compile_circuit(layout, [U1(qubit, alpha, beta, gamma, delta)])


def compile_cp(layout: LogicalLayout, qubit_a: int, qubit_b: int) -> Network:
    """Braiding network between adjacent qubits through their auxiliary.

    The three braided modes are (second mode of qubit_a, auxiliary,
    first mode of qubit_b), and the network holds the braid as one
    ``Window`` on them, which the block kernel applies as one step
    through a cached unitary per window total.  Non-adjacent qubits
    raise CompileError: routing is out of scope, chain CPs or compile
    SWAPs explicitly.
    """
    return compile_circuit(layout, [CP(qubit_a, qubit_b)])


def compile_gate(layout: LogicalLayout, gate: LogicalGate) -> Network:
    return compile_circuit(layout, [gate])


def _gate_angles(gate: LogicalGate) -> tuple[float, ...]:
    """The network angles of the gate's elements, in order: none for a CP's
    braid window, (delta, -gamma / 2, beta) for a single-qubit gate's
    PS-BS-PS sandwich of its ZXZ angles."""
    if isinstance(gate, CP):
        return ()
    if isinstance(gate, Rz):
        beta, gamma, delta = gate.beta, 0.0, 0.0
    elif isinstance(gate, Rx):
        beta, gamma, delta = 0.0, gate.gamma, 0.0
    elif isinstance(gate, U1):
        beta, gamma, delta = gate.beta, gate.gamma, gate.delta
    else:
        raise CompileError(f"unknown gate {gate!r}")
    return delta, -gamma / 2.0, beta


def _gate_elements(layout: LogicalLayout, gate: LogicalGate) -> tuple[Element, ...]:
    """A CP's braid window, or a single-qubit gate's PS-BS-PS sandwich."""
    if isinstance(gate, CP):
        a, b = gate.qubit_a, gate.qubit_b
        _check_qubit(layout, a)
        _check_qubit(layout, b)
        if b != a + 1:
            raise CompileError(f"CP needs adjacent qubits sharing an auxiliary, got {a}, {b}")
        # second mode of qubit a, the auxiliary and first mode of qubit b: 3a - 1 .. 3a + 1
        return (Window(layout.qubit_modes[a - 1][1], build_braiding_network()),)
    delta, theta, beta = _gate_angles(gate)
    _check_qubit(layout, gate.qubit)
    lo, hi = layout.qubit_modes[gate.qubit - 1]
    return PhaseShifter(hi, delta), BeamSplitter(lo, hi, theta), PhaseShifter(hi, beta)


def compile_circuit(layout: LogicalLayout, gates: Sequence[LogicalGate]) -> Network:
    """The per-gate elements in circuit order, as one network."""
    return Network(layout.m, tuple(el for gate in gates for el in _gate_elements(layout, gate)))


def run_circuit(spec: AnyonSpec, layout: LogicalLayout,
                gates: Sequence[LogicalGate], bits: str) -> StateVector:
    """Physical state after evolving the encoded input through the circuit."""
    return evolve(compile_circuit(layout, gates), encode(spec, layout, bits))


def simulate_circuit(spec: AnyonSpec, layout: LogicalLayout,
                     gates: Sequence[LogicalGate], bits: str) -> np.ndarray:
    """Logical amplitudes after the compiled circuit on the given input."""
    amps, _leak = decode(layout, run_circuit(spec, layout, gates, bits))
    return amps


@_kernel_cached
def _code_space(layout: LogicalLayout) -> tuple[tuple[int, ...], ...]:
    """The occupation tuples of the code-space states |bits>_L, bits in
    binary order, which is sector order; the kernel names plan rows by
    these tuples, so no sector is enumerated for them."""
    n = layout.num_qubits
    return tuple(layout.code_occupation(format(idx, f"0{n}b")) for idx in range(2 ** n))


def _split_circuit(gates: Sequence[LogicalGate]) -> tuple[tuple, list[float]]:
    """The gates' signature and their network angles in element order.

    The signature holds each gate's qubits, one for a single-qubit gate
    and two for a CP: every single-qubit gate compiles to the same
    PS-BS-PS skeleton, so the signature fixes the compiled network up to
    its angles.
    """
    signature, angles = [], []
    for gate in gates:
        angles += _gate_angles(gate)
        signature.append((gate.qubit_a, gate.qubit_b) if isinstance(gate, CP) else (gate.qubit,))
    return tuple(signature), angles


@_kernel_cached
def _circuit_plan(layout: LogicalLayout, signature: tuple, spec: AnyonSpec) -> _Plan:
    """The kernel plan of every circuit of this signature on the code rows.

    Compiles the signature's circuit once, on zero angles, through
    ``compile_circuit``, so every qubit and adjacency check runs; a
    circuit that fails them raises and leaves nothing cached.  The plan
    is keyed by the code space's occupations (``_code_space``), so no
    sector of the layout is enumerated, and is built for this entry
    alone and counted in it.
    """
    gates = [CP(*qubits) if len(qubits) == 2 else U1(*qubits, 0.0, 0.0, 0.0, 0.0)
             for qubits in signature]
    skeleton, _angles = _split(compile_circuit(layout, gates), spec)
    return _plan.__wrapped__(layout.n_particles, spec.is_fermionic, skeleton, _code_space(layout))


def logical_unitary(spec: AnyonSpec, layout: LogicalLayout,
                    gates: Sequence[LogicalGate]) -> np.ndarray:
    """2^n x 2^n matrix of the compiled circuit on the code space.

    The circuit splits into its signature, each gate's qubits, and its
    angles.  The signature keys a cached plan on the code rows
    (``_circuit_plan``), compiled and checked once, so a call builds no
    network; the angles, read straight from the gates, then go through
    that plan in one batched pass.  All 2^n encoded inputs run as one
    batch on the code rows, whose amplitudes are the identity; the
    kernel's state holds only the rows the circuit reaches, led by the
    code rows in binary order (which is sector order), and those are
    read off directly.  A non-finite angle raises the ValueError of the
    element it would set, and an unknown gate or a bad qubit the error of
    ``compile_circuit``.
    """
    signature, angles = _split_circuit(gates)
    if not all(map(math.isfinite, angles)) \
            or not all(type(qubit) is int for qubits in signature for qubit in qubits):
        # the network's own checks raise on a non-finite angle as the elements
        # do, gate by gate; a qubit that is not an int must pass them before
        # it keys the cache, where 1.0 would find the plan of qubit 1
        compile_circuit(layout, gates)
    plan = _circuit_plan(layout, signature, spec)
    size = 2 ** layout.num_qubits
    return _run(plan, angles, spec, np.eye(size))[:, :size].T.copy()


def auxiliary_occupations(layout: LogicalLayout, state: StateVector) -> list[float]:
    """Expectation of each auxiliary mode number in the given state."""
    return [number_expectation(state, aux) for aux in layout.aux_modes]
