"""Shared grids and comparison helpers for the test suite."""

import os

# The dense oracles call BLAS on small matrices, where extra BLAS threads
# only contend for the CPU; this must run before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import cmath
import math

import numpy as np

from anyonlin import AnyonSpec
from anyonlin.fock import StateVector, apply_create, enumerate_sector, vacuum_state
from anyonlin.cli import haar_unitary  # noqa: F401  (shared with the test modules)
from anyonlin.dualrail import CP, Rx, Rz, U1
from anyonlin import network as network_module
from anyonlin.network import BeamSplitter, PhaseShifter, UnsupportedPropagationError, Window
from anyonlin.operators import quadratic_matrix

# Exchange phases exercised across the suite; 0 is the standard limit.
PHI_GRID = (0.0, math.pi / 5, math.pi / 2, math.pi, 7 * math.pi / 4)

# Grid used for the SU(2) closure checks.
PHI_GRID_SU2 = (0.0, math.pi / 7, math.pi / 2, math.pi, 4 * math.pi / 3)


def both_classes(phi):
    return AnyonSpec.bosonic(phi), AnyonSpec.fermionic(phi)


def dense_unitary(sector, element):
    """The element's dense unitary exp(i G) on the sector, built afresh, read-only.

    The dense oracle: phase shifters are diagonal and exponentiated
    exactly; a beam splitter's generator theta (chi†_i chi_j + chi†_j
    chi_i) is Hermitian, so its eigendecomposition on the whole sector
    gives the unitary to machine precision.  A window is the product of
    its placed elements' unitaries.
    """
    mat = np.eye(sector.dim, dtype=np.complex128)
    for el in element.placed() if isinstance(element, Window) else (element,):
        if isinstance(el, PhaseShifter):
            mat = np.exp(1j * el.tau * sector.occ[:, el.mode - 1])[:, None] * mat
        else:
            i, j = el.mode_i, el.mode_j
            gen = el.theta * (quadratic_matrix(sector, i, j) + quadratic_matrix(sector, j, i))
            vals, vecs = np.linalg.eigh(gen)
            mat = (vecs * np.exp(1j * vals)) @ vecs.conj().T @ mat
    mat.setflags(write=False)
    return mat


def dense_evolve(network, sector, amps):
    """Reference evolution: a (dim,) vector or (dim, k) batch times each
    element's dense sector unitary in turn.

    ``evolve`` runs on the block kernel; this builds every unitary afresh
    through the dense oracle, so tests that compare against it check two
    independent paths.
    """
    for element in network.elements:
        amps = dense_unitary(sector, element).dot(amps)
    return amps


def reference_propagate_algebraic(spec, network, monomial):
    """Reference of ``propagate_algebraic`` in ``StateVector`` arithmetic.

    The same pushed factors, applied right to left to the vacuum state:
    each term is ``c * apply_create(state, mode)`` and the terms of a
    factor are summed with ``+``, so every step builds and checks a
    state.  ``propagate_algebraic`` runs the same operations in the same
    order on plain amplitude dicts, so the two agree bit for bit, in
    every value and in key order.
    """
    if len(network.elements) != 1 or not isinstance(network.elements[0], BeamSplitter):
        raise ValueError("algebraic propagation expects a network of exactly one beam splitter")
    bs = network.elements[0]
    lo, hi = sorted((bs.mode_i, bs.mode_j))
    for mode in monomial:
        if not 1 <= mode <= network.m:
            raise ValueError(f"monomial mode {mode} outside 1..{network.m}")
        if not lo <= mode <= hi:
            raise UnsupportedPropagationError(
                f"mode {mode} lies outside the beam splitter span [{lo}, {hi}]")
    cos_t = math.cos(bs.theta)
    sin_t = math.sin(bs.theta)
    winding = 0
    factors = []
    for mode in monomial:
        if mode in (lo, hi):
            other, sign = (hi, -1j) if mode == lo else (lo, 1j)
            branch = cmath.exp(sign * winding * spec.phi)
            factors.append(((mode, cos_t), (other, 1j * branch * sin_t)))
            winding += 1
        else:
            factors.append(((mode, 1.0),))
            winding += 2
    state = vacuum_state(network.m, spec)
    for factor in reversed(factors):
        pieces = [c * apply_create(state, mode) for mode, c in factor]
        state = sum(pieces[1:], pieces[0])
    return state


def occupations(sector, positions):
    """The occupation tuples of the sector rows ``positions``, in their order."""
    return tuple(sector.basis[pos] for pos in np.asarray(positions, dtype=np.intp).tolist())


def positions(sector, rows):
    """The sector positions of the occupation tuples ``rows``, as an intp array."""
    return np.array([sector.index[row] for row in rows], dtype=np.intp)


def kernel_plan(network, sector, support):
    """The block kernel's cached plan of the network on the sorted sector
    rows ``support``, with its ``rows`` read back as sector positions."""
    plan = network_module._plan(sector.n_total, sector.spec.is_fermionic,
                                network_module._split(network, sector.spec)[0],
                                occupations(sector, support))
    return plan._replace(rows=positions(sector, plan.rows))


def evolve_support(network, sector, support, values):
    """``_evolve_support`` on the sorted sector rows ``support``: (rows as
    sector positions, state)."""
    rows, state = network_module._evolve_support(network, sector, occupations(sector, support),
                                                 values)
    return positions(sector, rows), state


def live_blocks(sector, live, lo, hi, window):
    """The kernel's live blocks of BS_{lo,hi}, or of a window on lo..hi, for
    the sector rows ``live``: (rows, families, winding) of ``_live_blocks``,
    rows as sector positions and winding as an intp array."""
    rows, families, winding = network_module._live_blocks(
        sector.spec.is_fermionic, occupations(sector, live), lo, hi, window)
    return (positions(sector, rows), families,
            None if winding is None else np.array(winding, dtype=np.intp))


def reference_blocks(sector, live, lo, hi, window):
    """Reference of ``live_blocks`` from the definition, in plain Python.

    Groups ``sector.basis`` by the occupations outside the step's modes
    (lo and hi for a pair, lo..hi for a window), each group a block whose
    members run by their inside occupations in increasing order.  Keeps
    the blocks holding a row of ``live`` that the step acts on: a pair's
    of more than one state, a window's of inside total T > 0.  Orders
    them by T, then by their outside occupations, and lays each family
    of one T out member by member, block by block.  Returns the rows as
    a list, the families as (T, size, start, stop) and, for a pair, each
    row's winding k(k - 1)/2 + s k, with k = n_lo and s the particles
    strictly between lo and hi (None for a window).
    """
    inside = list(range(lo - 1, hi)) if window else [lo - 1, hi - 1]
    groups = {}
    for row, occ in enumerate(sector.basis):
        outside = tuple(n for mode, n in enumerate(occ) if mode not in inside)
        groups.setdefault(outside, []).append((tuple(occ[mode] for mode in inside), row))
    live = set(np.asarray(live).tolist())
    kept = sorted((sum(members[0][0]), outside, sorted(members))
                  for outside, members in groups.items()
                  if any(row in live for _inner, row in members)
                  and (sum(members[0][0]) > 0 if window else len(members) > 1))
    rows, winding, families = [], [], []
    for total in sorted({block[0] for block in kept}):
        family = [members for block_total, _outside, members in kept if block_total == total]
        start = len(rows)
        for rank in range(len(family[0])):
            for members in family:
                inner, row = members[rank]
                rows.append(row)
                k, between = inner[0], sum(sector.basis[row][lo:hi - 1])
                winding.append(k * (k - 1) // 2 + between * k)
        families.append((total, len(family[0]), start, len(rows)))
    return rows, families, None if window else winding


def plan_leaves(obj):
    """Every object nested tuples hold that is not itself a tuple, as in a
    plan or a kernel cache entry."""
    if isinstance(obj, tuple):
        for item in obj:
            yield from plan_leaves(item)
    else:
        yield obj


def beam_splitter_steps(plan):
    """The plan's beam-splitter steps, in order."""
    return [step for step in plan.steps if step[0] == network_module._HOP]


def stepwise_evolve_support(network, sector, support, values):
    """The kernel's plan of the network run step by step, each angle through
    its own formula: exp(1j * tau * arange(n + 1))[codes] for a phase
    shifter, W_N(theta) = V exp(i theta lambda) V^T of its eigenpairs for a
    beam splitter and exp(1j * phi * arange(w_max + 1))[winding] for its
    dress.  The reference of the batched angle pass; returns (rows, state)
    as ``_evolve_support`` does."""
    _skeleton, angles = network_module._split(network, sector.spec)
    plan = kernel_plan(network, sector, support)   # rows as sector positions
    top = sector.n_total
    phi = sector.spec.phi + (math.pi if sector.spec.is_fermionic else 0.0)
    state = np.zeros((values.shape[1], len(plan.rows)), dtype=np.complex128)
    state[:, :len(values)] = values.T
    flat = state.reshape(-1)
    columns = len(plan.rows) * np.arange(len(state))[:, None]
    ordinal = 0
    for step in plan.steps:
        kind = step[0]
        if kind == network_module._HOP:
            _kind, start, stop, families, first, w_max, group, member = step
            record, members = plan.hop_groups[group]
            theta = angles[members[member, 0, 0]]
            vals, vecs = record
            hops = (vecs * np.exp(1j * theta * vals)[:, None, :]) @ vecs.transpose(0, 2, 1)
            where = plan.gathered[start:stop] + columns
            part = flat[where]
            if w_max:
                dress = np.exp(1j * phi * np.arange(w_max + 1))[
                    plan.winding[first:first + stop - start]]
                part *= dress.conj()
            part = network_module._block_products(part, hops, families)
            if w_max:
                part *= dress
            flat[where] = part
            continue
        if kind == network_module._WINDOW:
            _kind, start, stop, families, sub, totals = step
            where = plan.gathered[start:stop] + columns
            stack, = network_module._window_unitaries(sub, sector.spec, totals)
            flat[where] = network_module._block_products(flat[where], stack, families)
            continue
        if kind == network_module._PHASE:
            _kind, width, first = step
            tau = angles[plan.taus[ordinal, 0]]
            codes = plan.codes[first:first + width] - ordinal * (top + 1)
            phases = np.exp(1j * tau * np.arange(top + 1))[codes]
            ordinal += 1
        else:
            _kind, width, phases, _totals = step
        if width == 1:
            for row in state:
                row[:1] *= phases
        else:
            state[:, :width] *= phases
    return plan.rows, state


def shellwise_oracle(state, network, spec):
    """Reference evolution of a two-mode truncated state: each total-occupation
    shell as a ``StateVector`` through ``dense_evolve``, pruned as
    ``from_vector`` prunes.  Returns (amplitudes within the cutoff,
    probability past it)."""
    n_max = state.n_max
    out = np.zeros_like(state.amps)
    lost = 0.0
    for n in range(2 * n_max + 1):
        entries = {(l, n - l): state.amps[l, n - l]
                   for l in range(max(0, n - n_max), min(n, n_max) + 1)
                   if state.amps[l, n - l] != 0.0}
        if not entries:
            continue
        sector = enumerate_sector(2, n, spec)
        vec = dense_evolve(network, sector, StateVector(sector, entries).to_vector())
        evolved = StateVector.from_vector(sector, vec)
        for (l, k), amp in evolved.amps.items():
            if l <= n_max and k <= n_max:
                out[l, k] += amp
            else:
                lost += abs(amp) ** 2
    return out, lost


def state_deviation(state, expected):
    """Max amplitude deviation from an occ -> amplitude mapping.

    Amplitudes present in the state but absent from ``expected`` count
    with their full magnitude, so the comparison is two-sided.
    """
    dev = 0.0
    for occ, amp in expected.items():
        dev = max(dev, abs(state.amplitude(occ) - amp))
    for occ, amp in state.amps.items():
        if tuple(occ) not in expected:
            dev = max(dev, abs(amp))
    return dev


def states_close(a, b):
    """Max amplitude deviation between two states on one sector."""
    assert a.sector == b.sector
    keys = set(a.amps) | set(b.amps)
    return max((abs(a.amplitude(k) - b.amplitude(k)) for k in keys), default=0.0)


def phase_align(reference, candidate):
    """Scale candidate by a global phase to match reference's largest entry."""
    idx = np.unravel_index(np.argmax(np.abs(reference)), np.shape(reference))
    return candidate * (np.asarray(reference)[idx] / np.asarray(candidate)[idx])


# dense 2x2 oracles, independent of the compiler's conventions
def rz_mat(beta):
    return np.diag([cmath.exp(-1j * beta / 2), cmath.exp(1j * beta / 2)])


def rx_mat(gamma):
    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def embed(gate, qubit, n):
    out = np.eye(1)
    for q in range(1, n + 1):
        out = np.kron(out, gate if q == qubit else np.eye(2))
    return out


def cp_embed(phi, a, b, n):
    """CP(phi) between qubits a and b of n; qubit 1 is the leading bit."""
    both = [(idx >> (n - a)) & 1 and (idx >> (n - b)) & 1 for idx in range(2 ** n)]
    return np.diag([cmath.exp(1j * phi) if hit else 1.0 for hit in both])


def circuit_oracle(gates, phi, n):
    """Dense 2^n matrix of the logical circuit."""
    total = np.eye(2 ** n, dtype=complex)
    for gate in gates:
        if isinstance(gate, Rz):
            factor = embed(rz_mat(gate.beta), gate.qubit, n)
        elif isinstance(gate, Rx):
            factor = embed(rx_mat(gate.gamma), gate.qubit, n)
        elif isinstance(gate, U1):
            u = cmath.exp(1j * gate.alpha) * rz_mat(gate.beta) @ rx_mat(gate.gamma) \
                @ rz_mat(gate.delta)
            factor = embed(u, gate.qubit, n)
        elif isinstance(gate, CP):
            factor = cp_embed(phi, gate.qubit_a, gate.qubit_b, n)
        total = factor @ total
    return total
