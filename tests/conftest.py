"""Shared grids and comparison helpers for the test suite."""

import os

# The dense oracles call BLAS on small matrices, where extra BLAS threads
# only contend for the CPU; this must run before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import math

import numpy as np

from anyonlin import AnyonSpec
from anyonlin.fock import StateVector, enumerate_sector
from anyonlin.cli import haar_unitary  # noqa: F401  (shared with the test modules)
from anyonlin.network import _build_element_unitary

# Exchange phases exercised across the suite; 0 is the standard limit.
PHI_GRID = (0.0, math.pi / 5, math.pi / 2, math.pi, 7 * math.pi / 4)

# Grid used for the SU(2) closure checks.
PHI_GRID_SU2 = (0.0, math.pi / 7, math.pi / 2, math.pi, 4 * math.pi / 3)


def both_classes(phi):
    return AnyonSpec.bosonic(phi), AnyonSpec.fermionic(phi)


def dense_evolve(network, sector, amps):
    """Reference evolution: a (dim,) vector or (dim, k) batch times each
    element's dense sector unitary in turn.

    ``evolve`` runs on the block kernel; this builds every unitary afresh
    through the dense oracle, so tests that compare against it check two
    independent paths.
    """
    for element in network.elements:
        amps = _build_element_unitary(sector, element).dot(amps)
    return amps


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
