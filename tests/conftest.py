"""Shared grids and comparison helpers for the test suite."""

import os

# The dense oracles call BLAS on small matrices, where extra BLAS threads
# only contend for the CPU; this must run before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import math

import numpy as np

from anyonlin import AnyonSpec

# Exchange phases exercised across the suite; 0 is the standard limit.
PHI_GRID = (0.0, math.pi / 5, math.pi / 2, math.pi, 7 * math.pi / 4)

# Grid used for the SU(2) closure checks.
PHI_GRID_SU2 = (0.0, math.pi / 7, math.pi / 2, math.pi, 4 * math.pi / 3)


def both_classes(phi):
    return AnyonSpec.bosonic(phi), AnyonSpec.fermionic(phi)


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


def haar_unitary(rng, dim=2):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def phase_align(reference, candidate):
    """Scale candidate by a global phase to match reference's largest entry."""
    idx = np.unravel_index(np.argmax(np.abs(reference)), np.shape(reference))
    return candidate * (np.asarray(reference)[idx] / np.asarray(candidate)[idx])
