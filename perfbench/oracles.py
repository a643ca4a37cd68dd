"""Independent reference results and the per-operation checks built on them.

Nothing here imports anyonlin: every reference is computed from the
physics with numpy alone, so a wrong engine cannot agree with itself.
Each check returns the largest deviation it saw and raises CheckFailed
when that deviation is above its tolerance.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping, Sequence

import numpy as np

#: Two-path agreement tolerance (the engine's ATOL_PHYSICS at the seed commit).
PATHS_TOL = 1e-10
#: Dense circuit oracle agreement and unitarity, up to global phase.
CIRCUIT_TOL = 1e-9
#: Norm drift, leakage and phase checks on CLI output.
NORM_TOL = 1e-10
#: Cat fidelity must reach 1 - CAT_TOL, as inside mirror_cat.
CAT_TOL = 1e-8


class CheckFailed(AssertionError):
    """An operation's output disagreed with its oracle."""


def _require(dev: float, tol: float, what: str) -> float:
    if not dev <= tol:  # also catches NaN
        raise CheckFailed(f"{what}: deviation {dev!r} above {tol!r}")
    return dev


def haar_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random 2x2 unitary (QR of a complex Ginibre matrix, phases fixed)."""
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def zxz_gate(alpha: float, beta: float, gamma: float, delta: float) -> np.ndarray:
    """e^{i alpha} Rz(beta) Rx(gamma) Rz(delta), with Rz(t) = diag(e^{-it/2}, e^{it/2})."""
    def rz(t: float) -> np.ndarray:
        return np.diag([cmath.exp(-0.5j * t), cmath.exp(0.5j * t)])

    c, s = math.cos(gamma / 2.0), math.sin(gamma / 2.0)
    rx = np.array([[c, -1j * s], [-1j * s, c]])
    return cmath.exp(1j * alpha) * (rz(beta) @ rx @ rz(delta))


def circuit_oracle(singles: Sequence[np.ndarray], phi: float,
                   cp_pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Dense 2^n matrix: one 2x2 gate per qubit, then controlled phases.

    Qubit 1 is the most significant bit of the basis index.  CP(a, b)
    multiplies every basis state whose bits a and b are both 1 by e^{i phi}.
    """
    n = len(singles)
    mat = np.ones((1, 1), dtype=np.complex128)
    for gate in singles:
        mat = np.kron(mat, gate)
    diag = np.ones(2 ** n, dtype=np.complex128)
    for a, b in cp_pairs:
        for idx in range(2 ** n):
            if (idx >> (n - a)) & 1 and (idx >> (n - b)) & 1:
                diag[idx] *= cmath.exp(1j * phi)
    return diag[:, None] * mat


def phase_aligned_dev(got: np.ndarray, want: np.ndarray) -> float:
    """Largest |got * c - want| over entries, c the unit phase that aligns them."""
    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    pivot = int(np.argmax(np.abs(want)))
    ref = got.flat[pivot]
    if abs(ref) == 0.0:
        return float("inf")
    ratio = want.flat[pivot] / ref
    return float(np.max(np.abs(got * (ratio / abs(ratio)) - want)))


def check_circuit(got: np.ndarray, want: np.ndarray) -> float:
    """Logical unitary against the dense oracle, plus unitarity of the result."""
    if got.shape != want.shape:
        raise CheckFailed(f"logical unitary has shape {got.shape}, expected {want.shape}")
    dev = _require(phase_aligned_dev(got, want), CIRCUIT_TOL, "circuit vs dense oracle")
    eye = np.eye(got.shape[0])
    unitarity = float(np.max(np.abs(got.conj().T @ got - eye)))
    return max(dev, _require(unitarity, CIRCUIT_TOL, "logical unitarity"))


def check_two_paths(spectral: Mapping[tuple, complex], algebraic: Mapping[tuple, complex],
                    input_norm: float) -> float:
    """Spectral and algebraic amplitudes agree entry by entry; norm is kept."""
    keys = set(spectral) | set(algebraic)
    dev = max((abs(spectral.get(k, 0.0) - algebraic.get(k, 0.0)) for k in keys), default=0.0)
    _require(dev, PATHS_TOL, "spectral vs algebraic path")
    norm = math.sqrt(sum(abs(a) ** 2 for a in spectral.values()))
    drift = abs(norm - input_norm)
    return max(dev, _require(drift, PATHS_TOL, "norm drift"))


def coherent_amplitudes(g: complex, n_max: int) -> np.ndarray:
    """e^{-|g|^2/2} g^n / sqrt(n!) for n = 0..n_max."""
    amps = np.empty(n_max + 1, dtype=np.complex128)
    amps[0] = math.exp(-0.5 * abs(g) ** 2)
    for n in range(1, n_max + 1):
        amps[n] = amps[n - 1] * g / math.sqrt(n)
    return amps


def cat_reference(u: complex, n_max: int) -> np.ndarray:
    """Two-mode amplitudes of the mirror's phi = pi output for |u> on mode 1.

    The mirror sends u to w = i u on mode 2, where the state resolves into
    e^{i pi/4} |-i w> - e^{3 i pi/4} |+i w>.
    """
    w = 1j * u
    branch = (cmath.exp(1j * math.pi / 4.0) * coherent_amplitudes(-1j * w, n_max)
              - cmath.exp(3j * math.pi / 4.0) * coherent_amplitudes(1j * w, n_max))
    amps = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
    amps[0, :] = branch
    return amps


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>|^2 / (|a|^2 |b|^2)."""
    return abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real)


def check_cat(amps: np.ndarray, u: complex) -> float:
    """Fidelity of the evolved amplitudes against the two-branch closed form."""
    n_max = amps.shape[0] - 1
    return _require(1.0 - fidelity(amps, cat_reference(u, n_max)), CAT_TOL, "cat fidelity")


# --- checks on the JSON documents the command line prints ---------------


def amplitudes_of(doc: dict, key: str = "amplitudes", label: str = "occ") -> dict:
    """{occupation tuple or bit string: complex} from a CLI amplitude list."""
    out = {}
    for entry in doc[key]:
        tag = tuple(entry[label]) if label == "occ" else entry[label]
        out[tag] = complex(entry["re"], entry["im"])
    return out


def _norm_dev(amps: Mapping) -> float:
    return _require(abs(math.sqrt(sum(abs(a) ** 2 for a in amps.values())) - 1.0),
                    NORM_TOL, "output norm")


def check_hom(doc: dict) -> float:
    """Bosonic anyons at a balanced splitter: |1,1> bunches into |2,0>, |0,2> equally."""
    amps = amplitudes_of(doc)
    dev = _norm_dev(amps)
    dev = max(dev, _require(abs(amps.get((1, 1), 0.0)), NORM_TOL, "coincidence amplitude"))
    for occ in ((2, 0), (0, 2)):
        dev = max(dev, _require(abs(abs(amps.get(occ, 0.0)) ** 2 - 0.5), NORM_TOL,
                                f"bunching probability of {occ}"))
    return dev


#: Eigenphase of the braiding network on each basis input, as a multiple of phi.
BRAID_PHASE = {(1, 1, 0): 1, (1, 0, 1): -1, (0, 1, 1): 0,
               (1, 0, 0): 0, (0, 1, 0): 0, (0, 0, 1): 0, (1, 1, 1): 0}


def check_braid(doc: dict, occ: tuple, phi: float) -> float:
    """The braiding network is diagonal with phase e^{i k phi} on each basis input."""
    amps = amplitudes_of(doc)
    dev = _norm_dev(amps)
    want = cmath.exp(1j * BRAID_PHASE[occ] * phi)
    return max(dev, _require(abs(amps.get(occ, 0.0) - want), NORM_TOL, "braid eigenphase"))


def check_run(doc: dict, n_total: int) -> float:
    """Unit norm, and every output occupation keeps the input particle number."""
    amps = amplitudes_of(doc)
    for occ in amps:
        if sum(occ) != n_total:
            raise CheckFailed(f"output occupation {occ} does not hold {n_total} particles")
    return _norm_dev(amps)


def check_compile(doc: dict, want_column: np.ndarray, bits_count: int) -> float:
    """Logical amplitudes against the oracle column, and no leakage."""
    dev = _require(abs(doc["leakage"]), NORM_TOL, "leakage")
    amps = amplitudes_of(doc, key="logical_amplitudes", label="bits")
    got = np.array([amps.get(format(idx, f"0{bits_count}b"), 0.0)
                    for idx in range(2 ** bits_count)])
    return max(dev, _require(phase_aligned_dev(got, want_column), CIRCUIT_TOL,
                             "compiled amplitudes vs dense oracle"))


def check_cli_cat(doc: dict, u: complex) -> float:
    """The reported fidelity and the printed amplitudes both match the cat."""
    n_max = doc["nmax"]
    dev = _require(1.0 - doc["fidelity"], CAT_TOL, "reported cat fidelity")
    amps = np.zeros((n_max + 1, n_max + 1), dtype=np.complex128)
    for (l, k), amp in amplitudes_of(doc).items():
        amps[l, k] = amp
    return max(dev, check_cat(amps, u))
