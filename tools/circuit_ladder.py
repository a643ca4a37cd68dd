"""Plan size, time and peak memory of dual-rail circuits over a ladder of sizes.

A layer is a Haar-random U1 on every qubit, then CP on every adjacent
pair, at one bosonic phi.  For each qubit count and layer count the
script runs one fresh interpreter, which reports the sector dimension,
the rows of the kernel's plan for the circuit's 2^n code rows (read from
the cached compile that the timed calls ran), the time of the first
(cold: plan built) and the median of the next 20 (warm, fresh angles
each) ``logical_unitary`` calls, the median of 20 more at a fresh phi
each (``new_phi_s``: the signature's plan is cached at another phi, so
each call plans the circuit again), and its own peak RSS.  The
dimension comes from its closed form, so no sector is enumerated.  Each
case also runs the cold call's circuit through ``compile --circuit
--self-check`` in one fresh interpreter, as ``python -m anyonlin`` would,
and reports its wall time (``cli_compile_s``: interpreter start,
imports, encode, run and decode) and that process's own peak RSS
(``cli_peak_rss_mb``; Linux only).  It prints one JSON document.

    python tools/circuit_ladder.py [--qubits 3 4 5 6 8] [--layers 1 6]

The package is imported as installed or from PYTHONPATH, so
``PYTHONPATH=<checkout>/src`` measures that checkout.  BLAS runs on one
thread.  Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

PHI = 1.3
WARM_RUNS = 20
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


#: The fresh process of ``cli_compile``: what ``python -m anyonlin`` runs,
#: then its exit code and its own peak RSS in kB.  VmHWM is read because
#: the kernel's ru_maxrss of an exec'd child also counts the parent it was
#: forked from.
CHILD = """\
import contextlib, io, sys
from anyonlin.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(code, peak)
"""


def cli_compile(qubits: int, gates: list) -> tuple[float, float]:
    """Wall time and peak RSS (MB) of one fresh ``compile --circuit`` process on ``gates``."""
    from anyonlin import CP

    doc = {"qubits": qubits, "phi": PHI, "gates": [
        {"type": "cp", "a": gate.qubit_a, "b": gate.qubit_b} if isinstance(gate, CP) else
        {"type": "u1", "q": gate.qubit, "alpha": gate.alpha, "beta": gate.beta,
         "gamma": gate.gamma, "delta": gate.delta} for gate in gates]}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "circuit.json")
        with open(path, "w", encoding="utf-8") as out:
            json.dump(doc, out)
        start = time.perf_counter()
        child = subprocess.run(
            [sys.executable, "-c", CHILD, "compile", "--circuit", path, "--self-check"],
            env=dict(os.environ, **ONE_THREAD), check=True, capture_output=True, text=True)
        wall = time.perf_counter() - start
    code, peak_kb = child.stdout.split()
    if code != "0":
        raise RuntimeError(f"compile --circuit exited {code}: {child.stderr}")
    return wall, int(peak_kb) / 1024


def measure(qubits: int, layers: int) -> dict:
    """One case, measured in this process."""
    from anyonlin import AnyonSpec, CP, LogicalLayout, U1
    from anyonlin.cli import haar_unitary
    from anyonlin.dualrail import _circuit_plan, _split_circuit, euler_zxz, logical_unitary
    from anyonlin.fock import sector_dim

    rng = np.random.default_rng(0)
    spec = AnyonSpec.bosonic(PHI)
    layout = LogicalLayout(qubits)

    def circuit():
        gates = []
        for _layer in range(layers):
            gates += [U1(q, *euler_zxz(haar_unitary(rng))) for q in range(1, qubits + 1)]
            gates += [CP(q, q + 1) for q in range(1, qubits)]
        return gates

    first = circuit()
    start = time.perf_counter()
    logical_unitary(spec, layout, first)
    cold = time.perf_counter() - start
    warm = []
    for _run in range(WARM_RUNS):
        gates = circuit()
        start = time.perf_counter()
        logical_unitary(spec, layout, gates)
        warm.append(time.perf_counter() - start)
    new_phi = []
    for run in range(WARM_RUNS):
        gates, fresh = circuit(), AnyonSpec.bosonic(PHI + 0.01 * (run + 1))
        start = time.perf_counter()
        logical_unitary(fresh, layout, gates)
        new_phi.append(time.perf_counter() - start)
    # the plan the timed calls ran: the cached compile of their signature
    signature, _angles = _split_circuit(gates)
    plan = _circuit_plan(layout, signature, spec)
    dim = sector_dim(layout.m, layout.n_particles, spec.is_fermionic)
    cli_s, cli_rss = cli_compile(qubits, first)
    return {"qubits": qubits, "layers": layers, "dim": dim, "plan_rows": len(plan.rows),
            "cold_s": round(cold, 6), "warm_s": round(statistics.median(warm), 7),
            "new_phi_s": round(statistics.median(new_phi), 7),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "cli_compile_s": round(cli_s, 4), "cli_peak_rss_mb": round(cli_rss, 1)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--qubits", type=int, nargs="+", default=[3, 4, 5, 6, 8])
    parser.add_argument("--layers", type=int, nargs="+", default=[1, 6])
    parser.add_argument("--case", type=int, nargs=2, metavar=("QUBITS", "LAYERS"),
                        help=argparse.SUPPRESS)   # one case in this process, as a child
    args = parser.parse_args(argv)
    if args.case:
        print(json.dumps(measure(*args.case)))
        return 0
    env = dict(os.environ, **ONE_THREAD)
    cases = []
    for qubits in args.qubits:
        for layers in args.layers:
            child = subprocess.run(
                [sys.executable, __file__, "--case", str(qubits), str(layers)],
                env=env, check=True, capture_output=True, text=True)
            cases.append(json.loads(child.stdout))
    print(json.dumps({"python": platform.python_version(), "numpy": np.__version__,
                      "cpus": os.cpu_count(), "phi": PHI, "cases": cases}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
