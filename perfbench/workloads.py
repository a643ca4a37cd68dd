"""The four workloads: seeded inputs, one operation, and its oracle check.

Every workload is a closed loop with one caller.  ``next_input`` draws
the next operation's input from the seeded stream (outside the timed
span), ``run`` is the operation itself and ``check`` compares its output
with an independent oracle, raising ``oracles.CheckFailed`` on a
mismatch.  In-process workloads reach the engine through module
attributes looked up at call time, so the tracer's wrappers see every
top-level call.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracles
from manifest import CLI_SUBCOMMANDS
from tracer import Tracer, now

TWO_PI = 2.0 * math.pi


class Circuit:
    """Haar-random U1 on each of 3 qubits, then CP(1,2) and CP(2,3)."""

    qubits = 3
    warm_up_ops = 1

    def __init__(self, seed: int, root: Path, workdir: Path):
        import anyonlin.dualrail
        self.dualrail = anyonlin.dualrail
        self.rng = np.random.default_rng(seed)
        self.phi = float(self.rng.uniform(0.5, TWO_PI - 0.5))
        self.spec = anyonlin.AnyonSpec.bosonic(self.phi)
        self.layout = self.dualrail.LogicalLayout(self.qubits)
        self.pairs = [(q, q + 1) for q in range(1, self.qubits)]

    def next_input(self):
        dr = self.dualrail
        singles = [oracles.haar_unitary(self.rng) for _ in range(self.qubits)]
        gates = [dr.U1(q, *dr.euler_zxz(v)) for q, v in enumerate(singles, start=1)]
        gates += [dr.CP(a, b) for a, b in self.pairs]
        return singles, gates

    def run(self, inp):
        return self.dualrail.logical_unitary(self.spec, self.layout, inp[1])

    def check(self, inp, out) -> float:
        return oracles.check_circuit(out, oracles.circuit_oracle(inp[0], self.phi, self.pairs))


class Paths:
    """Random single-beam-splitter cases through the spectral and algebraic paths."""

    warm_up_ops = 20

    def __init__(self, seed: int, root: Path, workdir: Path):
        import anyonlin
        self.al = anyonlin
        self.rng = np.random.default_rng(seed)

    def next_input(self):
        rng = self.rng
        fermionic = bool(rng.random() < 0.5)
        phi = float(rng.uniform(0.0, TWO_PI))
        m = int(rng.integers(2, 7))
        i, j = sorted(int(x) for x in rng.choice(np.arange(1, m + 1), size=2, replace=False))
        theta = float(rng.uniform(-math.pi, math.pi))
        span = np.arange(i, j + 1)
        k = int(rng.integers(1, 5))
        if fermionic:  # a repeated fermionic mode would give the zero vector
            monomial = rng.choice(span, size=min(k, span.size), replace=False)
        else:
            monomial = rng.choice(span, size=k)
        return fermionic, phi, m, i, j, theta, [int(x) for x in monomial]

    def run(self, case):
        fermionic, phi, m, i, j, theta, monomial = case
        al = self.al
        spec = al.AnyonSpec.fermionic(phi) if fermionic else al.AnyonSpec.bosonic(phi)
        network = al.network.Network(m, (al.network.BeamSplitter(i, j, theta),))
        state = al.fock.vacuum_state(m, spec)
        for mode in reversed(monomial):
            state = al.fock.apply_create(state, mode)
        spectral = al.network.evolve(network, state)
        algebraic = al.network.propagate_algebraic(spec, network, monomial)
        return state, spectral, algebraic

    def check(self, case, out) -> float:
        state, spectral, algebraic = out
        norm = math.sqrt(sum(abs(a) ** 2 for a in state.amps.values()))
        return oracles.check_two_paths(spectral.amps, algebraic.amps, norm)


class Cat:
    """mirror_cat(u, phi = pi, Truncation(40)) for seeded 0.5 <= |u| <= 1.5."""

    n_max = 40
    warm_up_ops = 3

    def __init__(self, seed: int, root: Path, workdir: Path):
        import anyonlin.coherent
        self.coherent = anyonlin.coherent
        self.spec = anyonlin.AnyonSpec.bosonic(math.pi)
        self.truncation = self.coherent.Truncation(self.n_max)
        self.rng = np.random.default_rng(seed)

    def next_input(self) -> complex:
        return complex(np.exp(1j * self.rng.uniform(0.0, TWO_PI)) * self.rng.uniform(0.5, 1.5))

    def run(self, u):
        return self.coherent.mirror_cat(u, self.spec, self.truncation)

    def check(self, u, out) -> float:
        return oracles.check_cat(out.amps, u)


def _ket(occ) -> str:
    return "|" + ",".join(map(str, occ)) + ">"


class Cli:
    """A seeded mix of the five subcommands, each a fresh ``python -m anyonlin``.

    Subcommands come in shuffled rounds of all five, so every seed runs
    the same mix.  When ``tracer`` is set, calls go through
    ``cli_trace.py`` instead, which records spans inside the child
    process; they are merged under the operation's span.
    """

    kinds = CLI_SUBCOMMANDS
    warm_up_ops = 1
    call_timeout_s = 60

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.shim = Path(__file__).with_name("cli_trace.py")
        self.tracer: Tracer | None = None
        self.startups: list[float] = []
        self.caches: dict[str, list] = {}
        self._round: list[str] = []

    # --- inputs ---------------------------------------------------------

    def next_input(self):
        if not self._round:
            self._round = [str(k) for k in self.rng.permutation(self.kinds)]
        return getattr(self, "_make_" + self._round.pop())()

    def _phi(self) -> float:
        return float(self.rng.uniform(0.5, TWO_PI - 0.5))

    def _klass(self) -> str:
        return "fermionic" if self.rng.random() < 0.5 else "bosonic"

    def _make_hom(self):
        argv = ["hom", "--phi", repr(self._phi()), "--self-check"]
        return "hom", argv, oracles.check_hom

    def _make_braid(self):
        occ = list(oracles.BRAID_PHASE)[int(self.rng.integers(len(oracles.BRAID_PHASE)))]
        phi = self._phi()
        argv = ["braid", "--phi", repr(phi), "--class", self._klass(), "--input", _ket(occ),
                "--self-check"]
        return "braid", argv, lambda doc: oracles.check_braid(doc, occ, phi)

    def _occupation(self, m: int, n: int, fermionic: bool) -> tuple:
        occ = [0] * m
        if fermionic:
            for mode in self.rng.choice(m, size=n, replace=False):
                occ[int(mode)] = 1
        else:
            for mode in self.rng.integers(0, m, size=n):
                occ[int(mode)] += 1
        return tuple(occ)

    def _make_run(self):
        rng = self.rng
        klass = self._klass()
        m = int(rng.integers(2, 5))
        n = int(rng.integers(1, min(3, m) + 1))
        lines = [f"modes {m}"]
        for _ in range(int(rng.integers(1, 7))):
            angle = float(rng.uniform(-math.pi, math.pi))
            if rng.random() < 0.5:
                lines.append(f"ps {int(rng.integers(1, m + 1))} {angle!r}")
            else:
                i, j = (int(x) for x in rng.choice(np.arange(1, m + 1), size=2, replace=False))
                lines.append(f"bs {i} {j} {angle!r}")
        (self.workdir / "network.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        terms = []
        for _ in range(int(rng.integers(1, 3))):
            occ = self._occupation(m, n, klass == "fermionic")
            terms.append(f"{rng.uniform(0.2, 1.0):.4f}{rng.uniform(-1.0, 1.0):+.4f}i*{_ket(occ)}")
        argv = ["run", "--phi", repr(self._phi()), "--class", klass, "--network", "network.txt",
                "--input", " + ".join(terms), "--self-check"]
        return "run", argv, lambda doc: oracles.check_run(doc, n)

    def _make_compile(self):
        rng = self.rng
        phi = self._phi()
        angles = [[float(x) for x in rng.uniform(0.0, TWO_PI, size=4)] for _ in range(2)]
        gates = [{"type": "u1", "q": q, **dict(zip(("alpha", "beta", "gamma", "delta"), a))}
                 for q, a in enumerate(angles, start=1)]
        gates.append({"type": "cp", "a": 1, "b": 2})
        doc = {"qubits": 2, "phi": phi, "class": self._klass(), "gates": gates}
        (self.workdir / "circuit.json").write_text(json.dumps(doc), encoding="utf-8")
        bits = format(int(rng.integers(4)), "02b")
        want = oracles.circuit_oracle([oracles.zxz_gate(*a) for a in angles], phi, [(1, 2)])
        argv = ["compile", "--circuit", "circuit.json", "--input", bits, "--self-check"]
        return "compile", argv, lambda doc: oracles.check_compile(doc, want[:, int(bits, 2)], 2)

    def _make_cat(self):
        u = np.exp(1j * self.rng.uniform(0.0, TWO_PI)) * self.rng.uniform(0.5, 1.5)
        text = f"{u.real:.6f}{u.imag:+.6f}i"
        parsed = complex(text.replace("i", "j"))
        return "cat", ["cat", f"--u={text}"], lambda doc: oracles.check_cli_cat(doc, parsed)

    # --- the operation --------------------------------------------------

    def run(self, inp):
        _kind, argv, _check = inp
        if self.tracer is None:
            cmd = [sys.executable, "-m", "anyonlin", *argv]
        else:
            dump = self.workdir / "trace.json"
            dump.unlink(missing_ok=True)
            cmd = [sys.executable, str(self.shim), str(dump), *argv]
        spawned = now()
        proc = subprocess.run(cmd, env=self.env, cwd=self.workdir, capture_output=True,
                              text=True, timeout=self.call_timeout_s)
        if self.tracer is not None and dump.exists():
            self._absorb(json.loads(dump.read_text(encoding="utf-8")), spawned)
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return json.loads(proc.stdout)

    def _absorb(self, doc: dict, spawned: float) -> None:
        self.tracer.merge(doc["trace"])
        self.startups.append(doc["main_entered"] - spawned)
        for prefix, info in doc["caches"].items():
            total = self.caches.setdefault(prefix, [0, 0, 0, 0])
            if info is not None:
                hits, misses, size = info
                total[0] += hits
                total[1] += hits + misses
                total[2] += size
                total[3] += 1

    def check(self, inp, doc) -> float:
        return inp[2](doc)

    @staticmethod
    def kind(inp) -> str:
        """The subcommand of an input."""
        return inp[0]


WORKLOADS = {"circuit": Circuit, "paths": Paths, "cat": Cat, "cli": Cli}
