"""Tests of the benchmark itself: its checks fail on corrupted results, the
harness counts those failures, the tracer's arithmetic holds and
BENCHMARK.json keeps to the format the harness relies on.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import child
import manifest
import oracles
import run
import workloads
from tracer import Tracer, cache_stats, instrument

ROOT = Path(__file__).resolve().parents[2]


class Corrupted:
    """A real workload whose outputs pass through ``corrupt`` before the check."""

    def __init__(self, inner, corrupt):
        self.inner = inner
        self.corrupt = corrupt

    def next_input(self):
        return self.inner.next_input()

    def run(self, inp):
        return self.corrupt(self.inner.run(inp))

    def check(self, inp, out):
        return self.inner.check(inp, out)


class TwoQubitCircuit(workloads.Circuit):
    qubits = 2


def _phase(workload, ops: int) -> child.Phase:
    """Run exactly ``ops`` operations through the harness loop."""
    phase = child.Phase()
    for _ in range(ops):
        child.run_op(workload, phase)
    return phase


def _shift_first_amplitude(state):
    occ = next(iter(state.amps))
    state.amps[occ] += 1e-6
    return state


def test_clean_outputs_pass_every_check(tmp_path):
    for workload in (TwoQubitCircuit(1, ROOT, tmp_path), workloads.Paths(1, ROOT, tmp_path),
                     workloads.Cat(1, ROOT, tmp_path)):
        phase = _phase(workload, 3)
        assert phase.failed == 0, phase.errors
        assert len(phase.times) == 3
        assert phase.max_dev < 1e-9


@pytest.mark.parametrize("make, corrupt", [
    (TwoQubitCircuit, lambda u: u * np.diag([1, 1, 1, np.exp(1e-6j)])),
    (workloads.Paths, lambda out: (out[0], out[1], _shift_first_amplitude(out[2]))),
    (workloads.Cat, lambda state: type(state)(np.roll(state.amps, 1, axis=1))),
])
def test_corrupted_results_count_as_failures(tmp_path, make, corrupt):
    phase = _phase(Corrupted(make(1, ROOT, tmp_path), corrupt), 3)
    assert phase.attempted == 3
    assert phase.failed == 3
    assert phase.times == []
    assert "CheckFailed" in phase.errors[0]


def test_exception_in_an_operation_counts_as_failure(tmp_path):
    def boom(_out):
        raise ArithmeticError("self-check failed")

    phase = _phase(Corrupted(workloads.Cat(1, ROOT, tmp_path), boom), 2)
    assert (phase.attempted, phase.failed) == (2, 2)
    with pytest.raises(RuntimeError):
        child.end_to_end("cat", phase)


def test_cli_checks_reject_corrupted_documents(tmp_path):
    cli = workloads.Cli(4, ROOT, tmp_path)
    seen = set()
    while seen != set(cli.kinds):
        kind, argv, check = cli.next_input()
        seen.add(kind)
        doc = json.loads(subprocess.run([sys.executable, "-m", "anyonlin", *argv], cwd=tmp_path,
                                        env=cli.env, capture_output=True, text=True,
                                        check=True).stdout)
        assert check(doc) < 1e-9
        key = "logical_amplitudes" if kind == "compile" else "amplitudes"
        largest = max(doc[key], key=lambda e: abs(complex(e["re"], e["im"])))
        largest["re"] += 1e-3
        with pytest.raises(oracles.CheckFailed):
            check(doc)


def test_cli_cat_takes_a_negative_amplitude(tmp_path):
    cli = workloads.Cli(0, ROOT, tmp_path)
    inp = cli._make_cat()
    while not inp[1][1].startswith("--u=-"):
        inp = cli._make_cat()
    assert cli.check(inp, cli.run(inp)) < 1e-9


def test_circuit_oracle_matches_the_engine_on_three_qubits():
    import anyonlin.dualrail as dr
    from anyonlin import AnyonSpec

    rng = np.random.default_rng(7)
    singles = [oracles.haar_unitary(rng) for _ in range(3)]
    gates = [dr.U1(q, *dr.euler_zxz(v)) for q, v in enumerate(singles, 1)] + [dr.CP(1, 2)]
    phi = 2.1
    got = dr.logical_unitary(AnyonSpec.bosonic(phi), dr.LogicalLayout(3), gates)
    assert oracles.check_circuit(got, oracles.circuit_oracle(singles, phi, [(1, 2)])) < 1e-12


def test_zxz_gate_matches_the_euler_decomposition():
    from anyonlin.dualrail import euler_zxz

    target = oracles.haar_unitary(np.random.default_rng(3))
    assert oracles.phase_aligned_dev(oracles.zxz_gate(*euler_zxz(target)), target) < 1e-12


class Sleeper:
    """A workload whose operation and check each take at least 10 ms."""

    def next_input(self):
        return None

    def run(self, inp):
        time.sleep(0.01)

    def check(self, inp, out):
        time.sleep(0.01)
        return 0.0


def test_memory_is_read_after_a_fixed_op_count_and_checks_are_not_timed():
    phase = child.run_phase(Sleeper(), 0.05, rss_ops=8)
    assert phase.attempted == 8
    assert 1 <= phase.timed_ops < 8
    assert phase.rss_mb > 0
    metrics, stamp = child.end_to_end("cat", phase)
    assert metrics["peak_rss_mb"] == phase.rss_mb
    assert stamp["ops_timed"] == phase.timed_ops
    # Each operation takes at least 10 ms; counting its 10 ms check would halve the rate.
    assert 50.0 < metrics["ops_per_s"] <= 100.0


def test_tail_is_nearest_rank_with_count_beyond():
    times = [float(t) for t in range(1, 101)]
    assert child.tail(times, 99) == (99.0, 1)
    assert child.tail(times, 50) == (50.0, 50)
    assert child.tail([3.0], 99) == (3.0, 0)


def test_self_time_excludes_children_and_merges_child_processes():
    tracer = Tracer()

    def inner():
        return sum(range(20000))

    outer_fn = tracer.wrap("outer", lambda: tracer.wrap("inner", inner)())
    outer_fn()
    (_, inner_self), (_, outer_self) = tracer.stats["inner"], tracer.stats["outer"]
    assert tracer.stats["inner"][0] == tracer.stats["outer"][0] == 1
    assert math.isclose(outer_self + inner_self, tracer.root_s, rel_tol=1e-9)

    other = Tracer()
    other.wrap("cli.main", inner)()
    parent = Tracer()
    frame = parent.open()
    parent.merge(other.export())
    duration = parent.close("op", frame)
    assert parent.stats["cli.main"][0] == 1
    assert math.isclose(parent.stats["op"][1], duration - other.root_s, abs_tol=1e-12)
    assert parent.kept == 2


def test_instrument_patches_imported_names_and_reports_absent():
    import anyonlin
    import anyonlin.coherent
    import anyonlin.network

    original = anyonlin.network.evolve
    tracer = Tracer()
    absent = instrument(tracer, [("network.evolve", "anyonlin.network", "evolve"),
                                 ("gone.fn", "anyonlin.network", "no_such_function"),
                                 ("gone.mod", "anyonlin.no_such_module", "f")])
    traced = anyonlin.network.evolve
    try:
        assert absent == ["gone.fn", "gone.mod"]
        assert anyonlin.coherent.evolve is traced is anyonlin.evolve
        assert traced is not original
    finally:
        for name, module in list(sys.modules.items()):
            if name.startswith("anyonlin"):
                for key, value in list(vars(module).items()):
                    if value is traced:
                        setattr(module, key, original)
    assert cache_stats({"x": ("anyonlin.network", "no_such_cache")}) == {"x": None}


def test_size_guard_refuses_what_would_not_fit(monkeypatch):
    monkeypatch.setattr(run, "mem_available_bytes", lambda: 2 * 2 ** 30)
    with pytest.raises(run.BenchError) as refused:
        run.size_guard("circuit")
    assert refused.value.code == 2
    assert run.size_guard("cat")["cache_worst_case_bytes"] == 256 * 81 * 81 * 16
    assert manifest.cache_footprint_bytes("circuit") == 256 * 792 * 792 * 16


def test_benchmark_json_format_limits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(manifest.WORKLOADS)
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    metrics = doc["end_to_end"] + doc["per_layer"]
    assert all(name_re.match(n) for n in names + [m["name"] for m in metrics])
    assert len(set(names)) == len(names)
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(unit_re.match(m["unit"]) for m in metrics)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_run_refuses_without_engine_source(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cat", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
