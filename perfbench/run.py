"""Benchmark of the anyonlin engine: four seeded workloads, checked outputs.

One run of one workload (what BENCHMARK.json's command runs)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full report (environment stamp, set-up samples,
op counts, tail percentile, absent boundaries), also written to
``perfbench/out/``.  ``--trace 0`` reports the end-to-end metrics, with
``setup_s`` the median over fresh processes; ``--trace 1`` reports the
per-layer metrics and the tracing overhead.

Every workload, untraced and traced, as one table::

    python3 perfbench/run.py [--seed N] [--seconds S]

Workloads, metrics, units and bounds come from BENCHMARK.json at the
repository root.  Each workload runs in fresh processes with BLAS
pinned to one thread, and the engine is imported from ``src/`` of the
checkout that holds this directory.  Exit codes: 0 done, 1 a run
failed, 2 the engine is missing or a size guard refused the workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import manifest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Wall-time budget of one run, set-up processes included.
DEADLINE_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """A run could not produce a result; exit code in ``code``."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def mem_available_bytes() -> int | None:
    try:
        with open("/proc/meminfo", encoding="ascii") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


def size_guard(workload: str) -> dict:
    """Refuse a workload whose full unitary cache would not fit in half of MemAvailable."""
    need = manifest.cache_footprint_bytes(workload)
    available = mem_available_bytes()
    if available is not None and need > available / 2:
        raise BenchError(f"{workload}: worst-case unitary cache {need / 2**30:.2f} GiB exceeds "
                         f"half of MemAvailable ({available / 2**30:.2f} GiB)", code=2)
    return {"cache_worst_case_bytes": need, "mem_available_bytes": available}


def source_stamp() -> dict:
    """The commit when the checkout is a git repository, and a digest of the engine source."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], text=True,
                                    capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run child.py to completion; its last stdout line and the time it was started."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"workload process passed the {DEADLINE_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1]), started


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: the result line plus the report it came from."""
    deadline = time.monotonic() + DEADLINE_S
    guard = size_guard(workload)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
              "--trace", str(trace), "--out", str(OUT)]
    setups = []
    if trace == 0:
        for _ in range(manifest.SETUP_SAMPLES - 1):
            doc, started = spawn(common + ["--setup-only"], deadline)
            setups.append(doc["ready"] - started)
    doc, started = spawn(common, deadline)
    setups.append(doc["ready"] - started)
    metrics = doc["metrics"]
    wanted = manifest.END_TO_END if trace == 0 else manifest.PER_LAYER
    if trace == 0:
        metrics["setup_s"] = statistics.median(setups)
    result = {
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    stamp = {
        **source_stamp(), "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "setup_samples": len(setups), **guard, **doc["stamp"],
    }
    report = {"stamp": stamp, "setup_samples_s": setups, "errors": doc["errors"],
              "absent": doc.get("absent", []), "untraced": doc.get("untraced"), "result": result}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return report


def _fmt(value: float) -> str:
    return f"{value:.4g}"


def run_all(seed: int, seconds: float) -> None:
    """Every workload untraced then traced; print both tables and save a summary."""
    summary = {}
    for workload in manifest.WORKLOADS:
        print(f"running {workload} ...", file=sys.stderr, flush=True)
        summary[workload] = {"untraced": run_one(workload, seed, seconds, 0),
                             "traced": run_one(workload, seed, seconds, 1)}
    names = list(manifest.WORKLOADS)
    print("end-to-end (untraced runs)")
    print(f"{'metric':36s}{'unit':8s}" + "".join(f"{n:>14s}" for n in names))
    for metric in manifest.END_TO_END:
        cells = [summary[n]["untraced"]["result"]["metrics"][metric["name"]]["value"] for n in names]
        print(f"{metric['name']:36s}{metric['unit']:8s}" + "".join(f"{_fmt(v):>14s}" for v in cells))
    fails = [summary[n]["untraced"]["result"] for n in names]
    print(f"{'fail_ratio':36s}{'ratio':8s}"
          + "".join(f"{_fmt(r['failed'] / r['attempted']):>14s}" for r in fails))
    for key, label in (("op_tail_pct", "op_tail percentile"), ("op_tail_beyond", "ops beyond tail"),
                       ("ops_attempted", "ops attempted")):
        cells = [summary[n]["untraced"]["stamp"][key] for n in names]
        print(f"{label:36s}{'':8s}" + "".join(f"{c:>14}" for c in cells))
    print("\nper layer (traced runs; per op unless the unit says otherwise)")
    for metric in manifest.PER_LAYER:
        cells = [summary[n]["traced"]["result"]["metrics"][metric["name"]]["value"] for n in names]
        if any(cells):
            print(f"{metric['name']:36s}{metric['unit']:8s}"
                  + "".join(f"{_fmt(v):>14s}" for v in cells))
    out = OUT / f"summary-seed{seed}.json"
    out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(f"\nsummary written to {out}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(manifest.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=manifest.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "anyonlin" / "__init__.py").is_file():
        print(f"run.py: no anyonlin source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            run_all(args.seed, args.seconds)
            return 0
        report = run_one(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return err.code
    print(json.dumps({key: report[key] for key in ("stamp", "setup_samples_s", "absent", "errors")}))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
