"""One workload in one fresh process: set up, warm up, time, check, report.

Started by run.py with the engine on PYTHONPATH and BLAS pinned:

    python child.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR [--setup-only]

Set-up is the import, the workload's seeded input stream and its warm-up
operations; the monotonic time at which it ends is reported as
``ready``.  With ``--setup-only`` the process stops there.  Otherwise it
runs the closed loop for ``--seconds``: with ``--trace 0`` untraced, with
``--trace 1`` half untraced and half with spans, which gives the
per-layer numbers and the tracing overhead.  Oracle checks run after
each operation, outside its timed span.  Peak RSS is read after a fixed
number of operations of the untraced loop (``rss_ops`` in manifest.py).
The last stdout line is one JSON document.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import manifest
from tracer import Tracer, now, cache_stats, count_calls, instrument

ROOT = Path(__file__).resolve().parents[1]


class Phase:
    """Outcome of one timed loop."""

    def __init__(self) -> None:
        self.times: list[float] = []     # verified operations only
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.max_dev = 0.0
        self.check_s = 0.0               # time spent in oracle checks
        self.timed_ops = 0               # verified operations within the deadline
        self.busy_s = 0.0                # loop wall time up to the deadline, checks excluded
        self.rss_mb: float | None = None


def _timed(tracer: Tracer | None, name: str, fn, *args):
    """(seconds, result or the exception raised) of fn(*args), in a span when tracing."""
    frame = tracer.open() if tracer else None
    start = now()
    try:
        out = fn(*args)
    except Exception as err:  # a failed operation or check is counted; the loop goes on
        out = err
    elapsed = tracer.close(name, frame) if tracer else now() - start
    return elapsed, out


def run_op(workload, phase: Phase, tracer: Tracer | None = None) -> None:
    """Draw one input, run it, check it, and record the outcome in ``phase``."""
    inp = workload.next_input()
    if tracer:
        tracer.op = phase.attempted
    phase.attempted += 1
    elapsed, out = _timed(tracer, "op", workload.run, inp)
    if not isinstance(out, Exception):
        check_s, out = _timed(tracer, "check", workload.check, inp, out)
        phase.check_s += check_s
    if isinstance(out, Exception):
        phase.failed += 1
        if len(phase.errors) < 5:
            phase.errors.append(f"{type(out).__name__}: {out}")
        return
    phase.max_dev = max(phase.max_dev, out)
    phase.times.append(elapsed)
    kind = getattr(workload, "kind", None)
    phase.kinds.append(kind(inp) if kind else "")


def run_phase(workload, seconds: float, tracer: Tracer | None = None,
              rss_ops: int = 0, rss_of: int = resource.RUSAGE_SELF) -> Phase:
    """Closed loop: one operation at a time until ``seconds`` have passed.

    With ``rss_ops``, peak RSS is read once that many operations have been
    attempted; if the deadline comes first, untimed operations follow
    until then.
    """
    phase = Phase()

    def step() -> None:
        run_op(workload, phase, tracer)
        if phase.attempted == rss_ops:
            phase.rss_mb = resource.getrusage(rss_of).ru_maxrss / 1024.0

    start = now()
    while now() < start + seconds:
        step()
    phase.busy_s = now() - start - phase.check_s
    phase.timed_ops = len(phase.times)
    while phase.attempted < rss_ops:
        step()
    return phase


def tail(times: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile of the times and how many operations lie beyond it."""
    ordered = sorted(times)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(name: str, phase: Phase) -> tuple[dict, dict]:
    """The end-to-end metrics of a phase (all but setup_s) and their stamp."""
    times = phase.times[:phase.timed_ops]
    if not times:
        raise RuntimeError(f"no operation of {name} was verified: {phase.errors}")
    spec = manifest.WORKLOADS[name]
    tail_s, beyond = tail(times, spec["tail_pct"])
    metrics = {
        "ops_per_s": len(times) / phase.busy_s,
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "peak_rss_mb": phase.rss_mb,
    }
    stamp = {"ops_attempted": phase.attempted, "ops_verified": len(phase.times),
             "ops_failed": phase.failed, "ops_timed": len(times), "busy_s": phase.busy_s,
             "check_s": phase.check_s, "op_tail_pct": spec["tail_pct"],
             "op_tail_beyond": beyond, "peak_rss_after_ops": spec["rss_ops"],
             "peak_rss_of": "cli child processes" if name == "cli" else "workload process"}
    return metrics, stamp


def per_layer(workload, plain: Phase, traced: Phase, tracer: Tracer,
              cache_before: dict, absent: list[str]) -> dict:
    """Per-layer numbers of the traced phase, normalised per attempted operation."""
    ops = max(traced.attempted, 1)
    stats, counters = tracer.stats, tracer.counters
    out = {}
    for span, _module, _attr in manifest.TRACED_FUNCTIONS:
        calls, self_s = stats.get(span, (0, 0.0))
        out[f"{span}.calls"] = calls / ops
        out[f"{span}.self_s"] = self_s / ops
    out["coherent.shells"] = counters.get("coherent.shells", 0) / ops
    out["cli.main.self_s"] = stats.get("cli.main", (0, 0.0))[1] / ops
    out["check.self_s"] = stats.get("check", (0, 0.0))[1] / ops
    out["check.max_dev"] = max(plain.max_dev, traced.max_dev)

    # Caches: in this process, or summed over traced CLI child processes.
    cli_caches = getattr(workload, "caches", None)
    after = cache_stats(manifest.CACHES)
    for prefix in manifest.CACHES:
        if cli_caches is not None:
            hits, lookups, entries_sum, calls = cli_caches.get(prefix, (0, 0, 0, 0))
            entries = entries_sum / calls if calls else None
        elif after[prefix] is None or cache_before[prefix] is None:
            hits = lookups = 0
            entries = None
        else:
            hits = after[prefix][0] - cache_before[prefix][0]
            lookups = hits + after[prefix][1] - cache_before[prefix][1]
            entries = after[prefix][2]
        if entries is None:
            absent.append(prefix)
        out[f"{prefix}.entries"] = entries or 0
        if prefix == "network.unitary_cache":
            out[f"{prefix}.hits"] = hits / ops
            out[f"{prefix}.lookups"] = lookups / ops
            out[f"{prefix}.hit_ratio"] = hits / lookups if lookups else 0.0

    startups = getattr(workload, "startups", [])
    out["cli.startup_s"] = statistics.median(startups) if startups else 0.0
    for sub in manifest.CLI_SUBCOMMANDS:
        times = [t for t, k in zip(plain.times[:plain.timed_ops], plain.kinds) if k == sub]
        out[f"cli.{sub}.p50_s"] = statistics.median(times) if times else 0.0
    out["trace.overhead"] = (statistics.median(traced.times)
                             / statistics.median(plain.times[:plain.timed_ops]))
    return out


def blas_stamp() -> dict:
    """BLAS library, version and the thread count it reports, where it says."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"numpy": np.__version__, "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "blas_thread_env": {k: os.environ.get(k) for k in
                                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _blas_threads() -> int | None:
    """Ask a loaded OpenBLAS for its thread count; None where that is not possible."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for path in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(manifest.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    found = importlib.util.find_spec("anyonlin")
    src = (ROOT / "src").resolve()
    if found is None or src not in Path(found.origin).resolve().parents:
        raise SystemExit(f"anyonlin is not importable from {src}")
    import workloads

    args.out.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, workdir)
        for _ in range(workload.warm_up_ops):
            inp = workload.next_input()
            workload.check(inp, workload.run(inp))
        ready = now()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0

        doc = {"ready": ready, "stamp": blas_stamp()}
        rss = {"rss_ops": manifest.WORKLOADS[args.workload]["rss_ops"],
               "rss_of": resource.RUSAGE_CHILDREN if args.workload == "cli"
               else resource.RUSAGE_SELF}
        if args.trace == 0:
            phase = run_phase(workload, args.seconds, **rss)
            doc["metrics"], stamp = end_to_end(args.workload, phase)
            phases = [phase]
        else:
            plain = run_phase(workload, args.seconds / 2.0, **rss)
            tracer = Tracer()
            absent = instrument(tracer, manifest.TRACED_FUNCTIONS)
            absent += count_calls(tracer, manifest.COUNTED_CALLS)
            if hasattr(workload, "tracer"):
                workload.tracer = tracer
            before = cache_stats(manifest.CACHES)
            traced = run_phase(workload, args.seconds / 2.0, tracer)
            doc["untraced"], stamp = end_to_end(args.workload, plain)
            doc["metrics"] = per_layer(workload, plain, traced, tracer, before, absent)
            doc["absent"] = absent
            spans = args.out / f"{args.workload}-spans.csv"
            tracer.write_csv(spans)
            stamp.update(traced_ops=traced.attempted, spans_kept=tracer.kept,
                         spans_dropped=tracer.dropped, spans_file=str(spans.relative_to(ROOT)))
            phases = [plain, traced]
        doc["stamp"].update(stamp)
        doc["attempted"] = sum(p.attempted for p in phases)
        doc["failed"] = sum(p.failed for p in phases)
        doc["errors"] = [e for p in phases for e in p.errors]
        print(json.dumps(doc))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
