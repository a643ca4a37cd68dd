"""What the benchmark runs and reports, beside ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the only source of the
workload names and reasons, the metric names, units and bounds and the
run length; this module reads it and adds what only the harness needs:
the sectors each workload can touch, its ``op_tail_s`` percentile, the
operation count at which its memory is read, and the traced targets.
It imports nothing heavy, so the harness can read it before numpy or
anyonlin are loaded.
"""

from __future__ import annotations

import json
from math import comb
from pathlib import Path

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
RUN_SECONDS = BENCHMARK["run_seconds"]
END_TO_END = BENCHMARK["end_to_end"]
PER_LAYER = BENCHMARK["per_layer"]

#: Capacity of the seed engine's per-(sector, element) unitary LRU.  The
#: size guard multiplies it by the largest dense sector matrix a workload
#: can build.
UNITARY_CACHE_ENTRIES = 256

#: Fresh processes per ``--trace 0`` run that each go through set-up; the
#: reported ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Per workload: the largest sectors (m, n, fermionic) it can touch, the
#: fixed percentile used for ``op_tail_s`` and ``rss_ops``, the number of
#: timed operations after which ``peak_rss_mb`` is read.
#:
#: A fixed percentile keeps the tail comparable across commits whose op
#: counts differ; each is chosen so that at least ten operations lie
#: beyond it at seed speed, except circuit, whose ~12 operations per run
#: leave none, and p90 rather than p99 keeps the in-process tails above
#: this machine's run-to-run noise.  The count beyond is recorded in
#: every result.
#:
#: Memory is read after a fixed amount of work, not at the end of the
#: run, because the circuit unitary LRU (about 10 MB per fresh-angle beam
#: splitter, far below its 256-entry cap after a run) and the paths
#: sector cache (unbounded) grow with every operation: read at the end,
#: a faster engine would show more memory.  Each ``rss_ops`` is reached
#: within half a run at seed speed; a slower engine runs untimed
#: operations after the timed loop until it is reached.
WORKLOADS = {
    "circuit": {"sectors": [(8, 5, False)], "tail_pct": 50, "rss_ops": 6},
    "paths": {"sectors": [(6, 4, False), (6, 4, True)], "tail_pct": 90, "rss_ops": 5000},
    "cat": {"sectors": [(2, 80, False)], "tail_pct": 90, "rss_ops": 2000},
    "cli": {"sectors": [(2, 80, False), (5, 3, False), (5, 3, True), (4, 3, False)],
            "tail_pct": 75, "rss_ops": 20},
}

#: Public functions whose calls the traced run records, as
#: (span name, defining module, attribute).  Every module of anyonlin that
#: holds the same function object under any name is patched too, so the
#: span sees calls through every caller's lookup.
TRACED_FUNCTIONS = [
    ("linalg.eigh", "numpy.linalg", "eigh"),
    ("network.element_unitary", "anyonlin.network", "element_unitary"),
    ("network.evolve", "anyonlin.network", "evolve"),
    ("network.propagate_algebraic", "anyonlin.network", "propagate_algebraic"),
    ("operators.quadratic_matrix", "anyonlin.operators", "quadratic_matrix"),
    ("fock.enumerate_sector", "anyonlin.fock", "enumerate_sector"),
    ("fock.apply_create", "anyonlin.fock", "apply_create"),
    ("fock.to_vector", "anyonlin.fock", "StateVector.to_vector"),
    ("fock.from_vector", "anyonlin.fock", "StateVector.from_vector"),
    ("coherent.evolve_truncated", "anyonlin.coherent", "evolve_truncated"),
    ("dualrail.compile_circuit", "anyonlin.dualrail", "compile_circuit"),
    ("dualrail.encode", "anyonlin.dualrail", "encode"),
    ("dualrail.decode", "anyonlin.dualrail", "decode"),
]

#: Calls counted through one module's binding: (counter name, module, attribute).
COUNTED_CALLS = [("coherent.shells", "anyonlin.coherent", "evolve")]

#: Caches read through their own ``cache_info()``: metric prefix -> (module, attribute).
CACHES = {
    "network.unitary_cache": ("anyonlin.network", "_element_unitary_cached"),
    "fock.sector_cache": ("anyonlin.fock", "_sector_cached"),
}

CLI_SUBCOMMANDS = ("hom", "braid", "run", "compile", "cat")


def sector_dim(m: int, n: int, fermionic: bool) -> int:
    """Closed-form sector size: C(m, n) for fermions, C(m + n - 1, n) for bosons."""
    return comb(m, n) if fermionic else comb(m + n - 1, n)


def cache_footprint_bytes(workload: str) -> int:
    """Worst-case bytes of a full unitary cache of the workload's largest sector."""
    dim = max(sector_dim(*sector) for sector in WORKLOADS[workload]["sectors"])
    return UNITARY_CACHE_ENTRIES * dim * dim * 16

