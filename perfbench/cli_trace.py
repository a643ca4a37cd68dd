"""Run the anyonlin command line once with the benchmark's tracer installed.

Usage: ``python cli_trace.py DUMP_PATH SUBCOMMAND [ARGS...]``.  Behaves
like ``python -m anyonlin SUBCOMMAND [ARGS...]`` (same stdout, stderr and
exit code) and also writes a JSON document to DUMP_PATH: the spans and
per-name aggregates recorded inside this process, the monotonic time at
which ``anyonlin.cli.main`` was entered, and the unitary and sector cache
counters at exit.
"""

from __future__ import annotations

import json
import sys

from manifest import CACHES, COUNTED_CALLS, TRACED_FUNCTIONS
from tracer import Tracer, now, cache_stats, count_calls, instrument


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    import anyonlin.cli

    tracer = Tracer()
    instrument(tracer, TRACED_FUNCTIONS)
    count_calls(tracer, COUNTED_CALLS)
    entered = now()
    try:
        return tracer.wrap("cli.main", anyonlin.cli.main)(argv)
    finally:
        doc = {"main_entered": entered, "trace": tracer.export(), "caches": cache_stats(CACHES)}
        with open(dump_path, "w", encoding="utf-8") as out:
            json.dump(doc, out)


if __name__ == "__main__":
    sys.exit(main())
