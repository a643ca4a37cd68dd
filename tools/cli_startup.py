"""Wall time, peak memory and loaded modules of each CLI subcommand from a cold start.

For each subcommand the script runs N fresh interpreters (default 5),
each calling ``anyonlin.cli.main`` on one fixed argument list, and
reports the median wall time of a whole process (interpreter start and
imports included), the largest peak RSS and the ``anyonlin`` modules the
process had loaded when ``main`` returned.  It prints one JSON document.

    python tools/cli_startup.py [--repeats 5]

The package is imported as installed or from PYTHONPATH, so
``PYTHONPATH=<checkout>/src`` measures that checkout.  BLAS runs on one
thread.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

#: One fixed call per subcommand; ``run`` and ``compile`` read the files
#: of ``FILES``, written into a temporary directory.
ARGV = {
    "hom": ["hom", "--phi", "1.0", "--self-check"],
    "braid": ["braid", "--phi", "1.0", "--input", "|1,1,0>", "--self-check"],
    "run": ["run", "--phi", "pi/5", "--network", "network.txt",
            "--input", "0.6*|1,1,0> + 0.8*|0,1,1>", "--self-check"],
    "compile": ["compile", "--circuit", "circuit.json", "--input", "10", "--self-check"],
    "cat": ["cat", "--u", "1"],
}
FILES = {
    "network.txt": "modes 3\nbs 1 2 pi/4\nps 2 0.3\nbs 2 3 -pi/3\n",
    "circuit.json": json.dumps({"qubits": 2, "phi": 1.0, "gates": [
        {"type": "u1", "q": 1, "alpha": 0.1, "beta": 0.2, "gamma": 0.3, "delta": 0.4},
        {"type": "rx", "q": 2, "gamma": 0.5}, {"type": "cp", "a": 1, "b": 2}]}),
}

#: The child: call main with stdout captured, then report on the real stdout.
CHILD = """\
import contextlib, io, json, resource, sys
from anyonlin.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "modules": sorted(name for name in sys.modules
                                    if name == "anyonlin" or name.startswith("anyonlin."))}))
"""


def measure(subcommand: str, repeats: int, files: str) -> dict:
    """``repeats`` fresh processes of one subcommand, which reads its files from ``files``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [os.path.join(files, arg) if arg in FILES else arg for arg in ARGV[subcommand]]
    walls, reports = [], []
    for _repeat in range(repeats):
        start = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                               check=True, capture_output=True, text=True)
        walls.append(time.perf_counter() - start)
        reports.append(json.loads(child.stdout))
        if reports[-1]["code"] != 0:
            raise RuntimeError(f"{subcommand} exited {reports[-1]['code']}: {child.stderr}")
    return {"subcommand": subcommand, "argv": ARGV[subcommand], "repeats": repeats,
            "wall_s": round(statistics.median(walls), 4),
            "peak_rss_mb": round(max(r["peak_rss_mb"] for r in reports), 1),
            "modules": reports[-1]["modules"]}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats needs a count >= 1")
    with tempfile.TemporaryDirectory() as files:
        for name, text in FILES.items():
            with open(os.path.join(files, name), "w", encoding="utf-8") as out:
                out.write(text)
        cases = [measure(sub, args.repeats, files) for sub in ARGV]
    print(json.dumps({"python": platform.python_version(), "cpus": os.cpu_count(),
                      "cases": cases}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
