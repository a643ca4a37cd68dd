"""Span recorder that times calls into a program from outside its source.

``instrument`` replaces module attributes (the names callers look up at
call time) with wrappers that open and close a span.  Spans are nested
by a single stack, so the process must call the instrumented code from
one thread.  Each span has a name, start, end, parent span and operation
id; self time (duration minus the durations of direct children) and call
counts are aggregated per name as spans close.  The first ``MAX_SPANS``
spans are also kept in compact arrays and written out by ``write_csv``
when the run ends.

Times come from ``time.monotonic`` (CLOCK_MONOTONIC on Linux), which is
shared by all processes of the machine, so spans recorded in a child
process line up with the parent's.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

now = time.monotonic

#: Spans kept for ``write_csv``; later ones are only aggregated (44 B each).
MAX_SPANS = 250_000
#: The package whose modules ``instrument`` patches.
PACKAGE = "anyonlin"


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.stats: dict[str, list] = {}      # name -> [calls, self seconds]
        self.counters: dict[str, int] = {}
        self.dropped = 0
        self.root_s = 0.0                     # summed duration of top-level spans
        self._stack: list[list] = []          # [span id, start, child seconds]
        self._next_id = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._rows = {"name": array("i"), "id": array("q"), "parent": array("q"),
                      "op": array("q"), "start": array("d"), "end": array("d")}

    @property
    def kept(self) -> int:
        """Number of spans held for ``write_csv``."""
        return len(self._rows["id"])

    # --- spans ----------------------------------------------------------

    def open(self) -> list:
        frame = [self._next_id, now(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def close(self, name: str, frame: list) -> float:
        """Close the innermost span; returns its duration."""
        end = now()
        self._stack.pop()
        duration = end - frame[1]
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = [0, 0.0]
        entry[0] += 1
        entry[1] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        else:
            self.root_s += duration
            parent = -1
        self._keep(name, frame[0], parent, frame[1], end)
        return duration

    def _keep(self, name: str, span_id: int, parent: int, start: float, end: float) -> None:
        rows = self._rows
        if len(rows["id"]) >= MAX_SPANS:
            self.dropped += 1
            return
        rows["name"].append(self._name_id(name))
        rows["id"].append(span_id)
        rows["parent"].append(parent)
        rows["op"].append(self.op)
        rows["start"].append(start)
        rows["end"].append(end)

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return idx

    def wrap(self, name: str, fn):
        """A function that runs ``fn`` inside a span called ``name``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(name, frame)

        return traced

    def count(self, name: str, fn):
        """A function that bumps counter ``name`` on each call of ``fn``."""
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # --- exchange with traced child processes ---------------------------

    def export(self) -> dict:
        """Aggregates and kept spans as a JSON-able document."""
        rows = self._rows
        return {
            "stats": self.stats,
            "counters": self.counters,
            "dropped": self.dropped,
            "root_s": self.root_s,
            "spans": [[self._names[n], i, p, s, e] for n, i, p, s, e in
                      zip(rows["name"], rows["id"], rows["parent"], rows["start"], rows["end"])],
        }

    def merge(self, doc: dict) -> None:
        """Fold a child process's export in as children of the open span."""
        for name, (calls, self_s) in doc["stats"].items():
            entry = self.stats.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for name, value in doc["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.dropped += doc["dropped"]
        if self._stack:
            self._stack[-1][2] += doc["root_s"]
        top = self._stack[-1][0] if self._stack else -1
        base = self._next_id
        for name, span_id, parent, start, end in doc["spans"]:
            self._next_id = max(self._next_id, base + span_id + 1)
            self._keep(name, base + span_id, top if parent < 0 else base + parent, start, end)

    def write_csv(self, path) -> None:
        rows = self._rows
        with open(path, "w", encoding="utf-8") as out:
            out.write("op,span,parent,name,start_s,end_s\n")
            for n, i, p, o, s, e in zip(rows["name"], rows["id"], rows["parent"], rows["op"],
                                        rows["start"], rows["end"]):
                out.write(f"{o},{i},{p},{self._names[n]},{s!r},{e!r}\n")


def _package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def instrument(tracer: Tracer, targets) -> list[str]:
    """Wrap each (span name, module, attribute) target; returns the absent ones.

    ``attribute`` may be ``Class.method`` (plain or classmethod).  Besides
    the defining module, every loaded module of ``PACKAGE`` that holds the
    same function object is patched, so calls made through imported names
    are seen too.
    """
    absent = []
    for name, module_name, attr in targets:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            absent.append(name)
            continue
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(leaf) if owner is not None else None
        if raw is None:
            absent.append(name)
            continue
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(tracer.wrap(name, raw.__func__)))
            continue
        if not callable(raw):
            absent.append(name)
            continue
        traced = tracer.wrap(name, raw)
        setattr(owner, leaf, traced)
        if owner_name:
            continue
        for other in _package_modules():
            for key, value in list(vars(other).items()):
                if value is raw:
                    setattr(other, key, traced)
    return absent


def count_calls(tracer: Tracer, targets) -> list[str]:
    """Count calls through each (counter name, module, attribute) binding only.

    Unlike ``instrument`` this patches the named module alone, so it
    counts the calls that module makes.  Returns the absent targets.
    """
    absent = []
    for name, module_name, attr in targets:
        module = sys.modules.get(module_name)
        fn = getattr(module, attr, None) if module is not None else None
        if not callable(fn):
            absent.append(name)
            continue
        setattr(module, attr, tracer.count(name, fn))
    return absent


def cache_stats(caches: dict) -> dict:
    """{prefix: [hits, misses, entries]} from each cache's own ``cache_info()``.

    A cache whose module or attribute is gone, or that no longer has
    ``cache_info``, maps to None (reported as absent).
    """
    out = {}
    for prefix, (module_name, attr) in caches.items():
        module = sys.modules.get(module_name)
        info = getattr(getattr(module, attr, None), "cache_info", None)
        out[prefix] = None if info is None else list(info()[:2]) + [info().currsize]
    return out
