"""Per-layer self time from ``cProfile``, and the benchmark's phase spans.

Self time of every profiled function is charged to one layer:

* a function defined under ``src/repro/<package>/`` belongs to that
  package's layer (``repro/net/fluid.py`` is ``net.fluid``, the rest of
  ``repro/net`` is ``net.fabric``; repro packages without a layer of
  their own go to ``other``);
* a function defined in this directory belongs to ``bench``;
* a file-I/O builtin (``posix.*``, ``io.open``, ``_io`` methods) belongs
  to ``os`` wherever it is called from;
* any other function -- C builtins, the standard library, numpy -- is
  charged to its callers: its self time is split over the call edges
  pstats recorded, each edge going to the layer of the caller.  A caller
  that is itself foreign resolves to the layer of its own heaviest
  caller.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

_BENCH_DIR = str(Path(__file__).resolve().parent)

_PACKAGE_LAYER = {
    "sim": "sim",
    "pfs": "pfs",
    "devices": "devices",
    "placement": "placement",
    "erasure": "erasure",
    "faults": "faults",
    "scrub": "scrub",
    "giga": "giga",
    "plfs": "plfs",
    "obs": "obs",
}

_IO_MARKERS = ("posix.", "io.open", "_io.")


def _own_layer(func: tuple) -> str | None:
    """The layer a function's own code belongs to, or None if foreign."""
    filename, _line, name = func
    if filename == "~":
        if any(m in name for m in _IO_MARKERS):
            return "os"
        return None
    path = filename.replace("\\", "/")
    if path.startswith(_BENCH_DIR):
        return "bench"
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return None
    parts = path[at + len(marker):].split("/")
    if parts[0] == "net":
        return "net.fluid" if parts[-1] == "fluid.py" else "net.fabric"
    return _PACKAGE_LAYER.get(parts[0], "other")


def attribute(stats: dict) -> dict[str, float]:
    """Sum pstats' raw ``stats`` dict into seconds of self time per layer."""
    resolved: dict[tuple, str] = {}

    def resolve(func: tuple, seen: frozenset = frozenset()) -> str:
        if func in resolved:
            return resolved[func]
        layer = _own_layer(func)
        if layer is None:
            callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
            heaviest = max(callers, key=lambda c: callers[c][3], default=None)
            if heaviest is None or heaviest in seen:
                layer = "other"
            else:
                layer = resolve(heaviest, seen | {func})
        resolved[func] = layer
        return layer

    out: dict[str, float] = defaultdict(float)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = _own_layer(func)
        if layer is not None or not callers:
            out[layer or "other"] += tt
            continue
        for caller, edge in callers.items():
            out[resolve(caller, frozenset({func}))] += edge[2]
    return dict(out)


def call_count(stats: dict, file_suffix: str, name: str) -> int:
    """Total calls pstats recorded for one function."""
    return sum(
        nc for (filename, _line, fname), (_cc, nc, *_rest) in stats.items()
        if fname == name and filename.replace("\\", "/").endswith(file_suffix)
    )


class Spans:
    """Phase spans, kept in memory until :meth:`dump`.

    Each span records the wall clock (``perf_counter``) and the process's
    CPU clock (``process_time``), so time the host took away from the
    process -- other tenants, hypervisor steal -- shows as the gap.  A
    workload sets ``own_wall`` and ``own_cpu`` on a span to the seconds
    its own checking took inside it; :meth:`duration` and :meth:`cpu`
    leave them out.  So they do the seconds the host-speed probes ran
    in the span, read from ``probe_clock`` (seconds of probes so far).
    """

    def __init__(self, probe_clock: Callable[[], float] = lambda: 0.0) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._probe_clock = probe_clock

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans) + 1,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "cpu_start": time.process_time(),
            "cpu_end": None,
            "probe_start": self._probe_clock(),
            "probe_end": None,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()
            rec["cpu_end"] = time.process_time()
            rec["probe_end"] = self._probe_clock()

    def _probes(self, rec: dict) -> float:
        return rec["probe_end"] - rec["probe_start"]

    def duration(self, rec: dict) -> float:
        """Wall seconds."""
        return rec["end"] - rec["start"] - rec.get("own_wall", 0.0) - self._probes(rec)

    def cpu(self, rec: dict) -> float:
        """CPU seconds of this process."""
        return rec["cpu_end"] - rec["cpu_start"] - rec.get("own_cpu", 0.0) - self._probes(rec)

    def children(self, rec: dict) -> list[dict]:
        """The spans opened directly inside ``rec``."""
        return [r for r in self.spans if r["parent"] == rec["id"]]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fp:
            for rec in self.spans:
                fp.write(json.dumps(rec, sort_keys=True) + "\n")
