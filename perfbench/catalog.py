"""Every metric the benchmark reports: name, unit and direction.

End-to-end metrics describe what a user of the repository sees when they
run one of the four workloads.  Those in ``GATED`` apply to every
workload, are never zero, and are steady enough to bound: they are the
ones ``BENCHMARK.json`` lists.  The rest are printed beside them with
units: they apply to one or two workloads, read zero (``ops_failed_frac``)
or, like ``wall_s`` and the ``*_raw_s`` figures, move with the load
other tenants put on the host.

Per-layer metrics are named ``<layer>.<metric>`` and come from a traced
run.  Which end-to-end metric each layer should move, and on which
workload, is the layer table of ``README.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

WORKLOADS = ("ckpt_n1", "meta_storm", "burst_rebuild", "plfs_disk")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str                      # "lower" | "higher"
    workloads: tuple[str, ...] = WORKLOADS


def _e2e(name: str, unit: str, better: str, *workloads: str) -> Metric:
    return Metric(name, unit, better, workloads or WORKLOADS)


END_TO_END = (
    # host cost, measured with tracing off; cpu_s and setup_s at the
    # reference host speed of hostspeed.py, the *_raw_s ones as the host ran
    _e2e("cpu_s", "s", "lower"),
    _e2e("setup_s", "s", "lower"),
    _e2e("wall_s", "s", "lower"),
    _e2e("cpu_raw_s", "s", "lower"),
    _e2e("setup_raw_s", "s", "lower"),
    _e2e("peak_rss_mb", "MB", "lower"),
    # simulated outcomes: deterministic for a given seed
    _e2e("sim_write_MBps", "MB/s", "higher", "ckpt_n1"),
    _e2e("sim_direct_write_MBps", "MB/s", "higher", "ckpt_n1"),
    _e2e("sim_read_MBps", "MB/s", "higher", "ckpt_n1"),
    _e2e("sim_meta_ops_per_s", "1/s", "higher", "meta_storm"),
    _e2e("sim_op_p50_ms", "ms", "lower", "ckpt_n1", "meta_storm"),
    _e2e("sim_op_p99_ms", "ms", "lower", "ckpt_n1", "meta_storm"),
    _e2e("sim_repair_p50_s", "s", "lower", "burst_rebuild"),
    _e2e("sim_repair_p99_s", "s", "lower", "burst_rebuild"),
    # failures over attempts
    _e2e("ops_failed_frac", "ratio", "lower"),
    # the real PLFS on a real directory
    _e2e("plfs_write_MBps", "MB/s", "higher", "plfs_disk"),
    _e2e("plfs_read_MBps", "MB/s", "higher", "plfs_disk"),
    _e2e("plfs_open_s", "s", "lower", "plfs_disk"),
)

#: The end-to-end metrics the final JSON line carries with ``--trace 0``.
GATED = ("cpu_s", "setup_s", "peak_rss_mb")

#: Layers in report order.  ``bench`` is the benchmark's own code and
#: ``other`` is time no layer's call chain reaches (interpreter start-up
#: of profiling, stdlib called from nowhere attributable).
LAYERS = (
    "sim", "net.fabric", "net.fluid", "pfs", "devices", "placement",
    "erasure", "faults", "scrub", "giga", "plfs", "obs", "os", "bench", "other",
)

#: Counters per layer, read from public accessors after a pass.
LAYER_COUNTS = {
    "sim": (
        ("events_dispatched", "count"), ("processes_spawned", "count"),
        ("max_heap_depth", "count"), ("wakeups_coalesced", "count"),
        ("events_pooled", "count"), ("pending_events_end", "count"),
        ("host_us_per_event", "us"),
    ),
    "net.fabric": (
        ("bytes", "B"), ("drops_pkts", "count"), ("timeouts", "count"),
        ("retransmits", "count"), ("blackouts", "count"),
    ),
    "net.fluid": (
        ("flows_completed", "count"), ("epochs", "count"), ("probes", "count"),
        ("stalled_flows", "count"),
    ),
    "pfs": (
        ("lock_migrations", "count"), ("mds_ops", "count"),
        ("requests_rejected", "count"),
    ),
    "devices": (("seeks", "count"), ("busy_time_s", "s")),
    "placement": (("feedback_refreshes", "count"),),
    "erasure": (),
    "faults": (("events_injected", "count"),),
    "scrub": (
        ("stripes_rebuilt", "count"), ("rebuild_bytes", "B"), ("deferred", "count"),
        ("rebuild_failures", "count"), ("diversions", "count"),
        ("throttle_occupancy", "ratio"),
    ),
    "giga": (
        ("redirects_create", "count"), ("redirects_lookup", "count"),
        ("splits", "count"), ("entries_moved", "count"), ("failovers", "count"),
        ("dead_hops", "count"),
    ),
    "plfs": (
        ("index_entries", "count"), ("index_bytes", "B"), ("data_bytes", "B"),
        ("write_calls", "count"), ("data_flushes", "count"),
    ),
    "obs": (("metrics_registered", "count"), ("spans_recorded", "count")),
    "os": (),
    "bench": (),
    "other": (),
}


#: Per-layer counts where more is better: work the batching overlays
#: saved, and redundancy restored.  Every other count is work or damage.
HIGHER_IS_BETTER = {"sim.wakeups_coalesced", "sim.events_pooled", "scrub.stripes_rebuilt"}


def _per_layer() -> tuple[Metric, ...]:
    out = []
    for layer in LAYERS:
        for count, unit in LAYER_COUNTS[layer]:
            name = f"{layer}.{count}"
            better = "higher" if name in HIGHER_IS_BETTER else "lower"
            out.append(Metric(name, unit, better))
        out.append(Metric(f"{layer}.self_s", "s", "lower"))
    out.append(Metric("trace.overhead", "ratio", "lower"))
    return tuple(out)


PER_LAYER = _per_layer()


def by_name() -> dict[str, Metric]:
    return {m.name: m for m in END_TO_END + PER_LAYER}


def applies(workload: str) -> list[Metric]:
    """The end-to-end metrics one workload reports."""
    return [m for m in END_TO_END if workload in m.workloads]
