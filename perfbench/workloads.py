"""The four benchmark workloads, driven through the repository's public API.

Each workload is three functions: ``setup(seed, size, workdir)`` builds
the system and generates every input from the seed, ``run(state,
spans)`` runs the timed phases and returns a :class:`PassResult`, and
``teardown(state)`` releases what setup made.  ``size`` overrides the
default sizes (the tests run tiny ones); the benchmark always runs the
defaults.  Nothing here changes the program: it only calls public
functions and reads the counters the modules already expose.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from layers import Spans


@dataclass
class PassResult:
    """What one pass of a workload produced."""

    outcomes: dict[str, float]           # end-to-end metrics beyond host cost
    samples: dict[str, int]              # sample count behind each percentile
    attempted: int
    failed: int
    gates: dict[str, bool]               # correctness checks, all must hold
    counts: dict[str, float] = field(default_factory=dict)  # per-layer counts


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    modules: tuple[str, ...]             # imported once, timed into setup_s
    setup: Callable
    run: Callable[[object, Spans], PassResult]
    teardown: Callable[[object], None]


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _sim_counts(sim) -> dict[str, float]:
    ev = sim.event_stats()
    return {
        "sim.events_dispatched": ev["events_dispatched"],
        "sim.processes_spawned": ev["processes_spawned"],
        "sim.max_heap_depth": ev["max_heap_depth"],
        "sim.wakeups_coalesced": ev["wakeups_coalesced"],
        "sim.events_pooled": ev["events_pooled"],
        "sim.pending_events_end": ev["pending_events"],
    }


def _port_counts(topo, clients) -> dict[str, float]:
    """Authoritative ``SwitchPort`` totals over every port the traffic used."""
    ports = list(topo.server_ports) + list(topo.leaf_up) + list(topo.leaf_down)
    ports += [topo.client_port(c) for c in clients]
    out = {}
    for key in ("bytes", "drops_pkts", "timeouts", "retransmits", "blackouts"):
        out[f"net.fabric.{key}"] = sum(p.stats()[key] for p in ports)
    fluid = topo.fluid_stats() or {}
    for key in ("flows_completed", "epochs", "probes", "stalled_flows"):
        out[f"net.fluid.{key}"] = fluid.get(key, 0)
    return out


def _pfs_counts(pfs) -> dict[str, float]:
    servers = pfs.server_stats()
    return {
        "pfs.lock_migrations": pfs.total_lock_migrations(),
        "pfs.mds_ops": pfs.counters["mds_ops"],
        "pfs.requests_rejected": sum(s["requests_rejected"] for s in servers),
        "devices.seeks": pfs.total_seeks(),
        "devices.busy_time_s": sum(s["busy_time_s"] for s in servers),
    }


def _obs_counts(bundle) -> dict[str, float]:
    return {
        "obs.metrics_registered": len(bundle.metrics),
        "obs.spans_recorded": len(bundle.tracer.spans),
        "faults.events_injected": sum(
            m.value for m in bundle.metrics.find("faults.injected")
        ),
    }


# -- ckpt_n1: the Fig-8 N-1 checkpoint, direct then PLFS-decomposed -----------
CKPT_SIZE = {
    "ranks": 128, "records": 16, "record_bytes": 47 * 1024, "readers": 8,
    "servers": 16, "racks": 4,
}
#: bytes per PLFS index record (the simulated index stream)
INDEX_RECORD_BYTES = 32
#: reader client ids start here, clear of the writer ranks
READER_BASE = 1000


@dataclass
class CkptState:
    size: dict
    inputs: dict
    sim: object
    pfs: object


def ckpt_inputs(seed: int, size: dict) -> dict:
    """Strided pattern with seeded record-size jitter, rank arrival order,
    and the fabric's drop-sampling seed."""
    from repro.workloads.patterns import n1_strided, with_jitter

    rng = np.random.default_rng(seed)
    pattern = with_jitter(
        n1_strided(size["ranks"], size["record_bytes"], size["records"]),
        rng, size_jitter=0.05,
    )
    return {
        "pattern": pattern,
        "order": [int(r) for r in rng.permutation(size["ranks"])],
        "fabric_seed": _seed_int(rng),
    }


def ckpt_setup(seed: int, size: Optional[dict] = None, workdir=None) -> CkptState:
    from repro.net.fabric import FabricParams, LeafSpineParams
    from repro.pfs import LUSTRE_LIKE, SimPFS
    from repro.sim import Simulator

    z = {**CKPT_SIZE, **(size or {})}
    inputs = ckpt_inputs(seed, z)
    fabric = FabricParams(
        name="bench-leafspine", buffer_pkts=64, min_rto_s=1e-3,
        seed=inputs["fabric_seed"],
        leafspine=LeafSpineParams(n_racks=z["racks"], oversubscription=4.0),
    )
    params = (
        LUSTRE_LIKE.with_servers(z["servers"]).with_fabric(fabric)
        .with_placement("congestion")
    )
    # no observability bundle: congestion placement then runs without
    # feedback (recorded as-is, see README)
    sim = Simulator(obs=None)
    return CkptState(z, inputs, sim, SimPFS(sim, params))


def ckpt_run(st: CkptState, spans: Spans) -> PassResult:
    sim, pfs = st.sim, st.pfs
    pattern, order = st.inputs["pattern"], st.inputs["order"]
    wbuf = pfs.params.write_buffer_bytes
    total = sum(n for writes in pattern for _, n in writes)
    attempted = [0]
    done = [0]
    lat: list[float] = []

    def op(gen):
        attempted[0] += 1
        t = yield from gen
        done[0] += 1
        return t

    def phase(procs) -> float:
        t0 = sim.now
        finish = [t0]

        def tracked(gen):
            yield from gen
            finish.append(sim.now)

        for name, gen in procs:
            sim.spawn(tracked(gen), name=name)
        sim.run()
        return max(finish) - t0

    def direct(rank, writes):
        yield from pfs.op_open(rank, "/ckpt")
        for off, n in writes:
            lat.append((yield from op(pfs.op_write(rank, "/ckpt", off, n))))

    def log_paths(rank):
        d = f"/ckpt.plfs/hostdir.{rank % 32}"
        return f"{d}/dropping.data.{rank}", f"{d}/dropping.index.{rank}"

    def plfs(rank, writes):
        data, index = log_paths(rank)
        yield from pfs.op_create(rank, data)
        yield from pfs.op_create(rank, index)
        buf = log = 0
        for _off, n in writes:
            buf += n
            if buf >= wbuf:
                yield from op(pfs.op_write(rank, data, log, buf))
                log, buf = log + buf, 0
        if buf:
            yield from op(pfs.op_write(rank, data, log, buf))
        yield from op(pfs.op_write(rank, index, 0, INDEX_RECORD_BYTES * len(writes)))

    def reader(k, readers):
        for rank, writes in enumerate(pattern):
            log_bytes = sum(n for _, n in writes)
            share = log_bytes // readers
            pos = k * share
            end = log_bytes if k == readers - 1 else pos + share
            while pos < end:
                take = min(wbuf, end - pos)
                yield from op(pfs.op_read(READER_BASE + k, log_paths(rank)[0], pos, take))
                pos += take

    with spans.span("write_direct"):
        sim.spawn(pfs.op_create(0, "/ckpt"))
        sim.run()
        direct_s = phase((f"rank{r}", direct(r, pattern[r])) for r in order)
    with spans.span("write_plfs"):
        plfs_s = phase((f"rank{r}", plfs(r, pattern[r])) for r in order)
    readers = st.size["readers"]
    with spans.span("read"):
        read_s = phase((f"reader{k}", reader(k, readers)) for k in range(readers))

    servers = pfs.server_stats()
    received = sum(s.get("bytes_written", 0) for s in servers)
    served = sum(s.get("bytes_read", 0) for s in servers)
    index_bytes = INDEX_RECORD_BYTES * sum(len(w) for w in pattern)
    clients = list(range(len(pattern))) + [READER_BASE + k for k in range(readers)]
    return PassResult(
        outcomes={
            "sim_direct_write_MBps": total / direct_s / 1e6,
            "sim_write_MBps": total / plfs_s / 1e6,
            "sim_read_MBps": total / read_s / 1e6,
            "sim_op_p50_ms": _percentile(lat, 50) * 1e3,
            "sim_op_p99_ms": _percentile(lat, 99) * 1e3,
        },
        samples={"sim_op_p50_ms": len(lat), "sim_op_p99_ms": len(lat)},
        attempted=attempted[0],
        failed=attempted[0] - done[0],
        gates={
            "every op completed": done[0] == attempted[0],
            "servers received the bytes written": received == 2 * total + index_bytes,
            "servers served the bytes read": served == total,
        },
        counts={**_sim_counts(sim), **_port_counts(pfs.topology, clients), **_pfs_counts(pfs)},
    )


def _nothing(_st) -> None:
    return None


# -- meta_storm: GIGA+ create + lookup storm with a mid-storm crash ----------
META_SIZE = {"servers": 8, "clients": 2500, "files": 2, "lookups": 2}


@dataclass
class MetaState:
    size: dict
    inputs: dict
    bundle: object
    sim: object
    svc: object
    clients: list


def meta_inputs(seed: int, size: dict) -> dict:
    """Crash target and time, the lookup shuffle, and the fabric seed."""
    rng = np.random.default_rng(seed)
    n_names = size["clients"] * size["files"]
    return {
        "crash_server": int(rng.integers(0, size["servers"])),
        "crash_at_s": float(rng.uniform(0.05, 0.15)),
        "down_for_s": 0.1,
        "picks": rng.integers(0, n_names, size=(size["clients"], size["lookups"])).tolist(),
        "fabric_seed": _seed_int(rng),
    }


def meta_setup(seed: int, size: Optional[dict] = None, workdir=None) -> MetaState:
    from repro import obs as obs_mod
    from repro.faults import FaultEvent, FaultSchedule
    from repro.giga.service import GigaService, ServiceParams
    from repro.net.fabric import FabricParams
    from repro.sim import Simulator

    z = {**META_SIZE, **(size or {})}
    inputs = meta_inputs(seed, z)
    bundle = obs_mod.Observability(name="meta_storm")
    with obs_mod.use(bundle):
        fabric = FabricParams(
            name="bench-fluid", buffer_pkts=64, min_rto_s=1e-3,
            seed=inputs["fabric_seed"], mode="fluid",
        )
        sim = Simulator(obs=bundle)
        svc = GigaService(sim, ServiceParams(n_servers=z["servers"], fabric=fabric))
        at, target = inputs["crash_at_s"], inputs["crash_server"]
        FaultSchedule(
            [
                FaultEvent(at_s=at, kind="server_crash", target=target),
                FaultEvent(at_s=at + inputs["down_for_s"], kind="server_recover", target=target),
            ],
            name="meta_storm",
        ).inject(sim, svc)
        clients = [svc.client(c) for c in range(z["clients"])]
    return MetaState(z, inputs, bundle, sim, svc, clients)


def meta_run(st: MetaState, spans: Spans) -> PassResult:
    from repro import obs as obs_mod
    from repro.faults.errors import FaultError

    sim, svc, z = st.sim, st.svc, st.size
    names = [f"f.{c}.{i}" for c in range(z["clients"]) for i in range(z["files"])]
    lat: list[float] = []
    tally = {"attempted": 0, "failed": 0, "creates_failed": 0, "not_found": 0}

    def timed(gen):
        tally["attempted"] += 1
        t0 = sim.now
        try:
            out = yield from gen
        except FaultError:
            tally["failed"] += 1
            return None
        lat.append(sim.now - t0)
        return out

    def creator(c):
        for i in range(z["files"]):
            if (yield from timed(svc.client_create(st.clients[c], f"f.{c}.{i}"))) is None:
                tally["creates_failed"] += 1

    def looker(c, picks):
        for k in picks:
            got = yield from timed(svc.client_lookup(st.clients[c], names[k]))
            if got is not None and not got[0]:
                tally["not_found"] += 1

    with obs_mod.use(st.bundle):
        with spans.span("create"):
            for c in range(z["clients"]):
                sim.spawn(creator(c), name=f"gigacli{c}")
            sim.run()
        redirects_create = svc.counters["redirects"]
        with spans.span("lookup"):
            for c, picks in enumerate(st.inputs["picks"]):
                sim.spawn(looker(c, picks), name=f"gigacli{c}")
            sim.run()
    try:
        svc.check_invariants()
        invariants = True
    except AssertionError:
        invariants = False
    cnt = svc.counters
    return PassResult(
        outcomes={
            "sim_meta_ops_per_s": len(lat) / sim.now,
            "sim_op_p50_ms": _percentile(lat, 50) * 1e3,
            "sim_op_p99_ms": _percentile(lat, 99) * 1e3,
        },
        samples={"sim_op_p50_ms": len(lat), "sim_op_p99_ms": len(lat)},
        attempted=tally["attempted"],
        failed=tally["failed"] + tally["not_found"],
        gates={
            "every create completed": tally["creates_failed"] == 0,
            "every create is found": tally["not_found"] == 0 and tally["failed"] == 0,
            "GigaService.check_invariants": invariants,
        },
        counts={
            **_sim_counts(sim),
            **_port_counts(svc.topology, ()),
            **_obs_counts(st.bundle),
            "giga.redirects_create": redirects_create,
            "giga.redirects_lookup": cnt["redirects"] - redirects_create,
            "giga.splits": cnt["splits"],
            "giga.entries_moved": cnt["entries_moved"],
            "giga.failovers": svc.coordinator.failovers,
            "giga.dead_hops": cnt["dead_hops"],
        },
    )


# -- burst_rebuild: rs:4+2 under correlated rack bursts, scrub on ------------
#: ``runs`` independent durability runs per pass, each with its own burst
#: trace: how much rebuild work one trace causes varies by about 8 % from
#: seed to seed, and a pass that sweeps several traces averages that out
BURST_SIZE = {"runs": 3, "n_files": 8, "regions_per_file": 4, "n_bursts": 4}


@dataclass
class BurstState:
    size: dict
    inputs: dict
    bundles: list
    params: object


def burst_inputs(seed: int, size: dict) -> dict:
    """One seed per run for its fabric, resilience jitter and burst trace."""
    rng = np.random.default_rng(seed)
    return {"run_seeds": [_seed_int(rng) for _ in range(size["runs"])]}


def burst_setup(seed: int, size: Optional[dict] = None, workdir=None) -> BurstState:
    from repro import obs as obs_mod
    from repro.scrub.driver import ScrubRunParams

    z = {**BURST_SIZE, **(size or {})}
    inputs = burst_inputs(seed, z)
    bundles = [obs_mod.Observability(name=f"burst_rebuild.{run_seed}")
               for run_seed in inputs["run_seeds"]]
    params = ScrubRunParams(**{k: v for k, v in z.items() if k != "runs"})
    return BurstState(z, inputs, bundles, params)


def _scrub_run(run_seed: int, params, bundle):
    """One ``run_scrub_rebuild`` call, plus the SimPFS it built.

    ``run_scrub_rebuild`` hands back no handle on its simulator or file
    system, so the benchmark wraps the constructor for the duration of the
    call and keeps a reference; the object built is the one the run uses.
    """
    import repro.scrub.driver as driver

    built = []
    real_simpfs = driver.SimPFS

    def keep(*args, **kwargs):
        built.append(real_simpfs(*args, **kwargs))
        return built[-1]

    driver.SimPFS = keep
    try:
        result = driver.run_scrub_rebuild(run_seed, scrub_on=True, p=params, obs=bundle)
    finally:
        driver.SimPFS = real_simpfs
    (pfs,) = built
    return result, pfs


def burst_run(st: BurstState, spans: Spans) -> PassResult:
    repairs: list[float] = []
    attempted = failed = unrecoverable = degraded = 0
    counts: dict[str, float] = {}
    occupancy = []
    for k, (run_seed, bundle) in enumerate(zip(st.inputs["run_seeds"], st.bundles)):
        with spans.span(f"rebuild.{k}"):
            r, pfs = _scrub_run(run_seed, st.params, bundle)
        repairs += r.repair_times_s
        attempted += r.foreground_writes + r.foreground_failures + r.groups
        failed += r.foreground_failures + r.unrecoverable
        unrecoverable += r.unrecoverable
        degraded += r.degraded_end
        occupancy.append(r.throttle_occupancy)
        run_counts = {
            **_obs_counts(bundle),   # before any port is created below
            **_sim_counts(pfs.sim),
            **_port_counts(pfs.topology, range(st.params.n_racks)),
            **_pfs_counts(pfs),
            "scrub.stripes_rebuilt": r.stripes_rebuilt,
            "scrub.rebuild_bytes": r.rebuild_bytes,
            "scrub.deferred": r.deferred,
            "scrub.rebuild_failures": r.rebuild_failures,
            "scrub.diversions": r.diversions,
        }
        for key, value in run_counts.items():
            merge = max if key == "sim.max_heap_depth" else (lambda a, b: a + b)
            counts[key] = merge(counts[key], value) if key in counts else value
    counts["scrub.throttle_occupancy"] = sum(occupancy) / len(occupancy)
    return PassResult(
        outcomes={
            "sim_repair_p50_s": _percentile(repairs, 50),
            "sim_repair_p99_s": _percentile(repairs, 99),
        },
        samples={"sim_repair_p50_s": len(repairs), "sim_repair_p99_s": len(repairs)},
        attempted=attempted,
        failed=failed,
        gates={
            "no unrecoverable group": unrecoverable == 0,
            "no degraded group at the end": degraded == 0,
        },
        counts=counts,
    )


# -- plfs_disk: the real PLFS on a real directory ----------------------------
PLFS_SIZE = {
    "writers": 16, "records": 2048, "record_bytes": 4700,
    "read_bytes": 1 << 20, "pool_bytes": 1 << 22,
}


@dataclass
class PlfsState:
    size: dict
    inputs: dict
    root: Path
    fs: object
    handles: list = field(default_factory=list)


def plfs_inputs(seed: int, size: dict) -> dict:
    """Payload bytes: a seeded random pool and, per record, the pool
    offset its bytes are cut from; plus the digest of the logical file."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 256, size=size["pool_bytes"], dtype=np.uint8).tobytes()
    rec = size["record_bytes"]
    offsets = rng.integers(
        0, size["pool_bytes"] - rec, size=size["writers"] * size["records"]
    ).tolist()
    view = memoryview(pool)
    digest = hashlib.sha256()
    for off in offsets:                   # logical record r is offsets[r]
        digest.update(view[off:off + rec])
    return {"pool": pool, "offsets": offsets, "digest": digest.hexdigest()}


def plfs_setup(seed: int, size: Optional[dict] = None, workdir=None) -> PlfsState:
    from repro.plfs import Plfs

    z = {**PLFS_SIZE, **(size or {})}
    inputs = plfs_inputs(seed, z)
    Path(workdir).mkdir(parents=True, exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="plfs_disk-", dir=workdir))
    return PlfsState(z, inputs, root, Plfs(root))


def plfs_write(st: PlfsState) -> None:
    """N-1 strided, unaligned: writer w's i-th record is logical record
    ``i * writers + w``."""
    z = st.size
    writers, rec = z["writers"], z["record_bytes"]
    view = memoryview(st.inputs["pool"])
    offsets = st.inputs["offsets"]
    st.handles = [st.fs.open_write("/ckpt", writer=f"w{w}") for w in range(writers)]
    for i in range(z["records"]):
        for w, handle in enumerate(st.handles):
            r = i * writers + w
            off = offsets[r]
            handle.write(view[off:off + rec], r * rec)
    for handle in st.handles:
        handle.close()


def plfs_read(st: PlfsState, reader) -> tuple[str, int, tuple[float, float]]:
    """Sequential reads of ``read_bytes``; returns the digest, the bytes
    read, and the wall and CPU seconds spent hashing them."""
    digest = hashlib.sha256()
    own_wall = own_cpu = 0.0
    pos, size, step = 0, reader.size, st.size["read_bytes"]
    while pos < size:
        chunk = reader.read(pos, step)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        digest.update(chunk)
        own_wall += time.perf_counter() - wall0
        own_cpu += time.process_time() - cpu0
        pos += len(chunk)
    return digest.hexdigest(), pos, (own_wall, own_cpu)


def plfs_mismatches(st: PlfsState) -> int:
    """Records whose bytes read back differ from the bytes written."""
    rec = st.size["record_bytes"]
    pool, offsets = st.inputs["pool"], st.inputs["offsets"]
    with st.fs.open_read("/ckpt") as reader:
        return sum(
            reader.read(r * rec, rec) != pool[off:off + rec]
            for r, off in enumerate(offsets)
        )


def plfs_run(st: PlfsState, spans: Spans) -> PassResult:
    with spans.span("write") as w:
        plfs_write(st)
    with spans.span("open") as o:
        reader = st.fs.open_read("/ckpt")
    with spans.span("read") as rd:
        digest, nread, (rd["own_wall"], rd["own_cpu"]) = plfs_read(st, reader)
        reader.close()
    return plfs_verify(st, reader, digest, nread, spans.duration(w), spans.duration(o),
                       spans.duration(rd))


def plfs_verify(st: PlfsState, reader, digest: str, nread: int,
                write_s: float, open_s: float, read_s: float) -> PassResult:
    z = st.size
    n_records = z["writers"] * z["records"]
    nbytes = n_records * z["record_bytes"]
    intact = digest == st.inputs["digest"] and nread == nbytes
    droppings = list(reader.container.iter_droppings())
    return PassResult(
        outcomes={
            "plfs_write_MBps": nbytes / write_s / 1e6,
            "plfs_open_s": open_s,
            "plfs_read_MBps": nread / read_s / 1e6,
        },
        samples={},
        attempted=n_records,
        failed=0 if intact else max(1, plfs_mismatches(st)),
        gates={"read-back digest equals written digest": intact},
        counts={
            "plfs.index_entries": reader.index.n_entries,
            "plfs.index_bytes": sum(d.index_path.stat().st_size for d in droppings),
            "plfs.data_bytes": sum(d.data_path.stat().st_size for d in droppings),
            "plfs.write_calls": sum(h.writes for h in st.handles),
            "plfs.data_flushes": sum(h.data_flushes for h in st.handles),
        },
    )


def plfs_teardown(st: PlfsState) -> None:
    shutil.rmtree(st.root, ignore_errors=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ckpt_n1",
            "Fig-8 N-1 strided checkpoint, direct then PLFS-decomposed, then read "
            "back: sim kernel, exact leaf/spine fabric, pfs locks/striping, disks",
            ("repro.net.fabric", "repro.pfs", "repro.sim", "repro.workloads.patterns"),
            ckpt_setup, ckpt_run, _nothing,
        ),
        Workload(
            "meta_storm",
            "GIGA+ create+lookup storm of 2500 clients with a server crash, fluid "
            "fabric, obs bundle on: giga, kernel, fluid engine, obs",
            ("repro.obs", "repro.faults", "repro.giga.service", "repro.net.fabric",
             "repro.sim"),
            meta_setup, meta_run, _nothing,
        ),
        Workload(
            "burst_rebuild",
            "three rs:4+2 populations under correlated rack bursts, scrub on: erasure, "
            "faults, scrub, rebuild placement, cross-rack rebuild flows",
            ("repro.obs", "repro.scrub.driver"),
            burst_setup, burst_run, _nothing,
        ),
        Workload(
            "plfs_disk",
            "real PLFS on a real directory: 16 writers of unaligned strided records, "
            "index build, verified sequential read; no simulator",
            ("repro.plfs",),
            plfs_setup, plfs_run, plfs_teardown,
        ),
    )
}
