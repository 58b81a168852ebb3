"""DES model of a GIGA+ server cluster under a create storm (Fig 7).

Servers hold partitions (round-robin by partition index) and process
operations serially.  Clients address servers with *their own replica* of
the bitmap; a server that no longer holds the right partition for a name
replies with its bitmap, the client merges and retries (the lazy
correction that makes GIGA+ clients cheap).  Partitions split
independently when they exceed ``split_threshold`` entries; the split
busies only the one server involved plus the insert that triggered it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.giga.mapping import GigaBitmap, hash_name
from repro.sim import Acquire, Resource, Simulator, Timeout


@dataclass(frozen=True)
class GigaParams:
    n_servers: int = 8
    split_threshold: int = 200        # entries per partition before split
    op_service_s: float = 0.3e-3      # create/stat service time
    per_entry_move_s: float = 4e-6    # split relocation cost per entry
    client_rpc_s: float = 0.1e-3      # network round trip


@dataclass
class GigaClusterResult:
    n_servers: int
    total_creates: int
    makespan_s: float
    splits: int
    entries_moved: int
    addressing_errors: int
    partitions: int

    @property
    def creates_per_s(self) -> float:
        return self.total_creates / self.makespan_s if self.makespan_s else 0.0

    @property
    def errors_per_create(self) -> float:
        return self.addressing_errors / self.total_creates if self.total_creates else 0.0


class GigaCluster:
    """Authoritative directory state + per-server resources."""

    def __init__(self, sim: Simulator, params: GigaParams) -> None:
        self.sim = sim
        self.params = params
        self.bitmap = GigaBitmap()                      # authoritative
        self.entries: dict[int, dict[str, int]] = {0: {}}  # partition -> {name: hash}
        self.servers = [
            Resource(sim, capacity=1, name=f"mds{i}") for i in range(params.n_servers)
        ]
        self.counters: Counter[str] = Counter()
        if sim.obs is not None:
            sim.obs.metrics.register_counts("giga.", self.counters)

    def server_of(self, partition: int) -> int:
        return partition % self.params.n_servers

    # -- server-side operation (simulation process) -----------------------
    def server_create(self, server_idx: int, name: str, client_bitmap: GigaBitmap):
        """Process one create addressed to ``server_idx``.

        Returns ``(ok, correct_server)``: if the client's map was stale and
        the true partition lives elsewhere, ok is False and the client must
        merge our bitmap and retry at ``correct_server``.
        """
        p = self.params
        grant = yield Acquire(self.servers[server_idx])
        yield Timeout(p.op_service_s)
        h = hash_name(name)
        true_partition = self.bitmap.partition_of(h)
        true_server = self.server_of(true_partition)
        if true_server != server_idx:
            # addressing error: correct the client
            self.counters["addressing_errors"] += 1
            client_bitmap.merge_from(self.bitmap)
            self.servers[server_idx].release(grant)
            return False, true_server
        bucket = self.entries.setdefault(true_partition, {})
        bucket[name] = h
        self.counters["creates"] += 1
        if len(bucket) > p.split_threshold:
            yield from self._split(true_partition)
        self.servers[server_idx].release(grant)
        return True, server_idx

    def _split(self, partition: int):
        """Split while holding the owning server; moves cost time.

        A split that cannot shed load — radix limit reached, or every
        entry hashes to one side (0/1-entry directories included) — is
        a counted no-op rather than an empty sibling.
        """
        p = self.params
        bucket = self.entries[partition]
        if not self.bitmap.useful_split(partition, bucket.values()):
            self.counters["splits_skipped"] += 1
            return
        r = self.bitmap.radix[partition]
        child = self.bitmap.split(partition)
        movers = [name for name, h in bucket.items() if (h >> r) & 1]
        child_bucket = self.entries.setdefault(child, {})
        for name in movers:
            child_bucket[name] = bucket.pop(name)
        self.counters["splits"] += 1
        self.counters["entries_moved"] += len(movers)
        yield Timeout(len(movers) * p.per_entry_move_s + p.op_service_s)

    # -- client-side operation (simulation process) ----------------------------
    def client_create(self, client_bitmap: GigaBitmap, name: str, ctx=None):
        """Create with lazy map correction; returns hops taken.

        A request-addressable edge: with a bundle active it mints (or
        accepts) a :class:`repro.obs.RequestContext` and records a
        ``giga.create`` span stamped with the request id.
        """
        p = self.params
        obs = self.sim.obs
        span = None
        if obs is not None:
            if ctx is None:
                ctx = obs.request_context(op="create", origin="giga")
            span = obs.tracer.start(
                "giga.create", at=self.sim.now, **ctx.span_attrs()
            )
        hops = 0
        target = self.server_of(client_bitmap.partition_of_name(name))
        while True:
            hops += 1
            yield Timeout(p.client_rpc_s)
            ok, correct = yield from self.server_create(target, name, client_bitmap)
            if ok:
                if span is not None:
                    span.attrs["hops"] = hops
                    span.finish(at=self.sim.now)
                return hops
            target = correct

    def lookup(self, name: str) -> bool:
        """Authoritative membership check (no timing)."""
        p = self.bitmap.partition_of_name(name)
        return name in self.entries.get(p, {})

    def client_readdir(self, client_bitmap: GigaBitmap):
        """Directory scan: visit every partition's server, merging pages.

        GIGA+ readdir is inherently a sweep over all partitions (the price
        of hash partitioning); the client first syncs its bitmap so it
        enumerates the complete, current partition set.  Returns the
        sorted entry names.
        """
        p = self.params
        client_bitmap.merge_from(self.bitmap)
        names: list[str] = []
        for partition in client_bitmap.partitions():
            server = self.server_of(partition)
            yield Timeout(p.client_rpc_s)
            grant = yield Acquire(self.servers[server])
            bucket = self.entries.get(partition, {})
            # one op plus per-entry marshaling cost
            yield Timeout(p.op_service_s + len(bucket) * p.per_entry_move_s)
            names.extend(bucket)
            self.servers[server].release(grant)
            self.counters["readdir_pages"] += 1
        return sorted(names)

    def check_invariants(self) -> None:
        self.bitmap.check_invariants()
        for partition, bucket in self.entries.items():
            if bucket:
                assert partition in self.bitmap.radix
            for name, h in bucket.items():
                assert self.bitmap.partition_of(h) == partition, (
                    f"{name} misfiled in partition {partition}"
                )


def run_metarates(
    n_servers: int,
    n_clients: int,
    files_per_client: int,
    params: GigaParams | None = None,
) -> GigaClusterResult:
    """Concurrent create storm; returns aggregate throughput and stats."""
    base = params or GigaParams()
    p = GigaParams(
        n_servers=n_servers,
        split_threshold=base.split_threshold,
        op_service_s=base.op_service_s,
        per_entry_move_s=base.per_entry_move_s,
        client_rpc_s=base.client_rpc_s,
    )
    sim = Simulator()
    cluster = GigaCluster(sim, p)

    def client_proc(c: int):
        my_bitmap = GigaBitmap()  # starts maximally stale
        for i in range(files_per_client):
            yield from cluster.client_create(my_bitmap, f"f.{c}.{i}")

    for c in range(n_clients):
        sim.spawn(client_proc(c))
    sim.run()
    cluster.check_invariants()
    return GigaClusterResult(
        n_servers=n_servers,
        total_creates=int(cluster.counters["creates"]),
        makespan_s=sim.now,
        splits=int(cluster.counters["splits"]),
        entries_moved=int(cluster.counters["entries_moved"]),
        addressing_errors=int(cluster.counters["addressing_errors"]),
        partitions=len(cluster.bitmap),
    )
