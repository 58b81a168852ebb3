"""Pull-based telemetry: the registry reads components, never changes them.

Two contracts:

* **observer neutrality** — every pinned ``repro.obs.bench`` scenario
  returns the same result with an observability bundle active and with
  none (congestion placement reads the switch ports, not the registry);
* **registry equals authority** — each counted fact has one store on
  its component (``SwitchPort.total_*``, ``SimPFS``/server/GIGA+
  ``counters``), and the registry's series equal it at any read,
  because collectors publish the plain counts when the registry is read.
"""

import pytest

from repro import obs as obs_mod
from repro.net.fabric import FabricParams, LeafSpineParams, Link, Topology
from repro.obs.bench import BENCHMARKS
from repro.pfs.params import PFSParams
from repro.pfs.system import SimPFS
from repro.sim import Simulator, Timeout

PORT_KEYS = ("drops_pkts", "timeouts", "retransmits", "bytes", "blackouts")


@pytest.mark.parametrize("name", list(BENCHMARKS))
def test_bench_scenario_is_observer_neutral(name):
    fn = BENCHMARKS[name]
    with obs_mod.use(obs_mod.Observability(name=f"on:{name}")):
        on = fn()
    assert obs_mod.current() is None
    off = fn()
    assert on == off


def _port_series(o, port) -> dict:
    snap = o.metrics.snapshot()
    got = {
        k: snap["counters"].get(f"net.fabric.{k}{{port={port.name}}}", 0) for k in PORT_KEYS
    }
    got["occupancy_pkts"] = snap["gauges"].get(f"net.fabric.occupancy_pkts{{port={port.name}}}", 0)
    return got


def _port_authority(port) -> dict:
    st = port.stats()
    return {k: st[k] for k in (*PORT_KEYS, "occupancy_pkts")}


def test_port_series_equal_switchport_stats_mid_run_and_after():
    fab = FabricParams(
        name="t", buffer_pkts=8, min_rto_s=1e-3, seed=3,
        leafspine=LeafSpineParams(n_racks=2, oversubscription=4.0),
    )
    with obs_mod.use() as o:
        sim = Simulator()
        topo = Topology(sim, 4, Link(125e6), Link(125e6), fabric=fab)
        seen_busy = []

        def probe():
            yield Timeout(2e-4)
            for port in topo.ports():
                assert _port_series(o, port) == _port_authority(port), port.name
            seen_busy.append(sum(p.occupancy_pkts for p in topo.ports()))

        for c in range(8):
            sim.spawn(topo.to_server(2 + c % 2, 64 * 1024, src_client=c))
        sim.spawn(probe())
        sim.call_at(1e-3, topo.set_leaf_down, 1, True)
        sim.call_at(3e-3, topo.set_leaf_down, 1, False)
        sim.run()
    assert seen_busy and seen_busy[0] > 0  # the mid-run read saw queued packets
    ports = topo.ports()
    assert sum(p.total_drops_pkts for p in ports) > 0
    assert sum(p.total_blackouts for p in ports) > 0
    for port in ports:
        assert _port_series(o, port) == _port_authority(port), port.name


def test_server_stats_equal_pfs_server_series():
    fab = FabricParams(name="t", buffer_pkts=16, min_rto_s=1e-3, seed=2)
    with obs_mod.use() as o:
        sim = Simulator()
        pfs = SimPFS(sim, PFSParams(n_servers=4, fabric=fab))

        def work(c):
            yield from pfs.op_create(c, f"/f{c}")
            yield from pfs.op_write(c, f"/f{c}", 0, 256 * 1024)
            yield from pfs.op_read(c, f"/f{c}", 0, 256 * 1024)

        for c in range(4):
            sim.spawn(work(c))
        sim.call_at(1e-3, pfs.servers[1].crash)
        sim.call_at(2e-3, pfs.servers[1].recover)
        sim.run()
    counters = o.metrics.snapshot()["counters"]
    series = {}
    for key, value in counters.items():
        if key.startswith("pfs.server."):
            what, _, label = key[len("pfs.server."):].partition("{server=")
            series[(int(label.rstrip("}")), what)] = value
    stats = pfs.server_stats()
    want = {(s.index, k): stats[s.index][k] for s in pfs.servers for k in s.counters}
    assert series == want
    assert want[(1, "crashes")] == 1
    assert {k: counters[f"pfs.{k}"] for k in pfs.counters} == dict(pfs.counters)
    assert pfs.counters["mds_ops"] == 4


def test_giga_cluster_series_equal_counters():
    from repro.giga.cluster import run_metarates

    with obs_mod.use() as o:
        r = run_metarates(n_servers=4, n_clients=4, files_per_client=200)
    counters = o.metrics.snapshot()["counters"]
    assert counters["giga.creates"] == r.total_creates == 800
    assert counters["giga.splits"] == r.splits > 0
    assert counters["giga.entries_moved"] == r.entries_moved
    assert counters["giga.addressing_errors"] == r.addressing_errors


def test_topology_registers_no_per_port_metrics_at_construction():
    fab = FabricParams(
        name="t", buffer_pkts=64, leafspine=LeafSpineParams(n_racks=4),
    )
    with obs_mod.use() as o:
        sim = Simulator()
        before = len(o.metrics)  # the kernel's own series
        topo = Topology(sim, 256, Link(125e6), Link(125e6), fabric=fab)
        for c in range(64):
            topo.client_port(c)
        assert len(topo.ports()) == 256 + 8 + 64
        assert len(o.metrics) == before
        assert o.metrics.find("net.fabric") == []
        assert o.metrics.find("sim.resource") == []
