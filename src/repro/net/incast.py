"""TCP incast: synchronized reads collapse goodput; low min-RTO fixes it.

Mechanism (Phanishayee et al., FAST'08; Vasudevan et al., SIGCOMM'09, both
PDSI work): a client requests a striped block from N servers at once; all
N responses converge on one switch output port whose buffer overflows.  A
server that loses its *entire* window has nothing in flight to trigger
fast retransmit, so it sits in a retransmission timeout — historically a
200 ms minimum, thousands of RTTs — while the barrier at the client keeps
the link idle.  Goodput falls by up to two orders of magnitude.  Lowering
the minimum RTO to ~1 ms (microsecond-granularity timers) restores
goodput; at thousands of servers the retransmissions themselves
resynchronize, so the RTO must also be *randomized* (Fig 9 right).

This module is now a thin configuration of the shared network fabric:
the round-based engine lives in :func:`repro.net.fabric.synchronized_fanin`
(one round = one RTT, uniform random drops past the port's service+buffer
capacity, full-window loss → minimum RTO, partial loss → fast retransmit),
and :class:`IncastConfig` just maps the published testbeds onto a
:class:`~repro.net.fabric.Link` + :class:`~repro.net.fabric.FabricParams`
pair.  All randomness flows through one explicit
``numpy.random.Generator`` seeded from the config, so two same-seed runs
produce identical :class:`IncastResult`\\ s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.net.fabric import FabricParams, Link, SwitchPort, synchronized_fanin
from repro.obs import current as _current_obs


@dataclass(frozen=True)
class IncastConfig:
    """One synchronized-read experiment."""

    name: str = "1GE"
    link_Bps: float = 125e6           # 1 Gb/s
    rtt_s: float = 100e-6
    pkt_bytes: int = 1500
    buffer_pkts: int = 64             # switch output-port buffer
    sru_bytes: int = 32 * 1024        # per-server request unit
    min_rto_s: float = 0.2            # the historical 200 ms minimum
    rto_jitter: bool = False          # randomize the timeout
    init_cwnd: int = 2
    max_cwnd: int = 64
    seed: int = 42                    # drop sampling + RTO jitter

    @property
    def pkt_time_s(self) -> float:
        return self.pkt_bytes / self.link_Bps

    @property
    def pkts_per_rtt(self) -> int:
        return max(1, int(self.rtt_s / self.pkt_time_s))

    # -- the fabric view ---------------------------------------------
    def as_link(self) -> Link:
        return Link(bandwidth_Bps=self.link_Bps)

    def as_fabric(self) -> FabricParams:
        return FabricParams(
            name=self.name,
            buffer_pkts=self.buffer_pkts,
            pkt_bytes=self.pkt_bytes,
            rtt_s=self.rtt_s,
            min_rto_s=self.min_rto_s,
            rto_jitter=self.rto_jitter,
            init_cwnd=self.init_cwnd,
            max_cwnd=self.max_cwnd,
            seed=self.seed,
        )


#: The report's two testbeds.
ONE_GE = IncastConfig()
TEN_GE = IncastConfig(
    name="10GE",
    link_Bps=1250e6,
    rtt_s=40e-6,
    buffer_pkts=256,
    sru_bytes=64 * 1024,
)


@dataclass
class IncastResult:
    n_servers: int
    goodput_Bps: float
    timeouts: int
    block_time_s: float
    repeat_timeouts: int = 0  # timeouts of flows that already timed out
                              # within the same block: retransmission-storm
                              # collisions, the thing jitter removes

    @property
    def goodput_MBps(self) -> float:
        return self.goodput_Bps / 1e6

    def efficiency(self, cfg: IncastConfig) -> float:
        return self.goodput_Bps / cfg.link_Bps


def simulate_incast(
    cfg: IncastConfig,
    n_servers: int,
    rng: Optional[np.random.Generator] = None,
    n_blocks: int = 20,
) -> IncastResult:
    """Fetch ``n_blocks`` striped blocks; returns aggregate goodput.

    ``rng`` defaults to ``numpy.random.default_rng(cfg.seed)`` — pass one
    explicitly to share a stream across calls.
    """
    if n_servers < 1:
        raise ValueError("need at least one server")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    obs = _current_obs()
    port = SwitchPort(cfg.as_link(), cfg.as_fabric(), name=f"incast.{cfg.name}.{n_servers}")
    if obs is not None:
        obs.metrics.register_collector(port.collect)
    fanin = synchronized_fanin(
        cfg.as_link(),
        cfg.as_fabric(),
        n_flows=n_servers,
        sru_bytes=cfg.sru_bytes,
        rng=rng,
        n_blocks=n_blocks,
        port=port,
    )
    result = IncastResult(
        n_servers=n_servers,
        goodput_Bps=fanin.goodput_Bps,
        timeouts=fanin.timeouts,
        block_time_s=fanin.block_time_s,
        repeat_timeouts=fanin.repeat_timeouts,
    )
    if obs is not None:
        labels = {"config": cfg.name, "servers": n_servers}
        m = obs.metrics
        m.gauge("net.incast.goodput_Bps", **labels).set(result.goodput_Bps)
        m.counter("net.incast.timeouts", **labels).inc(fanin.timeouts)
        m.counter("net.incast.repeat_timeouts", **labels).inc(fanin.repeat_timeouts)
        m.counter("net.incast.bytes_read", **labels).inc(fanin.total_bytes)
    return result


def sweep_senders(
    cfg: IncastConfig,
    sender_counts: list[int],
    seed: int = 42,
    n_blocks: int = 20,
) -> list[IncastResult]:
    """Goodput vs sender count — one curve of Fig 9."""
    return [
        simulate_incast(cfg, n, np.random.default_rng(seed + n), n_blocks=n_blocks)
        for n in sender_counts
    ]
