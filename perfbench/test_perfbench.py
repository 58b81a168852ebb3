"""Tests of the benchmark itself (run: ``python3 -m pytest perfbench -q``).

They run every workload at a tiny size; the benchmark's own sizes are
exercised by ``run.py`` and checked by its gates.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import catalog  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import Spans, attribute  # noqa: E402

TINY = {
    "ckpt_n1": {"ranks": 8, "records": 4, "servers": 4, "racks": 2, "readers": 2},
    "meta_storm": {"servers": 4, "clients": 40},
    "burst_rebuild": {"runs": 2, "n_files": 6, "regions_per_file": 1, "n_bursts": 2},
    "plfs_disk": {"writers": 3, "records": 50, "pool_bytes": 1 << 16, "read_bytes": 4096},
}

INPUTS = {
    "ckpt_n1": (workloads.ckpt_inputs, workloads.CKPT_SIZE),
    "meta_storm": (workloads.meta_inputs, workloads.META_SIZE),
    "burst_rebuild": (workloads.burst_inputs, workloads.BURST_SIZE),
    "plfs_disk": (workloads.plfs_inputs, workloads.PLFS_SIZE),
}


def one_pass(name: str, seed: int, workdir: Path) -> workloads.PassResult:
    wl = workloads.WORKLOADS[name]
    st = wl.setup(seed, TINY[name], workdir)
    try:
        return wl.run(st, Spans())
    finally:
        wl.teardown(st)


def test_metric_names_are_well_formed_and_match_benchmark_json():
    for metric in catalog.END_TO_END + catalog.PER_LAYER:
        assert catalog.NAME_RE.match(metric.name), metric.name
        assert metric.better in ("lower", "higher")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = catalog.by_name()
    assert [m["name"] for m in bench["end_to_end"]] == list(catalog.GATED)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert catalog.NAME_RE.match(m["name"])
        assert (m["unit"], m["better"]) == (units[m["name"]].unit, units[m["name"]].better)
    assert [m["name"] for m in bench["per_layer"]] == [m.name for m in catalog.PER_LAYER]
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert list(workloads.WORKLOADS) == list(catalog.WORKLOADS)


@pytest.mark.parametrize("name", catalog.WORKLOADS)
def test_same_seed_gives_identical_simulated_metrics_and_counts(name, tmp_path):
    a = one_pass(name, 7, tmp_path)
    b = one_pass(name, 7, tmp_path)
    assert all(a.gates.values()), a.gates
    assert a.failed == 0 and a.attempted > 0
    sim = {k: v for k, v in a.outcomes.items() if k.startswith("sim_")}
    assert sim == {k: v for k, v in b.outcomes.items() if k.startswith("sim_")}
    assert a.counts == b.counts
    assert (a.attempted, a.failed) == (b.attempted, b.failed)
    reported = {m.name for m in catalog.applies(name)}
    assert set(a.outcomes) <= reported


@pytest.mark.parametrize("name", catalog.WORKLOADS)
def test_a_different_seed_changes_the_generated_inputs(name):
    make, size = INPUTS[name]
    small = {**size, **TINY[name]}
    assert repr(make(1, small)) == repr(make(1, small))
    assert repr(make(1, small)) != repr(make(2, small))


def test_plfs_gate_trips_on_a_corrupted_data_dropping(tmp_path):
    st = workloads.plfs_setup(3, TINY["plfs_disk"], tmp_path)
    try:
        workloads.plfs_write(st)
        data = sorted(st.root.rglob("dropping.data.*"))[0]
        raw = bytearray(data.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        data.write_bytes(bytes(raw))
        with st.fs.open_read("/ckpt") as reader:
            digest, nread, _own = workloads.plfs_read(st, reader)
        res = workloads.plfs_verify(st, reader, digest, nread, 1.0, 1.0, 1.0)
    finally:
        workloads.plfs_teardown(st)
    assert res.gates == {"read-back digest equals written digest": False}
    assert res.failed == 1


def test_foreign_self_time_goes_to_the_caller_and_file_io_to_os():
    sim_fn = ("/x/src/repro/sim/core.py", 1, "run")
    fluid_fn = ("/x/src/repro/net/fluid.py", 1, "step")
    plfs_fn = ("/x/src/repro/plfs/filehandle.py", 1, "write")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    write = ("~", 0, "<method 'write' of '_io.BufferedWriter' objects>")
    stats = {
        sim_fn: (1, 1, 1.0, 4.0, {}),
        fluid_fn: (1, 1, 0.5, 0.5, {sim_fn: (1, 1, 0.5, 0.5)}),
        heappush: (3, 3, 0.6, 0.6, {sim_fn: (2, 2, 0.4, 0.4), fluid_fn: (1, 1, 0.2, 0.2)}),
        plfs_fn: (1, 1, 0.1, 0.4, {}),
        write: (1, 1, 0.3, 0.3, {plfs_fn: (1, 1, 0.3, 0.3)}),
    }
    out = attribute(stats)
    assert out == pytest.approx({"sim": 1.4, "net.fluid": 0.7, "plfs": 0.1, "os": 0.3})


def test_reference_seconds_scale_by_the_probes_middle_half():
    assert hostspeed.iqm([9.0, 1.0, 2.0, 3.0, 100.0, 2.0, 3.0, 2.0]) == pytest.approx(2.5)
    probe = hostspeed.PROBE_S
    slow = hostspeed.Block(2.0, [2 * probe] * hostspeed.MIN_PROBES)
    assert slow.ref_s() == pytest.approx(1.0)
    # too few probes of its own: the block takes the speed it is given
    few = hostspeed.Block(2.0, [2 * probe])
    assert few.ref_s(fallback_probe_s=4 * probe) == pytest.approx(0.5)


def test_sampler_runs_probes_and_leaves_their_time_out():
    sampler = hostspeed.Sampler()
    before = signal.getsignal(signal.SIGPROF)
    with sampler.armed(), sampler.block() as blk:
        end = time.process_time() + 0.3
        while time.process_time() < end:
            pass
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(blk.probes) >= hostspeed.MIN_PROBES
    assert blk.cpu_s == pytest.approx(0.3 - sum(blk.probes), abs=0.05)
    assert blk.ref_s() > 0


def test_a_failed_gate_prints_the_result_and_exits_non_zero(monkeypatch, capsys):
    result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    monkeypatch.setattr(run, "run_workload", lambda *args: result)
    assert run.main(["--workload", "ckpt_n1", "--seconds", "1"]) == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == result


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ckpt_n1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
