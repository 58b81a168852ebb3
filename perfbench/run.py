"""Run the benchmark: one workload per process, metrics as one JSON line.

    python3 perfbench/run.py --workload ckpt_n1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                      # all four, one process each

Each run repeats *passes* of the workload until ``--seconds`` have gone
by (at least three with ``--trace 0``, at least one untraced and one
traced pass with ``--trace 1``).  A pass imports the program afresh in a
forked child and builds the system and inputs from the seed (set-up),
runs the timed phases, and checks the outputs.  Untraced passes run the
host-speed probe of ``hostspeed.py`` throughout, so that ``cpu_s`` and
``setup_s`` can be given at the reference host speed.

``--trace 0`` prints every end-to-end metric that applies to the
workload, and ends with a JSON line carrying the three that apply to
all workloads (``catalog.GATED``).  ``--trace 1`` alternates untraced
and ``cProfile``-traced passes, prints the per-layer table, writes the
phase spans to ``.perfbench/``, and ends with a JSON line carrying every
per-layer metric.  The exit code is 0 when every pass ran and every
correctness gate held.  It is 1 when a gate failed; the JSON line is
still printed and says ``"correct": false``.  It is 2, and no JSON line
is printed, when the program cannot be found; a pass that raises ends
the run with Python's traceback and exit code 1, also without a JSON
line.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# one thread per workload process, whatever BLAS numpy links
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import catalog  # noqa: E402
import hostspeed  # noqa: E402
from layers import Spans, attribute, call_count  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
MIN_UNTRACED_PASSES = 3


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _deterministic(res) -> tuple:
    """What must repeat exactly between passes of one seed."""
    sim = {k: v for k, v in res.outcomes.items() if k.startswith("sim_")}
    return (sim, res.counts, res.attempted, res.failed)


def import_program(modules: tuple[str, ...]) -> None:
    """Import the program's modules afresh: drop every ``repro`` module
    already loaded, so that the imports execute the program's module code
    again.  Third-party modules stay loaded."""
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    for module in modules:
        importlib.import_module(module)


def import_block(modules: tuple[str, ...]) -> hostspeed.Block:
    """CPU seconds to import the program afresh, measured in a forked child
    with its own probe sampler.

    The child inherits the loaded third-party modules, imports the
    program again and exits; the measuring process keeps its own modules
    and memory, so ``peak_rss_mb`` does not grow with the pass count.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            sampler = hostspeed.Sampler()
            with sampler.armed(), sampler.block() as imp:
                import_program(modules)
            os.write(wfd, json.dumps([imp.cpu_s, imp.probes]).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as fp:
        text = fp.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError("importing the program failed in the child process")
    cpu_s, probes = json.loads(text)
    return hostspeed.Block(cpu_s, probes)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sampler = hostspeed.Sampler()
    spans = Spans(lambda: sampler.probe_total)
    # first imports: the standard library, numpy and the like load once
    # per process and are not part of the program's set-up
    with spans.span("import") as imp:
        import workloads

        wl = workloads.WORKLOADS[name]
        for module in wl.modules:
            importlib.import_module(module)
    passes: list[dict] = []
    deadline = time.perf_counter() + seconds
    unit_start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        prof = cProfile.Profile() if traced else None
        with spans.span("pass", index=len(passes), traced=traced) as pass_rec:
            imports = import_block(wl.modules)
            pass_rec["import_cpu"] = imports.cpu_s
            # probes run in untraced passes only: a traced pass would
            # profile them, and its CPU seconds are not reported
            with sampler.armed() if not traced else nullcontext():
                with spans.span("setup"), sampler.block() as setup:
                    st = wl.setup(seed, None, OUT_DIR)
                try:
                    with spans.span("timed") as t, sampler.block() as timed:
                        if prof is None:
                            res = wl.run(st, spans)
                        else:
                            with prof:
                                res = wl.run(st, spans)
                finally:
                    with spans.span("teardown"):
                        wl.teardown(st)
        # the benchmark's own checking inside a phase is left out
        own = spans.children(t)
        timed.cpu_s -= sum(r.get("own_cpu", 0.0) for r in own)
        wall = spans.duration(t) - sum(r.get("own_wall", 0.0) for r in own)
        set_up = hostspeed.Block(imports.cpu_s + setup.cpu_s, imports.probes + setup.probes)
        timed_probe_s = hostspeed.iqm(timed.probes) if timed.probes else None
        passes.append({
            "setup_s": set_up.ref_s(timed_probe_s),
            "cpu_s": timed.ref_s(),
            "setup_raw_s": set_up.cpu_s,
            "cpu_raw_s": timed.cpu_s,
            "wall_s": wall,
            "probe_us": timed_probe_s * 1e6 if timed_probe_s else float("nan"),
            "traced": traced, "res": res,
            "stats": pstats.Stats(prof).stats if prof is not None else None,
        })
        del st                            # one system alive at a time
        if trace and not traced:
            continue                      # a traced run measures whole pairs
        # stop when one more pass (or pair) as long as the last would
        # overrun the deadline by more than it would leave unused
        now = time.perf_counter()
        unit, unit_start = now - unit_start, now
        enough = len(passes) >= (2 if trace else MIN_UNTRACED_PASSES)
        if enough and now + unit / 2 >= deadline:
            break

    gates: dict[str, bool] = {}
    for p in passes:
        for gate, ok in p["res"].gates.items():
            gates[gate] = gates.get(gate, True) and ok
    first = _deterministic(passes[0]["res"])
    gates["same seed repeats exactly"] = all(_deterministic(p["res"]) == first for p in passes)
    correct = all(gates.values())
    attempted = sum(p["res"].attempted for p in passes)
    failed = sum(p["res"].failed for p in passes)
    untraced = [p for p in passes if not p["traced"]]

    print(f"# workload {name}  seed {seed}  passes {len(passes)}  trace {int(trace)}  "
          f"first-import CPU {spans.cpu(imp):.3f} s")
    print("#   pass cpu_raw_s " + " ".join(f"{p['cpu_raw_s']:.3f}{'*' if p['traced'] else ''}"
                                          for p in passes))
    print("#   pass cpu_s " + " ".join(f"{p['cpu_s']:.3f}" for p in untraced))
    print("#   pass probe_us " + " ".join(f"{p['probe_us']:.1f}" for p in untraced))
    for gate, ok in gates.items():
        print(f"#   gate {'ok  ' if ok else 'FAIL'} {gate}")

    if not trace:
        metrics = {
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "setup_s": statistics.median(p["setup_s"] for p in passes),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "cpu_raw_s": statistics.median(p["cpu_raw_s"] for p in passes),
            "setup_raw_s": statistics.median(p["setup_raw_s"] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "ops_failed_frac": failed / max(1, attempted),
        }
        for key in passes[0]["res"].outcomes:
            metrics[key] = statistics.median(p["res"].outcomes[key] for p in passes)
        samples = passes[0]["res"].samples
        for m in catalog.applies(name):
            extra = f"  (n={samples[m.name]})" if m.name in samples else ""
            print(f"{m.name:<24} {_fmt(metrics[m.name]):>14} {m.unit}{extra}")
        units = catalog.by_name()
        out = {k: {"value": metrics[k], "unit": units[k].unit} for k in catalog.GATED}
    else:
        out = _layer_metrics(passes)
        _print_layers(out)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans.dump(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    return {"correct": correct, "attempted": max(1, attempted), "failed": failed,
            "metrics": out}


def _layer_metrics(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    last = traced[-1]
    values = {m.name: 0.0 for m in catalog.PER_LAYER}
    values.update(last["res"].counts)
    selfs = [attribute(p["stats"]) for p in traced]
    for layer in catalog.LAYERS:
        values[f"{layer}.self_s"] = statistics.median(s.get(layer, 0.0) for s in selfs)
    values["placement.feedback_refreshes"] = call_count(
        last["stats"], "repro/net/fabric.py", "refresh"
    )
    events = values["sim.events_dispatched"]
    ref_cpu = statistics.median(p["cpu_s"] for p in untraced)
    values["sim.host_us_per_event"] = ref_cpu / events * 1e6 if events else 0.0
    values["trace.overhead"] = (statistics.median(p["cpu_raw_s"] for p in traced)
                                / statistics.median(p["cpu_raw_s"] for p in untraced))
    units = catalog.by_name()
    return {name: {"value": float(values[name]), "unit": units[name].unit}
            for name in (m.name for m in catalog.PER_LAYER)}


def _print_layers(out: dict) -> None:
    total = sum(out[f"{layer}.self_s"]["value"] for layer in catalog.LAYERS) or 1.0
    print(f"{'layer':<11} {'self_s':>9} {'share':>6}  counts")
    for layer in catalog.LAYERS:
        self_s = out[f"{layer}.self_s"]["value"]
        counts = "  ".join(
            f"{c}={_fmt(out[f'{layer}.{c}']['value'])}"
            for c, _unit in catalog.LAYER_COUNTS[layer]
        )
        print(f"{layer:<11} {self_s:>9.4f} {self_s / total:>6.1%}  {counts}")
    print(f"trace.overhead {out['trace.overhead']['value']:.3f} (traced CPU s / untraced CPU s)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=("all",) + catalog.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program to measure at {src}/repro\n")
        return 2
    if args.workload == "all":
        # each workload in a fresh process, one after another
        rc = 0
        for name in catalog.WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            rc = max(rc, subprocess.run(cmd, check=False).returncode)
        return rc

    sys.path.insert(0, str(src))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
