"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads ckpt_n1 meta_storm --seeds 10 \
        --out perfbench/baseline.json

Runs ``run.py --trace 0`` once per seed and workload, one after another,
and reports per metric the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread: the distance between the quartiles as a
share of the median.  Every metric of ``BENCHMARK.json`` must keep its
spread within its bound.  Then one ``--trace 1``
run per workload, with the first seed, records the per-layer metrics.
``--out`` writes the numbers as JSON, the form ``baseline.json`` is kept
in, with every pass's reference and raw CPU seconds and probe time.  The exit code is 1 when a run was incorrect or a spread exceeded
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(name: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(proc.returncode)
    return parse_line(proc.stdout)


def parse_line(text: str) -> tuple[dict, dict]:
    """(final JSON object, every printed ``name value unit`` metric, and
    under ``passes`` each pass's figures from the ``# pass`` lines)."""
    lines = text.strip().splitlines()
    printed: dict = {"passes": {}}
    for line in lines[:-1]:
        parts = line.split()
        if parts[:2] == ["#", "pass"]:
            printed["passes"][parts[2]] = [float(v.rstrip("*")) for v in parts[3:]]
            continue
        if len(parts) >= 3 and not line.startswith("#"):
            try:
                printed[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return json.loads(lines[-1]), printed


def spread_of(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "values": values,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: dict = {"seconds": args.seconds, "workloads": {}}
    ok = True
    for name in args.workloads:
        runs: dict[str, list[float]] = {}
        passes = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, printed = run(name, seed, args.seconds, 0)
            passes.append(printed.pop("passes"))
            ok = ok and result["correct"] and result["failed"] == 0
            for metric, value in printed.items():
                runs.setdefault(metric, []).append(value)
            for metric, entry in result["metrics"].items():
                runs[metric][-1] = entry["value"]    # full precision
        rows = {metric: spread_of(values) for metric, values in runs.items()}
        traced, _ = run(name, args.first_seed, args.seconds, 1)
        ok = ok and traced["correct"]
        report["workloads"][name] = {
            "end_to_end": rows,
            "passes": passes,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for metric, row in rows.items():
            bound = bounds.get(metric)
            flag = ""
            if bound is not None:
                flag = "ok" if row["spread"] < bound / 3 else "WIDE"
                ok = ok and row["spread"] <= bound
            print(f"{name:<14} {metric:<22} median {row['median']:<12.6g} "
                  f"spread {row['spread']:7.2%}  {flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
