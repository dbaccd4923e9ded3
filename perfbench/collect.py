#!/usr/bin/env python3
"""Run the benchmark over workloads x seeds and save a result set.

Usage, from the repository root::

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/.work/parent.json
    python3 perfbench/collect.py --workloads stream-open --seeds 1-5 --trace 1

Each (workload, seed) is one ``run.py`` process, run one after another.
The result set keeps every run's result line and detail line; the
printed table gives, per workload and metric, the median, the
quartiles and the spread (quartile distance over median), flagging a
spread of a third of the metric's bound or more.  Compare two result
sets with ``compare.py``.
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
sys.path.insert(0, str(HERE))

from run import WORKLOADS, declared_metrics  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    record = {"workload": workload, "seed": seed, "trace": trace, "exit_code": proc.returncode}
    if proc.returncode not in (0, 1) or not lines:
        record["stderr"] = proc.stderr[-4000:]
        return record
    record["result"] = json.loads(lines[-1])
    detail = [line for line in lines if line.startswith("detail ")]
    if detail:
        record["detail"] = json.loads(detail[-1][len("detail "):])
    if proc.returncode:
        record["stderr"] = proc.stderr[-4000:]
    return record


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def summarize(runs: list[dict], trace: int) -> None:
    declared = declared_metrics()["per_layer" if trace else "end_to_end"]
    for workload in WORKLOADS:
        mine = [r for r in runs if r["workload"] == workload and "result" in r]
        if not mine:
            continue
        failed = [r["seed"] for r in mine if not r["result"]["correct"]]
        ops = sum(r["result"]["failed"] for r in mine), sum(r["result"]["attempted"] for r in mine)
        print(f"\n{workload}: {len(mine)} runs, failed ops {ops[0]}/{ops[1]}"
              + (f", INCORRECT seeds {failed}" if failed else ""))
        print(f"  {'metric':<40} {'unit':<10} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, spec in declared.items():
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            med, q1, q3, rel = spread(values)
            flag = ""
            if "bound" in spec and rel >= spec["bound"] / 3:
                flag = f"  >= bound/3 ({spec['bound'] / 3:.3f})"
            print(f"  {name:<40} {spec['unit']:<10} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.3%}{flag}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=int, default=None,
                        help="per-run drive time (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="result-set file to write")
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")
    runs = []
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            record = run_one(workload, seed, seconds, args.trace)
            status = "ok" if record.get("result", {}).get("correct") else f"exit {record['exit_code']}"
            print(f"{workload} seed {seed}: {status}", flush=True)
            runs.append(record)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"seconds": seconds, "trace": args.trace, "runs": runs}, indent=1))
    summarize(runs, args.trace)
    return 0 if all(r.get("result", {}).get("correct") for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
