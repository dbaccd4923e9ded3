#!/usr/bin/env python3
"""Compare a parent and a change result set, per workload and metric.

Usage, from the repository root::

    python3 perfbench/compare.py perfbench/.work/parent.json perfbench/.work/change.json

Both files come from ``collect.py`` (timed runs, ``--trace 0``).  Runs
are paired by seed.  For every workload x end-to-end metric it prints
each side's median and quartiles, the share of pairs the change won
(ties count for neither side) and a verdict:

* ``improved``: the change won at least 9/10 of the pairs and its
  median beats the parent's by more than the parent's quartile
  distance.
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound (when either side spreads wider than the
  bound: and every change run loses to every parent run).
* ``unresolved``: either side's spread (quartile distance over median)
  is wider than the bound, and neither every change run beats every
  parent run nor every one loses to every parent run; also an
  ``improved`` result on a workload where the change failed a larger
  share of operations than the parent.
* ``unchanged``: none of the above.  Every change run beating every
  parent run settles a wide spread as ``unchanged`` unless the gain
  rule above holds; it never claims a gain by itself.

It reports only; its exit status never depends on the timings.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from collect import spread  # noqa: E402
from run import WORKLOADS, declared_metrics  # noqa: E402


def _better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def verdict(parent: list[float], change: list[float], spec: dict) -> tuple[str, float]:
    """(verdict, share of pairs won by the change) for one metric."""
    better, bound = spec["better"], spec["bound"]
    pairs = list(zip(parent, change))
    wins = sum(_better(c, p, better) for p, c in pairs)
    won = wins / len(pairs) if pairs else 0.0
    p_med, p_q1, p_q3, p_spread = spread(parent)
    c_med, _, _, c_spread = spread(change)
    all_better = all(_better(c, p, better) for c in change for p in parent)
    all_worse = all(_better(p, c, better) for c in change for p in parent)
    worse_by = (p_med - c_med if better == "higher" else c_med - p_med) / abs(p_med) if p_med else 0.0
    gain = won >= 0.9 and _better(c_med, p_med, better) and abs(c_med - p_med) > p_q3 - p_q1
    if max(p_spread, c_spread) > bound:
        if all_worse and worse_by > bound:
            return "worse", won
        if all_better:
            return ("improved" if gain else "unchanged"), won
        return "unresolved", won
    if gain:
        return "improved", won
    if worse_by > bound:
        return "worse", won
    return "unchanged", won


def _paired(parent_runs: list[dict], change_runs: list[dict]) -> tuple[list[dict], list[dict]]:
    by_seed = {r["seed"]: r for r in change_runs}
    common = [r for r in parent_runs if r["seed"] in by_seed]
    if common:
        return common, [by_seed[r["seed"]] for r in common]
    n = min(len(parent_runs), len(change_runs))
    return parent_runs[:n], change_runs[:n]


def _failed_share(runs: list[dict]) -> float:
    attempted = sum(r["result"]["attempted"] for r in runs)
    return sum(r["result"]["failed"] for r in runs) / attempted if attempted else 0.0


def compare(parent: dict, change: dict) -> list[tuple]:
    """One row per workload x end-to-end metric."""
    declared = declared_metrics()["end_to_end"]
    rows = []
    for workload in WORKLOADS:
        mine_p = [r for r in parent["runs"] if r["workload"] == workload and "result" in r]
        mine_c = [r for r in change["runs"] if r["workload"] == workload and "result" in r]
        if not mine_p or not mine_c:
            continue
        mine_p, mine_c = _paired(mine_p, mine_c)
        more_failed = _failed_share(mine_c) > _failed_share(mine_p)
        for name, spec in declared.items():
            p = [r["result"]["metrics"][name]["value"] for r in mine_p]
            c = [r["result"]["metrics"][name]["value"] for r in mine_c]
            result, won = verdict(p, c, spec)
            if result == "improved" and more_failed:
                result = "unresolved"
            rows.append((workload, name, spec["unit"], spread(p), spread(c), won, len(p), result))
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    print(f"{'workload':<15} {'metric':<18} {'unit':<6} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'won':>9}  verdict")
    for workload, name, unit, p, c, won, n, result in compare(parent, change):
        fmt = lambda s: f"{s[0]:.5g} [{s[1]:.5g}, {s[2]:.5g}]"  # noqa: E731
        print(f"{workload:<15} {name:<18} {unit:<6} {fmt(p):>34} {fmt(c):>34} "
              f"{round(won * n):>3}/{n:<3}  {result}")
    for workload in WORKLOADS:
        for label, data in (("parent", parent), ("change", change)):
            runs = [r for r in data["runs"] if r["workload"] == workload and "result" in r]
            if runs:
                print(f"{workload} {label}: failed ops "
                      f"{sum(r['result']['failed'] for r in runs)}/"
                      f"{sum(r['result']['attempted'] for r in runs)} "
                      f"({statistics.fmean([_failed_share([r]) for r in runs]):.3%} mean per run)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
