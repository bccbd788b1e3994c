"""Compare two result sets of the benchmark (parent commit and change).

    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

Each file holds the records that ``bench/run.py`` appends, one JSON object per
run.  Untraced runs are paired by workload and seed; run the pairs
alternating which side goes first.  One row per workload and metric gives
both medians and quartiles, the share of pairs the change won (ties count
for neither) and a verdict:

- unresolved: fewer than ten pairs, or the parent's spread exceeds the
  bound (unless every change run beats every parent run);
- improved: the change won at least 9/10 of the pairs and the medians differ
  by more than the parent's quartile spread;
- no worse: the change's median is within the metric's bound of the
  parent's;
- worse: beyond the bound with a spread that resolves it.

A metric with bound 0 (``fail_ratio``) is counted over the first full pass,
so it repeats exactly for a seed and is compared pair by pair instead: worse
if the change is worse on any seed, improved if it is better on at least one
and worse on none, else no worse.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from run import DETAIL, END_TO_END


def load(path: Path) -> dict:
    """{(workload, metric): {seed: value}} over the untraced runs of a file."""
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        for name, m in rec["metrics"].items():
            out.setdefault((rec["workload"], name), {})[rec["seed"]] = m["value"]
    return out


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[str, int, int]:
    seeds = sorted(set(parent) & set(change))
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for s in seeds if sign * (parent[s] - change[s]) > 0)
    p = sorted(parent.values())
    c = sorted(change.values())
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    gain = sign * (pm - cm)  # > 0 means the change is better
    spread = p3 - p1
    if len(seeds) < 10:
        return "unresolved", wins, len(seeds)
    if bound == 0.0:
        if any(sign * (change[s] - parent[s]) > 0 for s in seeds):
            return "worse", wins, len(seeds)
        return ("improved" if wins else "no worse"), wins, len(seeds)
    if wins >= 0.9 * len(seeds) and gain > spread:
        return "improved", wins, len(seeds)
    all_better = (max(c) < min(p)) if better == "lower" else (min(c) > max(p))
    scale = abs(pm) if pm else 1.0
    if spread / scale > bound and not all_better:
        return "unresolved", wins, len(seeds)
    if -gain <= bound * scale:
        return "no worse", wins, len(seeds)
    return "worse", wins, len(seeds)


def main(parent_path, change_path) -> int:
    parent, change = load(parent_path), load(change_path)
    table = {**{k: (u, b, bound) for k, (u, b, bound) in END_TO_END.items()},
             **{k: (u, b, bound) for k, (u, b, bound, _) in DETAIL.items()}}
    print(f"{'workload':<12} {'metric':<28} {'unit':<9} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'won':>7}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, metric = key
        if metric not in table:
            continue
        unit, better, bound = table[metric]
        pv, cv = parent[key], change[key]
        p1, pm, p3 = quartiles(sorted(pv.values()))
        c1, cm, c3 = quartiles(sorted(cv.values()))
        v, wins, n = verdict(pv, cv, better, bound)
        parent_col = f"{pm:.5g} [{p1:.5g}, {p3:.5g}]"
        change_col = f"{cm:.5g} [{c1:.5g}, {c3:.5g}]"
        print(f"{workload:<12} {metric:<28} {unit:<9} {parent_col:<34} {change_col:<34} "
              f"{wins:>3}/{n:<3}  {v}")
    return 0
