"""Compare two ``run.py --repeat N --out FILE`` result files.

    python3 bench/compare.py A.json B.json [--bounds BENCHMARK.json]

For every (workload, end-to-end metric) prints both medians and quartiles,
the ratio B/A with A as its base, and a verdict:

* ``worse``      — B's median is worse than A's by more than the bound;
* ``unresolved`` — the run-to-run spread of either side (distance between
  its quartiles, as a share of its median) is wider than the bound, so a
  difference of that size could not be told from noise;
* ``ok``         — neither.

Exit status is 1 if any pair is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

DEFAULT_BOUNDS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")


def load_runs(path: str):
    """``{workload: {metric: [values]}}`` of a result file."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    table = defaultdict(lambda: defaultdict(list))
    for run in data["runs"]:
        for name, metric in run["metrics"].items():
            table[run["workload"]][name].append(metric["value"])
    return table


def summary(values):
    """``(median, first quartile, third quartile)``; needs two values."""
    quartiles = statistics.quantiles(values, n=4)
    return statistics.median(values), quartiles[0], quartiles[2]


def verdict(a, b, better: str, bound: float):
    med_a, q1_a, q3_a = summary(a)
    med_b, q1_b, q3_b = summary(b)
    change = (med_b - med_a) / med_a
    if better == "higher":
        change = -change
    spread = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
    if change > bound:
        return "worse"
    return "unresolved" if spread > bound else "ok"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--bounds", default=DEFAULT_BOUNDS)
    args = parser.parse_args(argv)
    with open(args.bounds, encoding="utf-8") as handle:
        spec = {m["name"]: m for m in json.load(handle)["end_to_end"]}
    runs_a, runs_b = load_runs(args.a), load_runs(args.b)
    any_worse = False
    print(f"{'workload':15s} {'metric':24s} {'A med [q1, q3]':>34s} "
          f"{'B med [q1, q3]':>34s} {'B/A':>7s}  verdict")
    for workload in runs_a:
        for name, metric in spec.items():
            a = runs_a[workload].get(name, [])
            b = runs_b.get(workload, {}).get(name, [])
            if len(a) < 2 or len(b) < 2:
                print(f"{workload:15s} {name:24s} needs two runs a side")
                continue
            result = verdict(a, b, metric["better"], metric["bound"])
            any_worse = any_worse or result == "worse"
            cells = ["{:.5g} [{:.5g}, {:.5g}]".format(*summary(side))
                     for side in (a, b)]
            ratio = statistics.median(b) / statistics.median(a)
            print(f"{workload:15s} {name:24s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{ratio:7.3f}  {result}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
