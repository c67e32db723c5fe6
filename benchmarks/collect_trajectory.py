"""Collect benchmark counter series into one trajectory summary.

The benchmark modules drop one JSON record per experiment into
``benchmarks/results/`` (deterministic op counts) or
``benchmarks/results/timing/`` (wall-clock).  CI runs the op-count suites
at several ``REPRO_BENCH_EVENTS`` sizes and calls this script after each run
to fold both kinds of record into a single ``BENCH_pr<N>.json`` uploaded as
a workflow artifact — downloading the artifact from two CI runs and diffing
the files makes performance regressions (more store ops per query, more
keys per seal, broken shard isolation) visible across PRs without rerunning
anything.

Usage::

    python benchmarks/collect_trajectory.py --pr 14 --label events=12000

Repeated invocations with different labels merge into the same output file
(one ``runs`` entry per label); the results directory is re-read each time.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import sys

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")


def collect(label: str, out_path: str, results_dir: str = RESULTS_DIR) -> dict:
    """Fold the current results directory into ``out_path`` under ``label``."""
    run: dict = {}
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))
                       + glob.glob(os.path.join(results_dir, "timing",
                                                "*.json"))):
        name = os.path.splitext(os.path.basename(path))[0]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                run[name] = json.load(handle)
        except (OSError, ValueError) as exc:
            run[name] = {"error": f"unreadable result: {exc}"}

    summary = {"meta": {}, "runs": {}}
    if os.path.exists(out_path):
        try:
            with open(out_path, "r", encoding="utf-8") as handle:
                summary = json.load(handle)
        except (OSError, ValueError):
            pass
    summary.setdefault("runs", {})[label] = run
    summary["meta"] = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": os.environ.get("GITHUB_SHA", ""),
        "ref": os.environ.get("GITHUB_REF", ""),
        "bench_events_env": os.environ.get("REPRO_BENCH_EVENTS", ""),
        "labels": sorted(summary["runs"]),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", required=True,
                        help="name of this run in the summary, "
                             "e.g. events=12000")
    parser.add_argument("--pr", required=True, type=int,
                        help="PR number naming the summary file "
                             "(BENCH_pr<N>.json), created or merged into")
    parser.add_argument("--results-dir", default=RESULTS_DIR,
                        help="directory of per-experiment JSON records")
    args = parser.parse_args(argv)
    out_path = f"BENCH_pr{args.pr}.json"
    summary = collect(args.label, out_path, args.results_dir)
    experiments = len(summary["runs"].get(args.label, {}))
    print(f"{out_path}: label {args.label!r} holds {experiments} "
          f"experiment series ({len(summary['runs'])} labels total)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
