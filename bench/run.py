"""The repo's benchmark: four workloads, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's inputs from the seed, builds the system through
its public API, runs a closed loop with one client for ``S`` seconds,
checks every answer against an oracle that never touches an index, prints every metric by name with its unit, and ends with one JSON
line.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(BENCH_DIR, os.pardir, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

WORKLOADS = ("point_cold", "session_warm", "evolution_scan", "live_mixed")

#: End-to-end metrics: name -> unit.  BENCHMARK.json fixes direction and
#: bound; the smoke test keeps the two lists equal.
END_TO_END = {
    "setup_s": "s",
    "point_p50_ms": "ms",
    "point_p95_ms": "ms",
    "multipoint_p50_ms": "ms",
    "interval_p50_ms": "ms",
    "scan_p50_ms": "ms",
    "scan_snapshots_per_s": "1/s",
    "ingest_events_per_s": "1/s",
    "ingest_batch_p95_ms": "ms",
    "ops_per_s": "1/s",
    "success_rate": "ratio",
    "stored_bytes_per_event": "bytes",
    "peak_rss_mb": "MiB",
}

#: A run may execute at most this many ops (the schedule is materialised so
#: the oracle knows every read time in advance).
MAX_OPS = 20000
SETUP_REPEATS = {"full": 3, "smoke": 1}


def pin_hash_seed() -> None:
    """Re-exec once with ``PYTHONHASHSEED=0`` so set order, hence plan
    tie-breaks, repeat from run to run in the harness and every child."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, env)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


def rss_mib() -> float:
    """Peak resident set of this process plus every live descendant."""
    parents = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
                parents[int(entry)] = int(fields[1])
            except (OSError, IndexError, ValueError):
                continue
    family, frontier = {os.getpid()}, [os.getpid()]
    while frontier:
        pid = frontier.pop()
        for child, parent in parents.items():
            if parent == pid and child not in family:
                family.add(child)
                frontier.append(child)
    total_kib = 0
    for pid in family:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib / 1024.0


def verify(records, inputs, corrupt: bool = False) -> int:
    """Count ops that raised or answered wrongly, against a fresh oracle."""
    from bench_inputs import build_oracle
    oracle = build_oracle(inputs, [r.op for r in records])
    if corrupt:
        first = next(r.op.arg for r in records if r.op.kind == "P")
        count, digest = oracle.snapshots[first]
        oracle.snapshots[first] = (count, digest ^ 1)
    failed = 0
    for record in records:
        if record.error is not None or not oracle.matches(record.op,
                                                          record.observed):
            failed += 1
    return failed


def end_to_end_metrics(records, cycle: int, setup_seconds, stored, indexed,
                       rss) -> dict:
    """The end-to-end metrics of one run (``success_rate`` comes later).

    ``records`` are the run's timed ops: whole cycles, in quiet epochs.
    Latencies are percentiles over all of them of a kind.  ``ops_per_s`` and
    the scan rate are medians over whole op cycles (``cycle`` consecutive ops:
    every such window has the same mix of kinds), so a burst of interference
    from outside costs one cycle's value, not a share of the total.  Ingest
    cost is lumpy — most batches append, some seal a leaf, a few roll an era
    over — so the ingest rate is taken over the batches up to their 95th
    percentile, which ``ingest_batch_p95_ms`` reports: body and tail.
    """
    from bench_inputs import SCAN_STEPS
    by_kind = {kind: [r for r in records if r.op.kind == kind]
               for kind in "PMISG"}
    missing = [kind for kind, sample in by_kind.items() if not sample]
    if missing:
        raise RuntimeError(f"op kinds {missing} never ran; raise --seconds")
    ns = {kind: [r.ns for r in sample] for kind, sample in by_kind.items()}
    blocks = [records[i:i + cycle] for i in range(0, len(records), cycle)]

    def cycle_rate(units_per_op: int, kinds: str) -> float:
        return statistics.median(
            units_per_op * sum(1 for r in block if r.op.kind in kinds)
            / (sum(r.ns for r in block if r.op.kind in kinds) / 1e9)
            for block in blocks)

    batch_p95 = percentile(ns["G"], 0.95)
    body = [r for r in by_kind["G"] if r.ns <= batch_p95]

    def ms(value_ns):
        return value_ns / 1e6

    return {
        "setup_s": statistics.median(setup_seconds),
        "point_p50_ms": ms(statistics.median(ns["P"])),
        "point_p95_ms": ms(percentile(ns["P"], 0.95)),
        "multipoint_p50_ms": ms(statistics.median(ns["M"])),
        "interval_p50_ms": ms(statistics.median(ns["I"])),
        "scan_p50_ms": ms(statistics.median(ns["S"])),
        "scan_snapshots_per_s": cycle_rate(SCAN_STEPS, "S"),
        "ingest_events_per_s": (sum(r.op.arg[1] - r.op.arg[0] for r in body)
                                / (sum(r.ns for r in body) / 1e9)),
        "ingest_batch_p95_ms": ms(batch_p95),
        "ops_per_s": cycle_rate(1, "PMISG"),
        "stored_bytes_per_event": stored / indexed,
        "peak_rss_mb": rss,
    }


def run_untraced(workload: str, inputs, warm_ops, timed_ops, seconds: float,
                 tmp: str, setups: int):
    """The ``--trace 0`` run: returns (records, end-to-end metrics).

    The stack is set up ``setups`` times (each from nothing, in its own
    directory, warm-up included); the timed phase runs on the last one.
    """
    from bench_inputs import PATTERNS
    from bench_stacks import (QuietProbe, build_stack, measure, stored_bytes,
                              warm_up)
    cycle = len(PATTERNS[workload])
    probe = QuietProbe(cycle)   # first, so its memory is under every peak
    setup_seconds = []
    stack = None
    try:
        for attempt in range(setups):
            if stack is not None:
                stack.close()
                stack = None
                gc.collect()        # the discarded set-up's index, now
            started = time.perf_counter()
            stack = build_stack(workload, inputs,
                                os.path.join(tmp, f"setup{attempt}"))
            stack.flush()
            stored = stored_bytes(stack.workdir)    # the prefix, just built
            warm_up(workload, stack.entry, inputs, warm_ops)
            setup_seconds.append(time.perf_counter() - started)
        gc.collect()
        gc.freeze()         # the trace and the built index are long-lived
        records = measure(stack.entry, timed_ops, inputs, seconds,
                          probe=probe)
        gc.unfreeze()
        rss = rss_mib()
    finally:
        if stack is not None:
            stack.close()
    # Every op is verified; those of whole cycles in quiet epochs are timed.
    whole = records[:len(records) // cycle * cycle] or records
    quiet = probe.quiet_epochs({r.epoch for r in whole})
    timed = [r for r in whole if r.epoch in quiet]
    return records, end_to_end_metrics(timed, cycle, setup_seconds, stored,
                                       inputs.prefix_len, rss)


def run_once(workload: str, seed: int, seconds: float, trace: bool,
             size_name: str, corrupt: bool = False) -> dict:
    """One run of one workload; returns the contract's result object."""
    from bench_inputs import INGEST_BATCH, make_inputs, schedule
    from bench_stacks import WARMUP_OPS

    inputs = make_inputs(seed, size_name)
    ops = list(itertools.islice(
        schedule(workload, inputs, INGEST_BATCH[size_name][workload]),
        MAX_OPS))
    warm_ops, timed_ops = ops[:WARMUP_OPS], ops[WARMUP_OPS:]
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as tmp:
        if trace:
            from bench_trace import PER_LAYER as units
            from bench_trace import run_traced
            records, metrics = run_traced(workload, inputs, warm_ops,
                                          timed_ops, seconds, tmp, OUT_DIR)
        else:
            units = END_TO_END
            records, metrics = run_untraced(workload, inputs, warm_ops,
                                            timed_ops, seconds, tmp,
                                            SETUP_REPEATS[size_name])
    failed = verify(records, inputs, corrupt)
    if not trace:
        metrics["success_rate"] = 1.0 - failed / len(records)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "samples": {kind: sum(1 for r in records if r.op.kind == kind)
                    for kind in "PMISG"},
    }


def run_meta(args, size_name: str) -> dict:
    from bench_inputs import INGEST_BATCH, PATTERNS, SIZES
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=BENCH_DIR, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "size": size_name, "sizes": SIZES[size_name],
            "op_cycles": PATTERNS, "ingest_batch": INGEST_BATCH[size_name]}


def run_and_print(args, workload: str, size_name: str) -> dict:
    """Run once in this process; print the metrics, then the result line."""
    result = run_once(workload, args.seed, args.seconds, bool(args.trace),
                      size_name, args.corrupt_oracle)
    samples = result.pop("samples")
    print(f"# {workload} seed={args.seed} trace={args.trace} "
          f"ops={result['attempted']} failed={result['failed']} "
          f"samples={samples}")
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return result


def run_in_child(args, workload: str) -> dict:
    """Run once in a fresh process, as the driver does: peak memory and
    allocator state of one run must not leak into the next."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    command += ["--smoke"] if args.smoke else []
    command += ["--corrupt-oracle"] if args.corrupt_oracle else []
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    print(child.stdout, end="", flush=True)
    lines = child.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"run of {workload} ended without a result "
                           f"(exit status {child.returncode})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="default: all four, one after the other")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of the timed phase "
                             "(default 20; 0.6 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one set-up, a dozen ops")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (for compare.py)")
    parser.add_argument("--out", help="write every run's result to this file")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="flip one expected fingerprint: the run must "
                             "then report a failure (self-test)")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print("bench/run.py: no src/repro beside bench/, nothing to measure",
              file=sys.stderr)
        return 2
    pin_hash_seed()
    sys.path[:0] = [BENCH_DIR, SRC_DIR]
    # Child processes (the server, its shard workers) import repro too.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC_DIR] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    size_name = "smoke" if args.smoke else "full"
    if args.seconds is None:
        args.seconds = 0.6 if args.smoke else 20.0
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    plan = [workload for workload in workloads for _ in range(args.repeat)]
    from bench_stacks import reap_children
    runs = []
    try:
        for workload in plan:
            if len(plan) == 1:
                result = run_and_print(args, workload, size_name)
            else:
                result = run_in_child(args, workload)
            runs.append({"workload": workload, **result})
    finally:
        reap_children()     # a traced run starts shard workers of its own
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"meta": run_meta(args, size_name), "runs": runs},
                      handle, indent=1)
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
