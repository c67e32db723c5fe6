"""Smoke test of the benchmark harness (no timing assertions).

Runs ``run.py --smoke`` — tiny inputs, a fraction of a second per workload
— untraced and traced, and checks that every workload answers correctly and
emits exactly the metric names ``BENCHMARK.json`` declares; then corrupts
one expected fingerprint and checks that the run fails.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")

with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json"),
          encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _start(*flags):
    return subprocess.Popen([sys.executable, RUN, "--smoke", *flags],
                            stdout=subprocess.PIPE, text=True)


def _results(process):
    """``{workload: result}`` from the JSON lines of a finished run."""
    stdout, _ = process.communicate(timeout=120)
    headers = [line.split()[1] for line in stdout.splitlines()
               if line.startswith("# ")]
    results = [json.loads(line) for line in stdout.splitlines()
               if line.startswith("{")]
    assert len(headers) == len(results)
    return dict(zip(headers, results))


def test_smoke_run_matches_benchmark_json():
    # The three runs share the box's cores instead of queueing.
    untraced, traced = _start("--trace", "0"), _start("--trace", "1")
    corrupted = _start("--workload", "session_warm", "--corrupt-oracle")
    workloads = {w["name"] for w in SPEC["workloads"]}
    for process, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        results = _results(process)
        assert process.returncode == 0
        assert set(results) == workloads
        names = {metric["name"] for metric in SPEC[section]}
        units = {metric["name"]: metric["unit"] for metric in SPEC[section]}
        for workload, result in results.items():
            assert result["correct"] and result["failed"] == 0, workload
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == names, workload
            for name, metric in result["metrics"].items():
                assert metric["unit"] == units[name]
    spans = [name for name in os.listdir(os.path.join(BENCH_DIR, "out"))
             if name.startswith("spans-") and name.endswith("-seed1.jsonl")]
    assert len(spans) >= len(workloads)

    # A wrong expected fingerprint must be counted and fail the run.
    result = _results(corrupted)["session_warm"]
    assert corrupted.returncode != 0
    assert not result["correct"] and result["failed"] >= 1
