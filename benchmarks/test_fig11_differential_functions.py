"""Figure 11: choice of differential function and its effect on latencies.

(a) On the growing-only Dataset 1, Intersection yields *skewed* query times
    (newer snapshots are larger and slower to load) while Balanced yields a
    *uniform* access pattern with a higher average — unless the root is
    materialized, which brings the average down to Intersection's level.
(b) The Mixed function's ``r1 = r2`` parameter shifts where the latency is
    spent: smaller values favour older snapshots, larger values favour newer
    snapshots (``0.5`` is Balanced).
"""

from __future__ import annotations

import statistics

from repro.core.deltagraph import DeltaGraph
from repro.core.differential import MixedFunction

from conftest import best_of_interleaved, uniform_times, wall_seconds

NUM_QUERIES = 15


def _skew(series):
    """Newer-half mean divided by older-half mean (1.0 == uniform)."""
    half = len(series) // 2
    old, new = series[:half], series[half:]
    return statistics.mean(new) / max(statistics.mean(old), 1e-9)


def test_fig11a_intersection_vs_balanced(benchmark, recorder, dataset1):
    times = uniform_times(dataset1, NUM_QUERIES)
    intersection = DeltaGraph.build(dataset1, leaf_eventlist_size=1000,
                                    arity=4,
                                    differential_functions=("intersection",))
    balanced = DeltaGraph.build(dataset1, leaf_eventlist_size=1000, arity=4,
                                differential_functions=("balanced",))
    balanced_root_mat = DeltaGraph.build(dataset1, leaf_eventlist_size=1000,
                                         arity=4,
                                         differential_functions=("balanced",))
    balanced_root_mat.materialize_roots()
    indexes = {"intersection": intersection, "balanced": balanced,
               "balanced_root_materialized": balanced_root_mat}
    # The two Balanced variants differ by a few percent per query, so
    # twice the default sweeps.
    series = dict(zip(indexes, best_of_interleaved(
        [wall_seconds(index.get_snapshot) for index in indexes.values()],
        times, sweeps=20)))
    benchmark(lambda: intersection.get_snapshot(times[-1]))
    recorder("fig11a_differential_functions", {
        "query_times": times,
        "per_query_seconds": series,
        "means": {k: statistics.mean(v) for k, v in series.items()},
        "newer_vs_older_skew": {k: _skew(v) for k, v in series.items()},
    }, timing=True)
    print("\n[fig11a] function: mean ms (newer/older skew)")
    for name, values in series.items():
        print(f"  {name:<28s} {statistics.mean(values) * 1000:7.1f} ms "
              f"(skew {_skew(values):.2f})")
    # Paper shape: Intersection is skewed toward slow new snapshots on a
    # growing graph; Balanced is flatter; materializing Balanced's root brings
    # its mean down toward Intersection's.
    assert _skew(series["intersection"]) > _skew(series["balanced_root_materialized"])
    assert statistics.mean(series["balanced_root_materialized"]) <= \
        statistics.mean(series["balanced"])


def test_fig11b_mixed_function_parameters(benchmark, recorder, dataset1):
    times = uniform_times(dataset1, NUM_QUERIES)
    settings = (0.1, 0.5, 0.9)
    indexes = [DeltaGraph.build(
        dataset1, leaf_eventlist_size=1000, arity=4,
        differential_functions=(MixedFunction(r1=r, r2=r),))
        for r in settings]
    results = dict(zip(settings, best_of_interleaved(
        [wall_seconds(index.get_snapshot) for index in indexes], times)))
    benchmark(lambda: None)
    recorder("fig11b_mixed_parameters", {
        "query_times": times,
        "per_query_seconds": {str(r): v for r, v in results.items()},
        "newest_query_seconds": {str(r): v[-1] for r, v in results.items()},
        "oldest_query_seconds": {str(r): v[0] for r, v in results.items()},
    }, timing=True)
    print("\n[fig11b] r1=r2: oldest-query ms, newest-query ms")
    for r, values in results.items():
        print(f"  r={r}: {values[0] * 1000:7.1f} ms  {values[-1] * 1000:7.1f} ms")
    # Paper shape: larger r favours newer snapshots (relatively cheaper) at
    # the expense of older ones.
    newest_ratio_low_r = results[0.1][-1] / max(results[0.1][0], 1e-9)
    newest_ratio_high_r = results[0.9][-1] / max(results[0.9][0], 1e-9)
    assert newest_ratio_high_r < newest_ratio_low_r
