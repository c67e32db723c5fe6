"""Shared fixtures for the benchmark harness.

Every figure/table of the paper's evaluation (Section 7) has a module in
this directory; see DESIGN.md for the experiment index.  Workloads are
scaled-down analogues of the paper's datasets (the code paths are identical,
only the constants differ) and are built once per session:

* **Dataset 1** — growing-only co-authorship trace (DBLP analogue),
* **Dataset 2** — Dataset 1's final snapshot followed by a random
  interleaving of edge additions and deletions,
* **Dataset 3** — a larger citation-style snapshot plus churn, used only by
  the partitioned/PageRank experiment.

Each benchmark also writes a JSON record of the series it measured to
``benchmarks/results/`` (op counts, tracked) or ``benchmarks/results/timing/``
(wall-clock, gitignored), which is what EXPERIMENTS.md is generated from.
"""

from __future__ import annotations

import gc
import json
import math
import os
import time
from typing import Callable, Dict, List, Sequence

import pytest

from repro.core.events import EventList
from repro.core.snapshot import GraphSnapshot
from repro.datasets.coauthorship import CoauthorshipConfig, generate_coauthorship_trace
from repro.datasets.random_trace import (
    RandomTraceConfig,
    generate_random_trace,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
TIMING_DIR = os.path.join(RESULTS_DIR, "timing")

#: Scale knob: number of events in the Dataset 1/2 analogues.  The paper uses
#: 2M; the default keeps the full benchmark suite under a few minutes on a
#: laptop.  Override with the REPRO_BENCH_EVENTS environment variable.
BENCH_EVENTS = int(os.environ.get("REPRO_BENCH_EVENTS", "12000"))


def pytest_configure(config):
    os.makedirs(RESULTS_DIR, exist_ok=True)


def record_result(name: str, payload: Dict, timing: bool = False) -> None:
    """Persist one experiment's measured series for EXPERIMENTS.md.

    Deterministic op-count records are tracked and must be byte-stable run
    to run; a record holding wall-clock measurements (``timing=True``)
    changes on every run, so it goes to the gitignored ``TIMING_DIR``.
    """
    directory = TIMING_DIR if timing else RESULTS_DIR
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, default=str)


@pytest.fixture(scope="session")
def recorder():
    """Expose :func:`record_result` to benchmark modules."""
    return record_result


@pytest.fixture(scope="session")
def dataset1() -> EventList:
    """Growing-only co-authorship trace (Dataset 1 analogue)."""
    return generate_coauthorship_trace(CoauthorshipConfig(
        total_events=BENCH_EVENTS, num_years=40, attrs_per_node=5, seed=7))


@pytest.fixture(scope="session")
def dataset2(dataset1) -> EventList:
    """Dataset 1's final snapshot + equal numbers of edge adds/deletes."""
    base = GraphSnapshot.from_events(dataset1, time=dataset1.end_time)
    churn = generate_random_trace(base, RandomTraceConfig(
        num_events=BENCH_EVENTS, add_fraction=0.5,
        attribute_event_fraction=0.05, start_time=dataset1.end_time + 1,
        seed=17))
    return EventList(list(dataset1) + list(churn))


def uniform_times(events: EventList, count: int) -> List[int]:
    """``count`` query timepoints uniformly spaced over the trace's lifespan."""
    start, end = events.start_time, events.end_time
    return [start + (end - start) * (i + 1) // (count + 1) for i in range(count)]


def wall_seconds(query: Callable[[int], object]) -> Callable[[int], float]:
    """``t -> seconds`` that ``query(t)`` took on the wall clock."""
    def measure(t: int) -> float:
        started = time.perf_counter()
        query(t)
        return time.perf_counter() - started
    return measure


def best_of_interleaved(measures: Sequence[Callable[[int], float]],
                        times: Sequence[int],
                        sweeps: int = 10) -> List[List[float]]:
    """Per-measure, per-timepoint minimum over ``sweeps`` interleaved runs.

    Each sweep visits every timepoint once and runs all ``measures`` on it
    back to back, so a burst of load from elsewhere on the machine lands on
    every compared series alike instead of on whichever ran at the time;
    the minimum over sweeps then sheds what is left of it.  The per-timepoint
    shape of each series is kept (late timepoints may genuinely cost more).
    The garbage collector is paused while measuring, as :mod:`timeit` does:
    a full collection walks everything earlier tests left alive, and that
    cost belongs to no query.
    """
    best = [[math.inf] * len(times) for _ in measures]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _sweep in range(sweeps):
            for position, t in enumerate(times):
                for series, measure in zip(best, measures):
                    series[position] = min(series[position], measure(t))
    finally:
        if was_enabled:
            gc.enable()
    return best


@pytest.fixture(scope="session")
def query_times_dataset1(dataset1) -> List[int]:
    """The 25 uniformly spaced query timepoints used by Figure 6(a)."""
    return uniform_times(dataset1, 25)


@pytest.fixture(scope="session")
def query_times_dataset2(dataset2) -> List[int]:
    """The 25 uniformly spaced query timepoints used by Figure 6(b)/7."""
    return uniform_times(dataset2, 25)
