"""Seeded inputs of the benchmark: the trace, the query pools, the op
schedules and the oracle that says what every answer must be.

Nothing here touches an index.  The oracle is one forward replay of the raw
trace onto a :class:`~repro.core.snapshot.GraphSnapshot`; the system under
test only ever receives the generated events and query parameters.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.analysis.algorithms import degree_distribution
from repro.core.events import Event, EventType
from repro.core.snapshot import GraphSnapshot
from repro.datasets.coauthorship import (
    CoauthorshipConfig,
    generate_coauthorship_trace,
)
from repro.datasets.random_trace import RandomTraceConfig, generate_random_trace

#: Input sizes.  ``events`` is the whole trace (growth then churn); the index
#: is built over the first ``prefix`` events and the rest is the live ingest
#: stream.  The prefix boundary lies in the churn part, where every event has
#: its own timestamp, so an ingest batch never splits a timestamp.
SIZES = {
    "full": dict(events=15000, growth=2500, prefix=4500, leaf=250,
                 points=96, hot=24, multi_sets=12, intervals=12,
                 scan_windows=12),
    "smoke": dict(events=2400, growth=800, prefix=1400, leaf=100,
                  points=12, hot=6, multi_sets=3, intervals=3,
                  scan_windows=3),
}

MULTI_POINTS = 8
SCAN_STEPS = 20
ERAS = 3.3          # prefix / events-per-era: three sealed eras + a tail with room to grow

#: Op kinds per cycle of each workload: P singlepoint, M 8-point multipoint,
#: I interval, S 20-step scan, G ingest batch.  Every workload runs every
#: kind (each end-to-end metric is defined on each workload); the weights
#: make the workload's own kind dominate its busy time.
PATTERNS = {
    "point_cold": ("PPGPPGPPGPPGI" * 2 + "M") + ("PPGPPGPPGPPGI" * 2 + "S"),
    "session_warm": "PPGPIPPMPPIPGPPIPPMPGIPS",
    "evolution_scan": "SPSPGSPSPMSPSPSPSPI",
    "live_mixed": "GP" * 10 + "IM" + "GP" * 10 + "I" + "GP" * 10 + "IS",
}
#: Events per ingest batch.  ``live_mixed`` is the write-heavy workload: every
#: read follows an ingest.  One batch in fourteen seals a leaf (and the read
#: after it rebuilds the hierarchy's top, so the read p95 sits among those
#: reads); one in 55 also collapses an interior node, one in 75 rolls
#: an era over — together under 5 %, so the batch p95 sits among the plain
#: seals rather than on the cliff above them.  The other workloads ingest a
#: trickle, which exercises the op kind without a rollover.
INGEST_BATCH = {
    "full": {"point_cold": 2, "session_warm": 2, "evolution_scan": 2,
             "live_mixed": 18},
    "smoke": {"point_cold": 2, "session_warm": 2, "evolution_scan": 2,
              "live_mixed": 10},
}


@dataclass(frozen=True)
class Op:
    kind: str        # one of "PMISG"
    arg: object      # time | times tuple | (start, end) | times tuple | (lo, hi) slice


@dataclass
class Inputs:
    seed: int
    size: Dict[str, int]
    events: List[Event]
    prefix: List[Event]
    era_events: int
    point_times: List[int]          # uniform over the prefix's events
    hot_times: List[int]            # recency-skewed, near the prefix's end
    multi_sets: List[Tuple[int, ...]]
    intervals: List[Tuple[int, int]]
    scan_windows: List[Tuple[int, ...]]
    tail_times: List[int]           # one candidate read time per tail event

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)


def make_inputs(seed: int, size_name: str = "full") -> Inputs:
    size = SIZES[size_name]
    growth = generate_coauthorship_trace(CoauthorshipConfig(
        total_events=size["growth"], num_years=40, attrs_per_node=5,
        seed=seed))
    base = GraphSnapshot.from_events(growth, time=growth.end_time)
    churn = generate_random_trace(base, RandomTraceConfig(
        num_events=size["events"] - len(growth), add_fraction=0.5,
        attribute_event_fraction=0.05, start_time=growth.end_time + 1,
        seed=seed + 1))
    events = list(growth) + list(churn)
    prefix_len = max(size["prefix"], len(growth) + 1)
    prefix = events[:prefix_len]
    rng = random.Random(seed * 7919 + 13)

    def time_at(index: int) -> int:
        return events[index].time

    def stratified(count: int, limit: int) -> List[int]:
        """One index per equal slice of ``range(limit)``: every seed's pool
        covers the history evenly, so pools of different seeds cost alike."""
        return [int((k + rng.random()) * limit / count) for k in range(count)]

    # Even over *events*, not over clock time: the growth part advances the
    # clock by 10 000 per year, so even clock times would nearly all land in
    # year gaps of the first third of the trace.
    point_times = [time_at(i) for i in stratified(size["points"], prefix_len)]
    recent = prefix_len // 10
    hot_times = [time_at(prefix_len - 1 - min(int(rng.expovariate(4.0 / recent)),
                                              recent - 1))
                 for _ in range(size["hot"])]
    per_slice = len(point_times) // MULTI_POINTS
    multi_sets = [tuple(point_times[k * per_slice + rng.randrange(per_slice)]
                        for k in range(MULTI_POINTS))
                  for _ in range(size["multi_sets"])]
    span = max(prefix_len // 32, 8)
    intervals = [(time_at(lo), time_at(lo + span))
                 for lo in stratified(size["intervals"], prefix_len - span)]
    # Scan windows straddle an era cut (cuts fall every era_events events),
    # so every scan chains at least two shards of a federation.
    era_events = int(prefix_len / ERAS) + 1
    cuts = [era_events * k for k in range(1, int(ERAS) + 1)
            if era_events * k < prefix_len]
    window = max(prefix_len // 16, SCAN_STEPS * 2)
    scan_windows = []
    for i in range(size["scan_windows"]):
        cut = cuts[i % len(cuts)]
        lo = max(0, cut - rng.randrange(window // 4, 3 * window // 4))
        hi = min(prefix_len - 1, lo + window)
        step = (hi - lo) / (SCAN_STEPS - 1)
        times = [time_at(lo + int(round(step * k))) for k in range(SCAN_STEPS)]
        scan_windows.append(tuple(times))
    tail_times = [event.time for event in events[prefix_len:]]
    return Inputs(seed=seed, size=size, events=events, prefix=prefix,
                  era_events=era_events, point_times=point_times,
                  hot_times=hot_times, multi_sets=multi_sets,
                  intervals=intervals, scan_windows=scan_windows,
                  tail_times=tail_times)


def schedule(workload: str, inputs: Inputs, batch: int) -> Iterator[Op]:
    """The workload's op stream; ends when the ingest stream is used up.

    Reads draw on the fixed pools (so the oracle is finite), each pool in
    turn and the singlepoint pool in reshuffled passes, so that however
    many ops a run gets through, it has asked every part of the history
    about equally often.  ``session_warm`` reads the recency-skewed hot
    pool three times in four; three in four of ``live_mixed``'s singlepoint
    reads follow the ingest head, always strictly below the last ingested
    timestamp.
    """
    rng = random.Random(inputs.seed * 104729 + sum(map(ord, workload)))
    pattern = PATTERNS[workload]
    head = inputs.prefix_len            # events indexed so far
    total = len(inputs.events)
    turn = {"M": 0, "I": 0, "S": 0}
    pools = {"M": inputs.multi_sets, "I": inputs.intervals,
             "S": inputs.scan_windows}
    points: List[int] = []
    for position in itertools.count():
        kind = pattern[position % len(pattern)]
        if kind == "G":
            if head + batch > total:
                return
            yield Op("G", (head, head + batch))
            head += batch
        elif kind == "P":
            time = _skewed_time(workload, inputs, rng, head)
            if time is None:
                if not points:
                    points = rng.sample(inputs.point_times,
                                        len(inputs.point_times))
                time = points.pop()
            yield Op("P", time)
        else:
            pool = pools[kind]
            yield Op(kind, pool[turn[kind] % len(pool)])
            turn[kind] += 1


def _skewed_time(workload: str, inputs: Inputs, rng: random.Random,
                 head: int):
    """A recency-skewed read time, or None for "next of the even pool"."""
    if workload not in ("live_mixed", "session_warm") or rng.random() >= 0.75:
        return None
    ingested = head - inputs.prefix_len
    if workload == "live_mixed" and ingested >= 2:
        # A few events behind the newest ingested one.
        back = 1 + min(int(rng.expovariate(1 / 40.0)), ingested - 2)
        return inputs.tail_times[ingested - 1 - back]
    # Zipf-like repetition over the hot pool.
    rank = min(int(rng.paretovariate(1.2)) - 1, len(inputs.hot_times) - 1)
    return inputs.hot_times[rank]


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------

Fingerprint = Tuple[int, int]


def fingerprint(items) -> Fingerprint:
    """``(element count, order-independent hash)`` of ``(key, value)`` items.

    Both sides of every comparison are computed in the harness process, so
    the hash need not be stable across processes.
    """
    frozen = frozenset(items)
    return len(frozen), hash(frozen)


@dataclass
class Oracle:
    snapshots: Dict[int, Fingerprint]
    #: Per scan-step time: (edges / nodes, degree histogram's fingerprint).
    scan_series: Dict[int, Tuple[float, Fingerprint]]
    intervals: Dict[Tuple[int, int], Fingerprint]

    def matches(self, op: Op, observed) -> bool:
        """Whether what an entry adapter observed is the right answer."""
        if op.kind == "P":
            return observed == self.snapshots[op.arg]
        if op.kind == "M":
            return observed == tuple(self.snapshots[t] for t in op.arg)
        if op.kind == "I":
            return observed == self.intervals[op.arg]
        if op.kind == "G":
            return observed == op.arg[1] - op.arg[0]
        if observed and observed[0] == "series":    # operator-driven scan
            return observed[1] == tuple(self.scan_series[t] for t in op.arg)
        return observed == tuple(self.snapshots[t] for t in op.arg)


def build_oracle(inputs: Inputs, ops: Sequence[Op]) -> Oracle:
    """Replay the raw trace once; fingerprint every time ``ops`` read."""
    wanted, scan_times, spans = set(), set(), set()
    for op in ops:
        if op.kind == "P":
            wanted.add(op.arg)
        elif op.kind == "M":
            wanted.update(op.arg)
        elif op.kind == "S":
            scan_times.update(op.arg)
        elif op.kind == "I":
            spans.add(op.arg)
    wanted |= scan_times
    snapshots: Dict[int, Fingerprint] = {}
    scan_series: Dict[int, Tuple[float, Fingerprint]] = {}
    state = GraphSnapshot.empty()
    cursor = 0
    events = inputs.events
    for time in sorted(wanted):
        while cursor < len(events) and events[cursor].time <= time:
            state.apply_event(events[cursor])
            cursor += 1
        snapshots[time] = fingerprint(state.items())
        if time in scan_times:
            nodes = state.num_nodes()
            density = state.num_edges() / nodes if nodes else 0.0
            scan_series[time] = (
                density, fingerprint(degree_distribution(state).items()))
    event_times = [event.time for event in events]
    intervals = {}
    for start, end in spans:
        lo = bisect.bisect_left(event_times, start)
        hi = bisect.bisect_left(event_times, end)
        intervals[(start, end)] = fingerprint(
            _interval_graph(events[lo:hi]).items())
    return Oracle(snapshots, scan_series, intervals)


_ACCUMULATING = (EventType.NODE_ADD, EventType.EDGE_ADD,
                 EventType.NODE_ATTR, EventType.EDGE_ATTR)


def _interval_graph(events: Sequence[Event]) -> GraphSnapshot:
    """``GetHistGraphInterval`` by its definition: what appeared in the window.

    Additions and attribute changes accumulate, structural deletions are
    skipped.  The generated traces carry no transient events and their
    deletions record no destroyed attributes, so no further rule applies.
    """
    graph = GraphSnapshot.empty()
    for event in events:
        if event.type in _ACCUMULATING:
            graph.apply_event(event)
    return graph
