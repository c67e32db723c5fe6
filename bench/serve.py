"""Server process of the service workloads.

Loads the generated events, builds the sharded index through
``HistoryManager.build_index`` and serves it with ``ServiceServer`` until
standard input closes.  Prints ``SERVING <host> <port>`` once accepting.

Import-safe: era-shard workers are started with the ``spawn`` method, which
re-imports this file in every worker.
"""

from __future__ import annotations

import argparse
import gc
import os
import pickle
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events-file", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--leaf", type=int, required=True)
    parser.add_argument("--era-events", type=int, required=True)
    parser.add_argument("--workers", required=True,
                        choices=["inprocess", "subprocess"])
    parser.add_argument("--cache-bytes", type=int, required=True)
    args = parser.parse_args()

    sys.path[:0] = [BENCH_DIR, os.path.join(BENCH_DIR, os.pardir, "src")]
    from bench_stacks import build_history, close_stores, reap_children
    from repro.service import ServiceServer

    history = server = None
    try:
        # The harness wrote this file itself a moment ago.
        with open(args.events_file, "rb") as handle:
            events = pickle.load(handle)
        history = build_history(events, args.workdir, args.leaf,
                                args.era_events, sharded=True,
                                workers=args.workers,
                                cache_bytes=args.cache_bytes)
        del events
        server = ServiceServer(history, lease_ttl=600, sweep_interval=60)
        host, port = server.start_in_background()
        # The built index is long-lived: keep it out of later collections.
        gc.collect()
        gc.freeze()
        print(f"SERVING {host} {port}", flush=True)
        sys.stdin.read()                # the harness closes stdin to stop us
    finally:
        try:
            if server is not None:
                server.stop()
            if history is not None:
                history.close()
                close_stores(history.index)
        finally:
            reap_children()     # shard workers, then the resource tracker
    return 0


if __name__ == "__main__":
    sys.exit(main())
