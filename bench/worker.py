"""One pass of a workload in a fresh interpreter: run every query of the pool once.

Usage (from the repository root; ``bench/run.py`` starts it):

    python3 bench/worker.py --workload NAME --order-seed N [--reverse] [--trace] [--spans PATH]

The pool is shuffled with ``--order-seed``, reversed with ``--reverse``, and
run as a closed loop, one query at a time.  Each query is timed alone; its
output is checked afterwards, outside the timed region, and a wrong answer or
an exception fails that query without stopping the pass.  The last line of
stdout is one JSON object with each query's latency by query id, the pass's
peak memory and failures, and with ``--trace`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402  (imports detstrata)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.POOLS), required=True)
    parser.add_argument("--order-seed", type=int, required=True)
    parser.add_argument("--reverse", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="file to write the pass's spans to")
    args = parser.parse_args()

    with open(os.path.join(HERE, "golden.json")) as fh:
        golden = json.load(fh).get(args.workload, {})
    pool = workloads.POOLS[args.workload]()
    random.Random(args.order_seed).shuffle(pool)
    if args.reverse:
        pool.reverse()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    first_query_at = time.monotonic()
    latencies: dict[str, float] = {}
    failures: list[str] = []
    output_bytes = 0
    for query in pool:
        start = time.perf_counter()
        try:
            if tracer is None:
                output, ok = query.run()
            else:
                output, ok = tracer.query(query.qid, query.run)
        except Exception:  # a crash fails this query only
            latencies[query.qid] = time.perf_counter() - start
            failures.append(f"{query.qid}: {traceback.format_exc(limit=-1).strip()}")
            continue
        latencies[query.qid] = time.perf_counter() - start
        if tracer is not None and query.kind != "verify":
            output_bytes += len(output.encode())
        try:
            query.check(output, ok, golden.get(query.qid))
        except Exception as exc:  # CheckFailed, or output too broken to parse
            failures.append(f"{query.qid}: {type(exc).__name__}: {exc}")

    result = {
        "first_query_at": first_query_at,
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": failures,
    }
    if tracer is not None:
        layer = tracer.metrics()
        if "cli.main" in tracer.hooked:
            layer["cli.main.output_bytes"] = output_bytes
        result["layer"] = layer
        result["absent"] = sorted(tracer.absent)
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
