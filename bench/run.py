"""The detstrata benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each pass starts a fresh interpreter (``bench/worker.py``) that answers the
workload's whole query pool once, so every cache in detstrata starts cold as
it does for a command-line user.  Passes come in pairs: the first shuffles
the pool with an order seed made from ``--seed`` and the pair's number, the
second runs the same order reversed, so a query that met cold caches in one
meets warm ones in the other.  Passes run one after another until the next
one would end past ``--seconds``, with at least ``MIN_PASSES`` of them.

``wall_s``, ``peak_rss_mb`` and ``setup_s`` are medians over passes.
``query_p50_ms`` and ``query_tail_ms`` are percentiles over the pool of each
query's median latency across the passes.  Percentiles of the raw latencies
are not steady: the tail rank falls in a gap between two sizes of query (on
``verify_sweep`` between ``general(5,5)`` and the next larger spaces), and on
``closed_tables`` the query that first needs a q-binomial row pays for
building it, so which queries sit above the rank moves with the order.  Cold
builds still count in ``wall_s``, which sums whole passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, with the tracing overhead; the spans of the first traced pass are
written to ``bench/out/``.

Stdout ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
The exit code is not 0, and no result is printed, when the sources are missing
or a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify_sweep", "enum_strata", "closed_tables")
MIN_PASSES = 3  # untraced passes; a traced run also makes at least MIN_TRACED traced ones
MIN_TRACED = 2
TIME_LIMIT_S = 170  # every run must end within 180 s

END_TO_END_UNITS = {
    "wall_s": "s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class PassFailed(Exception):
    """A pass that produced no result: a missing package, a crash, a timeout."""


def tail_rank(n: int) -> float:
    """Share of a pass's n queries at or below the tail: ten of them lie beyond it."""
    return (n - 10) / n


def run_pass(workload: str, seed: int, index: int, trace: bool, spans: str | None,
             timeout: float) -> dict:
    """Run pass number `index` of its kind (untraced or traced) in a fresh interpreter."""
    order_seed = seed * 1000 + index // 2
    cmd = [sys.executable, WORKER, "--workload", workload, "--order-seed", str(order_seed)]
    if index % 2:
        cmd.append("--reverse")
    if trace:
        cmd.append("--trace")
    if spans:
        cmd += ["--spans", spans]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["first_query_at"] - launched
    result["wall_s"] = sum(result["latencies_s"].values())
    return result


def end_to_end(passes: list[dict]) -> dict[str, float]:
    per_query = sorted(statistics.median(r["latencies_s"][qid] for r in passes)
                       for qid in passes[0]["latencies_s"])
    n = len(per_query)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in passes),
        "query_p50_ms": statistics.median(per_query) * 1e3,
        "query_tail_ms": per_query[round(tail_rank(n) * n) - 1] * 1e3,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in passes),
        "setup_s": statistics.median(r["setup_s"] for r in passes),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "detstrata", "__init__.py")):
        print("bench: detstrata sources not found under src/detstrata", file=sys.stderr)
        return 2

    started = time.monotonic()
    spans = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}.spans.json.gz")
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        # Import the package once, unmeasured, so that where the interpreter
        # writes bytecode the passes load it, as after an install.
        subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                        "import detstrata.cli"], cwd=ROOT, check=True, timeout=60)
        while True:
            done = plain + traced
            elapsed = time.monotonic() - started
            if len(plain) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_TRACED):
                typical = statistics.median(r["elapsed_s"] for r in done)
                if elapsed + typical > args.seconds:
                    break
            trace = bool(args.trace) and len(traced) < len(plain)
            index = len(traced) if trace else len(plain)
            t0 = time.monotonic()
            result = run_pass(args.workload, args.seed, index, trace,
                              spans if trace and not traced else None, TIME_LIMIT_S - elapsed)
            result["elapsed_s"] = time.monotonic() - t0
            (traced if trace else plain).append(result)
    except (PassFailed, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    done = plain + traced
    attempted = sum(len(r["latencies_s"]) for r in done)
    failures = [msg for r in done for msg in r["failures"]]
    for msg in failures[:10]:
        print(f"FAILED {msg}", file=sys.stderr)

    n = len(plain[0]["latencies_s"])
    print(f"workload {args.workload}: {n} queries per pass, tail = p{round(100 * tail_rank(n))}, "
          f"{len(plain)} untraced and {len(traced)} traced passes, seed {args.seed}")
    print("  pass wall_s: " + " ".join(f"{r['wall_s']:.3f}" for r in plain))
    if args.trace:
        metrics = {}
        for name in traced[0]["layer"]:
            metrics[name] = statistics.median(r["layer"][name] for r in traced)
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        absent = traced[0]["absent"]
        if absent:
            print(f"absent (hooked name not found): {', '.join(absent)}")
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(plain)
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"  {name:48s} {value:16.6f} {units[name]}")
    print(f"  {'failed_frac':48s} {len(failures) / attempted:16.6f} ({len(failures)}/{attempted})")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
