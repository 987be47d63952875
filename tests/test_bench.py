"""Smoke test of the benchmark: one worker pass per workload, every answer checked.

The worker compares each output with the golden digests recorded from the
seed, so a pass with no failures pins the byte-identical output.  A traced
pass must report every per-layer metric that BENCHMARK.json declares.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def pool_ids(workload: str, monkeypatch) -> set[str]:
    spec = importlib.util.spec_from_file_location("bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while the class bodies run
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return {query.qid for query in module.POOLS[workload]()}


@pytest.mark.parametrize("workload", ["verify_sweep", "enum_strata", "closed_tables"])
def test_worker_pass_answers_every_query_correctly(workload, monkeypatch):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--order-seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert {"first_query_at", "latencies_s", "peak_rss_mb", "failures"} <= set(result)
    assert set(result["latencies_s"]) == pool_ids(workload, monkeypatch)
    assert result["failures"] == []


def test_traced_pass_reports_every_declared_layer_metric():
    """A hooked name that no longer exists silently drops its metrics; this catches it.

    ``bench/run.py`` adds ``trace.overhead_s`` itself, from the untraced and traced wall times.
    """
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", "verify_sweep",
         "--order-seed", "1", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == []
    assert result["absent"] == []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {metric["name"] for metric in json.load(fh)["per_layer"]}
    assert set(result["layer"]) == declared - {"trace.overhead_s"}
