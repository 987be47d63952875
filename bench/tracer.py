"""Spans and counts around the calls into each detstrata layer, kept in the benchmark.

``Tracer.install()`` replaces each hooked function by a wrapper: every binding
of a module-level function in the ``detstrata.*`` module namespaces, and the
named methods on the package's classes.  A span hook records one span per
call (name, start, end, parent span, query id); a count hook on the hottest
paths (object construction) only counts.  A hooked name that no longer exists
is listed in ``absent`` and its metrics are left out; the run goes on.

Self time is a span's duration minus the time covered by its child spans.
Everything runs on one thread with no locks, queues or I/O inside the
program, so no layer has a wait time to report.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable

# (metric name, home module, attribute path, extra counter on the result)
# An attribute path "Class.method" hooks a method; several hooks may share a
# metric name, which then sums over them.
SPAN_HOOKS: list[tuple[str, str, str, str | None]] = [
    ("partitions.enumerate_in_rectangle", "partitions", "enumerate_in_rectangle", "items"),
    ("partitions.Partition.conjugate", "partitions", "Partition.conjugate", None),
    ("plethysm.cauchy_exterior", "plethysm", "cauchy_exterior", "items"),
    ("plethysm.symmetric_exterior_partitions", "plethysm", "symmetric_exterior_partitions", "items"),
    ("plethysm.skew_exterior_partitions", "plethysm", "skew_exterior_partitions", "items"),
    ("characters.member_general", "characters", "member_general", "hits"),
    ("characters.member_symmetric", "characters", "member_symmetric", "hits"),
    ("characters.member_skew", "characters", "member_skew", "hits"),
    ("characters.lambda_extension", "characters", "lambda_extension", None),
    ("derham.inv_derham_gf_enum", "derham", "inv_derham_gf_enum", "summands_counted"),
    ("derham.inv_derham_gf_closed", "derham", "inv_derham_gf_closed", None),
    ("derham.euler_char_at_origin", "derham", "euler_char_at_origin", None),
    ("derham.ic_poincare", "derham", "ic_poincare", None),
    ("qpoly.gauss_binomial", "qpoly", "gauss_binomial", None),
    ("qpoly.LaurentPoly.add", "qpoly", "LaurentPoly.__add__", "coeffs_out"),
    ("qpoly.LaurentPoly.substitute_power", "qpoly", "LaurentPoly.substitute_power", "coeffs_out"),
    ("qpoly.LaurentPoly.shift", "qpoly", "LaurentPoly.shift", None),
    ("qpoly.LaurentPoly.mul", "qpoly", "LaurentPoly.__mul__", None),
    ("qpoly.LaurentPoly.from_terms", "qpoly", "LaurentPoly.from_terms", None),
    ("qpoly.LaurentPoly.render", "qpoly", "LaurentPoly.__str__", None),
    ("qpoly.LaurentPoly.render", "qpoly", "LaurentPoly.to_json", None),
    ("obstructions.chi_from_enumeration", "obstructions", "chi_from_enumeration", None),
    ("obstructions.solve_euler", "obstructions", "solve_euler", None),
    ("obstructions.verify_index_identity", "obstructions", "verify_index_identity", None),
    ("obstructions.closed_matrices", "obstructions", "chi_closed", None),
    ("obstructions.closed_matrices", "obstructions", "euler_closed", None),
    ("obstructions.closed_matrices", "obstructions", "micro_indices", None),
    ("obstructions.closed_matrices", "obstructions", "signed_micro", None),
    ("obstructions.StrataMatrix.mul", "obstructions", "StrataMatrix.__mul__", None),
    ("cli.main", "cli", "main", None),
]

COUNT_HOOKS: list[tuple[str, str, str]] = [
    ("partitions.Partition.created", "partitions", "Partition.__post_init__"),
    ("partitions.IntegerWeight.created", "partitions", "IntegerWeight.__post_init__"),
    ("qpoly.LaurentPoly.created", "qpoly", "LaurentPoly.__post_init__"),
    ("spaces.MatrixSpace.created", "spaces", "MatrixSpace.__post_init__"),
]

LAYERS = ("partitions", "plethysm", "characters", "derham", "qpoly", "obstructions", "cli")

EXTRA = {
    "items": len,
    "hits": bool,
    "summands_counted": lambda poly: sum(poly.coeffs),
    "coeffs_out": lambda poly: len(poly.coeffs),
}

ROOT = "query"


class Tracer:
    """In-memory spans and per-name counters for one pass of a workload."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT]
        self.queries: list[str] = []
        # one span per entry, as parallel columns; span ids are row numbers
        self.span_parent = array("q")
        self.span_query = array("l")
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span id, child time]
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.extra: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.hooked: set[str] = set()
        self.absent: set[str] = set()

    def _open(self, name_id: int) -> list:
        sid = len(self.span_start)
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_query.append(len(self.queries) - 1)
        self.span_name.append(name_id)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        frame = [sid, 0.0]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list, name: str) -> None:
        end = perf_counter()
        sid = frame[0]
        self.span_end[sid] = end
        self.stack.pop()
        duration = end - self.span_start[sid]
        self.self_s[name] += duration - frame[1]
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][1] += duration

    def query(self, qid: str, fn: Callable[[], object]) -> object:
        """Run one query under a root span that every span inside it points to."""
        self.queries.append(qid)
        frame = self._open(0)
        try:
            return fn()
        finally:
            self._close(frame, ROOT)

    def _span_wrapper(self, name: str, fn: Callable, extra: str | None) -> Callable:
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        measure = EXTRA[extra] if extra else None
        key = f"{name}.{extra}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, name)
            if measure is not None:
                self.extra[key] += measure(result)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every hooked function and method of the imported detstrata modules."""
        for name, module, path, extra in SPAN_HOOKS:
            self._hook(name, module, path, lambda fn: self._span_wrapper(name, fn, extra))
        for name, module, path in COUNT_HOOKS:
            self._hook(name, module, path, lambda fn: self._count_wrapper(name, fn))
        self.absent -= self.hooked

    def _hook(self, name: str, module: str, path: str, wrap: Callable[[Callable], Callable]) -> None:
        home = sys.modules.get(f"detstrata.{module}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.absent.add(name)
            return
        self.hooked.add(name)
        if owner_name:
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(wrap(raw.__func__)))
            else:
                setattr(owner, attr, wrap(raw))
            return
        wrapper = wrap(raw)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "detstrata" or mod_name.startswith("detstrata."):
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapper)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass; metrics of absent hooks are left out."""
        out: dict[str, float] = {}
        for name, _, _, extra in SPAN_HOOKS:
            if name in self.hooked:
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self.self_s[name]
                if extra:
                    out[f"{name}.{extra}"] = self.extra[f"{name}.{extra}"]
        for name, _, _ in COUNT_HOOKS:
            if name in self.hooked:
                out[name] = self.counts[name]
        members = [f"characters.member_{f}" for f in ("general", "symmetric", "skew")]
        if all(m in self.hooked for m in members):
            calls = sum(self.calls[m] for m in members)
            hits = sum(self.extra[f"{m}.hits"] for m in members)
            out["characters.member.calls"] = calls
            out["characters.member.hits"] = hits
            out["characters.member.hit_ratio"] = hits / calls if calls else 0.0
        plethysm = [name for name, _, _, _ in SPAN_HOOKS if name.startswith("plethysm.")]
        if "derham.inv_derham_gf_enum" in self.hooked and all(p in self.hooked for p in plethysm):
            counted = self.extra["derham.inv_derham_gf_enum.summands_counted"]
            considered = sum(self.extra[f"{p}.items"] for p in plethysm)
            out["derham.enum.summands_considered"] = considered
            out["derham.enum.useful_ratio"] = counted / considered if considered else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s for name, s in self.self_s.items() if name.startswith(f"{layer}.")
            )
        out["query.self_s"] = self.self_s[ROOT]
        out["trace.spans"] = len(self.span_start)
        return out

    def write_spans(self, path: str) -> None:
        """Write every span of the pass as gzipped JSON columns; a span's id is its row."""
        data = {
            "names": self.names,
            "queries": self.queries,
            "parent": self.span_parent.tolist(),
            "query": self.span_query.tolist(),
            "name": self.span_name.tolist(),
            "start_s": self.span_start.tolist(),
            "end_s": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh, separators=(",", ":"))
