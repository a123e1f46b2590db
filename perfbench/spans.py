"""In-memory span tracing around calls into specirr's modules.

Tracer.install() replaces each traced function at every module binding its
callers use (cli and harness import most functions by name, bounds imports
adjacency_spectral_radius, spectral imports connected_components), plus
the entries of harness.ALL_CHECKS.  Each call becomes a span holding its
name, the span that caused it, its start and end, and its self time (its
duration minus the part its child spans cover).  For a generator every
next() is one span, so the time spent producing each item is traced while
the consumer's work between items is not.

The program's source is not changed: the spans sit at the boundaries
between its modules, recorded from the benchmark's own code.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import Counter
from pathlib import Path
from statistics import mean
from time import perf_counter_ns

TRACED = {
    "specirr.graphs": ("enumerate_graphs", "canonical_form", "degree_stats",
                       "connected_components", "parse_graph6", "to_graph6"),
    "specirr.spectral": ("adjacency_spectral_radius", "signless_laplacian_radius",
                         "spectral_oracle"),
    "specirr.bounds": ("bound_report",),
    "specirr.harness": ("build_context", "verify_graphs", "hong_search"),
    "specirr.cli": ("report_row", "cmd_compute", "cmd_verify", "cmd_search"),
}
CHECK_PREFIX = "harness.check."


class Tracer:
    def __init__(self) -> None:
        # (name, parent index or -1, start_ns, end_ns, self_ns), by start order
        self.spans: list[tuple | None] = []
        self._stack: list[list[int]] = []  # [span index, ns covered by children]
        self.counts: Counter = Counter()
        self.iterations: list[int] = []
        self.residuals: list[float] = []

    def _open(self) -> tuple[int, int, list[int]]:
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        frame = [index, 0]
        self._stack.append(frame)
        return index, parent, frame

    def _close(self, name: str, index: int, parent: int, frame: list[int], start: int) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][1] += duration
        self.spans[index] = (name, parent, start, end, duration - frame[1])

    def wrap(self, name: str, fn, observe=None):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    index, parent, frame = self._open()
                    start = perf_counter_ns()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, index, parent, frame, start)
                    self.counts[name + ".items"] += 1
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent, frame = self._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, index, parent, frame, start)
            if observe is not None:
                observe(result)
            return result
        return traced

    def _observe_power(self, result) -> None:
        self.iterations.append(result.iterations)
        self.residuals.append(result.residual)

    def install(self) -> None:
        """Rebind every traced function in every loaded specirr module."""
        replace = {}
        for module_name, names in TRACED.items():
            module = sys.modules[module_name]
            layer = module_name.rsplit(".", 1)[1]
            for name in names:
                fn = getattr(module, name)
                observe = self._observe_power if name == "adjacency_spectral_radius" else None
                replace[id(fn)] = (fn, self.wrap(f"{layer}.{name}", fn, observe))
        for module_name, module in list(sys.modules.items()):
            if module_name != "specirr" and not module_name.startswith("specirr."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        checks = sys.modules["specirr.harness"].ALL_CHECKS
        for check, fn in checks.items():
            checks[check] = self.wrap(CHECK_PREFIX + check, fn, self._count_claims)

    def _count_claims(self, claims) -> None:
        self.counts["harness.claims"] += len(claims)

    def summary(self) -> dict:
        """Calls, total and self time per span name, plus the observations."""
        per_name: dict[str, list[int]] = {}
        for name, _, start, end, self_ns in self.spans:
            entry = per_name.setdefault(name, [0, 0, 0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_ns
        return {
            "spans": {k: {"calls": c, "total_ns": t, "self_ns": s}
                      for k, (c, t, s) in per_name.items()},
            "counts": dict(self.counts),
            "iterations": self.iterations,
            "residuals": self.residuals,
        }

    def dump(self, path: Path) -> None:
        with path.open("w", encoding="ascii") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced invocation's summary
# ---------------------------------------------------------------------------

def layer_metrics(summary: dict | None, graphs: int, overhead: float) -> dict[str, float]:
    """Per-layer metrics; a layer that never ran reads 0.

    `graphs` is the workload's count of processed graphs, the base of
    every per-graph ratio; it is reported as graphs_processed.
    """
    summary = summary or {"spans": {}, "counts": {}, "iterations": [], "residuals": []}
    spans, counts = summary["spans"], summary["counts"]

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def per_call_us(name, key="total_ns"):
        c = calls(name)
        return spans[name][key] / c / 1e3 if c else 0.0

    def total_s(prefix, key):
        return sum(v[key] for k, v in spans.items() if k.startswith(prefix)) / 1e9

    its = summary["iterations"]
    return {
        "graphs_processed": graphs,
        "graphs.enumerate_graphs.s": total_s("graphs.enumerate_graphs", "total_ns"),
        "graphs.enumerate_graphs.classes": counts.get("graphs.enumerate_graphs.items", 0),
        "graphs.canonical_form.us": per_call_us("graphs.canonical_form"),
        "graphs.canonical_form.calls": calls("graphs.canonical_form"),
        "graphs.degree_stats.us": per_call_us("graphs.degree_stats"),
        "graphs.degree_stats.calls_per_graph": calls("graphs.degree_stats") / graphs,
        "graphs.connected_components.calls_per_graph": calls("graphs.connected_components") / graphs,
        "graphs.parse_graph6.us": per_call_us("graphs.parse_graph6"),
        "graphs.to_graph6.us": per_call_us("graphs.to_graph6"),
        "spectral.adjacency_spectral_radius.us": per_call_us("spectral.adjacency_spectral_radius"),
        "spectral.adjacency_spectral_radius.calls_per_graph":
            calls("spectral.adjacency_spectral_radius") / graphs,
        "spectral.power_iterations.mean": mean(its) if its else 0.0,
        "spectral.power_iterations.max": max(its, default=0),
        "spectral.residual.max": max(summary["residuals"], default=0.0),
        "spectral.signless_laplacian_radius.us": per_call_us("spectral.signless_laplacian_radius"),
        "spectral.signless_laplacian_radius.calls_per_graph":
            calls("spectral.signless_laplacian_radius") / graphs,
        "spectral.spectral_oracle.us": per_call_us("spectral.spectral_oracle"),
        "bounds.bound_report.self_us": per_call_us("bounds.bound_report", "self_ns"),
        "bounds.bound_report.calls_per_graph": calls("bounds.bound_report") / graphs,
        "harness.build_context.self_us": per_call_us("harness.build_context", "self_ns"),
        "harness.verify_graphs.self_s": total_s("harness.verify_graphs", "self_ns"),
        "harness.claims": counts.get("harness.claims", 0),
        "harness.checks.self_s": total_s(CHECK_PREFIX, "self_ns"),
        "harness.hong_search.self_s": total_s("harness.hong_search", "self_ns"),
        "cli.report_row.self_us": per_call_us("cli.report_row", "self_ns"),
        "cli.io.self_s": total_s("cli.cmd_", "self_ns"),
        "trace_overhead_frac": overhead,
    }
