"""Span tracing of tunnelgraph's layers from outside the program.

A :class:`Tracer` swaps selected public functions of the tunnelgraph
modules for timing wrappers while a traced op runs, so the traced op
executes exactly the code an untraced op executes.  Each span records
name, start, end, parent span and op id, plus counts taken from the
call's arguments and result at the same boundary.  Spans stay in memory
until the run writes them out.

Consecutive calls of one function under the same parent merge into a
single span with a call count (``sync.with_weights`` is called once per
sighting); the gaps between those calls count to that span.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    op: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    calls: int = 1
    counts: dict = field(default_factory=dict)
    tags: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


def _written(args, kwargs, result):
    return {"bytes_written": _file_size(args[0])}, {}


def _read(args, kwargs, result):
    return {"bytes_read": _file_size(args[0])}, {}


def _corrupt(args, kwargs, result):
    track, _ = result
    return {"corrupt_frames": track.frame_count}, {}


def _detect(args, kwargs, result):
    track, layout, _, model = args[:4]
    span = float(track.times[-1] - track.times[0])
    # tick count as simulate_landmark_observations computes it
    ticks = int(span * model.rate + 1e-9) + 1
    return {"sightings": len(result), "gated": ticks * layout.count}, {}


def _align(args, kwargs, result):
    track = args[0]
    return {"inserted_nodes": result.node_count - track.frame_count}, {}


def _build(args, kwargs, result):
    counts = {
        "nodes": result.node_count,
        "odo_edges": result.odo_count,
        "obs_edges": result.obs_count,
    }
    return counts, {"source": result.source}


def _optimize(args, kwargs, result):
    graph, stats = result
    tags = {
        "source": graph.source,
        "iterations": stats.iterations,
        "final_cost": stats.final_cost,
        "reason": stats.reason,
    }
    return {}, tags


# (module, function, span name, counter) for every traced call boundary.
# Helpers the program calls per tick or per edge (geometry) are probed
# separately, outside the op, because a wrapper per call would dominate
# their cost.
TRACED = (
    ("pipeline", "simulate_scenario", "pipeline.simulate_scenario", None),
    ("pipeline", "optimize_track", "pipeline.optimize_track", None),
    ("pipeline", "write_optimization", "pipeline.write_optimization", None),
    ("pipeline", "report_run", "pipeline.report_run", None),
    ("pipeline", "recovery_run", "pipeline.recovery_run", None),
    ("simulate", "generate_ground_truth", "simulate.ground_truth", None),
    ("simulate", "corrupt", "simulate.corrupt", _corrupt),
    ("simulate", "simulate_landmark_observations", "simulate.detect", _detect),
    ("sync", "align", "sync.align", _align),
    ("sync", "with_weights", "sync.reweight", None),
    ("graph", "build_graph", "graph.build", _build),
    ("optimizer", "optimize", "optimizer.optimize", _optimize),
    ("metrics", "per_frame_corrections", "metrics.corrections", None),
    ("metrics", "phase_breakdown", "metrics.phase_breakdown", None),
    ("fileio", "write_track", "fileio.write_track", _written),
    ("fileio", "write_observations", "fileio.write_observations", _written),
    ("fileio", "write_injection", "fileio.write_injection", _written),
    ("fileio", "write_graph", "fileio.write_graph", _written),
    ("fileio", "write_stats_json", "fileio.write_stats_json", _written),
    ("fileio", "write_report_csv", "fileio.write_report_csv", _written),
    ("fileio", "write_xy_csv", "fileio.write_xy_csv", _written),
    ("fileio", "write_poles_csv", "fileio.write_poles_csv", _written),
    ("fileio", "read_track", "fileio.read_track", _read),
    ("fileio", "read_observations", "fileio.read_observations", _read),
    ("fileio", "read_injection", "fileio.read_injection", _read),
    ("fileio", "read_graph", "fileio.read_graph", _read),
    ("fileio", "read_stats_json", "fileio.read_stats_json", _read),
)


class Tracer:
    """Records the spans of traced ops in memory."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._last: Span | None = None  # most recently closed span
        self._op: int | None = None

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Trace one op: patch the layers and open its root span."""
        self._op = op_id
        try:
            with self._installed(), self.span("op"):
                yield
        finally:
            self._op = None
            self._stack.clear()
            self._last = None

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        last = self._last
        if last is not None and last.name == name and last.parent == parent:
            last.calls += 1
            span = last
        else:
            span = Span(len(self.spans), self._op, parent, name, time.perf_counter())
            self.spans.append(span)
        self._stack.append(span)
        self._last = None
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self._last = span

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts, tags = counter(args, kwargs, result)
                    for key, value in counts.items():
                        span.counts[key] = span.counts.get(key, 0) + value
                    span.tags.update(tags)
                return result
            finally:
                self._close(span)

        return traced

    @contextlib.contextmanager
    def _installed(self):
        """Patch every TRACED function; restore the originals on exit."""
        saved = []
        try:
            for module_name, fn_name, span_name, counter in TRACED:
                module = getattr(self.package, module_name)
                original = getattr(module, fn_name)
                saved.append((module, fn_name, original))
                setattr(module, fn_name, self._wrap(span_name, original, counter))
            yield
        finally:
            for module, fn_name, original in reversed(saved):
                setattr(module, fn_name, original)


def self_times(spans) -> dict:
    """Per-layer self time: each span's duration minus its children's."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + s.duration - child_time.get(s.id, 0.0)
    return out


def op_metrics(spans) -> dict:
    """Per-layer metrics of one traced op (spans of that op only)."""
    m = {}

    def add(key, value):
        m[key] = m.get(key, 0.0) + value

    for s in spans:
        if s.name == "op":
            m["op_s"] = s.duration
            continue
        add(f"{s.name}_s", s.duration)
        for key, value in s.counts.items():
            add(f"{s.layer}.{key}", value)
        if s.name == "optimizer.optimize":
            src, iterations = s.tags["source"], s.tags["iterations"]
            m[f"optimizer.{src}.optimize_s"] = s.duration
            m[f"optimizer.{src}.iterations"] = iterations
            m[f"optimizer.{src}.s_per_iter"] = s.duration / iterations
            m[f"optimizer.{src}.final_cost"] = s.tags["final_cost"]
    for layer, value in self_times(spans).items():
        m[f"{layer}.self_s"] = value
    return m
