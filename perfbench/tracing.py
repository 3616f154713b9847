"""The traced run: spans around public calls into each layer, and counters.

:class:`Tracer` patches a fixed list of public methods (see
:data:`SPANNED`) with wrappers that record a span — name, start, end,
parent, and the id of the top-level operation it belongs to — while a
timed operation is running.  Spans live in flat arrays in memory and are
written out once, when the run ends.  A layer's self time is its span's
duration minus the durations of its direct child spans (children nest
strictly, so that is the part of the interval they cover).

Counts are deltas of the program's own counters (``MetadataSystem.stats()``,
``TraceBus.emitted``), read before and after each operation, outside the
timed call.  Lock acquisitions are counted by a wrapper on
``ReentrantRWLock.acquire_read``/``acquire_write``; their total is checked
against the delta of ``LockPolicy.aggregate_stats()`` over the run.
"""

from __future__ import annotations

import functools
import gc
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.common.rwlock import ReentrantRWLock
from repro.graph.graph import QueryGraph
from repro.graph.node import Operator, Sink
from repro.metadata.handler import (
    OnDemandHandler,
    PeriodicHandler,
    StaticHandler,
    TriggeredHandler,
)
from repro.metadata.monitor import CostProbe, CounterProbe, MeanProbe
from repro.metadata.propagation import PropagationEngine
from repro.metadata.registry import MetadataRegistry, MetadataSubscription
from repro.reliability.breaker import CircuitBreaker
from repro.runtime.simulation import SimulationExecutor
from repro.telemetry.export import TelemetryExporter
from repro.telemetry.hub import Telemetry

from core import KINDS, QUERY_KINDS, Ops

#: (span name, class, method) of every public call the traced run spans.
SPANNED: tuple[tuple[str, type, str], ...] = (
    ("runtime.advance", SimulationExecutor, "run_until"),
    ("graph.step", Operator, "step"),
    ("graph.step", Sink, "step"),
    ("graph.install", QueryGraph, "install_query"),
    ("graph.uninstall", QueryGraph, "uninstall_query"),
    ("monitor.probe", CounterProbe, "record"),
    ("monitor.probe", CostProbe, "charge"),
    ("monitor.probe", MeanProbe, "record"),
    ("scheduling.refresh", PeriodicHandler, "periodic_refresh"),
    ("propagation.wave", PropagationEngine, "value_changed"),
    ("propagation.wave", PropagationEngine, "event_fired"),
    ("propagation.wave", PropagationEngine, "events_fired"),
    ("handler.read_cached", StaticHandler, "get"),
    ("handler.read_cached", PeriodicHandler, "get"),
    ("handler.read_cached", TriggeredHandler, "get"),
    ("handler.read_ondemand", OnDemandHandler, "get"),
    ("reliability.breaker", CircuitBreaker, "allow_attempt"),
    ("reliability.breaker", CircuitBreaker, "record_success"),
    ("registry.subscribe", MetadataRegistry, "subscribe"),
    ("registry.subscribe", MetadataRegistry, "subscribe_many"),
    ("registry.cancel", MetadataSubscription, "cancel"),
    ("telemetry.emit", Telemetry, "emit"),
    ("telemetry.flush", TelemetryExporter, "flush"),
)

#: Counters read around every operation (keys of ``MetadataSystem.stats()``).
STAT_KEYS = ("waves", "drains", "refreshes", "planned", "skipped_poisoned",
             "plan_hits", "plan_misses", "topology_epoch", "handlers_created")

#: Span names of the metadata layers (by prefix), and the operations that
#: are metadata work as a whole; see :meth:`Tracer.metadata_share`.  The
#: monitoring probes count as data path: they run inside every step.
METADATA_SPANS = ("scheduling.", "propagation.", "handler.",
                  "reliability.", "registry.", "telemetry.",
                  "op.change", "op.read", "op.subscribe", "op.cancel")

#: Per-layer metrics: name -> (unit, better).
PER_LAYER = {
    "graph.step_us": ("us", "lower"),
    "graph.steps_per_element": ("count", "lower"),
    "runtime.drain_self_us": ("us", "lower"),
    "graph.install_us": ("us", "lower"),
    "graph.uninstall_us": ("us", "lower"),
    "monitor.probe_calls_per_element": ("count", "lower"),
    "monitor.probe_us": ("us", "lower"),
    "scheduling.periodic_refreshes_per_element": ("count", "lower"),
    "scheduling.refresh_us": ("us", "lower"),
    "propagation.wave_self_us": ("us", "lower"),
    "propagation.planned_per_change": ("count", "lower"),
    "propagation.refreshes_per_change": ("count", "lower"),
    "propagation.coalesced_per_drain": ("count", "higher"),
    "propagation.plan_hit_ratio": ("ratio", "higher"),
    "handler.compute_us": ("us", "lower"),
    "handler.read_cached_us": ("us", "lower"),
    "handler.read_ondemand_us": ("us", "lower"),
    "reliability.breaker_us": ("us", "lower"),
    "registry.handlers_per_subscribe": ("count", "lower"),
    "registry.shared_include_ratio": ("ratio", "higher"),
    "registry.topology_bumps_per_query": ("count", "lower"),
    "locks.acquires_per_change": ("count", "lower"),
    "locks.acquires_per_read": ("count", "lower"),
    "locks.acquires_per_element": ("count", "lower"),
    "locks.acquires_per_query": ("count", "lower"),
    "locks.live": ("count", "lower"),
    "telemetry.events_per_change": ("count", "lower"),
    "telemetry.emit_us": ("us", "lower"),
    "telemetry.flush_us": ("us", "lower"),
    "telemetry.events_dropped": ("count", "lower"),
    "telemetry.ring_overwrites": ("count", "lower"),
    "gc.pause_ms": ("ms", "lower"),
    "gc.gen2_collections": ("count", "lower"),
}


class Tracer:
    """Span recorder and per-operation counter deltas for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.op_kind = array("b", [-1])  # op id -> index into KINDS
        self._stack: list[int] = []
        self.kind: str | None = None
        self._root = -1
        self._patched: list[tuple[type, str, Any]] = []
        self.lock_acquires: dict[str | None, int] = defaultdict(int)
        self.deltas: dict[str, dict[str, int]] = {
            kind: defaultdict(int) for kind in KINDS}
        self._before: dict[str, int] = {}
        self._counters: Callable[[], dict[str, int]] = dict
        self.subscribed_keys = 0
        self.closure_handlers = 0
        self.gc_pause_ns = 0
        self.gc_gen2 = 0
        self._gc_start = 0
        self._gc_on = False

    # -- spans -------------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.span_end)
        stack = self._stack
        self.span_name.append(name_id)
        self.span_op.append(len(self.op_kind) - 1)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0)
        stack.append(index)
        self.span_start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.span_end[index] = time.perf_counter_ns()
        self._stack.pop()

    def begin_op(self, kind: str) -> None:
        self._before = self._counters()
        self.op_kind.append(KINDS.index(kind))
        self.kind = kind
        self._root = self.open(self.name_id("op." + kind))

    def end_op(self) -> None:
        self.close(self._root)
        kind = self.kind
        self.kind = None
        after = self._counters()
        deltas = self.deltas[kind]
        for key, value in after.items():
            deltas[key] += value - self._before[key]

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Wrap one of the benchmark's own functions in a span."""
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if tracer.kind is None:
                return fn(*args, **kwargs)
            index = tracer.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return traced

    # -- installing and removing the wrappers ------------------------------

    def install(self) -> None:
        for name, owner, attr in SPANNED:
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))
        tracer = self
        for attr in ("acquire_read", "acquire_write"):
            original = ReentrantRWLock.__dict__[attr]
            self._patched.append((ReentrantRWLock, attr, original))

            def counted(lock: ReentrantRWLock, timeout: float | None = None,
                        _original: Callable = original) -> bool:
                tracer.lock_acquires[tracer.kind] += 1
                return _original(lock, timeout)

            setattr(ReentrantRWLock, attr, counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- counters ------------------------------------------------------------

    def attach(self, system: Any, telemetry: Any) -> None:
        """Read ``system``'s counters (and ``telemetry``'s) around each op."""
        def counters() -> dict[str, int]:
            stats = system.stats()
            values = {key: stats[key] for key in STAT_KEYS}
            values["emitted"] = telemetry.bus.emitted if telemetry else 0
            return values

        self._counters = counters

    def subscribed(self, subscriptions: list) -> None:
        """Record the keys of one subscribe call and their closure size."""
        self.subscribed_keys += len(subscriptions)
        seen: set[int] = set()
        stack = [subscription.handler for subscription in subscriptions]
        while stack:
            handler = stack.pop()
            if id(handler) in seen:
                continue
            seen.add(id(handler))
            stack.extend(dep for _, dep in handler.dependency_handlers)
        self.closure_handlers += len(seen)

    def _gc_callback(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        elif self._gc_start:
            self.gc_pause_ns += time.perf_counter_ns() - self._gc_start
            self._gc_start = 0
            if info.get("generation") == 2:
                self.gc_gen2 += 1

    def start_gc_watch(self) -> None:
        gc.callbacks.append(self._gc_callback)
        self._gc_on = True

    def stop_gc_watch(self) -> None:
        if self._gc_on:
            gc.callbacks.remove(self._gc_callback)
            self._gc_on = False

    # -- results ---------------------------------------------------------------

    def write(self, path: Path) -> int:
        """Write every span to ``path`` (``.npz``); returns the span count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 kinds=np.array(KINDS),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.span_start, dtype=np.int64),
                 end_ns=np.frombuffer(self.span_end, dtype=np.int64),
                 op_kind=np.frombuffer(self.op_kind, dtype=np.int8))
        return len(self.span_end)

    def metadata_share(self) -> float:
        """Share of the operations' time spent in metadata: every metadata
        span that no other metadata span encloses (the whole of a change,
        read, subscribe or cancel; periodic refreshes, waves and telemetry
        inside elements, installs and uninstalls)."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = (np.frombuffer(self.span_end, dtype=np.int64)
                    - np.frombuffer(self.span_start, dtype=np.int64))
        metadata = np.array([n.startswith(METADATA_SPANS) for n in self.names])[name]
        nested = parent >= 0
        up = np.where(nested, parent, 0)
        # Spans nest under a metadata span at most as deep as the tree is.
        enclosed = np.zeros(len(name), dtype=bool)
        while True:
            deeper = nested & (metadata[up] | enclosed[up])
            if np.array_equal(deeper, enclosed):
                break
            enclosed = deeper
        return float(duration[metadata & ~enclosed].sum() / duration[~nested].sum())

    def per_layer(self, ops: Ops, workload: Any) -> dict[str, dict]:
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        duration = (np.frombuffer(self.span_end, dtype=np.int64)
                    - np.frombuffer(self.span_start, dtype=np.int64))
        child = np.zeros(len(duration), dtype=np.int64)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        self_time = duration - child
        span_kind = np.frombuffer(self.op_kind, dtype=np.int8)[
            np.frombuffer(self.span_op, dtype=np.int32)]

        def select(span: str, kind: str | None = None) -> np.ndarray:
            mask = name == self._name_ids.get(span, -1)
            if kind is not None:
                mask &= span_kind == KINDS.index(kind)
            return mask

        def median_us(span: str, total: bool = False) -> float:
            values = (duration if total else self_time)[select(span)]
            return float(np.median(values)) / 1000.0 if values.size else 0.0

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        count = {kind: len(ops.samples[kind]) for kind in KINDS}
        elements, changes, reads = count["element"], count["change"], count["read"]
        delta = self.deltas
        query = {key: sum(delta[kind][key] for kind in QUERY_KINDS)
                 for key in STAT_KEYS}
        total = {key: sum(delta[kind][key] for kind in KINDS) for key in STAT_KEYS}
        telemetry = workload.telemetry
        values = {
            "graph.step_us": median_us("graph.step"),
            "graph.steps_per_element": ratio(
                int(select("graph.step", "element").sum()), elements),
            "runtime.drain_self_us": median_us("runtime.advance"),
            "graph.install_us": median_us("graph.install"),
            "graph.uninstall_us": median_us("graph.uninstall"),
            "monitor.probe_calls_per_element": ratio(
                int(select("monitor.probe", "element").sum()), elements),
            "monitor.probe_us": median_us("monitor.probe"),
            "scheduling.periodic_refreshes_per_element": ratio(
                int(select("scheduling.refresh", "element").sum()), elements),
            "scheduling.refresh_us": median_us("scheduling.refresh", total=True),
            "propagation.wave_self_us": median_us("propagation.wave"),
            "propagation.planned_per_change": ratio(
                delta["change"]["planned"], changes),
            "propagation.refreshes_per_change": ratio(
                delta["change"]["refreshes"], changes),
            "propagation.coalesced_per_drain": ratio(
                delta["change"]["waves"], delta["change"]["drains"]),
            "propagation.plan_hit_ratio": ratio(
                total["plan_hits"], total["plan_hits"] + total["plan_misses"]),
            "handler.compute_us": median_us("handler.compute"),
            "handler.read_cached_us": median_us("handler.read_cached"),
            "handler.read_ondemand_us": median_us("handler.read_ondemand"),
            "reliability.breaker_us": median_us("reliability.breaker"),
            "registry.handlers_per_subscribe": ratio(
                delta["subscribe"]["handlers_created"], self.subscribed_keys),
            "registry.shared_include_ratio": 1.0 - ratio(
                delta["subscribe"]["handlers_created"], self.closure_handlers),
            "registry.topology_bumps_per_query": ratio(
                query["topology_epoch"], ops.cycles),
            "locks.acquires_per_change": ratio(self.lock_acquires["change"], changes),
            "locks.acquires_per_read": ratio(self.lock_acquires["read"], reads),
            "locks.acquires_per_element": ratio(self.lock_acquires["element"], elements),
            "locks.acquires_per_query": ratio(
                sum(self.lock_acquires[kind] for kind in QUERY_KINDS), ops.cycles),
            "locks.live": workload.lock_policy.lock_count,
            "telemetry.events_per_change": ratio(delta["change"]["emitted"], changes),
            "telemetry.emit_us": median_us("telemetry.emit"),
            "telemetry.flush_us": median_us("telemetry.flush"),
            "telemetry.events_dropped": (
                sum(exporter.subscription.dropped for exporter in telemetry.exporters)
                if telemetry else 0),
            "telemetry.ring_overwrites": telemetry.bus.dropped if telemetry else 0,
            "gc.pause_ms": self.gc_pause_ns / 1e6,
            "gc.gen2_collections": self.gc_gen2,
        }
        return {key: {"value": value, "unit": PER_LAYER[key][0]}
                for key, value in values.items()}
