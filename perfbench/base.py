"""What the three workloads share: inputs, sinks, query cycles and checks.

A workload generates its whole script from the seed in its constructor,
builds the system in :meth:`Workload.setup` (repeatable; the last build is
the one that runs), drives it in :meth:`Workload.run` through
:class:`core.Ops`, and records every failed correctness check in
:attr:`Workload.errors`.  ``corrupt`` names one check whose reference value
is deliberately put off by one, to show that the check can fail.
"""

from __future__ import annotations

import gc
import math
import random
from array import array
from typing import Any, Callable, Sequence

from repro import (
    FineGrainedLockPolicy,
    Mechanism,
    MetadataDefinition,
    QueryGraph,
    Schema,
    SimulationExecutor,
    Sink,
    Source,
    StreamDriver,
)
from repro.metadata.item import ComputeContext
from repro.sources.synthetic import TraceArrivals

from core import FAILED, Ops
from reference import Digest

SCHEMA = Schema(("k", "v", "seq"), element_size=32)


def join_key(element: Any) -> int:
    return element.payload["k"]


class Workload:
    """Base class: seeded two-source input stream and shared checks."""

    name = ""
    #: Possible join window sizes.  Consecutive sizes differ by less than
    #: the smallest gap between two elements of one source (1 time unit), so
    #: every source's expiries stay in arrival order.
    WINDOW_SIZES = (40.0, 40.25, 40.5, 40.75)
    KEYS = 16
    PERIOD = 50.0

    def __init__(self, seed: int, rounds: int, elements: int,
                 tracer: Any = None, corrupt: str | None = None) -> None:
        self.seed = seed
        self.rounds = rounds
        self.tracer = tracer
        self.corrupt = corrupt
        self.errors: list[str] = []
        self.rng = random.Random(seed)
        rng = self.rng
        # Element i arrives at time i + 1 on one of two sources.
        self.side = bytearray(rng.getrandbits(1) for _ in range(elements))
        self.key = array("b", (rng.randrange(self.KEYS) for _ in range(elements)))
        self.value = array("h", (rng.randrange(100) for _ in range(elements)))
        self.expiry = array("d", bytes(8 * elements))
        self.telemetry = None
        self.system = None
        self.lock_policy = None

    # -- building ------------------------------------------------------------

    def new_graph(self) -> QueryGraph:
        self.lock_policy = FineGrainedLockPolicy()
        graph = QueryGraph(lock_policy=self.lock_policy,
                           default_metadata_period=self.PERIOD)
        self.system = graph.metadata_system
        return graph

    def add_sources(self, graph: QueryGraph) -> tuple[Source, Source]:
        return (graph.add(Source("left", SCHEMA)),
                graph.add(Source("right", SCHEMA)))

    def start_executor(self, graph: QueryGraph, sources: Sequence[Source]) -> None:
        """Feed each source its share of the generated elements (a single
        source gets them all)."""
        drivers = []
        for side, source in enumerate(sources):
            indices = [i for i, s in enumerate(self.side)
                       if s == side or len(sources) == 1]
            payloads = [{"k": self.key[i], "v": self.value[i], "seq": i}
                        for i in indices]
            drivers.append(StreamDriver(
                source, TraceArrivals([i + 1.0 for i in indices]),
                lambda rng, seq, now, payloads=payloads: payloads[seq]))
        self.executor = SimulationExecutor(graph, drivers)
        self.graph = graph

    def digest_sink(self, name: str, fields: tuple[str, str]) -> tuple[Sink, Digest]:
        digest = Digest()
        a, b = fields

        def deliver(element: Any) -> None:
            payload = element.payload
            digest.add(payload[a], payload[b])

        return Sink(name, callback=deliver), digest

    def define_cost_item(self, registry: Any, key: Any, deps: list,
                         policy: Any) -> None:
        """A consumer-defined triggered item: the ratio of two estimates,
        guarded by a failure policy that never fires."""
        first, second = deps

        def compute(ctx: ComputeContext) -> float:
            return ctx.value(first.key) / (1.0 + abs(ctx.value(second.key)))

        if self.tracer is not None:
            compute = self.tracer.wrap(compute, "handler.compute")
        registry.define(MetadataDefinition(
            key, Mechanism.TRIGGERED, compute=compute, dependencies=deps,
            failure_policy=policy,
            description="benchmark consumer: ratio of two estimates"))

    def teardown(self) -> None:
        if self.system is not None and self.system.telemetry is not None:
            self.system.disable_telemetry()
        self.graph = self.executor = self.system = self.telemetry = None
        gc.collect()

    # -- driving -------------------------------------------------------------

    def element(self, ops: Ops, index: int, window_sizes: Sequence[float],
                op: Callable[[float], Any]) -> None:
        """Hand element ``index`` to the runtime as one timed operation."""
        time = index + 1.0
        self.expiry[index] = time + window_sizes[self.side[index]]
        ops.run("element", op, time)

    def subscribe(self, ops: Ops, registry: Any, keys: list) -> list:
        subscriptions = ops.run("subscribe", registry.subscribe_many, keys)
        if subscriptions is FAILED:
            return []
        if self.tracer is not None:
            self.tracer.subscribed(subscriptions)
        return subscriptions

    def cancel_all(self, ops: Ops, subscriptions: list) -> None:
        for subscription in subscriptions:
            ops.run("cancel", subscription.cancel)

    def install(self, nodes: list, connections: list) -> None:
        self.graph.install_query(nodes, connections)
        self.executor.rebuild_schedule()

    def uninstall(self, sink: Sink) -> None:
        self.graph.uninstall_query(sink)
        self.executor.rebuild_schedule()

    # -- checks --------------------------------------------------------------

    def check(self, name: str, observed: Any, expected: Any) -> None:
        """Record an error unless ``observed == expected``."""
        if self.corrupt == name:
            expected = _off_by_one(expected)
        if observed != expected:
            self.errors.append(f"{self.name}: {name}: observed {observed!r}, "
                               f"expected {expected!r}")

    def join_arrivals(self, first: int, last: int) -> list:
        """``(time, side, key, seq, expiry)`` of elements ``first..last-1``."""
        return [(i + 1.0, self.side[i], self.key[i], i, self.expiry[i])
                for i in range(first, last)]

    def check_estimates(self) -> None:
        """Every included triggered estimate equals its definition
        re-evaluated over its dependencies' current values."""
        checked = 0
        for registry in self.system.registries():
            for key in registry.included_keys():
                definition = registry.describe(key)
                if definition.mechanism is not Mechanism.TRIGGERED:
                    continue
                if not key.name.startswith(("estimate.", "bench.")):
                    continue
                handler = registry.handler(key)
                expected = definition.compute(ComputeContext(registry, handler))
                observed = handler.peek()
                if self.corrupt == "estimates" and checked == 0:
                    expected = _off_by_one(expected)
                checked += 1
                if not math.isclose(observed, expected, rel_tol=1e-9, abs_tol=1e-12):
                    owner = getattr(registry.owner, "name", registry.owner)
                    self.errors.append(
                        f"{self.name}: estimates: {owner}/{key!r} holds "
                        f"{observed!r}, re-evaluation gives {expected!r}")
        if not checked:
            self.errors.append(f"{self.name}: estimates: nothing was checked")


def _off_by_one(value: Any) -> Any:
    if isinstance(value, tuple):
        return (_off_by_one(value[0]),) + value[1:]
    if isinstance(value, (set, frozenset)):
        return set(sorted(value, key=repr)[1:])
    if isinstance(value, dict):
        first = next(iter(value))
        return {**value, first: _off_by_one(value[first])}
    return value + 1
