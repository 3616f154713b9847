"""``pipeline``: the data path of Figure 3's plan, with metadata upkeep on top.

Plan (fixed): sources ``left`` and ``right`` feed time windows ``wl`` and
``wr`` into a hash join (key ``k``, 16 keys) that feeds ``join_out``.  Two
filter/map queries share the sources: ``left -> low (v < 30) -> low_out``
and ``right -> scale (w = 3v) -> even (w even) -> even_out``.  The cost-model
estimates are installed and a resource-manager consumer subscribes them,
plus a consumer-defined ratio item with a failure policy.  Telemetry is
attached; its exporter writes into memory and is flushed on the main thread
inside an element's operation.

Each round hands 1000 elements to the runtime (one per time unit) and makes
a metadata change after every 20th: a join-window resize to a new size
(``TimeWindow.set_size``) after every 200th, otherwise a recalibration of
the join's predicate cost (``notify_changed`` on
``operator.predicate_cost``).  It reads one of the 8 resource-manager
subscriptions after every 25th element (each 5 times a round) and runs 4
query cycles, alternating between the sources: a filter query tapping one
source is installed before elements 0, 250, 500 and 750 of the round and
removed 50 elements later.  Periodic items refresh every 200 time units.
The exporter is flushed every 40 elements, so the flushes, not chance
interruptions, make up the top 2.5% of element times and the element p99
falls among them.
"""

from __future__ import annotations

from typing import Any

from repro import Filter, Map, SlidingWindowJoin, TimeWindow, install_estimates
from repro import catalogue as md
from repro.metadata.item import MetadataKey, SelfDep
from repro.reliability import FailurePolicy

from base import Workload, join_key
from core import MemorySink, Ops
from reference import stream_digest, window_join

COST_PER_RESULT = MetadataKey("bench.cpu_per_result")
CYCLE_KEYS = [md.EST_OUTPUT_RATE, md.SELECTIVITY, md.QUEUE_LENGTH]


class Pipeline(Workload):
    name = "pipeline"
    ELEMENTS_PER_ROUND = 1000
    CHANGE_EVERY = 20
    RESIZE_EVERY = 200
    READ_EVERY = 25
    FLUSH_EVERY = 40
    QUERY_STARTS = (0, 250, 500, 750)
    QUERY_ENDS = tuple(start + 50 for start in QUERY_STARTS)
    PERIOD = 200.0
    CONSUMER_ITEMS = 8

    def __init__(self, seed: int, rounds: int, tracer: Any = None,
                 corrupt: str | None = None) -> None:
        super().__init__(seed, rounds, rounds * self.ELEMENTS_PER_ROUND,
                         tracer, corrupt)
        rng = self.rng
        changes = rounds * self.ELEMENTS_PER_ROUND // self.CHANGE_EVERY
        per_resize = self.RESIZE_EVERY // self.CHANGE_EVERY
        sizes = [self.WINDOW_SIZES[0], self.WINDOW_SIZES[0]]
        self.changes = []
        for change in range(changes):
            side, cost = rng.getrandbits(1), rng.uniform(0.5, 2.0)
            if change % per_resize == per_resize - 1:
                # A resize always changes the size, so that its wave always
                # reaches the join's estimates.
                sizes[side] = rng.choice(
                    [size for size in self.WINDOW_SIZES if size != sizes[side]])
            self.changes.append((side, sizes[side], cost))
        # Each round reads every consumer subscription equally often.
        per_round = self.ELEMENTS_PER_ROUND // self.READ_EVERY
        self.reads = []
        for _ in range(rounds):
            reads = [i % self.CONSUMER_ITEMS for i in range(per_round)]
            rng.shuffle(reads)
            self.reads += reads
        self.cycles = [(cycle % 2, rng.randrange(20, 80))
                       for cycle in range(rounds * len(self.QUERY_STARTS))]

    def setup(self) -> None:
        graph = self.new_graph()
        left, right = self.add_sources(graph)
        self.windows = (graph.add(TimeWindow("wl", self.WINDOW_SIZES[0])),
                        graph.add(TimeWindow("wr", self.WINDOW_SIZES[0])))
        join = graph.add(SlidingWindowJoin("join", impl="hash", key_fn=join_key))
        join_out, self.join_digest = self.digest_sink("join_out", ("seq", "seq_r"))
        low = graph.add(Filter("low", lambda e: e.payload["v"] < 30))
        low_out, self.low_digest = self.digest_sink("low_out", ("seq", "v"))
        scale = graph.add(Map("scale", lambda p: {**p, "w": 3 * p["v"]}))
        even = graph.add(Filter("even", lambda e: e.payload["w"] % 2 == 0))
        even_out, self.even_digest = self.digest_sink("even_out", ("seq", "w"))
        for sink in (join_out, low_out, even_out):
            graph.add(sink)
        wl, wr = self.windows
        for producer, consumer in [(left, wl), (right, wr), (wl, join), (wr, join),
                                   (join, join_out), (left, low), (low, low_out),
                                   (right, scale), (scale, even), (even, even_out)]:
            graph.connect(producer, consumer)
        graph.freeze()
        install_estimates(graph)
        self.define_cost_item(join.metadata, COST_PER_RESULT,
                              [SelfDep(md.EST_CPU_USAGE), SelfDep(md.EST_OUTPUT_RATE)],
                              FailurePolicy())
        self.telemetry = self.system.enable_telemetry()
        self.exporter = self.telemetry.attach_exporter(
            MemorySink(), start=False, metrics_interval=None)
        self.join = join
        self.sources = (left, right)
        self.start_executor(graph, self.sources)
        self.consumer = (
            join.metadata.subscribe_many([md.EST_CPU_USAGE, md.EST_MEMORY_USAGE,
                                          md.EST_OUTPUT_RATE, md.MEMORY_USAGE,
                                          COST_PER_RESULT])
            + low.metadata.subscribe_many([md.EST_OUTPUT_RATE, md.SELECTIVITY])
            + even.metadata.subscribe_many([md.EST_OUTPUT_RATE]))

    def _advance_and_flush(self, time: float) -> None:
        self.executor.run_until(time)
        self.exporter.flush()

    def _recalibrate(self, cost: float) -> None:
        self.join.predicate_cost = cost
        self.join.metadata.notify_changed(md.PREDICATE_COST)

    def run(self, ops: Ops) -> None:
        sizes = [self.WINDOW_SIZES[0], self.WINDOW_SIZES[0]]
        advance = self.executor.run_until
        changes, reads = iter(self.changes), iter(self.reads)
        cycles = iter(range(len(self.cycles)))
        consumer = self.consumer
        index = 0
        for _ in range(self.rounds):
            for step in range(self.ELEMENTS_PER_ROUND):
                if step in self.QUERY_STARTS:
                    live = self._install_query(ops, next(cycles), index)
                elif step in self.QUERY_ENDS:
                    self._remove_query(ops, live, index)
                flush = step % self.FLUSH_EVERY == self.FLUSH_EVERY - 1
                self.element(ops, index, sizes,
                             self._advance_and_flush if flush else advance)
                index += 1
                if step % self.CHANGE_EVERY == self.CHANGE_EVERY - 1:
                    side, size, cost = next(changes)
                    if step % self.RESIZE_EVERY == self.RESIZE_EVERY - 1:
                        sizes[side] = size
                        ops.run("change", self.windows[side].set_size, size)
                    else:
                        ops.run("change", self._recalibrate, cost)
                if step % self.READ_EVERY == self.READ_EVERY - 1:
                    ops.run("read", consumer[next(reads)].get)

    def _install_query(self, ops: Ops, cycle: int, first: int) -> tuple:
        side, threshold = self.cycles[cycle]
        flt = Filter(f"cycle{cycle}", lambda e: e.payload["v"] >= threshold)
        sink, digest = self.digest_sink(f"cycle{cycle}_out", ("seq", "v"))
        ops.run("install", self._install_with_estimates,
                [flt, sink], [(self.sources[side], flt), (flt, sink)])
        subscriptions = self.subscribe(ops, flt.metadata, CYCLE_KEYS)
        return sink, digest, subscriptions, side, threshold, first

    def _install_with_estimates(self, nodes: list, connections: list) -> None:
        self.install(nodes, connections)
        install_estimates(self.graph)

    def _remove_query(self, ops: Ops, live: tuple, end: int) -> None:
        sink, digest, subscriptions, side, threshold, first = live
        self.cancel_all(ops, subscriptions)
        ops.run("uninstall", self.uninstall, sink)
        ops.cycles += 1
        self.check("cycle", digest.as_tuple(), stream_digest(
            (i, self.value[i]) for i in range(first, end)
            if self.side[i] == side and self.value[i] >= threshold))

    def final_check(self) -> None:
        n = self.rounds * self.ELEMENTS_PER_ROUND
        self.check("join", self.join_digest.as_tuple(),
                   window_join(self.join_arrivals(0, n), max(self.WINDOW_SIZES)))
        self.check("filter", self.low_digest.as_tuple(), stream_digest(
            (i, self.value[i]) for i in range(n)
            if self.side[i] == 0 and self.value[i] < 30))
        self.check("map", self.even_digest.as_tuple(), stream_digest(
            (i, 3 * self.value[i]) for i in range(n)
            if self.side[i] == 1 and 3 * self.value[i] % 2 == 0))
        # Quiescence: the streams have ended and a full metadata period has
        # passed, so every periodic input refreshed once after the last
        # element.  Between such refreshes the join's estimates can disagree
        # with their definitions, because they read the sweep areas' probe
        # fractions, which change without a change notification.
        self.executor.run_until(n + 2 * self.PERIOD)
        self.check_estimates()

