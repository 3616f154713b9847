"""``churn``: queries installed and removed on a base plan with shared windows.

Base plan (fixed): sources ``left`` and ``right`` feed shared time windows
``wl`` and ``wr`` into a hash join ``base`` (key ``k``) that feeds
``base_out``; a consumer subscribes the base join's estimated CPU and memory
usage.  Telemetry is off.

Each round installs one query on the shared windows: a new hash join of
``wl`` and ``wr``, followed by 0-3 filters on the result pairs (each length once in every
four rounds), then a sink.
It defines a consumer item with a failure policy on the new join and
subscribes the join's Figure-3 estimates, its measured memory and that
item in one ``subscribe_many`` — the cascades below the join (window
validities and rate estimates, source rates) are shared with the base plan
and the other live queries.  Four queries are live at once, so the round
then cancels the oldest query's subscriptions and uninstalls it.  Between
the two, the round hands 12 elements to the runtime, makes 10 changes
(alternately a shared-window resize and a predicate-cost recalibration of a
live join) and 10 reads of a random live query's subscriptions, taking its
four items in turn.

After every query cycle the included metadata equals the closure of the
live subscriptions computed from :data:`DEFINITIONS`, the benchmark's own
description of the items involved, and the handler and registry counts
match that description.  Every query's sink output is checked against
the reference join over the elements that arrived while it was live.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro import Filter, SlidingWindowJoin, TimeWindow
from repro import catalogue as md
from repro.metadata.item import MetadataKey, SelfDep
from repro.operators.sweeparea import PROBE_FRACTION
from repro.reliability import FailurePolicy

from base import Workload, join_key
from core import Ops
from reference import closure, window_join

QUERY_COST = MetadataKey("bench.query_cost")
QUERY_KEYS = [md.EST_CPU_USAGE, md.EST_MEMORY_USAGE, md.MEMORY_USAGE, QUERY_COST]
BASE_KEYS = [md.EST_CPU_USAGE, md.EST_MEMORY_USAGE]

Deps = Callable[[str, list], list]
#: Dependencies of every item the workload includes, by (node kind, key):
#: ``deps(node, upstream nodes) -> [(node, key), ...]``.  Items not listed
#: have none.  Join modules are named ``<join>.sweep0`` and ``<join>.sweep1``.
DEFINITIONS: dict[tuple[str, MetadataKey], Deps] = {
    ("join", md.EST_CPU_USAGE): lambda n, up: (
        [(u, md.EST_OUTPUT_RATE) for u in up]
        + [(u, md.EST_ELEMENT_VALIDITY) for u in up]
        + [(n, md.PREDICATE_COST), (f"{n}.sweep0", PROBE_FRACTION),
           (f"{n}.sweep1", PROBE_FRACTION)]),
    ("join", md.EST_MEMORY_USAGE): lambda n, up: (
        [(u, md.EST_OUTPUT_RATE) for u in up]
        + [(u, md.EST_ELEMENT_VALIDITY) for u in up]),
    ("join", md.MEMORY_USAGE): lambda n, up: [
        (f"{n}.sweep0", md.MEMORY_USAGE), (f"{n}.sweep1", md.MEMORY_USAGE)],
    ("join", QUERY_COST): lambda n, up: [
        (n, md.EST_CPU_USAGE), (n, md.EST_MEMORY_USAGE)],
    ("window", md.EST_OUTPUT_RATE): lambda n, up: [(up[0], md.EST_OUTPUT_RATE)],
    ("window", md.EST_ELEMENT_VALIDITY): lambda n, up: [(n, md.WINDOW_SIZE)],
    ("source", md.EST_OUTPUT_RATE): lambda n, up: [(n, md.OUTPUT_RATE)],
}

#: Registries a hash join owns: itself, two sweep areas, their two indexes.
JOIN_REGISTRIES = 5


def pair_filter(level: int) -> Callable[[int, int], bool]:
    """Selection number ``level`` of a query's filter chain on (seq, seq_r)."""
    return lambda a, b: (a + b) % (level + 3) != 0


class Churn(Workload):
    name = "churn"
    LIVE = 4
    ELEMENTS_PER_ROUND = 12
    CHANGES_PER_ROUND = 10
    READS_PER_ROUND = 10
    MAX_FILTERS = 3

    def __init__(self, seed: int, rounds: int, tracer: Any = None,
                 corrupt: str | None = None) -> None:
        super().__init__(seed, rounds, rounds * self.ELEMENTS_PER_ROUND,
                         tracer, corrupt)
        rng = self.rng
        # Every block of four rounds installs one query of each length.
        self.lengths = []
        while len(self.lengths) < rounds:
            block = list(range(self.MAX_FILTERS + 1))
            rng.shuffle(block)
            self.lengths += block
        self.changes = [(rng.getrandbits(1), rng.choice(self.WINDOW_SIZES),
                         rng.random(), rng.uniform(0.5, 2.0))
                        for _ in range(rounds * self.CHANGES_PER_ROUND)]
        self.reads = [rng.random() for _ in range(rounds * self.READS_PER_ROUND)]

    def setup(self) -> None:
        graph = self.new_graph()
        left, right = self.add_sources(graph)
        self.windows = (graph.add(TimeWindow("wl", self.WINDOW_SIZES[0])),
                        graph.add(TimeWindow("wr", self.WINDOW_SIZES[0])))
        base = graph.add(SlidingWindowJoin("base", impl="hash", key_fn=join_key))
        base_out, self.base_digest = self.digest_sink("base_out", ("seq", "seq_r"))
        graph.add(base_out)
        wl, wr = self.windows
        for producer, consumer in [(left, wl), (right, wr), (wl, base),
                                   (wr, base), (base, base_out)]:
            graph.connect(producer, consumer)
        graph.freeze()
        self.start_executor(graph, (left, right))
        self.kinds = {"left": "source", "right": "source", "wl": "window",
                      "wr": "window"}
        self.upstream = {"wl": ["left"], "wr": ["right"]}
        # Module registries are owned by sweep areas and their indexes, which
        # have no unique name; they are labelled by identity while live.
        self.labels: dict[int, str] = {}
        self._describe_join(base)
        self.base_subscriptions = base.metadata.subscribe_many(BASE_KEYS)
        self.base_registries = len(self.system.registries())
        self.base_handlers = self.system.stats()["handlers_included"]
        self.live: deque = deque()

    def _describe_join(self, join: SlidingWindowJoin) -> None:
        """Record a join's kind, inputs and module names in the description."""
        self.kinds[join.name] = "join"
        self.upstream[join.name] = ["wl", "wr"]
        for sweep in join.sweeps:
            self.labels[id(sweep)] = f"{join.name}.{sweep.name}"
            self.kinds[f"{join.name}.{sweep.name}"] = "sweep"
            for module in sweep.submodules():
                self.labels[id(module)] = f"{join.name}.{sweep.name}.{module.name}"

    # -- the timed script ------------------------------------------------------

    def run(self, ops: Ops) -> None:
        sizes = [self.WINDOW_SIZES[0], self.WINDOW_SIZES[0]]
        changes, reads = iter(self.changes), iter(self.reads)
        advance = self.executor.run_until
        index = 0
        for round_ in range(self.rounds):
            self._install_query(ops, round_, index)
            if len(self.live) > self.LIVE:
                self._retire_oldest(ops, index)
            for step in range(self.ELEMENTS_PER_ROUND):
                self.element(ops, index, sizes, advance)
                index += 1
                if step < self.CHANGES_PER_ROUND:
                    self._change(ops, next(changes), sizes, resize=step % 2 == 0)
                if step < self.READS_PER_ROUND:
                    query = self.live[int(next(reads) * len(self.live))]
                    subscriptions = query["subs"]
                    ops.run("read", subscriptions[step % len(subscriptions)].get)
        while self.live:
            self._retire_oldest(ops, index)

    def _change(self, ops: Ops, change: tuple, sizes: list, resize: bool) -> None:
        side, size, pick, cost = change
        if resize:
            sizes[side] = size
            ops.run("change", self.windows[side].set_size, size)
        else:
            join = self.live[int(pick * len(self.live))]["join"]
            ops.run("change", self._recalibrate, join, cost)

    @staticmethod
    def _recalibrate(join: SlidingWindowJoin, cost: float) -> None:
        join.predicate_cost = cost
        join.metadata.notify_changed(md.PREDICATE_COST)

    def _install_query(self, ops: Ops, round_: int, first: int) -> None:
        name = f"q{round_}"
        join = SlidingWindowJoin(name, impl="hash", key_fn=join_key)
        filters = []
        for level in range(self.lengths[round_]):
            keep = pair_filter(level)
            filters.append(Filter(f"{name}.f{level}", lambda e, keep=keep:
                                  keep(e.payload["seq"], e.payload["seq_r"])))
        sink, digest = self.digest_sink(f"{name}.out", ("seq", "seq_r"))
        chain = [join, *filters, sink]
        connections = [(self.windows[0], join), (self.windows[1], join)]
        connections += list(zip(chain, chain[1:]))
        ops.run("install", self._install_with_item, chain, connections, join)
        self._describe_join(join)
        subscriptions = self.subscribe(ops, join.metadata, QUERY_KEYS)
        self.live.append({"join": join, "sink": sink, "digest": digest,
                          "subs": subscriptions, "first": first,
                          "filters": len(filters)})

    def _install_with_item(self, nodes: list, connections: list,
                           join: SlidingWindowJoin) -> None:
        self.install(nodes, connections)
        self.define_cost_item(join.metadata, QUERY_COST,
                              [SelfDep(md.EST_CPU_USAGE), SelfDep(md.EST_MEMORY_USAGE)],
                              FailurePolicy())

    def _retire_oldest(self, ops: Ops, end: int) -> None:
        query = self.live.popleft()
        self.cancel_all(ops, query["subs"])
        ops.run("uninstall", self.uninstall, query["sink"])
        ops.cycles += 1
        for sweep in query["join"].sweeps:
            for module in (sweep, *sweep.submodules()):
                del self.labels[id(module)]
        levels = [pair_filter(level) for level in range(query["filters"])]
        self.check("cycle", query["digest"].as_tuple(), window_join(
            self.join_arrivals(query["first"], end), max(self.WINDOW_SIZES),
            lambda a, b: all(keep(a, b) for keep in levels)))
        self.check_included()

    # -- checks ------------------------------------------------------------------

    def check_included(self) -> None:
        """Included items, handler count and registry count against the
        closure of the live subscriptions under :data:`DEFINITIONS`."""
        roots = [("base", key) for key in BASE_KEYS]
        registries = self.base_registries
        for query in self.live:
            roots += [(query["join"].name, key) for key in QUERY_KEYS]
            registries += JOIN_REGISTRIES + query["filters"] + 1
        expected = closure(roots, self._deps)
        included = set()
        for registry in self.system.registries():
            owner = registry.owner
            label = self.labels.get(id(owner), getattr(owner, "name", "?"))
            included.update((label, key) for key in registry.included_keys())
        self.check("closure", included, expected)
        self.check("handlers", self.system.stats()["handlers_included"], len(expected))
        self.check("registries", len(self.system.registries()), registries)

    def _deps(self, item: tuple[str, MetadataKey]) -> list:
        node, key = item
        deps = DEFINITIONS.get((self.kinds.get(node, ""), key))
        return deps(node, self.upstream.get(node, [])) if deps else []

    def final_check(self) -> None:
        n = self.rounds * self.ELEMENTS_PER_ROUND
        self.check("join", self.base_digest.as_tuple(),
                   window_join(self.join_arrivals(0, n), max(self.WINDOW_SIZES)))
        self.check("handlers", self.system.stats()["handlers_included"],
                   self.base_handlers)
        self.check("registries", len(self.system.registries()), self.base_registries)
        self.check_included()
