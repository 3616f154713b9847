"""``waves``: a large metadata DAG over a light element path.

Element path (fixed): ``src -> keep (v < 50) -> kept`` and
``src -> triple (w = 3v) -> tripled``.  The benchmark defines a metadata DAG
of 240 items on these five nodes' registries (items are placed round-robin;
a dependency on another node is a ``NodeDep``):

* 24 on-demand sources whose value is a benchmark-owned state cell;
* chains: sources 0-5 each start a chain of 10 triggered items;
* fan-outs: sources 6-11 each feed 8 items, which feed one sum item;
* diamonds: sources 12-17 each start 4 stacked diamonds (a -> b, c -> d);
* a mesh: sources 18-23 feed 5 layers of 6 items, each reading two items
  of the layer below, so changes to different sources share dependents.

216 triggered items, depth up to 10; every fourth carries a
``FailurePolicy`` that never fires.  Every item is subscribed.

Each round makes 100 changes in a seeded order: 80 update one source (20 in
each group) and call ``notify_changed``; 20 update 2, 3, 4 or 5 sources of
one node (5 of each size) and call ``notify_changed_many``, so their waves
coalesce.  Each change is followed by 4 reads of random items, one in ten
of them an on-demand source.  A round also hands 50 elements to the
runtime, one before every second change, and runs four query cycles: four
filters tapping ``src`` are installed at the start of the round and removed
at its end, so the wave plans cached during a round stay warm until then.
Telemetry is attached (events go to its ring and metric series; no exporter
drains it here, see the README).
"""

from __future__ import annotations

from typing import Any

from repro import Filter, Map, Mechanism, MetadataDefinition, Source
from repro import catalogue as md
from repro.metadata.item import MetadataKey, NodeDep, SelfDep
from repro.reliability import FailurePolicy

from base import SCHEMA, Workload
from core import Ops
from reference import evaluate_dag, stream_digest

MOD = 1_000_003
SOURCES = 24
CYCLE_KEYS = [md.SELECTIVITY, md.QUEUE_LENGTH, md.STATE_SIZE]


def build_dag() -> tuple[list[str], dict[str, list[str]]]:
    """The fixed DAG: item names in topological order and their deps."""
    order = [f"src{i}" for i in range(SOURCES)]
    deps: dict[str, list[str]] = {name: [] for name in order}

    def add(name: str, on: list[str]) -> str:
        order.append(name)
        deps[name] = on
        return name

    for c in range(6):
        previous = f"src{c}"
        for depth in range(10):
            previous = add(f"chain{c}.{depth}", [previous])
    for f in range(6):
        spokes = [add(f"fan{f}.{j}", [f"src{6 + f}"]) for j in range(8)]
        add(f"fan{f}.sum", spokes)
    for d in range(6):
        top = f"src{12 + d}"
        for level in range(4):
            left = add(f"dia{d}.{level}b", [top])
            right = add(f"dia{d}.{level}c", [top])
            top = add(f"dia{d}.{level}d", [left, right])
    below = [f"src{18 + j}" for j in range(6)]
    for layer in range(5):
        below = [add(f"mesh{layer}.{j}", [below[j], below[(j + 1) % 6]])
                 for j in range(6)]
    return order, deps


def combine(salt: int, values: list[int]) -> int:
    """Value of a DAG item from its dependencies' values (pure)."""
    total = salt
    for weight, value in enumerate(values, start=3):
        total += weight * value
    return total % MOD


class Waves(Workload):
    name = "waves"
    SINGLES_PER_GROUP = 20
    BATCH_SIZES = (2, 3, 4, 5)
    BATCHES_PER_SIZE = 5
    CHANGES_PER_ROUND = 4 * SINGLES_PER_GROUP + len(BATCH_SIZES) * BATCHES_PER_SIZE
    READS_PER_CHANGE = 4
    SOURCE_READS = CHANGES_PER_ROUND * READS_PER_CHANGE // 10
    ELEMENT_EVERY = 2
    CYCLES_PER_ROUND = 4

    def __init__(self, seed: int, rounds: int, tracer: Any = None,
                 corrupt: str | None = None) -> None:
        super().__init__(seed, rounds,
                         rounds * self.CHANGES_PER_ROUND // self.ELEMENT_EVERY,
                         tracer, corrupt)
        self.order, self.deps = build_dag()
        self.salt = {name: index for index, name in enumerate(self.order)}
        # Items downstream of each source, from the DAG description.
        self.reach = {}
        for i in range(SOURCES):
            reached = {f"src{i}"}
            for name in self.order:
                if any(dep in reached for dep in self.deps[name]):
                    reached.add(name)
            self.reach[f"src{i}"] = reached - {f"src{i}"}
        rng = self.rng
        self.initial = [rng.randrange(MOD) for _ in range(SOURCES)]
        # One change: [(source index, new value), ...]; a batch shares a node.
        # Every round has the same make-up, in its own seeded order.
        groups = [range(0, 6), range(6, 12), range(12, 18), range(18, SOURCES)]
        on_node = [[i for i in range(SOURCES) if i % 5 == node] for node in range(5)]
        self.changes = []
        self.reads = []
        for _ in range(rounds):
            slots = [[rng.choice(group)] for group in groups
                     for _ in range(self.SINGLES_PER_GROUP)]
            for size in self.BATCH_SIZES:
                for _ in range(self.BATCHES_PER_SIZE):
                    node = rng.choice([n for n in on_node if len(n) >= size])
                    slots.append(rng.sample(node, size))
            rng.shuffle(slots)
            self.changes += [[(i, rng.randrange(MOD)) for i in slot] for slot in slots]
            reads = [rng.randrange(SOURCES) for _ in range(self.SOURCE_READS)]
            reads += [rng.randrange(SOURCES, len(self.order)) for _ in range(
                len(slots) * self.READS_PER_CHANGE - self.SOURCE_READS)]
            rng.shuffle(reads)
            self.reads += reads
        self.cycles = [rng.randrange(20, 80)
                       for _ in range(rounds * self.CYCLES_PER_ROUND)]

    def setup(self) -> None:
        graph = self.new_graph()
        src = graph.add(Source("src", SCHEMA))
        keep = graph.add(Filter("keep", lambda e: e.payload["v"] < 50))
        triple = graph.add(Map("triple", lambda p: {**p, "w": 3 * p["v"]}))
        kept, self.kept_digest = self.digest_sink("kept", ("seq", "v"))
        tripled, self.tripled_digest = self.digest_sink("tripled", ("seq", "w"))
        graph.add(kept)
        graph.add(tripled)
        for producer, consumer in [(src, keep), (keep, kept),
                                   (src, triple), (triple, tripled)]:
            graph.connect(producer, consumer)
        graph.freeze()
        self.source = src
        self.nodes = [src, keep, kept, triple, tripled]
        self.state = list(self.initial)
        self.expected: dict[str, int] = {}
        self.expected = self._evaluate(self.order[SOURCES:])
        self._define_dag()
        self.telemetry = self.system.enable_telemetry()
        self.start_executor(graph, [src])
        self.subscriptions: dict[str, Any] = {}
        for node_index, node in enumerate(self.nodes):
            names = [name for name in self.order
                     if self.salt[name] % 5 == node_index]
            for name, subscription in zip(names, node.metadata.subscribe_many(
                    [MetadataKey(f"dag.{name}") for name in names])):
                self.subscriptions[name] = subscription
        self.monitoring = (src.metadata.subscribe(md.OUTPUT_RATE),
                           keep.metadata.subscribe(md.SELECTIVITY))

    def _define_dag(self) -> None:
        policy = FailurePolicy()
        wrap = self.tracer.wrap if self.tracer is not None else None
        for name in self.order:
            salt = self.salt[name]
            node = self.nodes[salt % 5]
            key = MetadataKey(f"dag.{name}")
            if name.startswith("src"):
                index = int(name[3:])
                compute = lambda ctx, index=index: self.state[index]  # noqa: E731
                mechanism, deps = Mechanism.ON_DEMAND, []
            else:
                dep_keys = [MetadataKey(f"dag.{dep}") for dep in self.deps[name]]
                compute = lambda ctx, salt=salt, dep_keys=dep_keys: combine(  # noqa: E731
                    salt, [ctx.value(dep) for dep in dep_keys])
                mechanism = Mechanism.TRIGGERED
                deps = [SelfDep(dep_key) if self.salt[dep] % 5 == salt % 5
                        else NodeDep(self.nodes[self.salt[dep] % 5], dep_key)
                        for dep, dep_key in zip(self.deps[name], dep_keys)]
            if wrap is not None:
                compute = wrap(compute, "handler.compute")
            node.metadata.define(MetadataDefinition(
                key, mechanism, compute=compute, dependencies=deps,
                failure_policy=policy if salt % 4 == 0 and deps else None,
                description="benchmark DAG item"))

    def run(self, ops: Ops) -> None:
        changes, reads = iter(self.changes), iter(self.reads)
        order, subscriptions = self.order, self.subscriptions
        index = 0
        for round_ in range(self.rounds):
            live = [self._install_query(ops, round_ * self.CYCLES_PER_ROUND + i, index)
                    for i in range(self.CYCLES_PER_ROUND)]
            for step in range(self.CHANGES_PER_ROUND):
                if step % self.ELEMENT_EVERY == 0:
                    self.element(ops, index, (0.0, 0.0), self.executor.run_until)
                    index += 1
                self._change(ops, next(changes))
                for _ in range(self.READS_PER_CHANGE):
                    name = order[next(reads)]
                    value = ops.run("read", subscriptions[name].get)
                    self.check("read", value, self.expected[name])
            for query in live:
                self._remove_query(ops, query, index)

    def _change(self, ops: Ops, change: list[tuple[int, int]]) -> None:
        for source, value in change:
            self.state[source] = value
        names = [f"src{source}" for source, _ in change]
        node = self.nodes[self.salt[names[0]] % 5]
        before = self.system.stats()
        if len(names) == 1:
            ops.run("change", node.metadata.notify_changed,
                    MetadataKey(f"dag.{names[0]}"))
        else:
            ops.run("change", node.metadata.notify_changed_many,
                    [MetadataKey(f"dag.{name}") for name in names])
        after = self.system.stats()
        delta = {key: after[key] - before[key] for key in
                 ("waves", "planned", "refreshes", "skipped_poisoned", "errors")}
        self.check("waves", delta["waves"], len(names))
        self.check("planned", delta["planned"],
                   delta["refreshes"] + delta["skipped_poisoned"])
        self.check("errors", delta["errors"], 0)
        affected = set().union(*(self.reach[name] for name in names))
        self.expected = self._evaluate([n for n in self.order if n in affected])
        if self.corrupt == "dag":
            self.expected["chain0.9"] += 1
            affected.add("chain0.9")
        self._check_values(affected)

    def _evaluate(self, order: list[str]) -> dict[str, int]:
        """Reference values: ``order`` evaluated from the current source
        states and the previous reference values."""
        known = dict(self.expected)
        known.update((f"src{i}", value) for i, value in enumerate(self.state))
        return evaluate_dag(order, self.deps,
                            lambda name, values: combine(self.salt[name], values),
                            known)

    def _check_values(self, names: set[str]) -> None:
        """The values of ``names``, read through their subscriptions, equal
        the reference values."""
        for name in names:
            value = self.subscriptions[name].get()
            if value != self.expected[name]:
                self.errors.append(f"waves: dag: {name} reads {value}, "
                                   f"evaluation gives {self.expected[name]}")
                return

    def _install_query(self, ops: Ops, cycle: int, first: int) -> tuple:
        threshold = self.cycles[cycle]
        flt = Filter(f"cycle{cycle}", lambda e: e.payload["v"] >= threshold)
        sink, digest = self.digest_sink(f"cycle{cycle}_out", ("seq", "v"))
        ops.run("install", self.install, [flt, sink],
                [(self.source, flt), (flt, sink)])
        subscriptions = self.subscribe(ops, flt.metadata, CYCLE_KEYS)
        return sink, digest, subscriptions, threshold, first

    def _remove_query(self, ops: Ops, live: tuple, end: int) -> None:
        sink, digest, subscriptions, threshold, first = live
        self.cancel_all(ops, subscriptions)
        ops.run("uninstall", self.uninstall, sink)
        ops.cycles += 1
        self.check("cycle", digest.as_tuple(), stream_digest(
            (i, self.value[i]) for i in range(first, end)
            if self.value[i] >= threshold))

    def final_check(self) -> None:
        n = self.rounds * self.CHANGES_PER_ROUND // self.ELEMENT_EVERY
        self.expected = self._evaluate(self.order[SOURCES:])
        self._check_values(set(self.order))
        self.check("filter", self.kept_digest.as_tuple(), stream_digest(
            (i, self.value[i]) for i in range(n) if self.value[i] < 50))
        self.check("map", self.tripled_digest.as_tuple(), stream_digest(
            (i, 3 * self.value[i]) for i in range(n)))
