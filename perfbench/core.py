"""Operation timing, failure accounting and result statistics.

Every workload drives the program through :meth:`Ops.run`, which times one
operation of a named kind, counts it as attempted, and counts it as failed
(instead of aborting the run) when it raises.  Timing uses
``time.perf_counter_ns`` around the public call only; reference
computations and correctness checks run outside the timed calls.

Between operations, about every 5 ms, :class:`Calibration` times a fixed
piece of interpreter work.  The end-to-end times are divided by the host
speed it shows around them, so that a slow stretch of a shared host does
not read as a slower program (see the README).
"""

from __future__ import annotations

import resource
import statistics
import sys
import time
import traceback
from array import array
from typing import Any, Callable

from repro.telemetry.sinks import ExportSink

#: Operation kinds a run attempts.  ``install``/``uninstall`` are the
#: query-management halves of a query cycle; ``subscribe``/``cancel`` are
#: its metadata halves.
KINDS = ("element", "change", "read", "install", "subscribe", "cancel", "uninstall")

#: The kinds whose summed time makes up one query cycle's cost.
QUERY_KINDS = ("install", "subscribe", "cancel", "uninstall")

FAILED = object()

#: A :class:`Calibration` is timed between operations about this often.
CALIBRATE_EVERY_NS = 5_000_000
#: Time of one calibration on the reference host when it is quiet; times
#: are reported as if the host ran at that speed.
REFERENCE_NS = 50_000


class _Cell:
    __slots__ = ("key", "value", "links")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value
        self.links: list = []

    def total(self) -> int:
        value = self.value
        for link in self.links:
            value += link.value
        return value


class Calibration:
    """A fixed piece of interpreter work of the kind the program does —
    attribute reads, method calls, dict and list lookups — that allocates
    nothing, so running it does not move the garbage collector's schedule."""

    CELLS = 256

    def __init__(self) -> None:
        self.cells = [_Cell(i % 16, i) for i in range(self.CELLS)]
        self.index: dict = {}
        for cell in self.cells:
            self.index.setdefault(cell.key, []).append(cell)
        for cell in self.cells:
            cell.links = self.index[cell.key][:3]

    def work(self) -> int:
        total = 0
        index = self.index
        for cell in self.cells:
            total += cell.total() + len(index[cell.key])
        return total

    def ns(self) -> int:
        """Time of one run of :meth:`work`."""
        start = time.perf_counter_ns()
        self.work()
        return time.perf_counter_ns() - start


class Ops:
    """Times operations by kind and counts attempts and failures."""

    def __init__(self, tracer: Any = None) -> None:
        self.samples = {kind: array("q") for kind in KINDS}
        self.attempted = dict.fromkeys(KINDS, 0)
        self.failed = dict.fromkeys(KINDS, 0)
        self.cycles = 0
        self.tracer = tracer
        self._reported = 0
        #: Calibration durations (ns) and, for each, the sample counts by
        #: kind (in :data:`KINDS` order) when it ran; together they cut the
        #: run into segments.  Both are flat arrays, so that calibrating
        #: allocates no object the garbage collector counts: the timing of
        #: calibrations must not move its schedule.
        self.calibration = Calibration()
        self.calibrations = array("q")
        self.marks = array("q")
        self._next_calibration = 0

    def run(self, kind: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn(*args)`` as one timed operation of ``kind``.

        Returns the call's result, or :data:`FAILED` when it raised.
        """
        self.attempted[kind] += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(kind)
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        except Exception:  # noqa: BLE001 - a failed operation is counted, the run goes on
            self.failed[kind] += 1
            if self._reported < 3:
                self._reported += 1
                print(f"operation {kind} failed:\n{traceback.format_exc()}",
                      file=sys.stderr)
            if tracer is not None:
                tracer.end_op()
            return FAILED
        end = time.perf_counter_ns()
        self.samples[kind].append(end - start)
        if tracer is not None:
            tracer.end_op()
        if end >= self._next_calibration:
            self.calibrate()
        return result

    def calibrate(self) -> None:
        """Run a calibration and mark the samples taken so far."""
        self.calibrations.append(self.calibration.ns())
        samples = self.samples
        for kind in KINDS:
            self.marks.append(len(samples[kind]))
        self._next_calibration = time.perf_counter_ns() + CALIBRATE_EVERY_NS

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


class MemorySink(ExportSink):
    """In-memory export sink: keeps counts, not records, so memory stays flat."""

    name = "memory"

    def __init__(self) -> None:
        self.records = 0

    def write_batch(self, records: list) -> None:
        self.records += len(records)


def quantile(sorted_values: list, q: float) -> float:
    """Nearest-rank quantile of an ascending list (``q`` in [0, 1])."""
    if not sorted_values:
        raise ValueError("no samples")
    index = min(len(sorted_values) - 1, max(0, int(q * len(sorted_values))))
    return sorted_values[index]


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux reports KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def speed_factors(ops: Ops, window: int = 4) -> dict[str, list[float]]:
    """Each sample's host speed factor, by kind.

    Samples taken just before calibration ``j`` get the median of
    calibrations ``j - window .. j + window`` over :data:`REFERENCE_NS`; a
    factor of 1.1 means the host ran 10% slower than the reference.
    """
    calibrations = ops.calibrations
    factors = [statistics.median(calibrations[max(0, j - window):j + window + 1])
               / REFERENCE_NS for j in range(len(calibrations))]
    by_kind = {}
    for k, kind in enumerate(KINDS):
        per_sample: list[float] = []
        start = 0
        for mark, factor in zip(ops.marks[k::len(KINDS)], factors):
            per_sample.extend([factor] * (mark - start))
            start = mark
        per_sample.extend([factors[-1]] * (len(ops.samples[kind]) - start))
        by_kind[kind] = per_sample
    return by_kind


def end_to_end(ops: Ops, setup_seconds: list[float]) -> dict[str, dict]:
    """The end-to-end metrics of one run, by name, with units; operation
    times are divided by their host speed factor."""
    factors = speed_factors(ops)

    def us(kind: str) -> list:
        return sorted(ns / 1000.0 / f for ns, f in zip(ops.samples[kind], factors[kind]))

    def per_second(count: int, kinds: tuple) -> float:
        busy = sum(ns / f for kind in kinds
                   for ns, f in zip(ops.samples[kind], factors[kind])) / 1e9
        return count / busy

    element, change = us("element"), us("change")
    read, subscribe, cancel = us("read"), us("subscribe"), us("cancel")
    setups = sorted(setup_seconds)
    metrics = {
        "elements_per_s": (per_second(len(element), ("element",)), "1/s"),
        "changes_per_s": (per_second(len(change), ("change",)), "1/s"),
        "queries_per_s": (per_second(ops.cycles, QUERY_KINDS), "1/s"),
        "element_p50_us": (quantile(element, 0.50), "us"),
        "element_p99_us": (quantile(element, 0.99), "us"),
        "wave_p50_us": (quantile(change, 0.50), "us"),
        "wave_p99_us": (quantile(change, 0.99), "us"),
        "read_p50_us": (quantile(read, 0.50), "us"),
        "subscribe_p50_us": (quantile(subscribe, 0.50), "us"),
        "subscribe_p90_us": (quantile(subscribe, 0.90), "us"),
        "cancel_p50_us": (quantile(cancel, 0.50), "us"),
        "setup_s": (setups[len(setups) // 2], "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}
