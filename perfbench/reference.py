"""Reference computations the benchmark makes apart from the program.

Every correctness check compares what the program produced with one of
these functions, evaluated over the benchmark's own record of its inputs:

* :func:`window_join` — a nested-loop sliding-window equi-join with exact
  validity semantics (an element is valid in ``[t, t + window)``);
* :func:`stream_digest` — count and order-independent checksum of a
  selection over the raw inputs;
* :func:`evaluate_dag` — topological evaluation of a metadata DAG from its
  source states;
* :func:`closure` — the set of metadata items a set of subscriptions must
  keep included, from a description of the item definitions.

Digests are tuples of exact integers, so comparisons are exact.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Hashable, Iterable, Sequence


class Digest:
    """Order-independent digest of a result stream: count and three sums."""

    __slots__ = ("count", "sum_a", "sum_b", "sum_ab")

    def __init__(self) -> None:
        self.count = 0
        self.sum_a = 0
        self.sum_b = 0
        self.sum_ab = 0

    def add(self, a: int, b: int = 0) -> None:
        self.count += 1
        self.sum_a += a
        self.sum_b += b
        self.sum_ab += a * b

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.count, self.sum_a, self.sum_b, self.sum_ab)


def window_join(arrivals: Sequence[tuple[float, int, int, int, float]],
                max_window: float,
                keep: Callable[[int, int], bool] | None = None,
                ) -> tuple[int, int, int, int]:
    """Digest of a two-input sliding-window equi-join.

    ``arrivals`` are ``(time, side, key, seq, expiry)`` in arrival order
    (strictly increasing times).  A later element ``b`` joins an earlier
    element ``a`` of the other side with the same key exactly when ``a`` is
    still valid at ``b``'s time: ``a.expiry > b.time``.  No element is valid
    for longer than ``max_window``, which bounds the nested loop.  Each
    match adds ``(left seq, right seq)`` to the digest, if ``keep`` (a
    selection on the pair) accepts it.
    """
    digest = Digest()
    seen: dict[tuple[int, int], list] = defaultdict(list)
    for time, side, key, seq, expiry in arrivals:
        earliest = time - max_window
        others = seen[(1 - side, key)]
        for index in range(len(others) - 1, -1, -1):
            other_time, other_seq, other_expiry = others[index]
            if other_time <= earliest:
                break
            if other_expiry > time:
                pair = (seq, other_seq) if side == 0 else (other_seq, seq)
                if keep is None or keep(*pair):
                    digest.add(*pair)
        seen[(side, key)].append((time, seq, expiry))
    return digest.as_tuple()


def stream_digest(values: Iterable[tuple[int, int]]) -> tuple[int, int, int, int]:
    """Digest of ``(a, b)`` pairs, e.g. ``(seq, transformed value)``."""
    digest = Digest()
    for a, b in values:
        digest.add(a, b)
    return digest.as_tuple()


def evaluate_dag(order: Sequence[Hashable],
                 deps: dict[Hashable, Sequence[Hashable]],
                 fn: Callable[[Hashable, list], int],
                 known: dict[Hashable, int]) -> dict[Hashable, int]:
    """Evaluate the items of a DAG listed in topological ``order``.

    Each is ``fn(item, [values of its deps])``, with values taken from
    ``known`` (source states, and items not in ``order``) or from items
    evaluated earlier in ``order``.  Returns ``known`` updated.
    """
    values: dict[Hashable, int] = dict(known)
    for item in order:
        values[item] = fn(item, [values[dep] for dep in deps[item]])
    return values


def closure(roots: Iterable[Hashable],
            deps: Callable[[Hashable], Sequence[Hashable]]) -> set:
    """Every item reachable from ``roots`` through ``deps`` (roots included)."""
    result: set = set()
    stack = list(roots)
    while stack:
        item = stack.pop()
        if item in result:
            continue
        result.add(item)
        stack.extend(deps(item))
    return result
