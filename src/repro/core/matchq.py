"""The indexed FIFO matching queue of the tag-matching hot path.

Both matching engines of the reproduction — the UCP worker's
posted/unexpected queues (:mod:`repro.ucx.worker`) and AMPI's
``(comm, src, tag)`` queues (:mod:`repro.ampi.matching`) — historically were
plain Python lists scanned linearly on every arrival/post.  That is faithful
to the *semantics* of UCX and AMPI matching but makes the host-side cost of
a simulation step O(queue length), which dominates wall-clock at large PE
counts with many outstanding messages.

This module provides :class:`IndexedMatchQueue` — exact-key hash buckets
plus a wildcard fallback list, the structure real UCX (and the MPICH
tag-matching extensions) use.  Exact lookups are O(1) amortised.  Both
engines construct it directly.  The linear FIFO scan it replaced lives on as
the test oracle ``tests/oracles/linear_matchq.py``, against which
``tests/test_matching_golden.py`` holds it to *bit-identical matching order
and modeled cost*:

* every entry carries a per-queue FIFO **slot** (a monotonically increasing
  sequence number); when an exact-bucket candidate and a wildcard candidate
  both match, the one with the smaller slot wins — exactly what a linear
  FIFO scan would have picked;
* the **virtual scan length** (how many live entries a linear scan would
  have inspected up to and including the match) is still reported for every
  match, via a Fenwick tree over live slots, so the modeled
  ``tag_match_cost * scanned`` delay is unchanged even though the host-side
  lookup no longer performs that scan.

Contract for keys: an entry filed under key ``K`` must match *exactly* the
lookups performed with key ``K`` (full-mask UCP tags; wildcard-free
``(comm, src, tag)`` triples).  Entries that can match more than one key
(masked tags, ``ANY_SOURCE``/``ANY_TAG`` receives) are filed with
``key=None`` and live in the wildcard fallback list; lookups that can match
more than one key pass ``key=None`` and fall back to a full FIFO scan.
``pred`` is the ground-truth match predicate and is always honoured for
wildcard entries/lookups.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import (Any, Callable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

__all__ = ["DepthRecordingQueue", "IndexedMatchQueue"]


# -- the Fenwick tree ---------------------------------------------------------
# A binary indexed tree over slot liveness (1 = live, 0 = removed), kept as a
# plain list: ``tree[0]`` is unused and ``tree[i]`` covers the 1-based range
# ``(i - (i & -i), i]``.  ``_prefix(tree, slot + 1)`` -- the number of live
# slots at positions ``<= slot`` -- is exactly the 1-based position a linear
# FIFO scan would have reported for the entry at ``slot``, which is what keeps
# the modeled scan cost of the indexed queue bit-identical to the linear one.

def _prefix(tree: List[int], i: int) -> int:
    """Sum of 1-based positions ``1..i``."""
    s = 0
    while i > 0:
        s += tree[i]
        i -= i & -i
    return s


def _fen_append(tree: List[int], value: int) -> None:
    """Extend the tree by one slot holding ``value`` (O(log n))."""
    i = len(tree)
    lb = i & -i
    if lb == 1:  # tree[i] covers the new element alone
        tree.append(value)
        return
    # tree[i] covers (i - lb, i]; everything but the new element is already
    # summed in existing prefixes
    s = _prefix(tree, i - 1) - _prefix(tree, i - lb)
    tree.append(s + value)


def _fen_add(tree: List[int], slot: int, delta: int) -> None:
    """Add ``delta`` at 0-based ``slot``."""
    i = slot + 1
    n = len(tree) - 1
    while i <= n:
        tree[i] += delta
        i += i & -i


def _all_live(n: int) -> List[int]:
    """A tree of ``n`` slots, all live (O(n))."""
    return [0] + [(i & -i) for i in range(1, n + 1)]


#: the bucket index of a queue nothing was ever filed in
_NO_BUCKETS = MappingProxyType({})


class IndexedMatchQueue:
    """Hash-bucketed FIFO matching queue with a wildcard fallback list.

    Removed entries are tombstoned (``None``) and physically compacted once
    they outnumber the live entries, so slots stay small and iteration stays
    amortised O(live).  Buckets and the wildcard list hold the slot indices
    of live entries only: a removal takes its slot out at once, and a bucket
    goes with its last entry.  A queue that holds nothing -- never used,
    or drained -- holds shared empty stand-ins; the next :meth:`append`
    builds its containers.  Dropping them on drain moves no match and no
    scan count: every earlier slot is dead, so FIFO order and live ranks
    restart unchanged at slot 0.
    """

    __slots__ = ("_slots", "_keys", "_buckets", "_wild", "_fen", "_live",
                 "_dead")

    #: tombstones tolerated before a physical compaction
    _COMPACT_SLACK = 64

    def __init__(self) -> None:
        self._slots: Sequence[Any] = ()  # item, or None once removed
        self._keys: Sequence[Any] = ()  # key the item was filed under
        # key -> its live slots, FIFO
        self._buckets: Mapping[Any, List[int]] = _NO_BUCKETS
        self._wild: Sequence[int] = ()  # slots of wildcard entries, FIFO
        self._fen: Optional[List[int]] = None  # the Fenwick tree
        self._live = 0
        self._dead = 0

    # -- mutation -----------------------------------------------------------
    def append(self, item: Any, key: Any = None) -> None:
        fen = self._fen
        if fen is None:  # first use
            self._slots, self._keys, self._wild, self._buckets = [], [], [], {}
            self._fen = fen = [0]
        slot = len(self._slots)
        self._slots.append(item)
        self._keys.append(key)
        _fen_append(fen, 1)
        self._live += 1
        if key is None:
            self._wild.append(slot)
        else:
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [slot]
            else:
                bucket.append(slot)

    def _kill(self, slot: int) -> Any:
        item = self._slots[slot]
        if self._live == 1:  # the last live entry: the queue drains
            self._slots = self._keys = self._wild = ()
            self._buckets, self._fen, self._live, self._dead = _NO_BUCKETS, None, 0, 0
            return item
        self._slots[slot] = None
        key = self._keys[slot]
        if key is None:
            self._wild.remove(slot)
        else:
            bucket = self._buckets[key]
            if len(bucket) == 1:
                del self._buckets[key]
            else:
                bucket.remove(slot)
        _fen_add(self._fen, slot, -1)
        self._live -= 1
        self._dead += 1
        if self._dead > self._live + self._COMPACT_SLACK:
            self._compact()
        return item

    def _compact(self) -> None:
        live = [
            (k, it) for k, it in zip(self._keys, self._slots) if it is not None
        ]
        self._slots = [it for _k, it in live]
        self._keys = [k for k, _it in live]
        self._buckets = {}
        self._wild = []
        for slot, (k, _it) in enumerate(live):
            if k is None:
                self._wild.append(slot)
            else:
                bucket = self._buckets.get(k)
                if bucket is None:
                    self._buckets[k] = [slot]
                else:
                    bucket.append(slot)
        self._fen = _all_live(len(live))
        self._dead = 0

    # -- candidate search ----------------------------------------------------
    def _find(self, key: Any, pred: Callable[[Any], bool]) -> Optional[int]:
        slots = self._slots
        if key is None:
            # wildcard lookup: semantics require the earliest live entry of
            # *any* key that satisfies pred — a genuine FIFO scan.
            for slot, item in enumerate(slots):
                if item is not None and pred(item):
                    return slot
            return None
        bucket = self._buckets.get(key)
        exact = None if bucket is None else bucket[0]
        # a wildcard entry filed before the bucket's head wins
        for slot in self._wild:
            if exact is not None and slot >= exact:
                break
            if pred(slots[slot]):
                return slot
        return exact

    # -- queries -------------------------------------------------------------
    def match(
        self, key: Any, pred: Callable[[Any], bool]
    ) -> Tuple[Optional[Any], int]:
        """Remove and return the FIFO-first matching entry.

        Returns ``(item, scanned)`` with ``scanned`` the virtual linear-scan
        length (1-based rank of the match among live entries), or
        ``(None, live_count)`` on a miss.
        """
        live = self._live
        if not live:
            return None, 0
        slot = self._find(key, pred)
        if slot is None:
            return None, live
        # the only live entry is first in any scan
        scanned = 1 if live == 1 else _prefix(self._fen, slot + 1)
        return self._kill(slot), scanned

    def remove_first(self, pred: Callable[[Any], bool]) -> Optional[Any]:
        for slot, item in enumerate(self._slots):
            if item is not None and pred(item):
                return self._kill(slot)
        return None

    def __len__(self) -> int:
        return self._live

    def __iter__(self) -> Iterator[Any]:
        return (item for item in self._slots if item is not None)


class DepthRecordingQueue(IndexedMatchQueue):
    """An :class:`IndexedMatchQueue` that appends a depth row,
    ``("add", now, name, +1 or -1, "items")``, to a telemetry record on
    every insert and removal: what ``Tracer.match_queue`` builds while
    telemetry is on (``repro.obs.timeline``)."""

    __slots__ = ("_record", "_name")

    def __init__(self, record, name: str) -> None:
        super().__init__()
        self._record = record
        self._name = name

    def append(self, item: Any, key: Any = None) -> None:
        super().append(item, key)
        record = self._record
        record.rows.append(("add", record.sim.now, self._name, 1, "items"))

    def _kill(self, slot: int) -> Any:
        record = self._record
        record.rows.append(("add", record.sim.now, self._name, -1, "items"))
        return super()._kill(slot)
