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

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["IndexedMatchQueue"]


class _Fenwick:
    """Binary indexed tree over slot liveness (1 = live, 0 = removed).

    ``rank(slot)`` — the number of live slots at positions ``<= slot`` — is
    exactly the 1-based position a linear FIFO scan would have reported for
    the entry at ``slot``, which is what keeps the modeled scan cost of the
    indexed queue bit-identical to the linear one.
    """

    __slots__ = ("_tree", "_n")

    def __init__(self) -> None:
        self._tree: List[int] = [0]  # 1-based; _tree[0] unused
        self._n = 0

    def append(self, value: int) -> None:
        """Extend the tree by one slot holding ``value`` (O(log n))."""
        self._n += 1
        i = self._n
        lb = i & -i
        # _tree[i] covers the range (i - lb, i]; everything but the new
        # element is already summed in existing prefixes.
        s = self.prefix(i - 1) - self.prefix(i - lb)
        self._tree.append(s + value)

    def add(self, slot: int, delta: int) -> None:
        """Add ``delta`` at 0-based ``slot``."""
        i = slot + 1
        tree = self._tree
        n = self._n
        while i <= n:
            tree[i] += delta
            i += i & -i

    def prefix(self, i: int) -> int:
        """Sum of 1-based positions ``1..i``."""
        tree = self._tree
        s = 0
        while i > 0:
            s += tree[i]
            i -= i & -i
        return s

    def rank(self, slot: int) -> int:
        """Number of live slots at 0-based positions ``<= slot``."""
        return self.prefix(slot + 1)

    @classmethod
    def all_live(cls, n: int) -> "_Fenwick":
        """Build a tree of ``n`` slots, all live (O(n))."""
        fen = cls.__new__(cls)
        fen._n = n
        fen._tree = [0] + [(i & -i) for i in range(1, n + 1)]
        return fen


class IndexedMatchQueue:
    """Hash-bucketed FIFO matching queue with a wildcard fallback list.

    Removed entries are tombstoned (``None``) and physically compacted once
    they outnumber the live entries, so slots stay small and iteration stays
    amortised O(live).  Buckets and the wildcard list hold the slot indices
    of live entries only: a removal takes its slot out at once, and a bucket
    goes with its last entry.
    """

    __slots__ = ("_slots", "_keys", "_buckets", "_wild", "_fen", "_live",
                 "_dead", "depth_probe")

    #: tombstones tolerated before a physical compaction
    _COMPACT_SLACK = 64

    def __init__(self) -> None:
        self._slots: List[Any] = []  # item, or None once removed
        self._keys: List[Any] = []  # key the item was filed under
        self._buckets: Dict[Any, List[int]] = {}  # key -> its live slots, FIFO
        self._wild: List[int] = []  # slots of wildcard entries, FIFO
        self._fen = _Fenwick()
        self._live = 0
        self._dead = 0
        #: optional telemetry hook: called with +1/-1 on insert/remove
        self.depth_probe: Optional[Callable[[int], None]] = None

    # -- mutation -----------------------------------------------------------
    def append(self, item: Any, key: Any = None) -> None:
        slot = len(self._slots)
        self._slots.append(item)
        self._keys.append(key)
        self._fen.append(1)
        self._live += 1
        if self.depth_probe is not None:
            self.depth_probe(1)
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
        self._fen.add(slot, -1)
        self._live -= 1
        self._dead += 1
        if self.depth_probe is not None:
            self.depth_probe(-1)
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
        self._fen = _Fenwick.all_live(len(live))
        self._dead = 0

    # -- candidate search ----------------------------------------------------
    def _bucket_head(self, key: Any) -> Optional[int]:
        """Earliest slot filed under ``key``."""
        bucket = self._buckets.get(key)
        return None if bucket is None else bucket[0]

    def _first_wild(self, pred: Callable[[Any], bool], before: Optional[int]) -> Optional[int]:
        """Earliest wildcard slot ``< before`` whose item satisfies ``pred``."""
        slots = self._slots
        for slot in self._wild:
            if before is not None and slot >= before:
                return None
            if pred(slots[slot]):
                return slot
        return None

    def _find(self, key: Any, pred: Callable[[Any], bool]) -> Optional[int]:
        if key is None:
            # wildcard lookup: semantics require the earliest live entry of
            # *any* key that satisfies pred — a genuine FIFO scan.
            for slot, item in enumerate(self._slots):
                if item is not None and pred(item):
                    return slot
            return None
        exact = self._bucket_head(key)
        wild = self._first_wild(pred, before=exact)
        if wild is not None:
            return wild  # _first_wild only returns slots earlier than exact
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
        slot = self._find(key, pred)
        if slot is None:
            return None, self._live
        scanned = self._fen.rank(slot)
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
