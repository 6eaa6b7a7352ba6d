"""The linear FIFO matching queue, kept as a test oracle.

A plain list scanned front to back on every match: executable documentation
of the matching semantics that ``repro.core.matchq.IndexedMatchQueue`` must
reproduce entry for entry and scan length for scan length
(``tests/test_matching_golden.py``, ``tests/test_matching_correctness.py``).
Like ``reference_engine`` it is never imported by the runtime.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, List, Optional, Tuple


class LinearMatchQueue:
    """Reference FIFO queue: linear scan, O(n) per match (seed semantics)."""

    __slots__ = ("_items",)

    def __init__(self) -> None:
        self._items: List[Any] = []

    def append(self, item: Any, key: Any = None) -> None:
        self._items.append(item)

    def match(
        self, key: Any, pred: Callable[[Any], bool]
    ) -> Tuple[Optional[Any], int]:
        """Remove and return the first entry satisfying ``pred``.

        Returns ``(item, scanned)`` where ``scanned`` is the 1-based position
        of the match in FIFO order, or ``(None, len(queue))`` when nothing
        matches (the whole queue was scanned).
        """
        items = self._items
        for i, item in enumerate(items):
            if pred(item):
                del items[i]
                return item, i + 1
        return None, len(items)

    def remove_first(self, pred: Callable[[Any], bool]) -> Optional[Any]:
        """Remove and return the first entry satisfying ``pred`` (identity
        scans — e.g. cancellation); no modeled cost is attached."""
        items = self._items
        for i, item in enumerate(items):
            if pred(item):
                del items[i]
                return item
        return None

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)
