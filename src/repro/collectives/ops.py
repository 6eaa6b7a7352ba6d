"""Typed reduction operators shared by every model's reduction surface.

:class:`ReduceOp` replaces the stringly-typed ``op: str`` arguments of
``ampi`` collectives and ``charm/reduction.py``.  Strings are still accepted
at every public boundary and normalized exactly once via :meth:`ReduceOp.of`;
a typo raises :class:`ValueError` naming the valid set.

The device-side combine kernel (elementwise float64 ``acc = acc <op> in``)
also lives here: every device-allreduce algorithm launches it, with one
roofline cost (2 reads + 1 write per element).
"""

from __future__ import annotations

import enum
from typing import Any, Union

from repro.hardware.gpu import Kernel
from repro.hardware.memory import Buffer, is_ndarray

__all__ = ["ReduceOp", "DEVICE_OPS", "combine_kernel"]


class ReduceOp(enum.Enum):
    """A reduction operator.  ``ReduceOp.of("sum") is ReduceOp.SUM``."""

    SUM = "sum"
    PROD = "prod"
    MAX = "max"
    MIN = "min"

    @classmethod
    def of(cls, op: Union[str, "ReduceOp"]) -> "ReduceOp":
        """Normalize ``op`` (enum member or its string value) to a member.

        The single validation point of every reduction surface: raises
        :class:`ValueError` naming the valid set on anything else.
        """
        if isinstance(op, cls):
            return op
        if isinstance(op, str):
            try:
                return cls(op.lower())
            except ValueError:
                pass
        valid = sorted(m.value for m in cls)
        raise ValueError(f"unknown reduction op {op!r} (valid: {valid})")

    def combine(self, a: Any, b: Any) -> Any:
        """Apply the operator to two host values (scalars or ndarrays)."""
        if self is ReduceOp.SUM:
            return a + b
        if self is ReduceOp.PROD:
            return a * b
        if is_ndarray(a):
            import numpy as np

            return (np.maximum if self is ReduceOp.MAX else np.minimum)(a, b)
        return max(a, b) if self is ReduceOp.MAX else min(a, b)


#: Operators with a device combine kernel (PROD is host-only, as before).
DEVICE_OPS = frozenset({ReduceOp.SUM, ReduceOp.MAX, ReduceOp.MIN})


def combine_kernel(acc: Buffer, incoming: Buffer, nbytes: int, op: ReduceOp) -> Kernel:
    """Elementwise ``acc = acc <op> incoming`` over float64 device payloads.

    The body computes once either side has bytes (an untouched side reads
    as zeros) and skips otherwise; the modeled roofline cost (2 reads +
    1 write per element) is identical either way.  ``op`` is one of
    :data:`DEVICE_OPS` (``allreduce_device`` checks).
    """

    def body() -> None:
        if acc.is_virtual and incoming.is_virtual:
            return
        import numpy as np

        # float64 payloads; a sub-element tail (nbytes % 8) carries no
        # elements and is left untouched, as the pre-package kernels did
        n = (nbytes // 8) * 8
        a = acc.data.reshape(-1).view(np.uint8)[:n].view(np.float64)
        b = incoming.data.reshape(-1).view(np.uint8)[:n].view(np.float64)
        if op is ReduceOp.SUM:
            a += b
        elif op is ReduceOp.MAX:
            np.maximum(a, b, out=a)
        else:
            np.minimum(a, b, out=a)

    return Kernel(f"combine-{op.value}", bytes_moved=3 * nbytes, body=body)
