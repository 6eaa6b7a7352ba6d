"""Tree reductions over chare collections.

Elements of a chare array call ``charm.reductions.contribute(self, value,
op, callback)``; partial results combine locally on each PE, flow up a
4-ary tree over the PEs hosting elements, and the root delivers the final
value through the :class:`CkCallback`.  Rounds are matched by per-element
sequence numbers, so back-to-back reductions (one per Jacobi iteration,
say) pipeline safely.  The Jacobi3D convergence check runs on it (the
``jacobi_converge_charm_2n`` baseline entry).

The operator type loads with the first contribution: a run that reduces
nothing imports nothing of :mod:`repro.collectives`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.converse.message import CmiMessage
from repro.hardware.memory import is_ndarray

_BRANCH = 4


def _value_bytes(value: Any) -> int:
    if is_ndarray(value):
        return value.nbytes
    return 8


class _RedState:
    __slots__ = ("remaining", "acc", "op", "callback")

    def __init__(self, remaining: int) -> None:
        self.remaining = remaining
        self.acc: Any = None
        self.op = None  # set by the contribution or partial that makes it
        self.callback = None

    def merge(self, value: Any) -> None:
        self.acc = value if self.acc is None else self.op.combine(self.acc, value)
        self.remaining -= 1


class ReductionManager:
    """One per :class:`Charm` runtime; see module docstring."""

    def __init__(self, charm) -> None:
        self.charm = charm
        charm.converse.register_handler("charm_reduction", self._handle_partial)
        # (collection, round, pe) -> state
        self._states: Dict[Tuple[int, int, int], _RedState] = {}
        # collection -> (sorted pe list, elements per pe)
        self._layout_cache: Dict[int, Tuple[List[int], Dict[int, int]]] = {}

    # -- topology helpers ----------------------------------------------------
    def _layout(self, coll: int) -> Tuple[List[int], Dict[int, int]]:
        if coll not in self._layout_cache:
            counts: Dict[int, int] = {}
            for cid in self.charm.collections[coll]:
                pe = self.charm.chare_pe[cid]
                counts[pe] = counts.get(pe, 0) + 1
            self._layout_cache[coll] = (sorted(counts), counts)
        return self._layout_cache[coll]

    @staticmethod
    def _children_count(pe_list: List[int], pe: int) -> int:
        idx = pe_list.index(pe)
        lo = _BRANCH * idx + 1
        hi = min(lo + _BRANCH, len(pe_list))
        return max(0, hi - lo)

    @staticmethod
    def _parent(pe_list: List[int], pe: int) -> Optional[int]:
        idx = pe_list.index(pe)
        if idx == 0:
            return None
        return pe_list[(idx - 1) // _BRANCH]

    def _state(self, coll: int, rnd: int, pe: int) -> _RedState:
        key = (coll, rnd, pe)
        if key not in self._states:
            pe_list, counts = self._layout(coll)
            expected = counts.get(pe, 0) + self._children_count(pe_list, pe)
            self._states[key] = _RedState(expected)
        return self._states[key]

    # -- API --------------------------------------------------------------------
    def contribute(self, chare, value: Any, op="sum", callback=None) -> None:
        """Contribute ``value`` to the current reduction round of the
        collection ``chare`` belongs to.  ``op`` is a
        :class:`~repro.collectives.ops.ReduceOp` or its string name."""
        from repro.collectives.ops import ReduceOp

        op = ReduceOp.of(op)
        cid = chare.thisProxy.chare_id
        coll = self.charm._chare_coll.get(cid)
        if coll is None:
            raise RuntimeError("contribute() requires a chare array element")
        rnd = getattr(chare, "_red_round", 0)
        chare._red_round = rnd + 1
        pe = self.charm.chare_pe[cid]
        self.charm.charge_current_pe(self.charm.cfg.runtime.reduction_overhead)
        st = self._state(coll, rnd, pe)
        st.op = op
        if callback is not None:
            st.callback = callback
        st.merge(value)
        self._maybe_forward(coll, rnd, pe)

    # -- internal flow ---------------------------------------------------------------
    def _maybe_forward(self, coll: int, rnd: int, pe: int) -> None:
        st = self._states[(coll, rnd, pe)]
        if st.remaining > 0:
            return
        pe_list, _counts = self._layout(coll)
        parent = self._parent(pe_list, pe)
        del self._states[(coll, rnd, pe)]
        if parent is None:
            cb = st.callback
            if cb is None:
                raise RuntimeError("reduction completed with no callback at root")
            prev, self.charm._current_pe = self.charm._current_pe, pe
            try:
                cb.send(self.charm, st.acc)
            finally:
                self.charm._current_pe = prev
            return
        msg = CmiMessage(
            handler="charm_reduction",
            payload=(coll, rnd, st.acc, st.op, st.callback),
            host_bytes=_value_bytes(st.acc),
            src_pe=pe,
            dst_pe=parent,
        )
        self.charm.converse.cmi_send(pe, msg)

    def _handle_partial(self, pe, msg: CmiMessage) -> None:
        coll, rnd, partial, op, callback = msg.payload
        pe.charge(self.charm.cfg.runtime.reduction_overhead)
        st = self._state(coll, rnd, pe.index)
        st.op = op
        if callback is not None and st.callback is None:
            st.callback = callback
        st.merge(partial)
        self._maybe_forward(coll, rnd, pe.index)
