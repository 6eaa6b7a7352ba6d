"""Regression tests for the matching/cache correctness hazards.

Three latent bugs are locked down here:

1. **Equality-based removal** — the seed's ``MatchEngine`` removed matched
   entries with ``list.remove``, which compares *every* earlier entry by
   dataclass equality.  That scan is O(n), can delete a different-but-equal
   entry, and crashes outright the moment a payload field has a non-boolean
   ``__eq__`` (a NumPy array ``value``, for instance).  Matching must remove
   by queue slot (identity) and never consult entry equality.
2. **Stale GPU-pointer cache** — a freed device buffer's address can be
   re-used by a later (even host) allocation; without invalidation the
   per-PE cache keeps answering ``(True, hit_cost)``.
3. **Span overwrite** — the seed's re-entrant span accounting silently
   overwrote the open span's start, losing the outer span's time; the
   structured span() API must account nested spans independently.
"""

import pytest

from repro.ampi.matching import (
    ANY_SOURCE,
    ANY_TAG,
    AmpiEnvelope,
    MatchEngine,
    PostedMpiRecv,
)
from repro.config import MachineConfig, RuntimeConfig
from repro.core.matchq import IndexedMatchQueue
from repro.hardware.memory import DeviceAllocator, host_buffer
from repro.obs.tracing import Tracer
from repro.sim.engine import Simulator
from tests.oracles.linear_matchq import LinearMatchQueue


# ---------------------------------------------------------------------------
# 1. matching must remove by identity, never by value equality
# ---------------------------------------------------------------------------

class _EqBomb:
    """Stands in for a payload whose ``__eq__`` is not boolean-valued (e.g. a
    NumPy array: ``bool(a == b)`` raises).  Any equality comparison of an
    entry containing it is a bug."""

    def __eq__(self, other):  # pragma: no cover - the point is not to run it
        raise AssertionError("matching consulted entry equality")

    __hash__ = None


def _env(src=0, dst=0, tag=0, comm=0, size=8, seq=0, value=None):
    return AmpiEnvelope(src=src, dst=dst, tag=tag, comm=comm, size=size,
                        seq=seq, value=value)


def _engine(queue_cls):
    """A ``MatchEngine`` on ``queue_cls`` queues (it builds indexed ones; the
    linear oracle must show the same identity semantics)."""
    eng = MatchEngine()
    eng.unexpected, eng.posted = queue_cls(), queue_cls()
    return eng


@pytest.mark.parametrize("queue_cls", [IndexedMatchQueue, LinearMatchQueue])
class TestIdentityRemoval:
    def test_unexpected_removal_never_compares_entries(self, queue_cls):
        """Matching an envelope that is *not* first in the unexpected queue
        must not equality-compare it against its predecessors (the seed's
        ``list.remove`` did, and raises here)."""
        eng = _engine(queue_cls)
        early = _env(tag=1, value=_EqBomb())
        late = _env(tag=2, value=_EqBomb(), seq=1)
        assert eng.match_envelope(early) == (None, 0)
        assert eng.match_envelope(late) == (None, 0)

        req = PostedMpiRecv(src=0, tag=2, comm=0, buf=None, capacity=1 << 30,
                            event=None)
        env, scanned = eng.match_recv(req)
        assert env is late and scanned == 2
        # the non-matching predecessor is still queued
        assert list(eng.unexpected) == [early]

    def test_posted_removal_never_compares_entries(self, queue_cls):
        """Same hazard on the request queue: matching the second posted
        receive must not equality-compare posted entries."""
        eng = _engine(queue_cls)
        bomb = _EqBomb()
        first = PostedMpiRecv(src=1, tag=ANY_TAG, comm=0, buf=None,
                              capacity=1 << 30, event=bomb)
        second = PostedMpiRecv(src=0, tag=ANY_TAG, comm=0, buf=None,
                               capacity=1 << 30, event=bomb)
        assert eng.match_recv(first) == (None, 0)
        assert eng.match_recv(second) == (None, 0)

        req, scanned = eng.match_envelope(_env(src=0, tag=5))
        assert req is second and scanned == 2
        assert list(eng.posted) == [first]

    def test_two_identical_receives_each_match_once(self, queue_cls):
        """Two receives with identical fields (the dataclass-equal pair of
        the hazard) must stay distinct entries: two envelopes complete them
        in FIFO order, each exactly once."""
        eng = _engine(queue_cls)

        class _AlwaysEqual:
            def __eq__(self, other):
                return isinstance(other, _AlwaysEqual)

            __hash__ = None

        req1 = PostedMpiRecv(src=3, tag=7, comm=0, buf=None, capacity=64,
                             event=_AlwaysEqual())
        req2 = PostedMpiRecv(src=3, tag=7, comm=0, buf=None, capacity=64,
                             event=_AlwaysEqual())
        assert req1 == req2 and req1 is not req2  # the hazardous shape
        eng.match_recv(req1)
        eng.match_recv(req2)

        got_first, scanned1 = eng.match_envelope(_env(src=3, tag=7))
        got_second, scanned2 = eng.match_envelope(_env(src=3, tag=7, seq=1))
        assert got_first is req1 and scanned1 == 1
        assert got_second is req2 and scanned2 == 1
        assert len(eng.posted) == 0

    def test_wildcard_and_exact_fifo_interleaving(self, queue_cls):
        """FIFO order must hold across the exact-bucket/wildcard split: an
        earlier wildcard receive wins over a later exact one and vice
        versa."""
        eng = _engine(queue_cls)
        wild = PostedMpiRecv(src=ANY_SOURCE, tag=ANY_TAG, comm=0, buf=None,
                             capacity=64, event="wild")
        exact = PostedMpiRecv(src=0, tag=1, comm=0, buf=None,
                              capacity=64, event="exact")
        eng.match_recv(wild)
        eng.match_recv(exact)
        got, scanned = eng.match_envelope(_env(src=0, tag=1))
        assert got is wild and scanned == 1  # earlier wildcard wins
        got, scanned = eng.match_envelope(_env(src=0, tag=1, seq=1))
        assert got is exact and scanned == 1

        # now the reverse posting order: exact first, wildcard second
        eng.match_recv(exact := PostedMpiRecv(src=0, tag=1, comm=0, buf=None,
                                              capacity=64, event="exact2"))
        eng.match_recv(wild := PostedMpiRecv(src=ANY_SOURCE, tag=ANY_TAG,
                                             comm=0, buf=None, capacity=64,
                                             event="wild2"))
        got, scanned = eng.match_envelope(_env(src=0, tag=1, seq=2))
        assert got is exact and scanned == 1
        got, scanned = eng.match_envelope(_env(src=9, tag=9, seq=0))
        assert got is wild and scanned == 1


class TestUcxQueueIdentity:
    def test_ucx_unexpected_removal_is_by_slot(self):
        """UCP worker unexpected-queue consumption removes exactly the
        matched message even with equal-looking neighbours."""
        from repro.hardware.topology import Machine
        from repro.ucx.context import UcpContext

        m = Machine(MachineConfig.summit(nodes=1))
        ctx = UcpContext(m)
        wa = ctx.create_worker(0, 0)
        wb = ctx.create_worker(1, 0)
        bufs = [m.alloc_host(0, 8) for _ in range(3)]
        for i, buf in enumerate(bufs):
            buf.data[:] = i + 1
            wa.tag_send_nb(wa.ep(1), buf, 8, tag=i)
        m.sim.run()
        assert len(wb.unexpected) == 3

        # consume the *middle* message; neighbours must survive untouched
        dst = m.alloc_host(0, 8)
        req = wb.tag_recv_nb(dst, 8, tag=1)
        m.sim.run()
        assert req.completed and dst.data[0] == 2
        assert [msg.tag for msg in wb.unexpected] == [0, 2]


# ---------------------------------------------------------------------------
# 2. GPU-pointer cache invalidation on free
# ---------------------------------------------------------------------------

class TestGpuPointerCacheInvalidation:
    def test_address_reuse_after_free_is_not_a_device_hit(self):
        """A freed device buffer's address re-used by a host buffer must be
        re-queried, not served from the cache as 'device memory'."""
        from repro.ampi.gpucache import GpuPointerCache

        rt = RuntimeConfig()
        cache = GpuPointerCache(rt)
        allocator = DeviceAllocator(1 << 20, device=0, node=0)
        allocator.add_free_hook(lambda buf: cache.invalidate(buf.address))

        dev = allocator.alloc(64)
        assert cache.check(dev) == (True, rt.gpu_pointer_check_cost)
        assert cache.check(dev) == (True, rt.gpu_pointer_cache_hit_cost)

        allocator.free(dev)
        assert cache.invalidations == 1

        # the driver hands the same address to a host allocation
        reused = host_buffer(0, 64)
        reused.address = dev.address
        is_dev, cost = cache.check(reused)
        assert is_dev is False  # stale cache would have said True
        assert cost == rt.gpu_pointer_check_cost

    def test_ampi_wires_invalidation_to_machine_free(self):
        """End-to-end wiring: freeing through the CUDA runtime invalidates
        every PE's pointer cache."""
        from repro.ampi import Ampi
        from repro.charm import Charm

        charm = Charm(MachineConfig.summit(nodes=1))
        ampi = Ampi(charm)
        buf = charm.cuda.malloc(0, 256)
        assert ampi.gpu_caches[0].check(buf)[0] is True
        assert ampi.gpu_caches[0].check(buf)[1] == ampi.rt.gpu_pointer_cache_hit_cost

        charm.cuda.free(buf)

        reused = charm.cuda.malloc_host(0, 256)
        reused.address = buf.address
        is_dev, cost = ampi.gpu_caches[0].check(reused)
        assert is_dev is False
        assert cost == ampi.rt.gpu_pointer_check_cost

    def test_double_free_still_raises(self):
        allocator = DeviceAllocator(1 << 20, device=0, node=0)
        buf = allocator.alloc(32)
        allocator.free(buf)
        with pytest.raises(RuntimeError, match="double free"):
            allocator.free(buf)


# ---------------------------------------------------------------------------
# 3. re-entrant spans
# ---------------------------------------------------------------------------

class TestSpanAccounting:
    """Nested spans on the structured span() API keep both spans' time
    (the seed's span_begin overwrote the open span's start; that API has
    since been removed in favor of with-statement spans)."""

    def test_nested_same_category_spans_account_both(self):
        sim = Simulator()
        t = Tracer(sim, enabled=True)
        outer = t.span("ampi", "outer")  # opens at 0
        sim.schedule(1.0, lambda: setattr(t, "_inner", t.span("ampi", "inner")))
        sim.schedule(3.0, lambda: t._inner.end())  # inner: 1..3
        sim.schedule(5.0, lambda: outer.end())  # outer: 0..5
        sim.run()
        assert t._inner.duration == pytest.approx(2.0)
        assert outer.duration == pytest.approx(5.0)
        assert t.time_in("ampi") == pytest.approx(7.0)

    def test_distinct_categories_remain_independent(self):
        sim = Simulator()
        t = Tracer(sim, enabled=True)
        sp = t.span("ucx", "a")
        sim.schedule(4.0, sp.end)
        sim.run()
        assert t.time_in("ucx") == pytest.approx(4.0)
        assert t.time_in("ampi") == 0.0


# ---------------------------------------------------------------------------
# 4. protocol-selection boundary semantics
# ---------------------------------------------------------------------------

class TestProtocolSelectionBoundaries:
    """``choose_send_protocol`` thresholds are exclusive for eager: a size
    *exactly at* the threshold already goes rendezvous (UCX_RNDV_THRESH
    semantics)."""

    def _cfg(self):
        from repro.config import UcxConfig
        return UcxConfig()

    def test_host_size_at_threshold_is_rndv(self):
        from repro.ucx.protocols.select import Protocol, choose_send_protocol

        cfg = self._cfg()
        buf = host_buffer(0, 2 * cfg.host_rndv_threshold)
        at = choose_send_protocol(cfg, buf, cfg.host_rndv_threshold)
        below = choose_send_protocol(cfg, buf, cfg.host_rndv_threshold - 1)
        assert at is Protocol.RNDV
        assert below is Protocol.EAGER

    def test_device_size_at_threshold_is_rndv(self):
        from repro.ucx.protocols.select import Protocol, choose_send_protocol

        cfg = self._cfg()
        allocator = DeviceAllocator(1 << 30, device=0, node=0)
        buf = allocator.alloc(2 * cfg.device_eager_threshold)
        at = choose_send_protocol(cfg, buf, cfg.device_eager_threshold)
        below = choose_send_protocol(cfg, buf, cfg.device_eager_threshold - 1)
        assert at is Protocol.RNDV
        assert below is Protocol.EAGER

    def test_zero_size_is_eager(self):
        from repro.ucx.protocols.select import Protocol, choose_send_protocol

        cfg = self._cfg()
        assert choose_send_protocol(cfg, host_buffer(0, 1), 0) is Protocol.EAGER

    def test_negative_size_raises(self):
        from repro.ucx.protocols.select import choose_send_protocol

        cfg = self._cfg()
        with pytest.raises(ValueError, match="negative send size"):
            choose_send_protocol(cfg, host_buffer(0, 8), -1)


# ---------------------------------------------------------------------------
# engine agenda reclamation under heavy cancellation
# ---------------------------------------------------------------------------

class TestHeapCompaction:
    def test_cancelled_entries_are_reclaimed_and_order_preserved(self):
        sim = Simulator()
        fired = []
        handles = [sim.schedule(float(i), fired.append, i) for i in range(1000)]
        for i, h in enumerate(handles):
            if i % 10 != 0:
                h.cancel()
        # cancellation is an O(1) tombstone: the live count drops immediately
        assert sim.pending_events == 100
        assert sim._tombstones == 900
        sim.run()
        assert fired == list(range(0, 1000, 10))
        assert sim.now == 990.0
        # every tombstone was reaped: the agenda is empty
        assert sim._tombstones == 0
        assert sim.pending_events == 0
        assert len(sim._cur) == 0

    def test_slot_storage_bounded_under_churn(self):
        # schedule/cancel churn must not grow the agenda: a run reaps every
        # tombstone, so no round ever sees more than its own 50 entries
        sim = Simulator()
        for _ in range(100):
            handles = [sim.schedule(1.0, lambda: None) for _ in range(50)]
            for h in handles:
                h.cancel()
            assert len(sim._cur) <= 50
            sim.run()
            assert len(sim._cur) == 0
        assert sim.now == 0.0 and sim.event_count == 0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        h.cancel()
        h.cancel()
        assert h.cancelled
        sim.run()
        assert sim._tombstones == 0
