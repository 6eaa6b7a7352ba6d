"""Tests for the UCX model: tag matching, protocols, AM path."""

import numpy as np
import pytest

from repro.config import KB, MachineConfig, MB
from repro.hardware.topology import Machine
from repro.ucx.context import UcpContext
from repro.ucx.protocols.pipeline import (
    pipeline_effective_bandwidth,
    pipeline_extra_time,
)
from repro.ucx.protocols.select import Protocol, choose_send_protocol
from repro.ucx.status import UcsStatus, UcxError


def make_pair(nodes=2, gpus=(0, 1), config=None):
    cfg = config if config is not None else MachineConfig.summit(nodes=nodes)
    m = Machine(cfg)
    ctx = UcpContext(m)
    wa = ctx.create_worker(0, m.node_of_gpu(gpus[0]), m.socket_of_gpu(gpus[0]))
    wb = ctx.create_worker(1, m.node_of_gpu(gpus[1]), m.socket_of_gpu(gpus[1]))
    return m, ctx, wa, wb


def make_workers(nodes=1):
    m, _ctx, wa, wb = make_pair(nodes=nodes)
    return m, wa, wb


class TestProtocolSelection:
    def test_host_small_is_eager(self):
        m, ctx, *_ = make_pair()
        buf = m.alloc_host(0, 1024)
        assert choose_send_protocol(ctx.cfg, buf, 1024) is Protocol.EAGER

    def test_host_large_is_rndv(self):
        m, ctx, *_ = make_pair()
        buf = m.alloc_host(0, 64 * KB)
        assert choose_send_protocol(ctx.cfg, buf, 64 * KB) is Protocol.RNDV

    def test_host_threshold_boundary(self):
        m, ctx, *_ = make_pair()
        th = ctx.cfg.host_rndv_threshold
        buf = m.alloc_host(0, th)
        assert choose_send_protocol(ctx.cfg, buf, th - 1) is Protocol.EAGER
        assert choose_send_protocol(ctx.cfg, buf, th) is Protocol.RNDV

    def test_device_threshold(self):
        m, ctx, *_ = make_pair()
        th = ctx.cfg.device_eager_threshold
        buf = m.alloc_device(0, th)
        assert choose_send_protocol(ctx.cfg, buf, th - 1) is Protocol.EAGER
        assert choose_send_protocol(ctx.cfg, buf, th) is Protocol.RNDV

    def test_negative_size_rejected(self):
        m, ctx, *_ = make_pair()
        with pytest.raises(ValueError):
            choose_send_protocol(ctx.cfg, m.alloc_host(0, 8), -1)


class TestTagMatching:
    def test_expected_receive(self):
        m, ctx, wa, wb = make_pair()
        src, dst = m.alloc_host(0, 64), m.alloc_host(0, 64)
        src.data[:] = 9
        rreq = wb.tag_recv_nb(dst, 64, tag=5)
        sreq = wa.tag_send_nb(wa.ep(1), src, 64, tag=5)
        m.sim.run()
        assert rreq.completed and sreq.completed
        assert rreq.info == (5, 64)
        assert (dst.data == 9).all()
        assert m.tracer.counters["ucx.expected_hit"] == 1

    def test_unexpected_receive(self):
        m, ctx, wa, wb = make_pair()
        src, dst = m.alloc_host(0, 64), m.alloc_host(0, 64)
        src.data[:] = 7
        wa.tag_send_nb(wa.ep(1), src, 64, tag=5)
        m.sim.run()  # message parked in the unexpected queue
        rreq = wb.tag_recv_nb(dst, 64, tag=5)
        m.sim.run()
        assert rreq.completed and (dst.data == 7).all()
        assert m.tracer.counters["ucx.unexpected_hit"] == 1

    def test_loopback_tagged_send(self):
        m, ctx, wa, wb = make_pair()
        src, dst = m.alloc_host(0, 32), m.alloc_host(0, 32)
        src.data[:] = 4
        req = wa.tag_recv_nb(dst, 32, tag=5)
        wa.tag_send_nb(wa.ep(0), src, 32, tag=5)
        m.sim.run()
        assert req.completed and (dst.data == 4).all()

    def test_fifo_matching_same_tag(self):
        m, ctx, wa, wb = make_pair()
        srcs = []
        for i in range(3):
            s = m.alloc_host(0, 8)
            s.data[:] = i + 1
            srcs.append(s)
            wa.tag_send_nb(wa.ep(1), s, 8, tag=1)
        m.sim.run()
        got = []
        for _ in range(3):
            d = m.alloc_host(0, 8)
            req = wb.tag_recv_nb(d, 8, tag=1)
            m.sim.run()
            assert req.completed
            got.append(int(d.data[0]))
        assert got == [1, 2, 3]

    def test_wildcard_mask_matches_any_counter(self):
        from repro.core.device_tags import MsgType, make_tag

        m, ctx, wa, wb = make_pair()
        src, dst = m.alloc_host(0, 8), m.alloc_host(0, 8)
        sent_tag = make_tag(MsgType.HOST, pe=0, count=77)
        want = make_tag(MsgType.HOST, pe=0, count=0)
        type_field = 0xF << 60  # the 4 MSG_BITS above PE and counter
        rreq = wb.tag_recv_nb(dst, 8, tag=want, mask=type_field)
        wa.tag_send_nb(wa.ep(1), src, 8, tag=sent_tag)
        m.sim.run()
        assert rreq.completed and rreq.info[0] == sent_tag

    def test_non_matching_tag_stays_posted(self):
        m, ctx, wa, wb = make_pair()
        src, dst = m.alloc_host(0, 8), m.alloc_host(0, 8)
        rreq = wb.tag_recv_nb(dst, 8, tag=99)
        wa.tag_send_nb(wa.ep(1), src, 8, tag=1)
        m.sim.run()
        assert not rreq.completed
        assert len(wb.unexpected) == 1 and len(wb.posted) == 1

    def test_truncation_error(self):
        m, ctx, wa, wb = make_pair()
        src, dst = m.alloc_host(0, 128), m.alloc_host(0, 16)
        rreq = wb.tag_recv_nb(dst, 16, tag=2)
        wa.tag_send_nb(wa.ep(1), src, 128, tag=2)
        m.sim.run()
        assert rreq.status is UcsStatus.ERR_MESSAGE_TRUNCATED

    def test_send_size_exceeding_buffer_rejected(self):
        m, ctx, wa, wb = make_pair()
        src = m.alloc_host(0, 8)
        with pytest.raises(UcxError):
            wa.tag_send_nb(wa.ep(1), src, 16, tag=0)

    def test_foreign_endpoint_rejected(self):
        m, ctx, wa, wb = make_pair()
        src = m.alloc_host(0, 8)
        with pytest.raises(UcxError):
            wb.tag_send_nb(wa.ep(1), src, 8, tag=0)


class TestRendezvous:
    def test_rndv_sender_completes_after_fin(self):
        m, ctx, wa, wb = make_pair()
        size = 1 * MB
        src, dst = m.alloc_host(0, size), m.alloc_host(0, size)
        rreq = wb.tag_recv_nb(dst, size, tag=3)
        sreq = wa.tag_send_nb(wa.ep(1), src, size, tag=3)
        m.sim.run()
        assert sreq.completed and rreq.completed
        # FIN comes back after the data: sender finishes last
        assert sreq.completed_at >= rreq.completed_at

    def test_rndv_data_integrity(self):
        m, ctx, wa, wb = make_pair()
        size = 256 * KB
        src, dst = m.alloc_host(0, size), m.alloc_host(0, size)
        src.data[:] = np.random.default_rng(1).integers(0, 255, size, dtype=np.uint8)
        rreq = wb.tag_recv_nb(dst, size, tag=3)
        wa.tag_send_nb(wa.ep(1), src, size, tag=3)
        m.sim.run()
        assert rreq.completed and (dst.data == src.data).all()

    def test_device_rndv_uses_ipc_cache(self):
        m, ctx, wa, wb = make_pair()
        size = 1 * MB
        src = m.alloc_device(0, size)
        dst = m.alloc_device(1, size)
        # first transfer pays the IPC open; second is cached and faster
        r1 = wb.tag_recv_nb(dst, size, tag=1)
        wa.tag_send_nb(wa.ep(1), src, size, tag=1)
        m.sim.run()
        t1 = m.sim.now
        r2 = wb.tag_recv_nb(dst, size, tag=2)
        wa.tag_send_nb(wa.ep(1), src, size, tag=2)
        m.sim.run()
        t2 = m.sim.now - t1
        assert r1.completed and r2.completed
        assert t1 - t2 == pytest.approx(
            m.cfg.cuda.ipc_handle_open_cost - m.cfg.cuda.ipc_cached_open_cost,
            rel=0.05,
        )

    def test_inter_node_device_pipelined_slower_than_gpudirect(self):
        size = 4 * MB

        def run(gdr: bool):
            from dataclasses import replace

            cfg = MachineConfig.summit(nodes=2)
            cfg = replace(cfg, ucx=replace(cfg.ucx, gpudirect_rdma=gdr))
            m, ctx, wa, wb = make_pair(gpus=(0, 6), config=cfg)
            src = m.alloc_device(0, size)
            dst = m.alloc_device(6, size)
            wb.tag_recv_nb(dst, size, tag=1)
            wa.tag_send_nb(wa.ep(1), src, size, tag=1)
            m.sim.run()
            return m.sim.now

        assert run(False) > run(True)


class TestEagerDevice:
    def test_gdrcopy_eager_device_roundtrip(self):
        m, ctx, wa, wb = make_pair()
        src = m.alloc_device(0, 512)
        dst = m.alloc_device(1, 512)
        src.data[:] = 42
        rreq = wb.tag_recv_nb(dst, 512, tag=9)
        wa.tag_send_nb(wa.ep(1), src, 512, tag=9)
        m.sim.run()
        assert rreq.completed and (dst.data == 42).all()
        assert ctx.gdrcopy.copies == 2  # copy-in + copy-out

    def test_no_gdrcopy_is_much_slower(self):
        def run(cfg):
            m, ctx, wa, wb = make_pair(config=cfg)
            src, dst = m.alloc_device(0, 64), m.alloc_device(1, 64)
            wb.tag_recv_nb(dst, 64, tag=9)
            wa.tag_send_nb(wa.ep(1), src, 64, tag=9)
            m.sim.run()
            return m.sim.now

        base = MachineConfig.summit(nodes=2)
        with_gdr = run(base)
        without = run(base.with_ucx(gdrcopy_enabled=False))
        assert without > 3 * with_gdr  # the paper: detection is essential


class TestPipelineModel:
    def test_extra_time_zero_for_empty(self):
        assert pipeline_extra_time(MachineConfig.summit(), 0) == 0.0

    def test_extra_grows_with_chunks(self):
        cfg = MachineConfig.summit()
        assert pipeline_extra_time(cfg, 4 * MB) > pipeline_extra_time(cfg, 1 * MB)

    def test_effective_bandwidth_below_nic(self):
        cfg = MachineConfig.summit()
        bw = pipeline_effective_bandwidth(cfg, 4 * MB)
        assert 0 < bw < cfg.topology.nic.bandwidth

    def test_effective_bandwidth_monotone(self):
        cfg = MachineConfig.summit()
        bws = [pipeline_effective_bandwidth(cfg, s) for s in (64 * KB, 512 * KB, 4 * MB)]
        assert bws == sorted(bws)


class TestAmPath:
    def test_eager_delivery(self):
        m, ctx, wa, wb = make_pair()
        got = []
        wb.set_am_handler(lambda payload, size, src: got.append((payload, size, src)))
        wa.am_send(wa.ep(1), 128, payload={"k": 1})
        m.sim.run()
        assert got == [({"k": 1}, 128, 0)]

    def test_rndv_delivery_and_sender_completion(self):
        m, ctx, wa, wb = make_pair()
        got = []
        wb.set_am_handler(lambda payload, size, src: got.append(size))
        req = wa.am_send(wa.ep(1), 1 * MB, payload="big")
        m.sim.run()
        assert got == [1 * MB] and req.completed

    def test_loopback(self):
        m, ctx, wa, wb = make_pair()
        got = []
        wa.set_am_handler(lambda payload, size, src: got.append(payload))
        wa.am_send(wa.ep(0), 64, payload="self")
        m.sim.run()
        assert got == ["self"]

    def test_missing_handler_raises(self):
        m, ctx, wa, wb = make_pair()
        wa.am_send(wa.ep(1), 64, payload=None)
        with pytest.raises(UcxError):
            m.sim.run()

    def test_ordering_mixed_rndv_eager(self):
        """The AM stream is strictly ordered per directed pair even when a
        rendezvous AM (delivery waits for the data fetch) is followed by a
        small eager one: the receiver holds the eager delivery until the
        earlier rendezvous message's data has landed."""
        m, ctx, wa, wb = make_pair()
        got = []
        wb.set_am_handler(lambda payload, size, src: got.append(payload))
        wa.am_send(wa.ep(1), 64 * KB, payload="big-first")  # rndv
        wa.am_send(wa.ep(1), 64, payload="small-second")  # eager
        m.sim.run()
        assert got == ["big-first", "small-second"]

    def test_ordering_many_interleaved_rndv_eager(self):
        m, ctx, wa, wb = make_pair()
        got = []
        wb.set_am_handler(lambda payload, size, src: got.append(payload))
        sent = []
        for i in range(8):
            size = 64 * KB if i % 2 == 0 else 64
            wa.am_send(wa.ep(1), size, payload=i)
            sent.append(i)
        m.sim.run()
        assert got == sent


class TestCancel:
    def test_cancel_posted_recv_then_repost(self):
        m, ctx, wa, wb = make_pair()
        dst = m.alloc_host(0, 64)
        rreq = wb.tag_recv_nb(dst, 64, tag=4)
        assert wb.cancel(rreq) is True
        assert rreq.status is UcsStatus.ERR_CANCELED
        assert len(wb.posted) == 0
        # the tag is free for a fresh post; traffic flows normally
        src = m.alloc_host(0, 64)
        src.data[:] = 3
        r2 = wb.tag_recv_nb(dst, 64, tag=4)
        wa.tag_send_nb(wa.ep(1), src, 64, tag=4)
        m.sim.run()
        assert r2.completed and r2.status is UcsStatus.OK
        assert (dst.data == 3).all()

    def test_cancel_completed_request_returns_false(self):
        m, ctx, wa, wb = make_pair()
        src, dst = m.alloc_host(0, 8), m.alloc_host(0, 8)
        rreq = wb.tag_recv_nb(dst, 8, tag=1)
        sreq = wa.tag_send_nb(wa.ep(1), src, 8, tag=1)
        m.sim.run()
        assert wb.cancel(rreq) is False
        assert wa.cancel(sreq) is False

    def test_cancel_eager_send_before_staging_does_not_deliver(self):
        m, ctx, wa, wb = make_pair()
        src = m.alloc_host(0, 64)
        sreq = wa.tag_send_nb(wa.ep(1), src, 64, tag=7)
        assert wa.cancel(sreq) is True
        assert sreq.status is UcsStatus.ERR_CANCELED
        m.sim.run()
        assert len(wb.unexpected) == 0
        # the cancelled frame's wire slot is consumed: later same-pair
        # traffic still arrives in order
        src2, dst2 = m.alloc_host(0, 8), m.alloc_host(0, 8)
        src2.data[:] = 5
        r2 = wb.tag_recv_nb(dst2, 8, tag=8)
        wa.tag_send_nb(wa.ep(1), src2, 8, tag=8)
        m.sim.run()
        assert r2.completed and (dst2.data == 5).all()

    def test_cancel_rndv_send_before_match_retracts_rts(self):
        m, ctx, wa, wb = make_pair()
        size = 1 * MB
        src = m.alloc_host(0, size)
        sreq = wa.tag_send_nb(wa.ep(1), src, size, tag=6)
        m.sim.run()  # RTS parked in wb's unexpected queue
        assert len(wb.unexpected) == 1
        assert wa.cancel(sreq) is True
        assert sreq.status is UcsStatus.ERR_CANCELED
        assert len(wb.unexpected) == 0
        # a matching recv posted afterwards must simply stay pending
        dst = m.alloc_host(0, size)
        rreq = wb.tag_recv_nb(dst, size, tag=6)
        m.sim.run()
        assert not rreq.completed

    def test_cancel_rndv_send_after_transfer_started_fails(self):
        m, ctx, wa, wb = make_pair()
        size = 1 * MB
        src, dst = m.alloc_host(0, size), m.alloc_host(0, size)
        rreq = wb.tag_recv_nb(dst, size, tag=6)
        sreq = wa.tag_send_nb(wa.ep(1), src, size, tag=6)
        # drain until the receiver has committed to the transfer
        while not sreq.rndv_committed and m.sim.step():
            pass
        assert sreq.rndv_committed
        assert wa.cancel(sreq) is False
        m.sim.run()
        assert sreq.completed and rreq.completed

    def test_cancel_am_send_unsupported(self):
        m, ctx, wa, wb = make_pair()
        wb.set_am_handler(lambda payload, size, src: None)
        req = wa.am_send(wa.ep(1), 1 * MB, payload="x")
        assert wa.cancel(req) is False
        m.sim.run()
        assert req.completed


class TestPoolFreeHooks:
    """Pool returns are not frees: every address-keyed cache (mapping,
    IPC handle opens, custom free hooks) must survive a pool return and
    die only on a real free — a direct allocator's ``free_device``."""

    def _pooled_pair(self):
        cfg = MachineConfig.summit(nodes=1).override({
            "memory.allocator": "pool", "memory.pool_slab_bytes": 4 * MB,
            "ucx.mapping_cost": 1e-5})
        return make_pair(config=cfg)

    def _transfer(self, m, wa, wb, src, dst, size, tag):
        wb.tag_recv_nb(dst, size, tag=tag)
        wa.tag_send_nb(wa.ep(1), src, size, tag=tag)
        m.sim.run()

    def test_pool_return_keeps_mapping_and_ipc_caches(self):
        m, ctx, wa, wb = self._pooled_pair()
        size = 256 * KB
        src = m.alloc_device(0, size)
        dst = m.alloc_device(1, size)
        self._transfer(m, wa, wb, src, dst, size, tag=1)
        mappings = len(ctx.map_cache)
        ipc_opens = len(ctx.cuda._ipc_open_cache)
        news = m.tracer.counters["ucx.mapping_new"]
        assert mappings > 0 and ipc_opens > 0 and news > 0

        hook_calls = []
        m.add_device_free_hook(lambda buf: hook_calls.append(buf))
        m.free_device(src)
        m.free_device(dst)
        # a return is not a free: nothing invalidated, nothing notified
        assert not hook_calls
        assert not src.freed and not dst.freed
        assert len(ctx.map_cache) == mappings
        assert len(ctx.cuda._ipc_open_cache) == ipc_opens

        # LIFO reuse hands back the very same blocks: the steady state
        # re-transfers without a single new mapping or driver open
        src2 = m.alloc_device(0, size)
        dst2 = m.alloc_device(1, size)
        assert src2 is src and dst2 is dst
        self._transfer(m, wa, wb, src2, dst2, size, tag=2)
        assert m.tracer.counters["ucx.mapping_new"] == news
        assert m.tracer.counters["ucx.mapping_hit"] > 0
        assert len(ctx.cuda._ipc_open_cache) == ipc_opens

    def test_direct_free_is_a_real_free_and_invalidates(self):
        cfg = MachineConfig.summit(nodes=1).override("ucx.mapping_cost=1e-5")
        m, ctx, wa, wb = make_pair(config=cfg)
        size = 256 * KB
        src = m.alloc_device(0, size)
        dst = m.alloc_device(1, size)
        self._transfer(m, wa, wb, src, dst, size, tag=1)
        assert len(ctx.map_cache) > 0

        hook_calls = []
        m.add_device_free_hook(lambda buf: hook_calls.append(buf))
        m.free_device(src)
        m.free_device(dst)
        # the free notified for both buffers, so every address-keyed
        # consumer (mapping cache here) dropped out
        assert src in hook_calls and dst in hook_calls
        assert src.freed and dst.freed
        assert len(ctx.map_cache) == 0
        # fresh allocations after the free are first touches again
        news = m.tracer.counters["ucx.mapping_new"]
        src3 = m.alloc_device(0, size)
        dst3 = m.alloc_device(1, size)
        self._transfer(m, wa, wb, src3, dst3, size, tag=3)
        assert m.tracer.counters["ucx.mapping_new"] > news

    def test_pool_return_keeps_ampi_gpu_pointer_cache(self):
        from repro.ampi import Ampi
        from repro.charm import Charm

        cfg = MachineConfig.summit(nodes=1).with_pool(True)
        ampi = Ampi(Charm(cfg), n_ranks=2)
        m = ampi.machine
        out = {}

        def program(rank):
            buf = rank.alloc_device(64 * KB)
            rank.ampi.gpu_caches[rank.pe].check(buf)
            rank.free_device(buf)
            again = rank.alloc_device(64 * KB)
            is_dev, _cost = rank.ampi.gpu_caches[rank.pe].check(again)
            if rank.rank == 0:
                out["reused"] = again is buf
                out["hits"] = rank.ampi.gpu_caches[rank.pe].hits
                out["invalidations"] = \
                    rank.ampi.gpu_caches[rank.pe].invalidations
            yield from rank.barrier()

        m.sim.run_until_complete(ampi.launch(program), max_events=1_000_000)
        # the return/reuse cycle stays warm: the second check is a hit
        # because the pool return never fired the invalidation hook
        assert out["reused"] is True
        assert out["hits"] == 1
        assert out["invalidations"] == 0


class TestChunkedMappingAccounting:
    """First-touch mapping for chunked/striped protocols keys on the BASE
    allocation: moving one buffer in many chunks (pipeline staging chunks,
    multirail stripes) charges the (base, peer-pair) mapping exactly once."""

    def _transfer(self, m, wa, wb, src, dst, size, tag=1):
        wb.tag_recv_nb(dst, size, tag=tag)
        wa.tag_send_nb(wa.ep(1), src, size, tag=tag)
        m.sim.run()

    def test_pipelined_multi_chunk_maps_once(self):
        from repro.ucx.protocols.pipeline import pipeline_chunks

        cfg = MachineConfig.summit(nodes=2).with_ucx(mapping_cost=1e-5)
        gpn = cfg.topology.gpus_per_node
        # device -> remote host: the pipelined lane stages ONE device
        # buffer through many bounce chunks
        m, ctx, wa, wb = make_pair(config=cfg, gpus=(0, gpn))
        size = 4 * MB
        assert pipeline_chunks(cfg, size) > 1
        src = m.alloc_device(0, size)
        dst = m.alloc_host(1, size)
        self._transfer(m, wa, wb, src, dst, size)
        assert m.tracer.counters["ucx.mapping_new"] == 1

    def test_striped_chunks_do_not_multiply_mappings(self):
        def news(cfg):
            m, ctx, wa, wb = make_pair(config=cfg, gpus=(0, 1))
            size = 4 * MB
            src = m.alloc_device(0, size)
            dst = m.alloc_device(1, size)
            self._transfer(m, wa, wb, src, dst, size)
            return (m.tracer.counters["ucx.mapping_new"],
                    m.tracer.counters.get("ucx.rail.striped", 0))

        base = MachineConfig.summit(nodes=1).with_ucx(mapping_cost=1e-5)
        single_news, single_striped = news(base)
        striped_news, striped_striped = news(base.override({"multirail.enabled": True}))
        assert single_striped == 0 and striped_striped == 1
        # 8 chunks over 2 rails, same two first touches (src via the IPC
        # open, dst registered back for the FIN'd direct copy)
        assert striped_news == single_news == 2


class TestMappingLRUCap:
    """``max_mappings``: LRU cap on the first-touch mapping cache (default
    unlimited = bit-identical to the uncapped dict it replaces)."""

    def _machine(self, max_mappings=None):
        cfg = (MachineConfig.summit(nodes=1)
               .with_ucx(mapping_cost=1e-5, max_mappings=max_mappings))
        m = Machine(cfg)
        return m, UcpContext(m)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_mappings"):
            MachineConfig.summit(nodes=1).with_ucx(max_mappings=0)

    def test_eviction_counter_and_recharge(self):
        m, ctx = self._machine(max_mappings=2)
        bufs = [m.alloc_device(0, KB) for _ in range(3)]
        for b in bufs:
            assert ctx.mapping_charge(b, 0, 1) > 0.0
        # the third insert evicted the least-recently-touched first entry
        assert m.tracer.counters["ucx.mapping_evicted"] == 1
        assert len(ctx.map_cache) == 2
        # the evicted mapping re-charges on its next touch (and evicts the
        # next LRU victim to make room)
        assert ctx.mapping_charge(bufs[0], 0, 1) > 0.0
        assert m.tracer.counters["ucx.mapping_evicted"] == 2
        assert m.tracer.counters["ucx.mapping_new"] == 4

    def test_lru_touch_protects_hot_mappings(self):
        m, ctx = self._machine(max_mappings=2)
        a, b, c = (m.alloc_device(0, KB) for _ in range(3))
        ctx.mapping_charge(a, 0, 1)
        ctx.mapping_charge(b, 0, 1)
        # touch `a`: now `b` is the LRU victim
        assert ctx.mapping_charge(a, 0, 1) == 0.0
        ctx.mapping_charge(c, 0, 1)
        assert ctx.mapping_charge(a, 0, 1) == 0.0   # survived
        assert ctx.mapping_charge(b, 0, 1) > 0.0    # was evicted

    def test_eviction_drops_secondary_indexes(self):
        m, ctx = self._machine(max_mappings=1)
        a, b = m.alloc_device(0, KB), m.alloc_device(0, KB)
        ctx.mapping_charge(a, 0, 1)
        ctx.mapping_charge(b, 0, 1)  # evicts a's mapping
        assert len(ctx.map_cache) == 1
        assert len(ctx._map_by_base) == 1
        # freeing the evicted buffer is a clean no-op for the cache
        m.free_device(a)
        assert len(ctx.map_cache) == 1

    def test_unlimited_default_bit_identical_to_uncapped(self):
        """A cap that never bites (huge) must not shift any modeled
        quantity vs. the default-unlimited run — the LRU touch reorders
        the dict but changes no cost."""

        def fingerprint(max_mappings):
            cfg = (MachineConfig.summit(nodes=1)
                   .with_ucx(mapping_cost=1e-5, max_mappings=max_mappings))
            m, ctx, wa, wb = make_pair(config=cfg)
            for tag in range(4):
                src = m.alloc_device(0, 256 * KB)
                dst = m.alloc_device(1, 256 * KB)
                wb.tag_recv_nb(dst, 256 * KB, tag=tag)
                wa.tag_send_nb(wa.ep(1), src, 256 * KB, tag=tag)
                m.sim.run()
            return m.sim.now, m.sim.event_count, dict(m.tracer.counters)

        assert fingerprint(None) == fingerprint(1 << 30)


class TestWorkerStats:
    def test_send_recv_counters_and_endpoint_flags(self):
        m = Machine(MachineConfig.summit(nodes=1))
        ctx = UcpContext(m)
        wa = ctx.create_worker(0, 0)
        wb = ctx.create_worker(1, 0)
        src, dst = m.alloc_host(0, 64), m.alloc_host(0, 64)
        ep = wa.ep(1)
        wb.tag_recv_nb(dst, 64, tag=1)
        wa.tag_send_nb(ep, src, 64, tag=1)
        m.sim.run()
        counters = m.tracer.counters
        assert counters["ucx.send"] == 1 and counters["ucx.recv"] == 1

    def test_worker_registry(self):
        m = Machine(MachineConfig.summit(nodes=2))
        ctx = UcpContext(m)
        w = ctx.create_worker(3, 1)
        assert ctx.worker(3) is w
        assert ctx.create_worker(3, 1) is w  # idempotent
        with pytest.raises(ValueError):
            ctx.create_worker(3, 0)  # conflicting node


class TestProbeCancel:
    def test_probe_sees_unexpected_without_consuming(self):
        m, wa, wb = make_workers()
        src = m.alloc_host(0, 64)
        wa.tag_send_nb(wa.ep(1), src, 64, tag=5)
        m.sim.run()
        assert wb.tag_probe_nb(5) == (5, 64)
        assert wb.tag_probe_nb(6) is None
        assert len(wb.unexpected) == 1  # still there

    def test_cancel_posted_receive(self):
        m, wa, wb = make_workers()
        dst = m.alloc_host(0, 64)
        req = wb.tag_recv_nb(dst, 64, tag=9)
        assert wb.cancel(req)
        assert req.status is UcsStatus.ERR_CANCELED
        assert not wb.posted

    def test_cancel_completed_request_fails(self):
        m, wa, wb = make_workers()
        src, dst = m.alloc_host(0, 8), m.alloc_host(0, 8)
        req = wb.tag_recv_nb(dst, 8, tag=1)
        wa.tag_send_nb(wa.ep(1), src, 8, tag=1)
        m.sim.run()
        assert not wb.cancel(req)
