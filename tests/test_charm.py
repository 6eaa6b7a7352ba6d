"""Tests for the Charm++ model: chares, entries, zero-copy, callbacks."""

import numpy as np
import pytest

from repro.charm import Charm, Chare, CkCallback, CkDeviceBuffer
from repro.charm.charm import marshal_bytes
from repro.charm.zerocopy import PostError
from repro.config import MachineConfig
from repro.sim.primitives import SimEvent


@pytest.fixture
def charm():
    return Charm(MachineConfig.summit(nodes=2))


class Echo(Chare):
    def __init__(self, log):
        self.log = log

    def hit(self, value):
        self.log.append((self.thisIndex, value, self.charm.time))

    def forward(self, proxy, value):
        proxy.hit(value)


class TestChares:
    def test_create_chare_runs_init_with_injection(self, charm):
        log = []
        proxy = charm.create_chare(Echo, pe=3, log=log)
        obj = charm.chares[proxy.chare_id]
        assert obj.pe == 3 and obj.gpu == 3 and obj.charm is charm
        assert obj.thisProxy == proxy

    def test_non_chare_rejected(self, charm):
        class NotAChare:
            pass

        with pytest.raises(TypeError):
            charm.create_chare(NotAChare, pe=0)

    def test_entry_invocation_delivers(self, charm):
        log = []
        p = charm.create_chare(Echo, 0, log)
        p.hit("x")
        charm.run()
        assert log == [(-1, "x", pytest.approx(log[0][2]))]

    def test_unknown_entry_raises(self, charm):
        p = charm.create_chare(Echo, 0, [])
        p.nonexistent()
        with pytest.raises(RuntimeError, match="entry method"):
            charm.run()

    def test_chare_to_chare_forwarding(self, charm):
        log = []
        a = charm.create_chare(Echo, 0, log)
        b = charm.create_chare(Echo, 6, log)  # other node
        a.forward(b, "relay")
        charm.run()
        assert log[0][1] == "relay"

    def test_messages_between_pair_ordered(self, charm):
        log = []
        p = charm.create_chare(Echo, 1, log)
        src = charm.create_chare(Echo, 0, log)
        for i in range(8):
            p.hit(i)
        charm.run()
        assert [v for _i, v, _t in log] == list(range(8))


class TestGroupsArrays:
    def test_group_one_element_per_pe(self, charm):
        log = []
        g = charm.create_array(Echo, charm.n_pes, log)
        assert len(g) == charm.n_pes
        for pe in range(charm.n_pes):
            assert charm.chares[g[pe].chare_id].pe == pe

    def test_array_round_robin_default(self, charm):
        log = []
        a = charm.create_array(Echo, 24, log)
        for i in range(24):
            assert charm.chares[a[i].chare_id].pe == i % charm.n_pes

    def test_array_custom_mapping(self, charm):
        a = charm.create_array(Echo, 4, [], mapping=lambda i: 2 * i)
        assert [charm.chares[a[i].chare_id].pe for i in range(4)] == [0, 2, 4, 6]

    def test_broadcast_reaches_all(self, charm):
        log = []
        g = charm.create_array(Echo, charm.n_pes, log)
        g.hit("bcast")
        charm.run()
        assert sorted(i for i, _v, _t in log) == list(range(charm.n_pes))


class TestMarshalling:
    def test_scalars_are_small(self):
        assert marshal_bytes((1, 2.5, "x")) == 24

    def test_numpy_counts_nbytes(self):
        assert marshal_bytes((np.zeros(10, dtype=np.float64),)) == 80

    def test_device_buffer_args_excluded(self, charm):
        buf = charm.cuda.malloc(0, 128)
        assert marshal_bytes((CkDeviceBuffer.wrap(buf),)) == 0

    def test_raw_device_buffer_rejected(self, charm):
        buf = charm.cuda.malloc(0, 128)
        with pytest.raises(TypeError, match="nocopydevice"):
            marshal_bytes((buf,))

    def test_host_buffer_counts_size(self, charm):
        h = charm.cuda.malloc_host(0, 321)
        assert marshal_bytes((h,)) == 321


class DeviceReceiver(Chare):
    def __init__(self, size, log):
        self.size = size
        self.log = log
        self.dbuf = self.charm.cuda.malloc(self.gpu, size)

    def take_post(self, posts, sender_note):
        posts[0].buffer = self.dbuf

    def take(self, data, sender_note):
        self.log.append((sender_note, data))


class TestZeroCopy:
    def test_device_args_need_post_entry(self, charm):
        class NoPost(Chare):
            def __init__(self):
                pass

            def take(self, data):
                pass

        src = charm.cuda.malloc(0, 64)
        p = charm.create_chare(NoPost, 1)
        p.take(CkDeviceBuffer.wrap(src))
        with pytest.raises(RuntimeError, match="post entry"):
            charm.run()

    def test_post_must_set_buffer(self, charm):
        class BadPost(Chare):
            def __init__(self):
                pass

            def take_post(self, posts):
                pass  # forgets to set posts[0].buffer

            def take(self, data):
                pass

        src = charm.cuda.malloc(0, 64)
        p = charm.create_chare(BadPost, 1)
        p.take(CkDeviceBuffer.wrap(src))
        with pytest.raises(PostError):
            charm.run()

    def test_device_payload_lands_in_named_buffer(self, charm):
        log = []
        src = charm.cuda.malloc(0, 64)
        src.data[:] = 11
        p = charm.create_chare(DeviceReceiver, 1, 64, log)
        p.take(CkDeviceBuffer.wrap(src), "note")
        charm.run()
        (note, data), = log
        assert note == "note" and data is charm.chares[p.chare_id].dbuf
        assert (data.data == 11).all()

    def test_multiple_device_buffers_one_invocation(self, charm):
        class Multi(Chare):
            def __init__(self, log):
                self.log = log
                self.a = self.charm.cuda.malloc(self.gpu, 32)
                self.b = self.charm.cuda.malloc(self.gpu, 32)

            def take_post(self, posts):
                posts[0].buffer = self.a
                posts[1].buffer = self.b

            def take(self, x, y):
                self.log.append((x, y))

        log = []
        s1 = charm.cuda.malloc(0, 32)
        s2 = charm.cuda.malloc(0, 32)
        s1.data[:] = 1
        s2.data[:] = 2
        p = charm.create_chare(Multi, 1, log)
        p.take(CkDeviceBuffer.wrap(s1), CkDeviceBuffer.wrap(s2))
        charm.run()
        (x, y), = log
        assert (x.data == 1).all() and (y.data == 2).all()

    def test_undersized_post_buffer_rejected(self, charm):
        class Small(Chare):
            def __init__(self):
                self.tiny = self.charm.cuda.malloc(self.gpu, 8)

            def take_post(self, posts):
                posts[0].buffer = self.tiny

            def take(self, data):
                pass

        src = charm.cuda.malloc(0, 64)
        p = charm.create_chare(Small, 1)
        p.take(CkDeviceBuffer.wrap(src))
        with pytest.raises(PostError):
            charm.run()

    def test_send_completion_callback(self, charm):
        log = []
        fired = []
        src = charm.cuda.malloc(0, 64)
        p = charm.create_chare(DeviceReceiver, 1, 64, log)
        p.take(CkDeviceBuffer.wrap(src, cb=lambda: fired.append(True)), "n")
        charm.run()
        assert fired == [True]


class TestCkCallback:
    def test_function_callback(self, charm):
        got = []
        cb = CkCallback(fn=got.append)
        cb.send(charm, 5)
        assert got == [5]

    def test_entry_method_callback(self, charm):
        log = []
        p = charm.create_chare(Echo, 2, log)
        cb = CkCallback(proxy=p, method="hit")
        cb.send(charm, "cb-value")
        charm.run()
        assert log[0][1] == "cb-value"

    def test_requires_target(self):
        with pytest.raises(ValueError):
            CkCallback()
        with pytest.raises(ValueError):
            CkCallback(fn=print, proxy=object(), method="x")


class TestThreadedEntries:
    def test_generator_entry_blocks_and_resumes(self, charm):
        log = []

        class Sleeper(Chare):
            def __init__(self):
                pass

            def work(self):
                log.append(("begin", self.charm.time))
                yield SimEvent_timeout(self.charm, 3e-6)
                log.append(("end", self.charm.time))

        def SimEvent_timeout(ch, dt):
            from repro.sim.primitives import Timeout

            return Timeout(ch.sim, dt)

        p = charm.create_chare(Sleeper, 0)
        p.work()
        charm.run()
        assert log[1][1] - log[0][1] >= 3e-6

    def test_threaded_entry_cuda_staging(self, charm):
        done = []

        class Stager(Chare):
            def __init__(self):
                self.d = self.charm.cuda.malloc(self.gpu, 1024)
                self.h = self.charm.cuda.malloc_host(
                    self.charm.pe_object(self.pe).node, 1024
                )
                self.s = self.charm.cuda.create_stream(self.gpu)

            def stage(self):
                cuda = self.charm.cuda
                cuda.memcpy_dtoh(self.h, self.d, self.s)
                yield cuda.stream_synchronize(self.s)
                done.append(self.charm.time)

        p = charm.create_chare(Stager, 0)
        p.stage()
        charm.run()
        assert done and done[0] > charm.cfg.cuda.memcpy_launch_overhead


class TestTracing:
    def test_device_send_traced_through_layers(self):
        class Recv(Chare):
            def __init__(self):
                self.buf = self.charm.cuda.malloc(self.gpu, 256)

            def take_post(self, posts):
                posts[0].buffer = self.buf

            def take(self, data):
                pass

        class Send(Chare):
            def __init__(self):
                self.buf = self.charm.cuda.malloc(self.gpu, 256)

            def go(self, peer):
                peer.take(CkDeviceBuffer.wrap(self.buf))

        charm = Charm(MachineConfig.summit(nodes=1))
        s = charm.create_chare(Send, 0)
        r = charm.create_chare(Recv, 1)
        s.go(r)
        charm.run()
        counters = charm.machine.tracer.counters
        assert counters["converse.send_device"] == 1
        assert counters["converse.recv_device"] == 1
        assert counters["ucx.send"] >= 1  # the tagged device send


class TestPeHelpers:
    def test_negative_charge_rejected(self):
        charm = Charm(MachineConfig.summit(nodes=1))
        with pytest.raises(ValueError):
            charm.pe_object(0).charge(-1.0)

    def test_messages_processed_counter(self):
        class Nop(Chare):
            def __init__(self):
                pass

            def hit(self):
                pass

        charm = Charm(MachineConfig.summit(nodes=1))
        p = charm.create_chare(Nop, 2)
        for _ in range(3):
            p.hit()
        charm.run()
        assert charm.pe_object(2).messages_processed == 3


class TestProxyMechanics:
    class Probe(Chare):
        def __init__(self, log):
            self.log = log

        def hit(self):
            self.log.append(self.thisIndex)

    def test_proxy_equality_and_hash(self):
        charm = Charm(MachineConfig.summit(nodes=1))
        p = charm.create_chare(self.Probe, 0, [])
        obj = charm.chares[p.chare_id]
        assert obj.thisProxy == p
        assert hash(obj.thisProxy) == hash(p)
        assert p != object()

    def test_private_attribute_access_raises(self):
        charm = Charm(MachineConfig.summit(nodes=1))
        p = charm.create_chare(self.Probe, 0, [])
        with pytest.raises(AttributeError):
            p._secret  # noqa: B018

    def test_collection_len_and_indexing(self):
        charm = Charm(MachineConfig.summit(nodes=1))
        g = charm.create_array(self.Probe, charm.n_pes, [])
        assert len(g) == charm.n_pes
        assert g[0].chare_id != g[1].chare_id


class TestPeDebtMechanics:
    def test_current_delay_accumulates_and_resets(self):
        charm = Charm(MachineConfig.summit(nodes=1))
        pe = charm.pe_object(0)
        assert pe.debt == 0.0
        pe.charge(2e-6)
        pe.charge(3e-6)
        assert pe.debt == pytest.approx(5e-6)
        assert pe.take_debt() == pytest.approx(5e-6)
        assert pe.debt == 0.0
