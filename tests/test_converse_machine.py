"""Tests for Converse (PEs, handlers, debt) and the UCX machine layer."""

import pytest

from repro.config import MachineConfig
from repro.converse.cmi import Converse
from repro.converse.message import CmiMessage
from repro.core.device_buffer import (
    CmiDeviceBuffer,
    DeviceRdmaOp,
    DeviceRecvType,
)
from repro.core.device_tags import MsgType, decode_tag
from repro.core.machine_ucx import UcxMachineLayer
from repro.hardware.topology import Machine
from repro.sim.primitives import Timeout


def make_stack(nodes=1, n_pes=None):
    m = Machine(MachineConfig.summit(nodes=nodes))
    n = n_pes if n_pes is not None else m.cfg.topology.total_gpus
    pe_node = [m.node_of_gpu(g) for g in range(n)]
    pe_gpu = list(range(n))
    layer = UcxMachineLayer(m, n, pe_node)
    conv = Converse(m, layer, pe_node, pe_gpu)
    return m, layer, conv


class TestConverse:
    def test_handler_registry(self):
        m, layer, conv = make_stack()
        seen = []
        conv.register_handler("t", lambda pe, msg: seen.append(msg.payload))
        msg = CmiMessage("t", payload="hello", host_bytes=0, src_pe=0, dst_pe=1)
        conv.cmi_send(0, msg)
        m.sim.run()
        assert seen == ["hello"]

    def test_duplicate_handler_rejected(self):
        _, _, conv = make_stack()
        conv.register_handler("x", lambda pe, msg: None)
        with pytest.raises(ValueError):
            conv.register_handler("x", lambda pe, msg: None)

    def test_unknown_handler_raises(self):
        m, layer, conv = make_stack()
        conv.cmi_send(0, CmiMessage("nope", None, 0, 0, 1))
        with pytest.raises(RuntimeError, match="nope"):
            m.sim.run()

    def test_message_to_self_delivered(self):
        m, layer, conv = make_stack()
        seen = []
        conv.register_handler("self", lambda pe, msg: seen.append(pe.index))
        conv.cmi_send(2, CmiMessage("self", None, 0, 2, 2))
        m.sim.run()
        assert seen == [2]

    def test_debt_delays_next_message(self):
        m, layer, conv = make_stack()
        times = []

        def slow(pe, msg):
            pe.charge(5e-6)
            times.append(m.sim.now)

        conv.register_handler("slow", slow)
        conv.cmi_send(0, CmiMessage("slow", None, 0, 0, 1))
        conv.cmi_send(0, CmiMessage("slow", None, 0, 0, 1))
        m.sim.run()
        # second handler starts only after the first's debt elapses
        assert times[1] - times[0] >= 5e-6

    def test_threaded_handler_runs_as_process(self):
        m, layer, conv = make_stack()
        log = []

        def threaded(pe, msg):
            def gen():
                log.append("start")
                yield Timeout(m.sim, 1e-6)
                log.append("end")

            return gen()

        conv.register_handler("th", threaded)
        conv.cmi_send(0, CmiMessage("th", None, 0, 0, 1))
        m.sim.run()
        assert log == ["start", "end"]

    def test_wire_size_includes_headers_and_metadata(self):
        rt = MachineConfig.summit().runtime
        msg = CmiMessage("h", None, host_bytes=100, src_pe=0, dst_pe=1)
        base = msg.wire_size(rt.converse_header_bytes, rt.device_metadata_bytes)
        assert base == 100 + rt.converse_header_bytes
        m = Machine(MachineConfig.summit(nodes=1))
        buf = m.alloc_device(0, 64)
        msg.device_bufs.append(CmiDeviceBuffer(ptr=buf, size=64))
        assert msg.wire_size(rt.converse_header_bytes, rt.device_metadata_bytes) == (
            100 + rt.converse_header_bytes + rt.device_metadata_bytes
        )

    def test_messages_between_pes_ordered(self):
        m, layer, conv = make_stack()
        seen = []
        conv.register_handler("ord", lambda pe, msg: seen.append(msg.payload))
        for i in range(10):
            conv.cmi_send(0, CmiMessage("ord", i, 0, 0, 3))
        m.sim.run()
        assert seen == list(range(10))


class _Owner:
    """Stands in for a model's record of a device transfer: it is told the
    outcome through these methods, in order."""

    def __init__(self):
        self.seen = []

    def notify_sender(self):
        self.seen.append("send")

    def landed(self, op):
        self.seen.append(op)


class TestMachineLayer:
    def test_lrts_send_device_assigns_tag(self):
        m, layer, conv = make_stack()
        buf = m.alloc_device(0, 256)
        dev = CmiDeviceBuffer(ptr=buf, size=256)
        tag = layer.lrts_send_device(0, 1, dev)
        assert dev.tag == tag and dev.src_pe == 0
        msg_type, pe, _count = decode_tag(tag, m.cfg.tags)
        assert msg_type is MsgType.DEVICE and pe == 0

    def test_device_roundtrip_via_machine_layer(self):
        m, layer, conv = make_stack()
        src = m.alloc_device(0, 256)
        dst = m.alloc_device(1, 256)
        src.data[:] = 77
        done = _Owner()
        dev = CmiDeviceBuffer(ptr=src, size=256)
        tag = layer.lrts_send_device(0, 1, dev)
        op = DeviceRdmaOp(dest=dst, size=256, tag=tag, recv_type=DeviceRecvType.CHARM,
                          owner=done)
        layer.lrts_recv_device(1, op)
        m.sim.run()
        assert done.seen == [op] and (dst.data == 77).all()
        counters = m.tracer.counters
        assert counters["machine.send_device"] == 1
        assert counters["machine.recv_device"] == 1

    def test_tags_unique_across_pes_and_sends(self):
        m, layer, conv = make_stack()
        tags = set()
        for pe in range(4):
            buf = m.alloc_device(pe, 64)
            for _ in range(10):
                tags.add(layer.lrts_send_device(pe, (pe + 1) % 4, CmiDeviceBuffer(buf, 64)))
        assert len(tags) == 40
        m.sim.run(max_events=100000)  # drain (no receivers posted is fine)

    def test_on_complete_callback_fires(self):
        m, layer, conv = make_stack()
        src = m.alloc_device(0, 64)
        dst = m.alloc_device(1, 64)
        fired = _Owner()
        dev = CmiDeviceBuffer(ptr=src, size=64)
        tag = layer.lrts_send_device(0, 1, dev, owner=fired)
        op = DeviceRdmaOp(
            dest=dst, size=64, tag=tag, recv_type=DeviceRecvType.AMPI,
            owner=fired,
        )
        layer.lrts_recv_device(1, op)
        m.sim.run()
        assert len(fired.seen) == 2 and "send" in fired.seen and op in fired.seen


class TestDeviceBufferValidation:
    def test_cmi_device_buffer_host_rejected(self):
        m = Machine(MachineConfig.summit(nodes=1))
        with pytest.raises(ValueError):
            CmiDeviceBuffer(ptr=m.alloc_host(0, 64), size=64)

    def test_size_exceeding_buffer_rejected(self):
        m = Machine(MachineConfig.summit(nodes=1))
        with pytest.raises(ValueError):
            CmiDeviceBuffer(ptr=m.alloc_device(0, 64), size=128)

    def test_rdma_op_dest_must_be_device(self):
        m = Machine(MachineConfig.summit(nodes=1))
        with pytest.raises(ValueError):
            DeviceRdmaOp(dest=m.alloc_host(0, 64), size=64, tag=1,
                         recv_type=DeviceRecvType.CHARM)

    def test_rdma_op_size_bounds(self):
        m = Machine(MachineConfig.summit(nodes=1))
        with pytest.raises(ValueError):
            DeviceRdmaOp(dest=m.alloc_device(0, 64), size=128, tag=1,
                         recv_type=DeviceRecvType.CHARM)
