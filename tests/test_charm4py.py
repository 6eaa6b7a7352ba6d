"""Tests for Charm4py: channels, futures, coroutines, Python costs."""

import pytest

from repro.charm import CkDeviceBuffer
from repro.charm4py import Charm4py, PyChare
from repro.config import KB, MachineConfig, MB
from repro.sim.primitives import SimEvent


@pytest.fixture
def c4p():
    return Charm4py(MachineConfig.summit(nodes=2))


def _chare(c4p, cls, pe, *args):
    """One Charm4py chare on ``pe``: a one-element array mapped there."""
    return c4p.create_array(cls, 1, *args, mapping=lambda _i: pe)[0]


class Pair(PyChare):
    def __init__(self, out):
        self.out = out

    def run_host(self, partner):
        ch = self.c4p.channel(self, partner)
        if self.thisIndex == 0:
            yield ch.send({"greeting": "hi"})
            reply = yield ch.recv()
            self.out["reply"] = reply
        else:
            msg = yield ch.recv()
            self.out["got"] = msg
            yield ch.send("ack")

    def run_device(self, partner, size):
        cuda = self.c4p.cuda
        ch = self.c4p.channel(self, partner)
        buf = cuda.malloc(self.gpu, size)
        if self.thisIndex == 0:
            buf.data[:] = 6
            yield ch.send(buf, size)
        else:
            yield ch.recv(buf, size)
            self.out["ok"] = bool((buf.data == 6).all())


class TestChannels:
    def test_host_object_roundtrip(self, c4p):
        out = {}
        arr = c4p.create_array(Pair, 2, out, mapping=lambda i: i)
        arr[0].run_host(arr[1])
        arr[1].run_host(arr[0])
        c4p.charm.run(max_events=200000)
        assert out["got"] == {"greeting": "hi"} and out["reply"] == "ack"

    @pytest.mark.parametrize("size", [256, 64 * KB])
    def test_device_buffer_transfer(self, c4p, size):
        out = {}
        arr = c4p.create_array(Pair, 2, out, mapping=lambda i: i)
        arr[0].run_device(arr[1], size)
        arr[1].run_device(arr[0], size)
        c4p.charm.run(max_events=200000)
        assert out["ok"]

    def test_channel_ordering(self, c4p):
        out = {"got": []}

        class Ordered(PyChare):
            def __init__(self, out):
                self.out = out

            def run(self, partner):
                ch = self.c4p.channel(self, partner)
                if self.thisIndex == 0:
                    for i in range(5):
                        yield ch.send(i)
                else:
                    for _ in range(5):
                        v = yield ch.recv()
                        self.out["got"].append(v)

        arr = c4p.create_array(Ordered, 2, out, mapping=lambda i: i)
        arr[0].run(arr[1])
        arr[1].run(arr[0])
        c4p.charm.run(max_events=200000)
        assert out["got"] == list(range(5))

    def test_device_send_signature_enforced(self, c4p):
        out = {}
        arr = c4p.create_array(Pair, 2, out, mapping=lambda i: i)
        chare = c4p.charm.chares[arr[0].chare_id]
        ch = c4p.channel(chare, arr[1])
        buf = c4p.cuda.malloc(0, 64)
        with pytest.raises(TypeError):
            ch.send(buf)  # missing size
        with pytest.raises(ValueError):
            ch.send(buf, 128)  # exceeds buffer

    def test_device_recv_signature_enforced(self, c4p):
        out = {}
        arr = c4p.create_array(Pair, 2, out, mapping=lambda i: i)
        chare = c4p.charm.chares[arr[0].chare_id]
        ch = c4p.channel(chare, arr[1])
        with pytest.raises(TypeError):
            ch.recv(c4p.cuda.malloc_host(0, 8), 8)  # host buffer

    def test_host_packet_into_device_recv_raises(self, c4p):
        class Bad(PyChare):
            def __init__(self):
                pass

            def run(self, partner):
                ch = self.c4p.channel(self, partner)
                if self.thisIndex == 0:
                    yield ch.send("host-object")
                else:
                    buf = self.c4p.cuda.malloc(self.gpu, 64)
                    yield ch.recv(buf, 64)

        arr = c4p.create_array(Bad, 2, mapping=lambda i: i)
        arr[0].run(arr[1])
        arr[1].run(arr[0])
        with pytest.raises(TypeError):
            c4p.charm.run(max_events=200000)


class TestFutures:
    def test_future_fulfilment_resumes_coroutine(self, c4p):
        out = {}

        class Waiter(PyChare):
            def __init__(self, fut):
                self.fut = fut

            def wait(self):
                v = yield self.fut.get()
                out["value"] = v
                out["time"] = self.c4p.sim.now

        fut = c4p.make_future()
        p = _chare(c4p, Waiter, 0, fut)
        p.wait()
        c4p.sim.schedule(5e-6, fut.send, 99)
        c4p.charm.run(max_events=200000)
        assert out["value"] == 99
        # fulfilment pays the python-side cost
        assert out["time"] >= 5e-6 + c4p.rt.future_fulfill_overhead

    def test_future_state(self, c4p):
        fut = c4p.make_future()
        assert not fut.fulfilled
        fut.send("v")
        c4p.charm.run()
        assert fut.fulfilled


class TestPythonCosts:
    def test_entry_dispatch_pays_python_overhead(self):
        """The same entry-method exchange is slower through Charm4py than
        through raw Charm++ — the interpreter/Cython cost of Fig. 9."""
        from repro.charm import Charm, Chare

        class Bounce(Chare):
            def __init__(self, done):
                self.done = done
                self.n = 0

            def hit(self, partner):
                self.n += 1
                if self.n >= 10:
                    if not self.done.triggered:
                        self.done.succeed(self.charm.time)
                    return
                partner.hit(self.thisProxy)

        def run_charm():
            charm = Charm(MachineConfig.summit(nodes=1))
            done = SimEvent(charm.sim)
            a = charm.create_chare(Bounce, 0, done)
            b = charm.create_chare(Bounce, 1, done)
            a.hit(b)  # seed
            return charm.run_until(done, max_events=100000)

        class PyBounce(PyChare, Bounce):
            pass

        def run_c4p():
            c4p = Charm4py(MachineConfig.summit(nodes=1))
            done = SimEvent(c4p.sim)
            a = _chare(c4p, PyBounce, 0, done)
            b = _chare(c4p, PyBounce, 1, done)
            a.hit(b)
            return c4p.run_until(done, max_events=100000)

        assert run_c4p() > run_charm()

    def test_host_payload_serialisation_scales_with_size(self, c4p):
        big = c4p.cython.serialize_cost(4 * MB)
        small = c4p.cython.serialize_cost(1 * KB)
        assert big > 100 * small

    def test_cython_crossing_counted(self, c4p):
        before = c4p.cython.crossings
        c4p.cython.call_cost()
        assert c4p.cython.crossings == before + 1


class TestCharm4pyDeviceEntryParams:
    """Charm4py chares inherit the nocopydevice/post-entry machinery."""

    def test_device_param_through_py_proxy(self):
        got = {}

        class PyRecv(PyChare):
            def __init__(self):
                self.buf = self.c4p.cuda.malloc(self.gpu, 1 * KB)

            def take_post(self, posts):
                posts[0].buffer = self.buf

            def take(self, data):
                got["bytes"] = data.size
                got["ok"] = bool((data.data == 9).all())

        class PySend(PyChare):
            def __init__(self):
                self.buf = self.c4p.cuda.malloc(self.gpu, 1 * KB)
                self.buf.data[:] = 9

            def go(self, peer):
                peer.take(CkDeviceBuffer.wrap(self.buf))

        c4p = Charm4py(MachineConfig.summit(nodes=1))
        s = _chare(c4p, PySend, 0)
        r = _chare(c4p, PyRecv, 3)
        s.go(r)
        c4p.charm.run()
        assert got == {"bytes": 1 * KB, "ok": True}

    def test_py_dispatch_costs_more_than_charm(self):
        """The same transfer takes longer through Charm4py chares."""
        from repro.charm import Charm, Chare

        def run(py: bool) -> float:
            class R(PyChare if py else Chare):
                def __init__(self):
                    self.buf = (self.c4p if py else self.charm).cuda.malloc(
                        self.gpu, 256
                    )

                def take_post(self, posts):
                    posts[0].buffer = self.buf

                def take(self, data):
                    pass

            class S(PyChare if py else Chare):
                def __init__(self):
                    self.buf = (self.c4p if py else self.charm).cuda.malloc(
                        self.gpu, 256
                    )

                def go(self, peer):
                    peer.take(CkDeviceBuffer.wrap(self.buf))

            if py:
                rt = Charm4py(MachineConfig.summit(nodes=1))
                s, r = _chare(rt, S, 0), _chare(rt, R, 1)
                charm = rt.charm
            else:
                charm = Charm(MachineConfig.summit(nodes=1))
                s, r = charm.create_chare(S, 0), charm.create_chare(R, 1)
            s.go(r)
            charm.run()
            return charm.time

        assert run(py=True) > run(py=False)
