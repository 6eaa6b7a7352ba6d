"""Coverage for smaller surfaces: PE helpers, Charm4py device entry
parameters."""

import pytest

from repro.charm import Charm, CkDeviceBuffer
from repro.charm4py import Charm4py, PyChare
from repro.config import KB, MachineConfig


class TestPeHelpers:
    def test_negative_charge_rejected(self):
        charm = Charm(MachineConfig.summit(nodes=1))
        with pytest.raises(ValueError):
            charm.pe_object(0).charge(-1.0)

    def test_messages_processed_counter(self):
        from repro.charm import Chare

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
        s = c4p.create_chare(PySend, 0)
        r = c4p.create_chare(PyRecv, 3)
        s.go(r)
        c4p.charm.run()
        assert got == {"bytes": 1 * KB, "ok": True}

    def test_py_dispatch_costs_more_than_charm(self):
        """The same transfer takes longer through Charm4py chares."""
        from repro.charm import Chare

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
                s, r = rt.create_chare(S, 0), rt.create_chare(R, 1)
                charm = rt.charm
            else:
                charm = Charm(MachineConfig.summit(nodes=1))
                s, r = charm.create_chare(S, 0), charm.create_chare(R, 1)
            s.go(r)
            charm.run()
            return charm.time

        assert run(py=True) > run(py=False)

