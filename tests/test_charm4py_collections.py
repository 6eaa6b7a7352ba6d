"""Additional Charm4py coverage: collections, broadcasts, channel edge cases."""

import pytest

from repro.charm4py import Charm4py, PyChare
from repro.config import KB, MachineConfig


class Counter(PyChare):
    def __init__(self, hits):
        self.hits = hits

    def bump(self, amount):
        self.hits.append((self.thisIndex, amount))


class TestPyCollections:
    def test_group_broadcast_with_python_costs(self):
        c4p = Charm4py(MachineConfig.summit(nodes=1))
        hits = []
        g = c4p.create_array(Counter, c4p.charm.n_pes, hits)
        g.bump(3)  # broadcast through the Python proxy
        c4p.charm.run()
        assert sorted(i for i, _a in hits) == list(range(c4p.charm.n_pes))
        assert all(a == 3 for _i, a in hits)

    def test_array_indexing_and_len(self):
        c4p = Charm4py(MachineConfig.summit(nodes=1))
        arr = c4p.create_array(Counter, 9, [])
        assert len(arr) == 9
        assert arr[4].chare_id == arr[4].chare_id

    def test_element_targeting(self):
        c4p = Charm4py(MachineConfig.summit(nodes=1))
        hits = []
        arr = c4p.create_array(Counter, 6, hits)
        arr[2].bump(1)
        arr[5].bump(2)
        c4p.charm.run()
        assert sorted(hits) == [(2, 1), (5, 2)]


class TestChannelEdgeCases:
    class Pair(PyChare):
        def __init__(self, out):
            self.out = out

        def multi(self, partner, n):
            ch = self.c4p.channel(self, partner)
            if self.thisIndex == 0:
                for i in range(n):
                    yield ch.send(("tuple", i), i * 1.5)
            else:
                for i in range(n):
                    v = yield ch.recv()
                    self.out.append(v)

    def test_multi_object_payloads(self):
        c4p = Charm4py(MachineConfig.summit(nodes=1))
        out = []
        arr = c4p.create_array(self.Pair, 2, out, mapping=lambda i: i)
        arr[0].multi(arr[1], 4)
        arr[1].multi(arr[0], 4)
        c4p.charm.run(max_events=500_000)
        assert out == [(("tuple", i), i * 1.5) for i in range(4)]

    def test_two_channels_same_pair_are_one_stream(self):
        """Channels are identified by the chare pair: a second Channel object
        between the same chares shares the endpoint state (documented)."""
        c4p = Charm4py(MachineConfig.summit(nodes=1))

        class Dual(PyChare):
            def __init__(self, out):
                self.out = out

            def run(self, partner):
                ch1 = self.c4p.channel(self, partner)
                ch2 = self.c4p.channel(self, partner)
                if self.thisIndex == 0:
                    yield ch1.send("via-ch1")
                    yield ch2.send("via-ch2")
                else:
                    a = yield ch1.recv()
                    b = yield ch2.recv()
                    self.out.extend([a, b])

        out = []
        arr = c4p.create_array(Dual, 2, out, mapping=lambda i: i)
        arr[0].run(arr[1])
        arr[1].run(arr[0])
        c4p.charm.run(max_events=500_000)
        assert out == ["via-ch1", "via-ch2"]

    def test_large_host_object_costs_serialisation_time(self):
        import numpy as np

        c4p = Charm4py(MachineConfig.summit(nodes=1))

        class Pair(PyChare):
            def __init__(self, times):
                self.times = times

            def run(self, partner, payload):
                ch = self.c4p.channel(self, partner)
                if self.thisIndex == 0:
                    t0 = self.c4p.sim.now
                    yield ch.send(payload)
                    self.times.append(self.c4p.sim.now - t0)
                else:
                    yield ch.recv()

        for nbytes, key in ((1 * KB, "small"), (1 << 20, "big")):
            times = []
            payload = np.zeros(nbytes, dtype=np.uint8)
            arr = c4p.create_array(Pair, 2, times, mapping=lambda i: i)
            arr[0].run(arr[1], payload)
            arr[1].run(arr[0], payload)
            c4p.charm.run(max_events=500_000)
            if key == "small":
                small_t = times[0]
            else:
                big_t = times[0]
        assert big_t > 10 * small_t  # pickling scales with payload size
