"""The OSU latency and bandwidth programs on Charm++."""

from __future__ import annotations

from typing import Tuple

from repro.charm import Chare, CkDeviceBuffer
from repro.sim.primitives import SimEvent


class _CharmLatency(Chare):
    """One side of the Charm++ ping-pong (index 0 drives and measures)."""

    def __init__(self, size: int, gpu_aware: bool, iters: int, skip: int, done: SimEvent):
        self.size = size
        self.gpu_aware = gpu_aware
        self.iters = iters
        self.skip = skip
        self.done = done
        cuda = self.charm.cuda
        self.stream = cuda.create_stream(self.gpu)
        self.d_send = cuda.malloc(self.gpu, size)
        self.d_recv = cuda.malloc(self.gpu, size)
        node = self.charm.pe_object(self.pe).node
        self.h_out = cuda.malloc_host(node, size)  # staging for sends
        self.h_in = cuda.malloc_host(node, size)  # message payload, receiver side
        self.count = 0
        self.t0 = None
        self.partner = None

    # -- driver (runs on index 0) ------------------------------------------------
    def start(self, partner):
        self.partner = partner
        if self.gpu_aware:
            self.partner.ping(CkDeviceBuffer.wrap(self.d_send, size=self.size), self.thisProxy)
        else:
            yield from self._staged_send()

    def _staged_send(self):
        cuda = self.charm.cuda
        cuda.memcpy_dtoh(self.h_out, self.d_send, self.stream, self.size)
        yield cuda.stream_synchronize(self.stream)
        self.partner.ping_h(self.h_out, self.thisProxy)

    def _advance(self):
        """Index 0 completed one round trip."""
        self.count += 1
        if self.count == self.skip:
            self.t0 = self.charm.time
        if self.count == self.skip + self.iters:
            self.done.succeed((self.charm.time - self.t0) / (2 * self.iters))
            return False
        return True

    # -- GPU-aware path -----------------------------------------------------------
    def ping_post(self, posts, sender):
        posts[0].buffer = self.d_recv

    def ping(self, data, sender):
        if self.thisIndex == 1:
            sender.ping(CkDeviceBuffer.wrap(self.d_send, size=self.size), self.thisProxy)
        elif self._advance():
            self.partner.ping(CkDeviceBuffer.wrap(self.d_send, size=self.size), self.thisProxy)

    # -- host-staging path (threaded: blocks on cudaStreamSynchronize) -------------
    def ping_h(self, host_data, sender):
        cuda = self.charm.cuda
        # message payload is on this node now; unpack straight to the GPU
        self.h_in.copy_from(host_data, self.size)
        cuda.memcpy_htod(self.d_recv, self.h_in, self.stream, self.size)
        yield cuda.stream_synchronize(self.stream)
        if self.thisIndex == 1:
            cuda.memcpy_dtoh(self.h_out, self.d_send, self.stream, self.size)
            yield cuda.stream_synchronize(self.stream)
            sender.ping_h(self.h_out, self.thisProxy)
        elif self._advance():
            yield from self._staged_send()


def charm_latency(sess, size: int, gpus: Tuple[int, int], gpu_aware: bool,
                  iters: int, skip: int) -> float:
    charm = sess.lib
    done = SimEvent(charm.sim, name="latency.done")
    ga, gb = gpus
    arr = charm.create_array(
        _CharmLatency, 2, size, gpu_aware, iters, skip, done,
        mapping=lambda i: (ga, gb)[i],
    )
    arr[0].start(arr[1])
    return charm.run_until(done, max_events=5_000_000)


class _CharmBwSender(Chare):
    def __init__(self, size, gpu_aware, loops, skip, window, done):
        self.size = size
        self.gpu_aware = gpu_aware
        self.loops = loops
        self.skip = skip
        self.window = window
        self.done = done
        cuda = self.charm.cuda
        self.stream = cuda.create_stream(self.gpu)
        self.d_send = cuda.malloc(self.gpu, size)
        node = self.charm.pe_object(self.pe).node
        self.h_out = cuda.malloc_host(node, size)
        self._ack = None

    def start(self, receiver):
        cuda = self.charm.cuda
        t0 = 0.0
        for loop in range(self.loops + self.skip):
            if loop == self.skip:
                t0 = self.charm.time
            self._ack = SimEvent(self.charm.sim, name="bw.ack")
            for _ in range(self.window):
                if self.gpu_aware:
                    receiver.sink(
                        CkDeviceBuffer.wrap(self.d_send, size=self.size), self.thisProxy
                    )
                else:
                    cuda.memcpy_dtoh(self.h_out, self.d_send, self.stream, self.size)
                    yield cuda.stream_synchronize(self.stream)
                    receiver.sink_h(self.h_out, self.thisProxy)
            yield self._ack
        elapsed = self.charm.time - t0
        self.done.succeed(self.loops * self.window * self.size / elapsed)

    def ack(self):
        self._ack.succeed(None)


class _CharmBwReceiver(Chare):
    def __init__(self, size, window):
        self.size = size
        self.window = window
        cuda = self.charm.cuda
        self.stream = cuda.create_stream(self.gpu)
        self.d_recv = cuda.malloc(self.gpu, size)
        node = self.charm.pe_object(self.pe).node
        self.h_in = cuda.malloc_host(node, size)
        self.count = 0

    def _arrived(self, sender):
        self.count += 1
        if self.count == self.window:
            self.count = 0
            sender.ack()

    def sink_post(self, posts, sender):
        posts[0].buffer = self.d_recv

    def sink(self, data, sender):
        self._arrived(sender)

    def sink_h(self, host_data, sender):
        cuda = self.charm.cuda
        self.h_in.copy_from(host_data, self.size)
        cuda.memcpy_htod(self.d_recv, self.h_in, self.stream, self.size)
        yield cuda.stream_synchronize(self.stream)
        self._arrived(sender)


def charm_bandwidth(sess, size: int, gpus: Tuple[int, int], gpu_aware: bool,
                    loops: int, skip: int, window: int) -> float:
    charm = sess.lib
    done = SimEvent(charm.sim, name="bw.done")
    ga, gb = gpus
    sender = charm.create_chare(_CharmBwSender, ga, size, gpu_aware, loops, skip, window, done)
    receiver = charm.create_chare(_CharmBwReceiver, gb, size, window)
    sender.start(receiver)
    return charm.run_until(done, max_events=20_000_000)
