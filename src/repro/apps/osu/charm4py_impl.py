"""The OSU latency and bandwidth programs on Charm4py channels (Fig. 8)."""

from __future__ import annotations

from repro.charm4py import PyChare
from repro.sim.primitives import SimEvent


class _C4pLatency(PyChare):
    def __init__(self, size, gpu_aware, iters, skip, done):
        self.size = size
        self.gpu_aware = gpu_aware
        self.iters = iters
        self.skip = skip
        self.done = done
        cuda = self.c4p.cuda
        self.stream = cuda.create_stream(self.gpu)
        self.d_send = cuda.malloc(self.gpu, size)
        self.d_recv = cuda.malloc(self.gpu, size)
        node = self.charm.pe_object(self.pe).node
        self.h_out = cuda.malloc_host(node, size)
        self.h_in = cuda.malloc_host(node, size)

    def run(self, partner):
        c4p = self.c4p
        cuda = c4p.cuda
        ch = c4p.channel(self, partner)
        size = self.size
        t0 = 0.0
        me = self.thisIndex
        for i in range(self.iters + self.skip):
            if me == 0 and i == self.skip:
                t0 = c4p.sim.now
            if self.gpu_aware:
                # GPU-aware communication: device buffers straight to channel
                if me == 0:
                    yield ch.send(self.d_send, size)
                    yield ch.recv(self.d_recv, size)
                else:
                    yield ch.recv(self.d_recv, size)
                    yield ch.send(self.d_send, size)
            else:
                # host-staging mechanism (Fig. 8 upper branch)
                if me == 0:
                    cuda.memcpy_dtoh(self.h_out, self.d_send, self.stream, size)
                    yield cuda.stream_synchronize(self.stream)
                    yield ch.send(self.h_out)
                    h = yield ch.recv()
                    self.h_in.copy_from(h, size)
                    cuda.memcpy_htod(self.d_recv, self.h_in, self.stream, size)
                    yield cuda.stream_synchronize(self.stream)
                else:
                    h = yield ch.recv()
                    self.h_in.copy_from(h, size)
                    cuda.memcpy_htod(self.d_recv, self.h_in, self.stream, size)
                    yield cuda.stream_synchronize(self.stream)
                    cuda.memcpy_dtoh(self.h_out, self.d_send, self.stream, size)
                    yield cuda.stream_synchronize(self.stream)
                    yield ch.send(self.h_out)
        if me == 0:
            self.done.succeed((c4p.sim.now - t0) / (2 * self.iters))


def charm4py_latency(sess, size, gpus, gpu_aware, iters, skip) -> float:
    c4p = sess.lib
    done = SimEvent(c4p.sim, name="latency.done")
    ga, gb = gpus
    arr = c4p.create_array(
        _C4pLatency, 2, size, gpu_aware, iters, skip, done,
        mapping=lambda i: (ga, gb)[i],
    )
    arr[0].run(arr[1])
    arr[1].run(arr[0])
    return c4p.run_until(done, max_events=5_000_000)


class _C4pBandwidth(PyChare):
    def __init__(self, size, gpu_aware, loops, skip, window, done):
        self.size = size
        self.gpu_aware = gpu_aware
        self.loops = loops
        self.skip = skip
        self.window = window
        self.done = done
        cuda = self.c4p.cuda
        self.stream = cuda.create_stream(self.gpu)
        self.d_buf = cuda.malloc(self.gpu, size)
        node = self.charm.pe_object(self.pe).node
        self.h_stage = cuda.malloc_host(node, size)

    def run(self, partner):
        c4p = self.c4p
        cuda = c4p.cuda
        ch = c4p.channel(self, partner)
        size = self.size
        t0 = 0.0
        me = self.thisIndex
        for loop in range(self.loops + self.skip):
            if me == 0 and loop == self.skip:
                t0 = c4p.sim.now
            if me == 0:
                for _ in range(self.window):
                    if self.gpu_aware:
                        yield ch.send(self.d_buf, size)
                    else:
                        cuda.memcpy_dtoh(self.h_stage, self.d_buf, self.stream, size)
                        yield cuda.stream_synchronize(self.stream)
                        yield ch.send(self.h_stage)
                yield ch.recv()  # acknowledgement
            else:
                for _ in range(self.window):
                    if self.gpu_aware:
                        yield ch.recv(self.d_buf, size)
                    else:
                        h = yield ch.recv()
                        self.h_stage.copy_from(h, size)
                        cuda.memcpy_htod(self.d_buf, self.h_stage, self.stream, size)
                        yield cuda.stream_synchronize(self.stream)
                yield ch.send(b"ack")
        if me == 0:
            self.done.succeed(self.loops * self.window * size / (c4p.sim.now - t0))


def charm4py_bandwidth(sess, size, gpus, gpu_aware, loops, skip, window) -> float:
    c4p = sess.lib
    done = SimEvent(c4p.sim, name="bw.done")
    ga, gb = gpus
    arr = c4p.create_array(
        _C4pBandwidth, 2, size, gpu_aware, loops, skip, window, done,
        mapping=lambda i: (ga, gb)[i],
    )
    arr[0].run(arr[1])
    arr[1].run(arr[0])
    return c4p.run_until(done, max_events=20_000_000)
