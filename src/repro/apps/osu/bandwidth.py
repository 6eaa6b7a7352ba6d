"""OSU bandwidth benchmark for all four models (paper Figs. 12-13).

Windowed streaming: the sender issues ``window`` back-to-back non-blocking
sends of a given size, then waits for a small acknowledgement from the
receiver; repeated over several loops.  Bandwidth = bytes moved / elapsed.
The ``-H`` variant pays a ``cudaMemcpy``+sync per message on each side.
"""

from __future__ import annotations

from typing import Tuple

from repro.charm import Chare, CkDeviceBuffer
from repro.charm4py import PyChare
from repro.sim.primitives import SimEvent

WINDOW = 64


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
                    loops: int, skip: int, window: int = WINDOW) -> float:
    charm = sess.lib
    done = SimEvent(charm.sim, name="bw.done")
    ga, gb = gpus
    sender = charm.create_chare(_CharmBwSender, ga, size, gpu_aware, loops, skip, window, done)
    receiver = charm.create_chare(_CharmBwReceiver, gb, size, window)
    sender.start(receiver)
    return charm.run_until(done, max_events=20_000_000)


# ---------------------------------------------------------------------------
# MPI (shared program and runner for AMPI and OpenMPI)
# ---------------------------------------------------------------------------

def _mpi_bw_program(mpi, peers, size, gpu_aware, loops, skip, window, out):
    if mpi.rank not in peers:
        return
    me = peers.index(mpi.rank)
    other = peers[1 - me]
    cuda = mpi.charm.cuda
    d_buf = cuda.malloc(mpi.gpu, size)
    stream = cuda.create_stream(mpi.gpu)
    node = mpi.node
    h_stage = cuda.malloc_host(node, size)
    ackbuf = cuda.malloc_host(node, 8)
    t0 = 0.0

    for loop in range(loops + skip):
        if me == 0 and loop == skip:
            t0 = mpi.sim.now
        if me == 0:
            if gpu_aware:
                reqs = [mpi.isend(d_buf, size, dst=other, tag=200) for _ in range(window)]
                yield mpi.waitall(reqs)
            else:
                reqs = []
                for _ in range(window):
                    cuda.memcpy_dtoh(h_stage, d_buf, stream, size)
                    yield cuda.stream_synchronize(stream)
                    reqs.append(mpi.isend(h_stage, size, dst=other, tag=200))
                yield mpi.waitall(reqs)
            yield mpi.recv(ackbuf, 8, src=other, tag=201)
        else:
            if gpu_aware:
                reqs = [mpi.irecv(d_buf, size, src=other, tag=200) for _ in range(window)]
                yield mpi.waitall(reqs)
            else:
                reqs = [mpi.irecv(h_stage, size, src=other, tag=200) for _ in range(window)]
                yield mpi.waitall(reqs)
                for _ in range(window):
                    cuda.memcpy_htod(d_buf, h_stage, stream, size)
                cuda_done = cuda.stream_synchronize(stream)
                yield cuda_done
            yield mpi.send(ackbuf, 8, dst=other, tag=201)
    if me == 0:
        out["bw"] = loops * window * size / (mpi.sim.now - t0)


def mpi_bandwidth(sess, size, gpus, gpu_aware, loops, skip, window=WINDOW) -> float:
    out: dict = {}
    done = sess.launch(_mpi_bw_program, list(gpus), size, gpu_aware, loops, skip, window, out)
    sess.run_until(done, max_events=20_000_000)
    return out["bw"]


# ---------------------------------------------------------------------------
# Charm4py (channels)
# ---------------------------------------------------------------------------

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


def charm4py_bandwidth(sess, size, gpus, gpu_aware, loops, skip, window=WINDOW) -> float:
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
