"""OSU latency benchmark for all four models (paper Figs. 10-11).

Ping-pong: the sender sends a message of a given size, the receiver sends
one of the same size back; one-way latency is half the averaged round-trip
after warm-up iterations.  The ``-D`` variant supplies device buffers
directly to the communication primitives; the ``-H`` variant stages them
through host memory with ``cudaMemcpy``/``cudaStreamSynchronize`` (Fig. 8's
upper branch), the cost the paper quantifies.
"""

from __future__ import annotations

from typing import Tuple

from repro.charm import Chare, CkDeviceBuffer
from repro.charm4py import PyChare
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


# ---------------------------------------------------------------------------
# MPI (AMPI and OpenMPI share the program and the runner; the session's
# library object differs)
# ---------------------------------------------------------------------------

def _mpi_latency_program(mpi, peers, size, gpu_aware, iters, skip, out):
    if mpi.rank not in peers:
        return
    me = peers.index(mpi.rank)
    other = peers[1 - me]
    cuda = mpi.charm.cuda
    d_buf = cuda.malloc(mpi.gpu, size)
    stream = cuda.create_stream(mpi.gpu)
    h_out = cuda.malloc_host(mpi.node, size)
    h_in = cuda.malloc_host(mpi.node, size)
    t0 = 0.0

    for i in range(iters + skip):
        if me == 0 and i == skip:
            t0 = mpi.sim.now
        if gpu_aware:
            if me == 0:
                yield mpi.send(d_buf, size, dst=other, tag=100)
                yield mpi.recv(d_buf, size, src=other, tag=101)
            else:
                yield mpi.recv(d_buf, size, src=other, tag=100)
                yield mpi.send(d_buf, size, dst=other, tag=101)
        else:
            if me == 0:
                cuda.memcpy_dtoh(h_out, d_buf, stream, size)
                yield cuda.stream_synchronize(stream)
                yield mpi.send(h_out, size, dst=other, tag=100)
                yield mpi.recv(h_in, size, src=other, tag=101)
                cuda.memcpy_htod(d_buf, h_in, stream, size)
                yield cuda.stream_synchronize(stream)
            else:
                yield mpi.recv(h_in, size, src=other, tag=100)
                cuda.memcpy_htod(d_buf, h_in, stream, size)
                yield cuda.stream_synchronize(stream)
                cuda.memcpy_dtoh(h_out, d_buf, stream, size)
                yield cuda.stream_synchronize(stream)
                yield mpi.send(h_out, size, dst=other, tag=101)
    if me == 0:
        out["latency"] = (mpi.sim.now - t0) / (2 * iters)


def mpi_latency(sess, size, gpus, gpu_aware, iters, skip) -> float:
    out: dict = {}
    done = sess.launch(_mpi_latency_program, list(gpus), size, gpu_aware, iters, skip, out)
    sess.run_until(done, max_events=5_000_000)
    return out["latency"]


# ---------------------------------------------------------------------------
# Charm4py (channels, exactly the paper's Fig. 8 structure)
# ---------------------------------------------------------------------------

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
