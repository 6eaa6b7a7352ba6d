"""The OSU latency and bandwidth programs AMPI and OpenMPI share."""

from __future__ import annotations


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


def mpi_bandwidth(sess, size, gpus, gpu_aware, loops, skip, window) -> float:
    out: dict = {}
    done = sess.launch(_mpi_bw_program, list(gpus), size, gpu_aware, loops, skip, window, out)
    sess.run_until(done, max_events=20_000_000)
    return out["bw"]
