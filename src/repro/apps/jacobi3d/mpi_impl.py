"""MPI Jacobi3D — one program, two libraries (AMPI §IV-C2 + OpenMPI ref).

The rank program and its runner are identical for AMPI and OpenMPI (that is
AMPI's point); only the session's library object differs.  GPU-aware mode passes device buffers
straight to ``MPI_Isend``/``MPI_Irecv`` like any CUDA-aware MPI; host
staging adds the explicit ``cudaMemcpy`` ladder.
"""

from __future__ import annotations

from repro.apps.jacobi3d.common import BlockState, BlockTimings, ResultCollector, halo_tags
from repro.apps.jacobi3d.decomposition import DIRS, Decomposition, opposite


def jacobi_mpi_program(mpi, decomp: Decomposition, gpu_aware: bool, iters: int,
                       warmup: int, functional: bool, collector: ResultCollector):
    if mpi.rank >= decomp.n_blocks:
        return
    st = BlockState(mpi.charm.cuda, mpi.gpu, decomp, mpi.rank, functional,
                    host_staging=not gpu_aware)
    timings = BlockTimings()
    nbrs = st.neighbors
    for it in range(warmup + iters):
        t0 = mpi.sim.now
        parity = it % 2
        tags = halo_tags(it)
        yield st.pack(parity)
        tc0 = mpi.sim.now
        if gpu_aware:
            ghosts, sends = st.d_ghost[parity], st.d_send[parity]
            reqs = [
                mpi.irecv(ghosts[DIRS.index(d)], st.faces[d], src=nbr,
                          tag=tags[DIRS.index(d)])
                for d, nbr in nbrs
            ]
            reqs += [
                mpi.isend(sends[DIRS.index(d)], st.faces[d], dst=nbr,
                          tag=tags[DIRS.index(opposite(d))])
                for d, nbr in nbrs
            ]
            yield mpi.waitall(reqs)
        else:
            yield st.stage_out(parity)
            reqs = [
                mpi.irecv(st.h_recv[d], st.faces[d], src=nbr,
                          tag=tags[DIRS.index(d)])
                for d, nbr in nbrs
            ]
            reqs += [
                mpi.isend(st.h_send[d], st.faces[d], dst=nbr,
                          tag=tags[DIRS.index(opposite(d))])
                for d, nbr in nbrs
            ]
            yield mpi.waitall(reqs)
            for d, _nbr in nbrs:
                st.cuda.memcpy_htod(st.d_ghost[parity][DIRS.index(d)], st.h_recv[d],
                                    st.stream, st.faces[d])
            yield st.cuda.stream_synchronize(st.stream)
        tcomm = mpi.sim.now - tc0
        yield st.unpack(parity)
        yield st.compute()
        st.swap()
        timings.iter_times.append(mpi.sim.now - t0)
        timings.comm_times.append(tcomm)
    collector.report(mpi.rank, timings, st.u)


def run_mpi_jacobi(sess, decomp: Decomposition, gpu_aware: bool, iters: int = 5,
                   warmup: int = 1, functional: bool = False) -> ResultCollector:
    if decomp.n_blocks != sess.lib.n_ranks:
        raise ValueError(f"{decomp.n_blocks} blocks but {sess.lib.n_ranks} ranks")
    collector = ResultCollector(sess.sim, decomp.n_blocks, warmup)
    done = sess.launch(
        jacobi_mpi_program, decomp, gpu_aware, iters, warmup, functional, collector
    )
    sess.run_until(done, max_events=200_000_000)
    return collector
