"""Charm4py shuffle: one coroutine chare per rank, channels to every peer.

The Python-side pattern mirrors dask-cuda workers on UCX-Py: every worker
holds a channel per peer (O(ranks²) endpoints across the job) and streams
repartitioned chunks through them.  Sends are asynchronous; receives run
sequentially on the coroutine, as Charm4py drives them.
"""

from __future__ import annotations

from repro.apps.shuffle.common import (
    ShuffleCollector,
    ShufflePlan,
    chunk_bytes,
)
from repro.charm4py import PyChare
from repro.sim.primitives import SimEvent


class ShuffleChare(PyChare):
    def __init__(self, plan: ShufflePlan, collector: ShuffleCollector,
                 done: SimEvent):
        self.plan = plan
        self.collector = collector
        self.done = done

    def run(self, peers):
        plan = self.plan
        me = self.thisIndex
        c4p = self.c4p
        tracer = c4p.charm.machine.tracer
        others = [r for r in range(plan.n_ranks) if r != me]
        chans = {r: c4p.channel(self, peers[r]) for r in others}
        moved = 0
        chunks = 0
        prev_send = []
        for rnd in range(plan.rounds):
            tracer.count("shuffle", "round_start")
            send_bufs = []
            recv_bufs = []
            for dst in others:
                nbytes = chunk_bytes(plan, rnd, me, dst)
                sb = c4p.cuda.malloc(self.gpu, nbytes)
                send_bufs.append(sb)
                yield chans[dst].send(sb, nbytes)
                tracer.count("shuffle", "chunk_sent")
                moved += nbytes
                chunks += 1
            for src in others:
                nbytes = chunk_bytes(plan, rnd, src, me)
                rb = c4p.cuda.malloc(self.gpu, nbytes)
                recv_bufs.append(rb)
                yield chans[src].recv(rb, nbytes)
            # Channel sends complete on injection, not on remote receipt, so
            # a round-``rnd`` send buffer is only provably consumed once every
            # peer has passed its round-``rnd`` receive loop — which the
            # round-``rnd+1`` receives witness.  Free one round behind; the
            # final round's send buffers live until the run ends (as the
            # output partitions of a real shuffle do).
            for buf in recv_bufs:
                c4p.cuda.free(buf)
            for buf in prev_send:
                c4p.cuda.free(buf)
            prev_send = send_bufs
            self.collector.report_round(rnd, c4p.sim.now)
        self.collector.report_rank(moved, chunks)
        self._maybe_done()

    def _maybe_done(self) -> None:
        # every rank reports exactly once; the last one completes the run
        if self.collector._reports == self.plan.n_ranks:
            self.done.succeed(None)


def run_charm4py_shuffle(sess, plan: ShufflePlan):
    c4p = sess.lib
    if plan.n_ranks > c4p.charm.n_pes:
        raise ValueError(f"{plan.n_ranks} ranks but {c4p.charm.n_pes} PEs")
    collector = ShuffleCollector(plan, "charm4py")
    done = SimEvent(c4p.sim, name="shuffle.done")
    peers = c4p.create_array(
        ShuffleChare, plan.n_ranks, plan, collector, done,
        mapping=lambda i: i,
    )
    for i in range(plan.n_ranks):
        peers[i].run(peers)
    c4p.run_until(done, max_events=500_000_000)
    return collector.finalize(c4p.sim.now)
