"""Property-based tests on core invariants (hypothesis)."""

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ampi.matching import ANY_SOURCE, ANY_TAG, AmpiEnvelope, MatchEngine, PostedMpiRecv
from repro.sim.engine import Simulator
from repro.sim.primitives import SimEvent


# ---------------------------------------------------------------------------
# event engine ordering vs a sorted-reference oracle
# ---------------------------------------------------------------------------

@given(delays=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=50))
@settings(max_examples=100)
def test_engine_executes_in_sorted_stable_order(delays):
    sim = Simulator()
    fired = []
    for i, d in enumerate(delays):
        sim.schedule(d, fired.append, (d, i))
    sim.run()
    assert fired == sorted(fired, key=lambda p: (p[0], p[1]))


@given(
    delays=st.lists(st.floats(0, 10, allow_nan=False), min_size=1, max_size=30),
    cancel_idx=st.data(),
)
@settings(max_examples=50)
def test_cancellation_removes_exactly_the_cancelled(delays, cancel_idx):
    sim = Simulator()
    fired = []
    handles = [sim.schedule(d, fired.append, i) for i, d in enumerate(delays)]
    victim = cancel_idx.draw(st.integers(0, len(handles) - 1))
    handles[victim].cancel()
    sim.run()
    assert victim not in fired
    assert sorted(fired) == [i for i in range(len(delays)) if i != victim]


# ---------------------------------------------------------------------------
# AMPI matching engine vs a brute-force oracle
# ---------------------------------------------------------------------------

class _Oracle:
    """Straightforward reference implementation of MPI matching."""

    def __init__(self):
        self.unexpected = []
        self.posted = []

    @staticmethod
    def _match(req, env):
        return (
            env.comm == req["comm"]
            and (req["src"] == ANY_SOURCE or req["src"] == env.src)
            and (req["tag"] == ANY_TAG or req["tag"] == env.tag)
        )

    def envelope(self, env):
        for i, req in enumerate(self.posted):
            if self._match(req, env):
                return self.posted.pop(i)["id"]
        self.unexpected.append(env)
        return None

    def recv(self, req):
        for i, env in enumerate(self.unexpected):
            if self._match(req, env):
                return self.unexpected.pop(i).seq
        self.posted.append(req)
        return None


_ops = st.lists(
    st.one_of(
        st.tuples(st.just("env"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(
            st.just("recv"),
            st.sampled_from([ANY_SOURCE, 0, 1, 2, 3]),
            st.sampled_from([ANY_TAG, 0, 1, 2, 3]),
        ),
    ),
    min_size=1,
    max_size=40,
)


@given(ops=_ops)
@settings(max_examples=200)
def test_matching_engine_agrees_with_oracle(ops):
    sim = Simulator()
    engine = MatchEngine()
    oracle = _Oracle()
    seq = 0
    req_id = 0
    for op in ops:
        if op[0] == "env":
            _, src, tag = op
            env = AmpiEnvelope(src=src, dst=0, tag=tag, comm=0, size=8, seq=seq)
            matched, _ = engine.match_envelope(env)
            oracle_hit = oracle.envelope(env)
            assert (matched is not None) == (oracle_hit is not None)
            if matched is not None:
                assert matched.event.name == f"r{oracle_hit}"
            seq += 1
        else:
            _, src, tag = op
            ev = SimEvent(sim, name=f"r{req_id}")
            req = PostedMpiRecv(src=src, tag=tag, comm=0, buf=None,
                                capacity=1 << 30, event=ev)
            matched, _ = engine.match_recv(req)
            oracle_hit = oracle.recv({"src": src, "tag": tag, "comm": 0, "id": req_id})
            assert (matched is not None) == (oracle_hit is not None)
            if matched is not None:
                assert matched.seq == oracle_hit
            req_id += 1
    # residual queue lengths agree
    assert len(engine.unexpected) == len(oracle.unexpected)
    assert len(engine.posted) == len(oracle.posted)


# ---------------------------------------------------------------------------
# cost-model monotonicity
# ---------------------------------------------------------------------------

@given(
    a=st.integers(1, 1 << 22),
    b=st.integers(1, 1 << 22),
)
@settings(max_examples=100)
def test_pipeline_bandwidth_monotone(a, b):
    from repro.config import MachineConfig
    from repro.ucx.protocols.pipeline import pipeline_effective_bandwidth

    cfg = MachineConfig.summit()
    lo, hi = min(a, b), max(a, b)
    assert pipeline_effective_bandwidth(cfg, lo) <= (
        pipeline_effective_bandwidth(cfg, hi) * (1 + 1e-9)
    )


@given(size=st.integers(0, 1 << 23))
@settings(max_examples=100)
def test_link_transfer_time_affine(size):
    from repro.config import LinkParams

    p = LinkParams(latency=1e-6, bandwidth=1e9)
    assert p.transfer_time(size) == 1e-6 + size / 1e9


# ---------------------------------------------------------------------------
# buffer copy semantics
# ---------------------------------------------------------------------------

@given(
    n=st.integers(1, 256),
    k=st.integers(1, 256),
    fill=st.integers(0, 255),
)
@settings(max_examples=100)
def test_partial_copy_preserves_tail(n, k, fill):
    from repro.hardware.memory import Buffer, MemoryKind

    size = max(n, k)
    src = Buffer(MemoryKind.HOST, size, 0, data=np.full(size, fill, dtype=np.uint8))
    dst = Buffer(MemoryKind.HOST, size, 0, data=np.zeros(size, dtype=np.uint8))
    dst.copy_from(src, nbytes=min(n, k))
    cut = min(n, k)
    assert (dst.data[:cut] == fill).all()
    assert (dst.data[cut:] == 0).all()
