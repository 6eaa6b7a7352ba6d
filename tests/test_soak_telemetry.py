"""Soak-stress gate for the telemetry subsystem.

Waves of seeded mixed host/device traffic run on ONE session with the
pooled allocator and a lossy fault plan — the regime where queues churn,
the pool cycles slabs, and retransmits fire.  The gate asserts the two
promises the telemetry tentpole makes (a runaway sampling path is caught by
the per-test wall-clock ceiling the root ``conftest.py`` applies):

* **bounded memory**: every retained ring buffer stays within its
  capacity no matter how many samples the soak offers, and the
  congestion aggregates stay bounded by link count / window cap;
* **zero perturbation**: the full fingerprint of the soak with
  telemetry on is bit-identical to telemetry off, faults and all.
"""

import numpy as np
import pytest

import repro.api as api
from repro.config import MachineConfig
from repro.faults import FaultPlan
from tests.test_stress_random_traffic import make_plan

N_RANKS = 12
N_WAVES = 3
MSGS_PER_WAVE = 30
#: deliberately tiny ring buffers so the soak decimates many times over
SOAK_CAPACITY = 64


def _soak_config(telemetry):
    cfg = (MachineConfig.summit(nodes=2)
           .with_pool(True)
           .with_faults(FaultPlan.lossy(drop_p=0.05, seed=11)))
    if telemetry:
        cfg = cfg.override({"telemetry": True})
    return cfg


def _run_soak(telemetry):
    sess = api.session(_soak_config(telemetry)).model("ampi").build()
    # series are created on their first sample, so this sizes all of them
    sess.tracer.timeline.capacity = SOAK_CAPACITY
    received = {}

    for wave in range(N_WAVES):
        rng = np.random.default_rng(100 + wave)
        plan = make_plan(rng, n_ranks=N_RANKS, n_msgs=MSGS_PER_WAVE,
                         device_fraction=0.5, max_kb=48)

        def program(mpi, plan=plan, wave=wave):
            cuda = mpi.charm.cuda
            reqs, recv_bufs = [], []
            for i, src, dst, tag, size, dev in plan:
                if dst == mpi.rank:
                    buf = (cuda.malloc(mpi.gpu, size) if dev
                           else cuda.malloc_host(mpi.node, size))
                    recv_bufs.append((wave * MSGS_PER_WAVE + i, buf))
                    reqs.append(mpi.irecv(buf, size, src=src, tag=tag))
            for i, src, dst, tag, size, dev in plan:
                if src == mpi.rank:
                    buf = (cuda.malloc(mpi.gpu, size) if dev
                           else cuda.malloc_host(mpi.node, size))
                    buf.data[:] = i % 251
                    reqs.append(mpi.isend(buf, size, dst=dst, tag=tag))
            yield mpi.waitall(reqs)
            for key, buf in recv_bufs:
                received[key] = int(buf.data[0])

        done = sess.launch(program)
        sess.run_until(done, max_events=50_000_000)

    fingerprint = {
        "received": dict(received),
        "now": sess.now,
        "event_count": sess.sim.event_count,
        "counters": dict(sess.counters),
    }
    return sess, fingerprint


def test_soak_bounded_and_bit_identical():
    sess_off, fp_off = _run_soak(telemetry=False)
    sess_on, fp_on = _run_soak(telemetry=True)

    # -- zero perturbation: identical fingerprints, faults and all --------
    assert fp_on == fp_off
    assert len(fp_on["received"]) == N_WAVES * MSGS_PER_WAVE
    # the lossy plan actually exercised the retransmit path
    assert any(k.startswith("fault.") and v > 0
               for k, v in fp_on["counters"].items())

    # -- telemetry actually observed the soak -----------------------------
    telem = sess_on.tracer.timeline
    assert telem.enabled and telem.series
    names = set(telem.series)
    assert any(n.startswith("matchq.") for n in names)
    assert any(n.startswith("pool.") for n in names)
    assert any(n.startswith("link.") for n in names)
    assert "engine.pending_events" in names
    # faults surfaced as a retransmit series
    assert telem.counter("fault.retransmits") > 0

    # -- bounded memory ----------------------------------------------------
    for name, ts in telem.series.items():
        assert len(ts.times) <= SOAK_CAPACITY, name
        assert len(ts.values) == len(ts.times), name
    # decimation really happened somewhere (the soak offers far more than
    # SOAK_CAPACITY samples to the busiest series)
    assert any(ts.stride > 1 for ts in telem.series.values())
    # queues drained: every depth series ends at zero
    for name, ts in telem.series.items():
        if name.startswith("matchq."):
            assert ts.stats()["last"] == 0.0, name
            assert ts.vmin >= 0.0, name
    # congestion aggregates bounded by link count / window cap
    assert len(telem.links) <= 64
    for rec in telem.saturation.values():
        assert len(rec["windows"]) <= telem._sat_window_cap
    # the telemetry-off session carries no series at all
    assert not sess_off.tracer.timeline.series


def test_soak_telemetry_deterministic():
    """Two identical telemetry soaks retain identical series."""
    sess1, fp_a = _run_soak(telemetry=True)
    sess2, fp_b = _run_soak(telemetry=True)
    assert fp_a == fp_b
    assert sess1.timeline() == sess2.timeline()
