"""Flight records are a fold over the tracer's stage log.

Two properties:

* the fold is the live recorder it replaced — seeded random stage sequences
  go through the real ``Tracer.stage`` into ``tracer.log`` and are folded,
  and the same sequences drive ``tests/oracles/flight_recorder.py`` through
  the handler table the stage rows used to hold; records and aggregates
  must be equal;
* the log holds plain values only (no buffer, request or span is kept alive
  by observation) and no entry for a host ``tag_send``.
"""

import random
from collections import Counter
from types import SimpleNamespace

import pytest

import repro.api as api
from repro.apps.jacobi3d.driver import run_jacobi
from repro.apps.osu.runner import run_latency
from repro.apps.shuffle.driver import run_shuffle
from repro.config import KB, MachineConfig
from repro.obs import stages
from repro.obs.flight import aggregate, flight_records
from repro.obs.tracing import Tracer
from repro.sim.engine import Simulator
from repro.ucx.worker import UcpWorker
from tests.oracles.flight_recorder import HANDLERS, FlightRecorder

TAGS = (1, 2, 3)
DSTS = (1, 2, None)

#: stage name -> draw weight; opening stages weigh more so records exist
WEIGHTS = {
    "LRTS_SEND_DEVICE": 4, "TAG_SEND": 4, "METADATA_SENT": 1,
    "METADATA_ARRIVED": 1, "LRTS_RECV_DEVICE": 2, "MATCH_EXPECTED": 2,
    "MATCH_UNEXPECTED": 2, "RNDV_FETCH": 1, "SEND_COMPLETED": 2,
    "DATA_LANDED": 3, "RETRANSMIT": 2, "CANCEL_SEND": 1, "CANCEL_RECV": 2,
    "TRUNCATED": 1, "TIMED_OUT": 1,
}


def _attrs(rng, name, tag):
    """The values a site of stage ``name`` passes (plus, for a tag send,
    whether its buffer is on the device)."""
    size = rng.choice((8, 4 * KB, 64 * KB))
    if name == "LRTS_SEND_DEVICE":
        return (rng.randrange(3), rng.randrange(3), size, tag)
    if name == "LRTS_RECV_DEVICE":
        return (rng.randrange(3), size, tag, "CHARM")
    if name == "TAG_SEND":
        src = rng.choice((0, 1, 2, None))
        return (tag, size, rng.choice(("eager", "rndv")), src), rng.random() < 0.8
    if name.startswith("MATCH"):
        return (tag, rng.randrange(4), name == "MATCH_UNEXPECTED",
                rng.randrange(100) * 1e-6)
    if name == "RNDV_FETCH":
        return (size, tag, rng.choice(("cuda_ipc", "rdma_get", "pipeline")))
    return ()


def _program(seed, n=80):
    rng = random.Random(seed)
    names, weights = zip(*WEIGHTS.items())
    t = 0.0
    for _ in range(n):
        t += rng.choice((0.0, 1e-6, 2.5e-6))
        name = rng.choices(names, weights)[0]
        tag = rng.choice(TAGS)
        yield t, name, tag, rng.choice(DSTS), _attrs(rng, name, tag)


def _oracle(program):
    sim = SimpleNamespace(now=0.0)
    fr = FlightRecorder(sim, enabled=True)
    for t, name, tag, dst, attrs in program:
        sim.now = t
        if name == "TAG_SEND":
            attrs, on_device = attrs
            attrs += (SimpleNamespace(on_device=on_device),)
        HANDLERS[name](fr, tag, dst, *attrs)
    return fr


def _folded(program):
    sim = Simulator()
    tracer = Tracer(sim, flight=True)
    for t, name, tag, dst, attrs in program:
        sim.now = t
        if name == "TAG_SEND":  # the site's rule: host sends pass no tag
            attrs, on_device = attrs
            tag = tag if on_device else None
        tracer.stage(getattr(stages, name), tag, dst, attrs=attrs)
    return flight_records(tracer.log)


def test_handler_table_covers_every_flight_stage():
    flight_rows = {name for name, st in vars(stages).items()
                   if isinstance(st, stages.Stage) and st.flight is not None}
    assert flight_rows == set(HANDLERS) == set(WEIGHTS)


def test_fold_equals_live_recorder_on_random_stage_sequences():
    seen = Counter()
    for seed in range(300):
        program = list(_program(seed))
        oracle = _oracle(program)
        records = _folded(program)
        assert [r.to_dict() for r in records] == \
            [r.to_dict() for r in oracle.records()], f"seed {seed}"
        assert aggregate(records) == oracle.aggregate(), f"seed {seed}"
        seen["opened_by_ucx_send"] += len(records) - sum(
            name == "LRTS_SEND_DEVICE" for _, name, *_ in program)
        for rec in records:
            seen["retransmits"] += rec.retransmits > 0
            seen["reposted"] += rec.recv_cancels > 0 and rec.posted_at is not None
            seen[f"error:{rec.error}"] += 1
    # the sequences exercise what the fold has to get right
    for feature in ("opened_by_ucx_send", "retransmits", "reposted",
                    "error:cancelled", "error:truncated",
                    "error:endpoint_timeout"):
        assert seen[feature] > 0, (feature, seen)


# ---------------------------------------------------------------------------
# what the log holds on real runs
# ---------------------------------------------------------------------------

PLAIN = (int, float, str, bool, type(None))


def _ampi_jacobi(cfg):
    sess = api.session(cfg).model("ampi").trace().flight().telemetry().build()
    run_jacobi("ampi", nodes=2, scaling="weak", iters=1, warmup=1, session=sess)
    return sess


def _openmpi_shuffle(cfg):
    sess = (api.session(cfg).model("openmpi").ranks(cfg.topology.total_gpus)
            .trace().flight().telemetry().build())
    run_shuffle("openmpi", rounds=1, chunk=64 * KB, session=sess)
    return sess


def _openmpi_host_staged(cfg):
    sess = api.session(cfg).model("openmpi").trace().flight().telemetry().build()
    run_latency("openmpi", 64 * KB, "inter", False, session=sess, iters=2, skip=1)
    return sess


@pytest.mark.parametrize("run", [_ampi_jacobi, _openmpi_shuffle, _openmpi_host_staged],
                         ids=lambda f: f.__name__.lstrip("_"))
def test_log_holds_plain_values_and_no_host_send(run, monkeypatch):
    sends = {True: Counter(), False: Counter()}  # on_device -> (time, tag, dst)
    tag_send_nb = UcpWorker.tag_send_nb

    def recording(self, ep, buf, size, tag, cb=None):
        sends[buf.on_device][(self.sim.now, tag, ep.remote.worker_id)] += 1
        return tag_send_nb(self, ep, buf, size, tag, cb)

    monkeypatch.setattr(UcpWorker, "tag_send_nb", recording)
    sess = run(MachineConfig.summit(nodes=2))
    log = sess.tracer.log
    assert sum(sends[True].values()) + sum(sends[False].values()) > 0
    bad = [entry for entry in log if not all(type(v) in PLAIN for v in entry)]
    assert not bad, bad[:3]
    logged_sends = Counter((t, tag, dst) for t, op, tag, dst, *_ in log
                           if op == "ucx_send")
    assert logged_sends == sends[True]
    assert not logged_sends & sends[False]
    assert len(sess.flight_records()) == sum(sends[True].values())
