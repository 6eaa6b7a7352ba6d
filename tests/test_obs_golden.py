"""Golden comparison: observation on must be *bit-identical* to off.

The observability layer is observation-only — spans, charges, histograms,
flight records and telemetry series never call ``sim.schedule``, never
change a modeled delay, and counters are incremented identically whatever
is switched on.  One matrix checks it: every subset of the three switches
``{trace, flight, telemetry}`` x every workload shape below, each run
compared against the all-off fingerprint of its shape (clock, event count,
counters, and the shape's own results), in the style of
``tests/test_matching_golden.py``.  A run with a switch on must also have
recorded something through it, or the comparison would be vacuous.
"""

import functools
import itertools

import pytest

import repro.api as api
from repro.apps.osu.runner import run_bandwidth, run_latency
from repro.config import MachineConfig
from tests.test_matching_golden import _make_program, make_plan

SWITCHES = ("trace", "flight", "telemetry")
SUBSETS = [
    subset for r in range(len(SWITCHES) + 1)
    for subset in itertools.combinations(SWITCHES, r)
]


def _mixed(model, seed):
    """Mixed matching workload: host + device, exact + wildcard receives."""
    def run(sess):
        plan = make_plan(seed, n_msgs=50)
        payloads, finish = {}, {}
        done = sess.launch(_make_program(plan, sess.sim, payloads, finish))
        sess.run_until(done, max_events=50_000_000)
        assert len(payloads) == 50
        return {"payloads": payloads, "finish_times": finish}
    return model, run, None


def _latency(model, placement, size):
    def run(sess):
        lat = run_latency(model, size, placement, True, session=sess,
                          iters=6, skip=2)
        assert lat > 0
        return {"latency": lat}
    return model, run, size


def _bandwidth(model):
    def run(sess):
        bw = run_bandwidth(model, 64 * 1024, "inter", True, session=sess,
                           loops=2, skip=1, window=8)
        assert bw > 0
        return {"bw": bw}
    return model, run, 64 * 1024


#: name -> (model, run(sess) -> results, device message size if uniform)
SHAPES = {
    "mixed-openmpi-0": _mixed("openmpi", 0),
    "mixed-openmpi-2": _mixed("openmpi", 2),
    "mixed-ampi-1": _mixed("ampi", 1),
    "bw-ampi": _bandwidth("ampi"),
    "bw-charm4py": _bandwidth("charm4py"),
}
for _model in ("charm", "ampi", "openmpi", "charm4py"):
    SHAPES[f"lat-{_model}-intra-8"] = _latency(_model, "intra", 8)
    SHAPES[f"lat-{_model}-inter-256K"] = _latency(_model, "inter", 256 * 1024)


def _run(shape, on):
    model, run, _size = SHAPES[shape]
    cfg = MachineConfig.summit(nodes=2).override(
        {switch: switch in on for switch in ("trace", "flight", "telemetry")})
    sess = api.session(cfg).model(model).build()
    fingerprint = run(sess)
    fingerprint.update(now=sess.now, event_count=sess.sim.event_count,
                       counters=dict(sess.counters))
    return fingerprint, sess


@functools.lru_cache(maxsize=None)
def _all_off(shape):
    return _run(shape, ())[0]


@pytest.mark.parametrize("on", SUBSETS, ids=lambda on: "+".join(on) or "off")
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_observation_never_moves_the_simulation(shape, on):
    fingerprint, sess = _run(shape, on)
    assert fingerprint == _all_off(shape)

    size = SHAPES[shape][2]
    spans, records = sess.tracer.spans, sess.flight_records()
    series = sess.timeline()["series"]
    # each switch records through its own recorder, and only when on
    assert bool(spans) == ("trace" in on)
    assert bool(series) == ("telemetry" in on)
    if "trace" in on:
        assert any(s.parent_sid >= 0 for s in spans)
    if "flight" in on:
        assert records and all(r.complete for r in records)
        if size is not None:
            proto = "rndv" if size >= 4096 else "eager"
            assert all(r.protocol == proto for r in records)
    else:
        assert not records
    if "telemetry" in on and size is not None and size >= 4096:
        # tiny messages may bypass the modeled links entirely
        assert any(name.startswith("link.") for name in series)
