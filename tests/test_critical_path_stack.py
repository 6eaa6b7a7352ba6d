"""The stack sweep of ``critical_path`` against the heap sweep it replaced.

``repro.obs.critical_path`` keeps the active spans on a plain stack, which is
the old max-heap on ``(start, sid)`` only because spans are pushed in that
order.  ``tests/oracles/critical_path_heap.py`` is the heap sweep, verbatim.
The contract is exact: the same ``blame`` (keys, insertion order and float
values) and the same ``segments``, on generated span forests (overlapping,
sharing a start, zero-width, left open, with parent overrides), under
explicit ``t0``/``t1`` windows that clamp them, and on the traced shapes of
the baseline's ``observed_*`` entries.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.obs.baseline import SHAPES
from repro.obs.critical_path import critical_path
from tests.oracles.critical_path_heap import critical_path as oracle
from tests.test_obs_export_text import _OPS, _play


def _report(analyse, tracer, t0=None, t1=None):
    """The report as comparable plain data, or the error it raised."""
    try:
        rep = analyse(tracer, t0, t1)
    except ValueError as exc:
        return str(exc)
    return (rep.t0, rep.t1, list(rep.blame.items()), rep.segments)


def _assert_same(tracer, t0=None, t1=None):
    got = _report(critical_path, tracer, t0, t1)
    assert got == _report(oracle, tracer, t0, t1)
    return got


_WINDOW = st.one_of(st.none(), st.floats(min_value=0.0, max_value=30.0))


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, t0=_WINDOW, t1=_WINDOW)
@example(ops=[], t0=None, t1=None)   # no spans: both refuse
def test_stack_sweep_equals_heap_sweep_on_generated_forests(ops, t0, t1):
    tracer = _play(ops, telemetry=False)
    _assert_same(tracer)
    _assert_same(tracer, t0, t1)


def test_shared_starts_go_to_the_latest_span():
    """Equal starts are a tie the sid breaks: the span opened last is the
    deepest, whatever its end."""
    tracer = _play([("open", 0.0, "ucx", "tag_send", {}, False, None),
                    ("open", 0.0, "ucx.match", "match", {}, False, None),
                    ("close", 1.0, 1), ("close", 1.0, 0)], telemetry=False)
    _, _, blame, _ = _assert_same(tracer)
    assert blame == [("matching", 1.0), ("ucx_protocol", 1.0)]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_stack_sweep_equals_heap_sweep_on_observed_runs(shape):
    cfg = MachineConfig.summit(nodes=2).override("trace=true")
    sess, _ = SHAPES[shape](cfg)
    _assert_same(sess.tracer)
