"""The Chrome-trace text writer against the dict builder it replaced.

``repro.obs.export`` renders every event to its JSON text once and writes the
pieces; ``tests/oracles/chrome_trace_dict.py`` is the exporter it replaced
(one dict per event, ``heapq.merge``, ``json.dumps``).  Lane numbers, key
order, float formatting and string escaping are all in the bytes, so the
contract is byte equality: on the traced shapes of the baseline's
``observed_*`` entries (whose ``trace_sha256``/``timeline_sha256`` pin the
bytes themselves) and on generated span forests.  The non-finite rule is the
one deliberate difference and is tested on its own.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import MachineConfig
from repro.obs import Tracer, chrome_trace, export_chrome_trace, validate_chrome_trace
from repro.obs.baseline import SHAPES
from repro.obs.tracing import Span
from repro.sim.engine import Simulator
from tests.oracles.chrome_trace_dict import chrome_trace as oracle_chrome_trace


# ---------------------------------------------------------------------------
# the baseline's observed shapes: one traced + flight + telemetry run each
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_observed_run_exports_the_pinned_bytes(shape, tmp_path, strict_loads):
    cfg = MachineConfig.summit(nodes=2).override(
        {"trace": True, "flight": True, "telemetry": True})
    sess, _ = SHAPES[shape](cfg)
    trace = sess.export_chrome_trace(tmp_path / "trace.json").read_bytes()
    timeline = sess.export_timeline(tmp_path / "timeline.json").read_bytes()
    # the same bytes the dict builder produces, and both views agree
    oracle = oracle_chrome_trace(sess.tracer, process_name=f"repro-{sess.model}")
    assert trace == json.dumps(oracle).encode("ascii")
    parsed = sess.chrome_trace()
    assert parsed == strict_loads(trace)
    strict_loads(timeline)
    assert validate_chrome_trace(parsed)["n_spans"] == len(sess.tracer.spans)


# ---------------------------------------------------------------------------
# generated span forests
# ---------------------------------------------------------------------------

_AWKWARD = st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "/",
                            "é", "€", "\U0001f600", " ", " ", "a"])
_TEXT = st.text(alphabet=st.one_of(_AWKWARD, st.characters()), max_size=6)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_VALUE = st.recursive(
    st.one_of(st.integers(), st.booleans(), st.none(), _FINITE, _TEXT),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_TEXT, inner, max_size=2)),
    max_leaves=5)
#: attribute names, including the three the exporter sets itself
_KEY = st.one_of(st.sampled_from(["sid", "parent_sid", "incomplete", "size"]),
                 _TEXT)
_DT = st.one_of(st.sampled_from([0.0, 0.0, 1e-9, 1e-6, 0.5]),
                st.floats(min_value=0.0, max_value=5.0))
_OPEN = st.tuples(st.just("open"), _DT, _TEXT, _TEXT,
                  st.dictionaries(_KEY, _VALUE, max_size=3),
                  st.booleans(),                      # enter: ambient parent
                  st.one_of(st.none(), st.integers(min_value=0)))  # override
_CLOSE = st.tuples(st.just("close"), _DT, st.integers(min_value=0))
_SAMPLE = st.tuples(st.just("sample"), _DT, st.sampled_from(["q", "é", '"']),
                    st.one_of(st.integers(-5, 5), _FINITE))
_OPS = st.lists(st.one_of(_OPEN, _OPEN, _CLOSE, _CLOSE, _SAMPLE), max_size=24)


def _play(ops, telemetry: bool) -> Tracer:
    """Replay ``ops`` on a fresh tracer: spans that overlap, nest, share a
    start, have zero duration, stay open, or name another span as parent."""
    sim = Simulator()
    tracer = Tracer(sim, enabled=True, telemetry=telemetry)
    open_spans = []
    for op in ops:
        sim.now += op[1]
        if op[0] == "open":
            _, _, category, name, attrs, enter, override = op
            parent = (tracer.spans[override % len(tracer.spans)]
                      if override is not None and tracer.spans else None)
            # built directly: any string may be an attribute name here
            span = Span(tracer, category, name, parent, dict(attrs))
            if enter:
                span.__enter__()
            open_spans.append((span, enter))
        elif op[0] == "close" and open_spans:
            span, entered = open_spans.pop(op[2] % len(open_spans))
            if entered:
                span.__exit__()
            else:
                span.end()
        elif op[0] == "sample":
            tracer.timeline.sample(op[2], op[3])
    return tracer


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("trace") / "trace.json"


@settings(max_examples=300, deadline=None)
@given(ops=_OPS, telemetry=st.booleans(), process_name=_TEXT)
@example(ops=[], telemetry=False, process_name="repro-sim")  # empty tracer
def test_written_file_equals_dumps_of_the_oracle_dict(
        ops, telemetry, process_name, scratch_file, strict_loads):
    tracer = _play(ops, telemetry)
    data = export_chrome_trace(
        tracer, scratch_file, process_name=process_name).read_bytes()
    oracle = oracle_chrome_trace(tracer, process_name=process_name)
    assert data == json.dumps(oracle).encode("ascii")
    parsed = strict_loads(data)
    assert chrome_trace(tracer, process_name=process_name) == parsed
    stats = validate_chrome_trace(parsed)
    assert stats["n_spans"] == len(tracer.spans)
    if not telemetry:
        assert stats["n_counter_events"] == 0


# ---------------------------------------------------------------------------
# non-finite floats: never written as the non-JSON literals
# ---------------------------------------------------------------------------

def test_non_finite_attribute_is_written_as_a_string(tmp_path, strict_loads):
    tracer = Tracer(Simulator(), enabled=True)
    with tracer.span("x", "y", ratio=float("inf"), ok=1.5,
                     nested=[1.0, float("nan"), {"k": float("-inf")}]):
        pass
    text = export_chrome_trace(tracer, tmp_path / "t.json").read_text("ascii")
    begin = next(e for e in strict_loads(text)["traceEvents"] if e["ph"] == "B")
    assert begin["args"] == {"ratio": "inf", "ok": 1.5, "sid": 0,
                             "nested": [1.0, "nan", {"k": "-inf"}]}
    assert chrome_trace(tracer) == strict_loads(text)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validator_rejects_non_finite_ts_and_counter_values(bad):
    begin = {"name": "a", "ph": "B", "ts": 1.0, "pid": 0, "tid": 0}
    end = {"name": "a", "ph": "E", "ts": bad, "pid": 0, "tid": 0}
    with pytest.raises(ValueError, match=r"event 1: 'ts' must be finite"):
        validate_chrome_trace({"traceEvents": [begin, end]})
    counter = {"name": "q", "ph": "C", "ts": 1.0, "pid": 0, "tid": 0,
               "args": {"value": bad}}
    with pytest.raises(ValueError,
                       match=r"event 0: counter value 'value' must be finite"):
        validate_chrome_trace({"traceEvents": [counter]})
