"""Tests (incl. property-based) for the 64-bit device tag scheme (Fig. 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TagConfig
from repro.core.device_tags import (
    MsgType,
    TagGenerator,
    decode_tag,
    make_tag,
)


class TestMakeDecode:
    def test_roundtrip_defaults(self):
        tag = make_tag(MsgType.DEVICE, pe=123, count=456)
        assert decode_tag(tag) == (MsgType.DEVICE, 123, 456)

    def test_tag_fits_64_bits(self):
        cfg = TagConfig()
        tag = make_tag(
            MsgType.PROBE, (1 << cfg.pe_bits) - 1, (1 << cfg.cnt_bits) - 1, cfg
        )
        assert 0 <= tag < (1 << 64)

    def test_pe_out_of_range_rejected(self):
        cfg = TagConfig(msg_bits=4, pe_bits=8, cnt_bits=52)
        with pytest.raises(ValueError):
            make_tag(MsgType.DEVICE, pe=256, count=0, cfg=cfg)

    def test_count_wraps(self):
        cfg = TagConfig()
        wrapped = make_tag(MsgType.DEVICE, 0, 1 << cfg.cnt_bits)
        assert decode_tag(wrapped) == (MsgType.DEVICE, 0, 0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            make_tag(MsgType.DEVICE, 0, -1)

    def test_decode_rejects_oversized(self):
        with pytest.raises(ValueError):
            decode_tag(1 << 64)


class TestTagConfig:
    def test_fields_must_sum_to_64(self):
        with pytest.raises(ValueError):
            TagConfig(msg_bits=4, pe_bits=32, cnt_bits=29)

    def test_fields_must_be_positive(self):
        with pytest.raises(ValueError):
            TagConfig(msg_bits=0, pe_bits=32, cnt_bits=32)

    def test_custom_split_roundtrip(self):
        # the paper: "modified by the user to allocate more bits to one side"
        cfg = TagConfig(msg_bits=4, pe_bits=20, cnt_bits=40)
        tag = make_tag(MsgType.DEVICE, pe=(1 << 20) - 1, count=(1 << 40) - 1, cfg=cfg)
        assert decode_tag(tag, cfg) == (MsgType.DEVICE, (1 << 20) - 1, (1 << 40) - 1)


class TestTagGenerator:
    def test_monotonic_counter(self):
        gen = TagGenerator(pe=3)
        tags = [gen.next_device_tag() for _ in range(5)]
        counts = [decode_tag(t)[2] for t in tags]
        assert counts == [0, 1, 2, 3, 4]
        assert all(decode_tag(t)[0] is MsgType.DEVICE for t in tags)
        assert all(decode_tag(t)[1] == 3 for t in tags)

    def test_distinct_pes_never_collide(self):
        a = TagGenerator(pe=1)
        b = TagGenerator(pe=2)
        ta = {a.next_device_tag() for _ in range(100)}
        tb = {b.next_device_tag() for _ in range(100)}
        assert not (ta & tb)

    def test_counter_wraps_at_field_width(self):
        cfg = TagConfig(msg_bits=4, pe_bits=56, cnt_bits=4)
        gen = TagGenerator(pe=0, cfg=cfg)
        tags = [gen.next_device_tag() for _ in range(20)]
        counts = [decode_tag(t, cfg)[2] for t in tags]
        assert counts == [i % 16 for i in range(20)]


# --------------------------------------------------------------------------
# property-based
# --------------------------------------------------------------------------

_splits = st.tuples(
    st.integers(4, 8), st.integers(8, 40)
).map(lambda t: TagConfig(msg_bits=t[0], pe_bits=t[1], cnt_bits=64 - t[0] - t[1]))


@given(
    cfg=_splits,
    msg=st.sampled_from(list(MsgType)),
    data=st.data(),
)
@settings(max_examples=200)
def test_roundtrip_property(cfg, msg, data):
    pe = data.draw(st.integers(0, (1 << cfg.pe_bits) - 1))
    count = data.draw(st.integers(0, (1 << cfg.cnt_bits) - 1))
    tag = make_tag(msg, pe, count, cfg)
    assert 0 <= tag < (1 << 64)
    assert decode_tag(tag, cfg) == (msg, pe, count)


@given(
    pes=st.lists(st.integers(0, 1000), min_size=2, max_size=5, unique=True),
    n=st.integers(1, 50),
)
@settings(max_examples=50)
def test_uniqueness_property(pes, n):
    """Tags from distinct PEs (or distinct counters) never collide until the
    counter wraps."""
    seen = set()
    for pe in pes:
        gen = TagGenerator(pe)
        for _ in range(n):
            tag = gen.next_device_tag()
            assert tag not in seen
            seen.add(tag)
