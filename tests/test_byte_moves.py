"""Buffer byte moves against their NumPy spellings.

``Buffer.copy_from`` moves bytes through ``memoryview`` and ``view`` /
``fill`` through the array's own ``view("u1")``, so ``repro.hardware.memory``
never imports NumPy.  The expressions they replaced are kept in
``tests/oracles/numpy_byte_moves.py``; over C-contiguous payloads of several
dtypes and shapes, and every byte count a call may name, both must leave the
same bytes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.hardware.memory import Buffer, MemoryKind
from tests.oracles import numpy_byte_moves as oracle

DTYPES = ("u1", "i2", "i4", "f4", "f8", "c16", "?")


@st.composite
def _payloads(draw):
    """A C-contiguous array of random bytes (any bit pattern of the dtype)."""
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, max_side=4))
    count = int(np.prod(shape, dtype=np.int64))
    raw = draw(st.binary(min_size=count * dtype.itemsize,
                         max_size=count * dtype.itemsize))
    return np.frombuffer(bytearray(raw), dtype=dtype).reshape(shape)


def _buffer(data):
    return Buffer(MemoryKind.HOST, data.nbytes, 0, data=data.copy())


@settings(max_examples=100, deadline=None)
@given(dst=_payloads(), src=_payloads())
def test_copy_from_matches_numpy(dst, src):
    for n in range(min(dst.nbytes, src.nbytes) + 1):
        new, old = _buffer(dst), dst.copy()
        new.copy_from(_buffer(src), n)
        oracle.copy_from(old, src, n)
        assert new.data.tobytes() == old.tobytes(), n
    if dst.nbytes <= src.nbytes:  # nbytes=None copies the whole destination
        new, old = _buffer(dst), dst.copy()
        new.copy_from(_buffer(src))
        oracle.copy_from(old, src, dst.nbytes)
        assert new.data.tobytes() == old.tobytes()


@settings(max_examples=100, deadline=None)
@given(data=_payloads(), byte=st.integers(0, 255))
def test_view_matches_numpy(data, byte):
    size = data.nbytes
    spans = [(0, n) for n in range(1, size + 1)]
    spans += [(offset, size - offset) for offset in range(1, size)]
    for offset, nbytes in spans:
        buf, old = _buffer(data), data.copy()
        view = buf.view(offset, nbytes)
        assert view.data.tobytes() == oracle.view(old, offset, nbytes).tobytes()
        # the view shares the payload memory: writes through it land in it
        view.fill(byte)
        oracle.fill(oracle.view(old, offset, nbytes), byte)
        assert buf.data.tobytes() == old.tobytes(), (offset, nbytes)


@settings(max_examples=100, deadline=None)
@given(data=_payloads(), byte=st.integers(0, 255))
def test_fill_matches_numpy(data, byte):
    buf, old = _buffer(data), data.copy()
    buf.fill(byte)
    oracle.fill(old, byte)
    assert buf.data.tobytes() == old.tobytes()
