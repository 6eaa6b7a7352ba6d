"""Tests for the OpenMPI baseline (direct UCX, immediate receive posting)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.config import KB, MachineConfig, MB
from repro.openmpi import ANY_SOURCE, ANY_TAG, OpenMpi
from repro.openmpi.mpi import decode_mpi_tag, encode_mpi_tag, match_mask


def run_ranks(program, nodes=2):
    sess = api.session(MachineConfig.summit(nodes=nodes)).model("openmpi").build()
    sess.run_until(sess.launch(program), max_events=5_000_000)
    return sess.lib


class TestTagEncoding:
    def test_roundtrip(self):
        tag = encode_mpi_tag(src=300, tag=123456)
        assert decode_mpi_tag(tag) == (300, 123456)

    def test_bounds(self):
        with pytest.raises(ValueError):
            encode_mpi_tag(src=1 << 24, tag=0)
        with pytest.raises(ValueError):
            encode_mpi_tag(src=0, tag=1 << 32)

    def test_any_source_mask_ignores_src(self):
        mask = match_mask(ANY_SOURCE, 5)
        a = encode_mpi_tag(1, 5)
        b = encode_mpi_tag(999, 5)
        want = encode_mpi_tag(0, 5)
        assert a & mask == want & mask == b & mask

    def test_any_tag_mask_ignores_tag(self):
        mask = match_mask(3, ANY_TAG)
        a = encode_mpi_tag(3, 1)
        b = encode_mpi_tag(3, 12345)
        assert a & mask == b & mask

    @given(src=st.integers(0, (1 << 24) - 1), tag=st.integers(0, (1 << 32) - 1))
    @settings(max_examples=200)
    def test_roundtrip_property(self, src, tag):
        assert decode_mpi_tag(encode_mpi_tag(src, tag)) == (src, tag)


class TestPt2Pt:
    def test_device_roundtrip(self):
        out = {}

        def program(mpi):
            buf = mpi.charm.cuda.malloc(mpi.gpu, 2 * KB)
            if mpi.rank == 0:
                buf.data[:] = 8
                yield mpi.send(buf, 2 * KB, dst=1, tag=5)
            elif mpi.rank == 1:
                st_ = yield mpi.recv(buf, 2 * KB, src=0, tag=5)
                out["status"] = st_
                out["ok"] = bool((buf.data == 8).all())

        run_ranks(program)
        assert out["ok"] and out["status"].source == 0 and out["status"].tag == 5

    def test_wildcard_receive(self):
        out = {}

        def program(mpi):
            buf = mpi.charm.cuda.malloc_host(mpi.node, 8)
            if mpi.rank == 2:
                st_ = yield mpi.recv(buf, 8, src=ANY_SOURCE, tag=ANY_TAG)
                out["src"] = st_.source
            elif mpi.rank == 4:
                yield mpi.send(buf, 8, dst=2, tag=77)

        run_ranks(program)
        assert out["src"] == 4

    def test_truncation(self):
        out = {}

        def program(mpi):
            if mpi.rank == 0:
                big = mpi.charm.cuda.malloc_host(mpi.node, 64 * KB)
                yield mpi.send(big, 64 * KB, dst=1, tag=1)
            elif mpi.rank == 1:
                small = mpi.charm.cuda.malloc_host(mpi.node, 1 * KB)
                try:
                    yield mpi.recv(small, 1 * KB, src=0, tag=1)
                except Exception as e:
                    out["err"] = type(e).__name__

        run_ranks(program)
        assert out["err"] == "MpiTruncationError"

    def test_waitall_and_ordering(self):
        out = {}

        def program(mpi):
            if mpi.rank > 1:
                return
            other = 1 - mpi.rank
            bufs = [mpi.charm.cuda.malloc_host(mpi.node, 8) for _ in range(3)]
            if mpi.rank == 0:
                for i, b in enumerate(bufs):
                    b.data[:] = i
                reqs = [mpi.isend(b, 8, dst=other, tag=9) for b in bufs]
                yield mpi.waitall(reqs)
            else:
                got = []
                for b in bufs:
                    yield mpi.recv(b, 8, src=other, tag=9)
                    got.append(int(b.data[0]))
                out["got"] = got

        run_ranks(program)
        assert out["got"] == [0, 1, 2]


class TestStructuralAdvantage:
    def test_openmpi_faster_than_ampi_small_messages(self):
        """The whole point of the baseline: fewer layers above UCX."""
        from repro.apps.osu import run_latency

        ampi = run_latency("ampi", 8, "intra", True)
        ompi = run_latency("openmpi", 8, "intra", True)
        assert ompi < ampi
        # the gap is the AMPI-specific overhead the paper measured (~us)
        assert (ampi - ompi) > 2e-6

    def test_rank_count_bounded_by_gpus(self):
        with pytest.raises(ValueError):
            OpenMpi(MachineConfig.summit(nodes=1), n_ranks=7)
