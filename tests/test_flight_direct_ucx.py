"""Flight records of device sends that bypass the machine layer (OpenMPI).

Regression for the recorder opening one record per *tag* instead of one per
send: OpenMPI reuses application tags, keeps a window of same-tag sends in
flight to one peer, and in an all-to-all sends one tag to every peer at
once.  Each device ``tag_send_nb`` is one transfer and must be one record,
and a receiver-side stage must land on the record bound for that receiver.
"""

from collections import Counter

import pytest

import repro.api as api
from repro.apps.osu.runner import run_bandwidth
from repro.apps.shuffle.driver import run_shuffle
from repro.config import KB, MachineConfig
from repro.ucx.wire import WireKind
from repro.ucx.worker import UcpWorker


@pytest.fixture
def device_traffic(monkeypatch):
    """Log every device ``tag_send_nb`` as ``(tag, src, dst)`` and every
    match of a device message as ``(tag, src, matching worker)``."""
    sent, matched = [], []
    tag_send_nb, _matched = UcpWorker.tag_send_nb, UcpWorker._matched

    def logged_send(self, ep, buf, size, tag, cb=None):
        if buf.on_device:
            sent.append((tag, self.worker_id, ep.remote.worker_id))
        return tag_send_nb(self, ep, buf, size, tag, cb)

    def logged_match(self, msg, posted, base, scanned, unexpected):
        if msg.kind is not WireKind.ERR and msg.src_was_device:
            matched.append((msg.tag, msg.src_worker, self.worker_id))
        return _matched(self, msg, posted, base, scanned, unexpected)

    monkeypatch.setattr(UcpWorker, "tag_send_nb", logged_send)
    monkeypatch.setattr(UcpWorker, "_matched", logged_match)
    return sent, matched


def _assert_one_record_per_send(sess, sent, matched):
    summary = sess.flight_summary()
    assert summary["n_records"] == summary["n_complete"] == len(sent)
    records = Counter((r.tag, r.src_pe, r.dst_pe) for r in sess.flight_records())
    assert records == Counter(sent)
    # every record's dst_pe is the worker that matched that message
    assert records == Counter(matched)


def test_windowed_bandwidth_records_every_send(device_traffic):
    sent, matched = device_traffic
    sess = (api.session(MachineConfig.summit(nodes=2)).model("openmpi")
            .flight().build())
    run_bandwidth("openmpi", 64 * KB, "intra", True, session=sess,
                  loops=2, skip=0, window=8)
    assert len(sent) == 16  # two windows of eight same-tag sends
    _assert_one_record_per_send(sess, sent, matched)


def test_two_node_shuffle_records_every_send(device_traffic):
    sent, matched = device_traffic
    cfg = MachineConfig.summit(nodes=2)
    n = cfg.topology.total_gpus
    sess = api.session(cfg).model("openmpi").ranks(n).flight().build()
    run_shuffle("openmpi", rounds=2, session=sess)
    # every rank sends its round tag to every peer at once
    assert len(sent) == 2 * n * (n - 1)
    _assert_one_record_per_send(sess, sent, matched)
