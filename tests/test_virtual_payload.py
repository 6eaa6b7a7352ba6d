"""Virtual-payload mode: no data movement, bit-identical timing.

``MachineConfig.virtual_payload`` skips NumPy payload materialisation for
every buffer whose caller did not explicitly ask for real bytes.  Buffer
copies become size-only no-ops, but every modeled delay is computed from
sizes and config alone — so full simulation fingerprints must match the
materialized runs bit for bit.  The paper-scale scaling sweeps rely on
this equivalence to drop the dead-weight memcpys.
"""

import numpy as np
import pytest

import repro.api as api
from repro.apps.jacobi3d.driver import run_jacobi
from repro.apps.osu.runner import run_latency
from repro.config import MachineConfig
from repro.hardware.topology import Machine


def _jacobi_fingerprint(cfg):
    sess = api.session(cfg).model("charm").flight().build()
    r = run_jacobi("charm", nodes=cfg.topology.nodes, scaling="weak",
                   iters=2, warmup=1, session=sess)
    fp = sess.baseline_fingerprint()
    fp["iter_time"] = r.iter_time
    fp["comm_time"] = r.comm_time
    return fp


def test_jacobi_fingerprint_identical_under_virtual_payload():
    cfg = MachineConfig.summit(nodes=2)
    materialized = _jacobi_fingerprint(cfg)
    virtual = _jacobi_fingerprint(cfg.with_virtual_payload())
    assert virtual == materialized  # bit-equal, not approx


@pytest.mark.parametrize("model", ["charm", "openmpi"])
@pytest.mark.parametrize("placement,size", [("intra", 8), ("inter", 256 * 1024)])
def test_osu_latency_identical_under_virtual_payload(model, placement, size):
    # small messages materialize by default, so this exercises the case
    # where virtual mode actually changes the allocation decision
    def fingerprint(cfg):
        sess = api.session(cfg).model(model).flight().build()
        lat = run_latency(model, size, placement, True, session=sess,
                          iters=6, skip=2)
        fp = sess.baseline_fingerprint()
        fp["latency"] = lat
        return fp

    cfg = MachineConfig.summit(nodes=2)
    assert fingerprint(cfg.with_virtual_payload()) == fingerprint(cfg)


def test_virtual_payload_skips_materialisation():
    m = Machine(MachineConfig.summit(nodes=1).with_virtual_payload())
    assert m.alloc_host(0, 64).data is None
    assert m.alloc_device(0, 64).data is None
    # an explicit request for real bytes still wins (functional tests)
    buf = m.alloc_host(0, 64, materialize=True)
    assert isinstance(buf.data, np.ndarray) and buf.data.nbytes == 64


def test_virtual_payload_defaults_off():
    cfg = MachineConfig.summit(nodes=1)
    assert cfg.virtual_payload is False
    m = Machine(cfg)
    assert m.alloc_host(0, 64).data is not None
