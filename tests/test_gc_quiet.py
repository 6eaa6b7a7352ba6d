"""The acyclicity contract behind the engine's collector-suspended loop.

``Simulator._dispatch`` runs with CPython's cyclic garbage collector
suspended (``sim/engine.py``).  That is only sound if a simulation run
leaves nothing for the collector to find: every per-message object — request,
event, envelope, transfer, buffer — must be freed by reference counting.
These tests run each model and protocol with the collector off and then ask
it what it would have had to free; the answer must be *zero objects* while
the session itself is still referenced.  They also pin the collector's state
around the loop and the lazily created ``UcxRequest.event``.
"""

import gc

import pytest

import repro.api as api
from repro.apps.jacobi3d.driver import run_jacobi
from repro.apps.osu.runner import run_bandwidth, run_latency
from repro.apps.shuffle.driver import run_shuffle
from repro.config import KB, MB, MachineConfig
from repro.faults import FaultPlan
from repro.hardware.cuda import CudaRuntime
from repro.hardware.gpu import Kernel, StreamOp
from repro.hardware.topology import Machine
from repro.sim.engine import SimulationError, Simulator
from repro.sim.primitives import SimEvent
from repro.ucx.request import RequestKind, UcxRequest
from repro.ucx.status import UcsStatus

MODELS = ("charm", "ampi", "openmpi", "charm4py")


def cyclic_garbage(sess, run) -> int:
    """Objects only the cyclic collector could free after ``run(sess)``.

    The session is built by the caller (its own structure is cyclic but
    alive) and stays referenced throughout, so whatever is counted here is
    garbage the *run* produced.
    """
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        run(sess)
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def _two_nodes():
    return MachineConfig.summit(nodes=2)


# -- point-to-point: every model x eager / IPC rendezvous / pipelined rendezvous
@pytest.mark.parametrize("size,placement", [
    (8, "intra"),          # eager
    (64 * KB, "intra"),    # rendezvous over CUDA IPC
    (64 * KB, "inter"),    # rendezvous, pipelined through host staging
], ids=["8B_eager", "64K_ipc", "64K_pipeline"])
@pytest.mark.parametrize("model", MODELS)
def test_pingpong_leaves_no_cyclic_garbage(model, size, placement):
    sess = api.session(_two_nodes()).model(model).build()
    n = cyclic_garbage(sess, lambda s: run_latency(
        model, size, placement, True, session=s, iters=6, skip=2))
    assert n == 0


# -- applications
@pytest.mark.parametrize("model", ["charm", "ampi", "charm4py"])
def test_jacobi_leaves_no_cyclic_garbage(model):
    cfg = _two_nodes().with_virtual_payload()
    sess = api.session(cfg).model(model).build()
    n = cyclic_garbage(sess, lambda s: run_jacobi(
        model, nodes=2, scaling="weak", iters=2, warmup=1, session=s))
    assert n == 0


@pytest.mark.parametrize("model", ["ampi", "openmpi", "charm4py"])
def test_pooled_shuffle_leaves_no_cyclic_garbage(model):
    cfg = _two_nodes().with_virtual_payload().with_pool(True)
    builder = api.session(cfg).model(model)
    if model != "charm4py":
        builder = builder.ranks(cfg.topology.total_gpus)
    sess = builder.build()
    n = cyclic_garbage(sess, lambda s: run_shuffle(model, rounds=2, session=s))
    assert n == 0


def test_multirail_bandwidth_leaves_no_cyclic_garbage():
    sess = api.session(_two_nodes().override({"multirail.enabled": True})).model("ampi").build()
    n = cyclic_garbage(sess, lambda s: run_bandwidth(
        "ampi", 4 * MB, "intra", True, session=s, loops=2, skip=1, window=16))
    assert sess.counters["ucx.rail.striped"] > 0
    assert n == 0


def test_allreduce_64_ranks_leaves_no_cyclic_garbage():
    nbytes = 1 << 20
    cfg = MachineConfig.summit(nodes=11).with_virtual_payload()
    sess = api.session(cfg).model("ampi").ranks(64).build()

    def program(rank):
        buf = rank.charm.cuda.malloc(rank.gpu, nbytes)
        yield from rank.allreduce_device(buf, nbytes)

    n = cyclic_garbage(sess, lambda s: s.run_until(
        s.launch(program), max_events=200_000_000))
    assert n == 0


# -- hardware/gpu.py and hardware/cuda.py, driven directly
def _cuda():
    machine = Machine(_two_nodes())
    return CudaRuntime(machine)


def test_kernels_leave_no_cyclic_garbage_and_share_the_sms_fifo():
    """One kernel is one ``StreamOp`` and no closure.  Two streams of one GPU
    contend for its capacity-1 execution units: a kernel that finds them busy
    is granted in FIFO turn from the release, not by stream or by luck."""
    cuda = _cuda()
    sim = cuda.sim
    gpu = cuda.gpu(0)
    other = cuda.create_stream(0)
    order = []

    def kernel(name):
        return Kernel(name, bytes_moved=1 << 20, body=lambda: order.append(name))

    def run(_):
        # a0 holds the SMs; b0 (other stream) blocks first, then a1 cannot
        # even start until a0 completes, by which time b0 has the grant
        ops = [cuda.launch(0, kernel("a0")), cuda.launch(0, kernel("b0"), other),
               cuda.launch(0, kernel("a1")), cuda.launch(0, kernel("b1"), other)]
        assert gpu.exec_units.in_use == 1 and gpu.exec_units.queue_length == 1
        sim.run_until_complete(cuda.stream_synchronize(other))
        sim.run()
        assert all(op.triggered and type(op) is StreamOp for op in ops)

    assert cyclic_garbage(cuda, run) == 0
    assert order == ["a0", "b0", "a1", "b1"]
    assert gpu.exec_units.in_use == 0 and gpu.exec_units.total_acquisitions == 4


def test_memcpy_and_stream_synchronize_leave_no_cyclic_garbage():
    cuda = _cuda()
    sim = cuda.sim
    stream = cuda.create_stream(0)
    dev = cuda.malloc(0, 64 * KB, materialize=True)
    host = cuda.malloc_host(0, 64 * KB, materialize=True)
    host.fill(7)

    def run(_):
        for _ in range(8):
            cuda.memcpy_htod(dev, host, stream)
            cuda.memcpy_dtoh(host, dev, stream)
            sim.run_until_complete(cuda.stream_synchronize(stream))
        # a synchronize posted behind pending work, and one on an idle stream
        cuda.memcpy_htod(dev, host, stream)
        behind = cuda.stream_synchronize(stream)
        sim.run()
        idle = cuda.stream_synchronize(stream)
        sim.run()
        assert behind.triggered and idle.triggered

    assert cyclic_garbage(cuda, run) == 0
    assert stream.ops_enqueued == 17 and bytes(dev.data[:4]) == b"\x07" * 4


def test_lossy_garbage_does_not_grow_with_messages():
    """A run that drops and retransmits frames leaves nothing for the
    collector either — with cancellable timers in the agenda throughout:
    some fire during the run, some are cancelled (reaped and still buried),
    some stay armed.  A ``Handle`` points at its simulator and, while in the
    agenda, the simulator at it; that is live structure, never garbage."""
    def lossy(iters):
        cfg = _two_nodes().with_faults(FaultPlan.lossy(drop_p=0.05, seed=3))
        sess = api.session(cfg).model("ampi").build()
        sim = sess.sim
        handles = []

        def run(s):
            # 0.1 us .. 10 s: the run covers some and never reaches others
            handles.extend(sim.schedule(10.0 ** (i % 9 - 7), list, [i])
                           for i in range(90))
            for h in handles[::3]:
                h.cancel()
            run_latency("ampi", 64 * KB, "inter", True, session=s,
                        iters=iters, skip=2)

        n = cyclic_garbage(sess, run)
        assert sess.counters["fault.retransmit"] > 0
        fired = [h for h in handles if not h.pending and not h.cancelled]
        armed = [h for h in handles if h.pending]
        assert fired and armed and sim._tombstones > 0
        assert sim.pending_events >= len(armed)
        return n

    few, many = lossy(12), lossy(48)
    print(f"lossy 64K cyclic garbage: {few} objects after 14 round trips, "
          f"{many} after 50")
    assert few == 0 and many == 0


# -- the collector's state around the loop
def _collector_state_after(drive, enabled_before: bool) -> bool:
    was_enabled = gc.isenabled()
    (gc.enable if enabled_before else gc.disable)()
    try:
        drive()
        return gc.isenabled()
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _boom():
    raise ValueError("callback failed")


def _drive_run():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
    sim.run()
    assert seen == [False]  # suspended while events fire


def _drive_step():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.step() and not sim.step()


def _drive_run_until_complete():
    sim = Simulator()
    ev = SimEvent(sim)
    sim.schedule(1.0, ev.succeed, 7)
    assert sim.run_until_complete(ev) == 7


def _drive_callback_raises():
    sim = Simulator()
    sim.schedule(1.0, _boom)
    with pytest.raises(ValueError, match="callback failed"):
        sim.run()


def _drive_max_events_trips():
    sim = Simulator()

    def again():
        sim.schedule(0.0, again)

    sim.schedule(0.0, again)
    with pytest.raises(SimulationError, match="max_events"):
        sim.run_until_complete(SimEvent(sim), max_events=10)


@pytest.mark.parametrize("enabled_before", [True, False],
                         ids=["enabled", "disabled"])
@pytest.mark.parametrize("drive", [
    _drive_run, _drive_step, _drive_run_until_complete,
    _drive_callback_raises, _drive_max_events_trips,
], ids=["run", "step", "run_until_complete", "callback_raises",
        "max_events_trips"])
def test_collector_state_is_restored(drive, enabled_before):
    assert _collector_state_after(drive, enabled_before) is enabled_before


# -- UcxRequest.event is created on demand
def _request(sim):
    return UcxRequest(sim, RequestKind.SEND, tag=1, size=8)


def test_request_event_accessed_before_completion():
    sim = Simulator()
    req = _request(sim)
    seen = []
    req.event.add_callback(lambda ev: seen.append(ev.result()))
    assert not req.event.triggered and seen == []
    req.complete()
    assert seen == [req] and req.event.result() is req


def test_request_event_accessed_after_completion():
    sim = Simulator()
    req = _request(sim)
    req.complete(UcsStatus.OK, info="matched")
    assert req._event is None  # nobody asked: nothing was built
    ev = req.event
    assert ev.triggered and ev.result() is req and req.event is ev
    seen = []
    ev.add_callback(lambda e: seen.append(e.result()))
    assert seen == [req]


def test_request_event_never_accessed():
    sim = Simulator()
    seen = []
    req = UcxRequest(sim, RequestKind.RECV, tag=1, size=8, cb=seen.append)
    req.complete(UcsStatus.OK, info=(1, 8))
    assert seen == [req] and req.info == (1, 8) and req._event is None
    with pytest.raises(RuntimeError, match="completed twice"):
        req.complete()
    assert seen == [req]
