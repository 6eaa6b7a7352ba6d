"""Shared cost helpers for the protocol implementations."""

from __future__ import annotations

from repro.hardware.memory import Buffer
from repro.obs.stages import TRUNCATED
from repro.ucx.status import UcsStatus


def host_copy_time(ctx, size: int) -> float:
    """Memoized host-memory memcpy time for ``size`` bytes (the staging
    copy of host eager messages, tagged and AM alike)."""
    cache = ctx.staging_time_cache
    key = ("host", size)
    t = cache.get(key)
    if t is None:
        t = ctx.machine.cfg.topology.host_mem.transfer_time(size)
        cache[key] = t
    return t


def staging_copy_time(ctx, buf: Buffer, size: int) -> float:
    """Time to move ``size`` bytes between ``buf`` and a host bounce buffer
    on the same node, as done by eager protocols on each side.

    * host buffers: a plain memcpy at host memory speed;
    * device buffers with GDRCopy: the low-latency BAR1 copy;
    * device buffers without GDRCopy: a cudaMemcpy-based staging path that
      pays driver launch/sync overheads (the slow world the paper warns
      about when UCX fails to detect GDRCopy).
    """
    if not buf.on_device:
        return host_copy_time(ctx, size)
    if ctx.gdrcopy.available:
        ctx.gdrcopy.copies += 1  # the statistic still counts every copy
    return device_staging_time(ctx, size)


def device_staging_time(ctx, size: int) -> float:
    """The device branch of :func:`staging_copy_time`, without counting a
    copy: what the cost oracle (:mod:`repro.cost`) reads."""
    # Each branch is a pure function of static config, memoized per size in
    # the context (keyed by path so a mid-run GDRCopy availability change
    # cannot serve a stale branch).  The cached value is computed with the
    # exact expression of the uncached path, so timing is bit-identical.
    cache = ctx.staging_time_cache
    if ctx.gdrcopy.available:
        key = ("gdr", size)
        t = cache.get(key)
        if t is None:
            t = ctx.gdrcopy.copy_time(size)
            cache[key] = t
        return t
    key = ("nogdr", size)
    t = cache.get(key)
    if t is None:
        t = (
            ctx.cfg.no_gdr_staging_overhead
            + ctx.machine.cfg.cuda.memcpy_launch_overhead
            + ctx.machine.cfg.topology.nvlink.transfer_time(size)
        )
        cache[key] = t
    return t


def fail_truncated(worker, msg, posted) -> None:
    """The matched message does not fit the posted buffer: fail the receive.

    Also closes the flight record — a truncated transfer never reaches
    ``completed()``, and an open record would absorb the stages of the next
    same-tag transfer."""
    worker.ctx.machine.tracer.note(TRUNCATED, msg.tag, worker.worker_id)
    posted.req.complete(UcsStatus.ERR_MESSAGE_TRUNCATED, (msg.tag, msg.size))
