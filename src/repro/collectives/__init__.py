"""Device allreduce with topology-aware algorithm selection.

The paper's §VI names GPU-data collectives, built by translating to this
work's GPU-aware point-to-point layer, as future work; this package is that
subsystem, for the collective the baseline runs: ``allreduce_device``.
Layout:

* :mod:`~repro.collectives.ops` — the :class:`ReduceOp` enum and the
  device combine kernel;
* :mod:`~repro.collectives.algorithms` — the flat binomial and
  recursive-doubling allreduces over a :class:`CollContext`, and the
  binomial reduce/bcast trees they and the hierarchy share;
* :mod:`~repro.collectives.hierarchy` — the two-level allreduce decomposed
  via ``hardware.topology`` (intra-node phases over NVLink, inter-node over
  the NIC);
* :mod:`~repro.collectives.selection` — the :class:`AlgorithmSpec`
  registry and the cost ranking, each hop priced for its rank pair by the
  transfer oracle :mod:`repro.cost` (``MachineConfig.collectives`` holds the
  ``hierarchical_enabled`` ablation switch);
* :mod:`~repro.collectives.engine` — the execution context, tag
  namespacing and the ``allreduce_device`` entry point, which runs on the
  calling :class:`~repro.ampi.mpi.AmpiRank` (its ``coll_send``/
  ``coll_recv``);
* :mod:`~repro.collectives.value` — the host-value ``allreduce`` (a
  binomial reduce and bcast) and ``gather`` of an AMPI rank.

Applications use the communicator-method API (``mpi.allreduce_device(buf,
nbytes, op=ReduceOp.SUM, algorithm=...)``) rather than calling this package
directly.

Importing the package loads nothing: an AMPI, Charm++ or Charm4py session
imports :mod:`.ops` (the ``ReduceOp`` its models name in signatures), an
OpenMPI session nothing of it, and the rest loads with the first collective
call.  ``AmpiRank`` reaches the engine and the value collectives as
``collectives.engine`` / ``collectives.value``, and the
public names below resolve on first access (PEP 562).  A public name loads
the engine first, and the engine imports :mod:`.algorithms` and then
:mod:`.hierarchy`, which fill the selection registry in that order.
"""

import importlib

#: public name -> the submodule that defines it
_EXPORTS = {
    "AlgorithmSpec": "selection",
    "CollContext": "engine",
    "CollectiveCostModel": "selection",
    "DEVICE_OPS": "ops",
    "ReduceOp": "ops",
    "allreduce_device": "engine",
    "available_algorithms": "selection",
    "select": "selection",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in ("engine", "value"):  # what AmpiRank reaches as attributes
        return importlib.import_module(f"{__name__}.{name}")
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    importlib.import_module(f"{__name__}.engine")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
