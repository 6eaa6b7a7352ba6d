"""Charm++: message-driven chares over the Converse/UCX machine layer.

The programming model of the paper's §II-C and §III-B:

* :class:`Chare` objects live on PEs and communicate by asynchronously
  invoking each other's *entry methods* through proxies;
* GPU parameters are passed as :class:`CkDeviceBuffer` wrappers (the
  ``nocopydevice`` attribute of the CI file);
* receivers name destination GPU buffers in *post entry methods* (the Zero
  Copy API extension) before the regular entry method runs;
* completion is signalled through :class:`CkCallback`.

Entry methods declared as generator functions model Charm++'s ``[threaded]``
entry methods: they may block (on CUDA synchronisation, futures, …) and
occupy the PE while running.
"""

from repro.charm.callback import CkCallback
from repro.charm.chare import Chare
from repro.charm.charm import Charm
from repro.charm.proxy import ArrayProxy, ChareProxy
from repro.charm.zerocopy import DevicePost
from repro.core.device_buffer import CkDeviceBuffer

__all__ = [
    "ArrayProxy",
    "Chare",
    "ChareProxy",
    "Charm",
    "CkCallback",
    "CkDeviceBuffer",
    "DevicePost",
]
