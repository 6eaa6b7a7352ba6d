"""The Chare base class."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.charm.charm import Charm
    from repro.charm.proxy import ChareProxy


class Chare:
    """Base class for migratable objects.

    Subclasses define entry methods as ordinary methods (run-to-completion)
    or generator methods (``[threaded]``, may block).  A ``<name>_post``
    method, when present, is the *post entry method* executed before
    ``<name>`` to let the receiver name destination GPU buffers for
    ``CkDeviceBuffer`` parameters (paper Fig. 4).

    The runtime injects, before ``__init__`` runs:

    * ``self.charm`` — the runtime,
    * ``self.thisProxy`` — a proxy to this chare,
    * ``self.pe`` — the PE index this chare currently lives on,
    * ``self.gpu`` — the GPU associated with that PE (non-SMP: one each),
    * ``self.thisIndex`` — the element index for array/group elements.
    """

    charm: "Charm"
    thisProxy: "ChareProxy"
    pe: int
    gpu: Optional[int]
    thisIndex: int = -1
