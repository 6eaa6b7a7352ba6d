"""UCP endpoints: a connection from one worker to another."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.ucx.worker import UcpWorker


class UcpEndpoint:
    """Sender-side handle to a remote worker.

    Real UCX endpoints encapsulate transport resources; here the endpoint
    just pins the (local, remote) worker pair, since transport selection
    happens per message in the protocol layer.
    """

    def __init__(self, local: "UcpWorker", remote: "UcpWorker") -> None:
        self.local = local
        self.remote = remote
        # Lazy wireup (UcxConfig.ep_setup_cost): creating the endpoint object
        # is free, as with ucp_ep_create's deferred connection — the first
        # message through it pays the connection-setup charge and flips this.
        self.established = False

    def mark_established(self) -> float:
        """First traffic through the endpoint: returns the one-time
        connection-setup charge (0.0 when already established or when the
        lifecycle model is disabled)."""
        if self.established:
            return 0.0
        self.established = True
        ctx = self.local.ctx
        if not ctx.ep_lifecycle_enabled:
            return 0.0
        ctx.machine.tracer.count("ucx", "ep_connect")
        return ctx.ep_setup_cost

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<UcpEndpoint {self.local.worker_id}->{self.remote.worker_id}>"
