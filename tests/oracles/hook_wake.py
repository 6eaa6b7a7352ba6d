"""The hook-per-waiter link wake, kept as a test oracle.

Before the parked-transfer wake (``hardware/links.py``), a blocked bulk
transfer registered a one-shot callback on the first busy link
(``Resource.on_next_release``) and every release fired every callback
registered on that link, each of which re-ran the whole of
``_Transfer.try_acquire``.  The policy — scan the links in canonical order,
wait on the first busy one, re-examine in registration order — is the one the
production code still implements; this is its original spelling (the
telemetry park row aside, and with the grant itself ``_Transfer.start``), so
``tests/test_link_model.py`` can replay seeded plans through both and require
identical grants.  Like ``reference_engine`` it is never imported
by the runtime.

Use: build the plan's links as :class:`HookLink` and run ``path_transfer``
with ``repro.hardware.links._Transfer`` patched to :class:`HookTransfer`.
"""

from __future__ import annotations

from repro.hardware.links import Link, _Transfer


class HookLink(Link):
    """A link with the old ``on_next_release`` API: one-shot hooks, fired in
    registration order after each release."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._release_hooks: list = []

    def release(self) -> None:
        super().release()  # nothing ever parks here: only the hooks wake
        if self._release_hooks:
            hooks, self._release_hooks = self._release_hooks, []
            for hook in hooks:
                hook()

    def on_next_release(self, hook) -> None:
        """Fire ``hook()`` once, after the next release."""
        self._release_hooks.append(hook)


class HookTransfer(_Transfer):
    """``_Transfer`` whose blocked instances wait on a release hook, each
    wake re-running the whole of ``try_acquire``."""

    __slots__ = ()

    def try_acquire(self) -> None:
        for link in self.ordered:
            if link.in_use >= link.capacity:
                telemetry = self.sim.telemetry
                if telemetry is not None:
                    stack = telemetry.stack
                    telemetry.rows.append((
                        "park", self.sim.now, id(self), link.name,
                        stack[-1] if stack else None))
                link.on_next_release(self.try_acquire)
                return
        self.start()
