"""Repo-wide pytest configuration: a per-test wall-clock ceiling, and the
strict JSON reader the export tests share.

A hung simulation (an event loop that never drains, a deadlocked generator
program) would otherwise stall the whole tier-1 run.  ``pytest-timeout`` is
deliberately not a dependency — the ceiling is enforced with ``SIGALRM``,
which is enough for the single-process, main-thread way this suite runs.
The limit comes from the ``repro_test_timeout`` ini option (pyproject.toml)
and can be overridden per-invocation with ``REPRO_TEST_TIMEOUT=<seconds>``
(``0`` disables, e.g. for debugging under a debugger).
"""

import json
import os
import signal
import threading

import pytest


def pytest_addoption(parser):
    parser.addini(
        "repro_test_timeout",
        "per-test wall-clock ceiling in seconds (0 disables)",
        default="180",
    )


@pytest.fixture(autouse=True)
def _per_test_timeout(request):
    raw = os.environ.get("REPRO_TEST_TIMEOUT")
    if raw is None:
        raw = request.config.getini("repro_test_timeout")
    limit = int(float(raw))
    usable = (
        limit > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum, frame):
        raise TimeoutError(
            f"test exceeded the {limit}s wall-clock ceiling "
            f"(REPRO_TEST_TIMEOUT overrides)"
        )

    old_handler = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(limit)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old_handler)


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name!r} in an exported file")


@pytest.fixture(scope="session")
def strict_loads():
    """``json.loads`` that refuses ``Infinity``/``-Infinity``/``NaN``: they
    are not JSON, Perfetto rejects them, and no exporter may write them."""
    return lambda text: json.loads(text, parse_constant=_reject_constant)
