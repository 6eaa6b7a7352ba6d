"""Compatibility shim: the tracer moved to :mod:`repro.obs`.

``repro.sim.trace.Tracer`` is now the span-tree tracer from
:mod:`repro.obs.tracing` — same constructor, same ``count``/``counters``
hot path, plus hierarchical spans (``tracer.span(...)``) and a typed
metrics registry (``tracer.metrics``).  The flat
``span_begin``/``span_end`` methods completed their deprecation cycle and
were removed; use the context-manager span API.

Importing from this module keeps working indefinitely; new code should
import from :mod:`repro.obs` (or use the :mod:`repro.api` facade).
"""

from repro.obs.tracing import NULL_SPAN, Span, Tracer

__all__ = ["NULL_SPAN", "Span", "Tracer"]
