"""Structured telemetry: spans, counters, and run manifests.

The public surface instrumented code uses::

    from repro import telemetry

    with telemetry.span("engine.run", topology="star") as sp:
        ...
        sp.count("rounds", report.rounds)

When no tracer is active (the default), :func:`span` returns a shared
no-op and the instrumentation costs one function call per phase — the
tracing-off path is bit-identical to uninstrumented code, and
``perfbench/figures.py`` measures what tracing adds to a whole call.

Activate with :func:`activate`/:class:`tracing` (the CLI's ``--trace
PATH`` does this), read traces back with
:func:`~repro.telemetry.report.load_trace`, and summarise them with
``repro report PATH``.
"""

from repro.telemetry.tracer import (
    MANIFEST_SCHEMA,
    NULL_SPAN,
    ROUTES,
    TRACE_SCHEMA,
    RunManifest,
    Span,
    Tracer,
    activate,
    annotate,
    deactivate,
    enabled,
    get_tracer,
    library_versions,
    record_span,
    span,
    tracing,
    validate_manifest,
)
from repro.telemetry.report import (
    SpanNode,
    Trace,
    counter_totals,
    load_trace,
    phase_totals,
    render_report,
)

__all__ = [
    "MANIFEST_SCHEMA",
    "NULL_SPAN",
    "ROUTES",
    "TRACE_SCHEMA",
    "RunManifest",
    "Span",
    "SpanNode",
    "Trace",
    "Tracer",
    "activate",
    "annotate",
    "counter_totals",
    "deactivate",
    "enabled",
    "get_tracer",
    "library_versions",
    "load_trace",
    "phase_totals",
    "record_span",
    "render_report",
    "span",
    "tracing",
    "validate_manifest",
]
