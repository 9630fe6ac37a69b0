"""Trace loading and summarisation for ``repro report``.

Parses a JSONL trace written by :class:`~repro.telemetry.tracer.Tracer`
back into a manifest plus a span tree, and renders the three summaries
the CLI prints: the span tree (wall time, per-span counters), the hot
phases ranked by *self* time (span time minus child time — the part a
phase actually spent itself), and the counter totals aggregated by span
name.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.exceptions import ParameterError
from repro.telemetry.tracer import validate_manifest


@dataclass
class SpanNode:
    """One span re-hydrated from the trace, with resolved children."""

    span_id: int
    parent_id: Optional[int]
    name: str
    seconds: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def self_seconds(self) -> float:
        """Wall time not accounted to any child span."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))


@dataclass
class Trace:
    """A parsed trace: validated manifest + span forest."""

    manifest: Dict[str, Any]
    roots: List[SpanNode]
    spans: List[SpanNode]

    def walk(self):
        """Yield ``(depth, node)`` over the forest in emission order."""
        stack = [(0, root) for root in reversed(self.roots)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            for child in reversed(node.children):
                stack.append((depth + 1, child))


def load_trace(path: str) -> Trace:
    """Parse and validate a JSONL trace file.

    Raises :class:`~repro.exceptions.ParameterError` on malformed JSON,
    a missing or invalid manifest, or dangling span parent references —
    the same exit-2 surface as every other bad CLI input.
    """
    events: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParameterError(
                        f"{path}:{lineno}: invalid JSON in trace: {exc}"
                    ) from exc
                if not isinstance(event, dict) or "event" not in event:
                    raise ParameterError(
                        f"{path}:{lineno}: trace lines must be objects "
                        f"with an 'event' field"
                    )
                events.append(event)
    except OSError as exc:
        raise ParameterError(f"cannot read trace {path}: {exc}") from exc

    manifests = [e for e in events if e["event"] == "manifest"]
    if not manifests:
        raise ParameterError(f"{path}: trace has no manifest event")
    if len(manifests) > 1:
        raise ParameterError(
            f"{path}: trace has {len(manifests)} manifest events, expected 1"
        )
    manifest = dict(manifests[0])
    validate_manifest(manifest)
    for event in events:
        if event["event"] == "manifest_update":
            fields = event.get("fields")
            if not isinstance(fields, dict):
                raise ParameterError(
                    f"{path}: manifest_update without a fields object"
                )
            for key, value in fields.items():
                if (
                    key in manifest
                    and isinstance(manifest[key], dict)
                    and isinstance(value, dict)
                ):
                    manifest[key].update(value)
                else:
                    manifest[key] = value

    nodes: Dict[int, SpanNode] = {}
    order: List[SpanNode] = []
    for event in events:
        if event["event"] != "span":
            continue
        for key in ("id", "name", "seconds"):
            if key not in event:
                raise ParameterError(
                    f"{path}: span event missing field {key!r}"
                )
        node = SpanNode(
            span_id=int(event["id"]),
            parent_id=event.get("parent"),
            name=str(event["name"]),
            seconds=float(event["seconds"]),
            attrs=dict(event.get("attrs") or {}),
            counters={
                str(k): float(v)
                for k, v in (event.get("counters") or {}).items()
            },
        )
        if node.span_id in nodes:
            raise ParameterError(
                f"{path}: duplicate span id {node.span_id}"
            )
        nodes[node.span_id] = node
        order.append(node)

    roots: List[SpanNode] = []
    for node in order:
        if node.parent_id is None:
            roots.append(node)
        else:
            parent = nodes.get(int(node.parent_id))
            if parent is None:
                raise ParameterError(
                    f"{path}: span {node.span_id} references unknown "
                    f"parent {node.parent_id}"
                )
            parent.children.append(node)
    return Trace(manifest=manifest, roots=roots, spans=order)


def phase_totals(trace: Trace) -> Dict[str, Dict[str, float]]:
    """Aggregate spans by name: calls, total seconds, total self seconds."""
    totals: Dict[str, Dict[str, float]] = {}
    for node in trace.spans:
        entry = totals.setdefault(
            node.name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        entry["calls"] += 1
        entry["seconds"] += node.seconds
        entry["self_seconds"] += node.self_seconds
    return totals


def counter_totals(trace: Trace) -> Dict[str, float]:
    """Sum every counter across all spans, keyed ``span_name.counter``."""
    totals: Dict[str, float] = {}
    for node in trace.spans:
        for name, value in node.counters.items():
            key = f"{node.name}.{name}"
            totals[key] = totals.get(key, 0.0) + value
    return totals


def _format_attrs(attrs: Dict[str, Any], limit: int = 4) -> str:
    if not attrs:
        return ""
    parts = [f"{k}={attrs[k]}" for k in sorted(attrs)[:limit]]
    if len(attrs) > limit:
        parts.append("…")
    return " {" + ", ".join(parts) + "}"


def render_report(trace: Trace, max_hot: int = 12) -> str:
    """Render the full ``repro report`` text for a parsed trace."""
    manifest = trace.manifest
    lines: List[str] = []
    lines.append("run manifest")
    lines.append(f"  command : {manifest.get('command')}")
    lines.append(f"  route   : {manifest.get('route')}")
    lines.append(f"  seed    : {manifest.get('seed')}")
    parameters = manifest.get("parameters") or {}
    if parameters:
        rendered = ", ".join(
            f"{k}={parameters[k]}" for k in sorted(parameters)
        )
        lines.append(f"  params  : {rendered}")
    topology = manifest.get("topology")
    if topology:
        rendered = ", ".join(f"{k}={topology[k]}" for k in sorted(topology))
        lines.append(f"  topology: {rendered}")
    versions = manifest.get("versions") or {}
    if versions:
        rendered = ", ".join(f"{k} {versions[k]}" for k in sorted(versions))
        lines.append(f"  versions: {rendered}")

    lines.append("")
    lines.append(f"span tree ({len(trace.spans)} spans)")
    for depth, node in trace.walk():
        indent = "  " * (depth + 1)
        counters = ""
        if node.counters:
            counters = "  [" + ", ".join(
                f"{k}={node.counters[k]:g}" for k in sorted(node.counters)
            ) + "]"
        lines.append(
            f"{indent}{node.name:<28} {node.seconds * 1000:10.3f} ms"
            f"{_format_attrs(node.attrs)}{counters}"
        )

    lines.append("")
    lines.append("hot phases (by self time)")
    totals = phase_totals(trace)
    ranked = sorted(
        totals.items(), key=lambda item: item[1]["self_seconds"], reverse=True
    )
    for name, entry in ranked[:max_hot]:
        lines.append(
            f"  {name:<28} {entry['self_seconds'] * 1000:10.3f} ms self"
            f" / {entry['seconds'] * 1000:10.3f} ms total"
            f"  ({int(entry['calls'])} call"
            f"{'s' if entry['calls'] != 1 else ''})"
        )

    counters = counter_totals(trace)
    if counters:
        lines.append("")
        lines.append("counter totals")
        for key in sorted(counters):
            lines.append(f"  {key:<40} {counters[key]:g}")
    return "\n".join(lines)
