"""Exporters and reports for span ledgers + metrics snapshots.

Two interchangeable on-disk formats, both self-describing:

* **chrome** — a Chrome ``trace_event`` JSON object: complete (``"ph":
  "X"``) events in microseconds, one per span, with span attributes
  under ``args`` and the metrics snapshot + ledger version stored as
  top-level keys (the trace_event container format explicitly allows
  extra metadata).  Loads directly in ``chrome://tracing`` and
  https://ui.perfetto.dev.
* **jsonl** — a flat ledger: one JSON object per line; a ``header``
  line, one ``span`` line per span, and a final ``metrics`` line.
  Greppable and streamable.

:func:`load_export` reads either format back (sniffed from content,
not extension), and :func:`stage_table` renders the per-stage
time/size table that both ``repro trace`` and ``repro stats`` print —
they share this code path, so their numbers agree by construction.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import series_name
from .spans import LEDGER_VERSION, Span

EXPORT_FORMATS = ("chrome", "jsonl")

#: Figure-1 stage spans, in pipeline order, for table sorting.
STAGE_ORDER = (
    "pipeline.profile",
    "pipeline.identify",
    "pipeline.pack",
    "pipeline.rewrite",
    "pipeline.validate",
    "pipeline.coverage",
)


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def to_chrome(spans: Sequence[Span], metrics: Optional[dict] = None) -> dict:
    """Chrome ``trace_event`` document for a finished ledger."""
    events = []
    for span in spans:
        args = {"span_id": span.span_id, "parent_id": span.parent_id}
        args.update(span.attributes)
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.name.split(".", 1)[0],
            "ts": span.start * 1e6,
            "dur": span.seconds * 1e6,
            "pid": 0,
            "tid": 0,
            "args": args,
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "reproLedgerVersion": LEDGER_VERSION,
        "metrics": metrics or {},
    }


def to_jsonl_lines(
    spans: Sequence[Span], metrics: Optional[dict] = None
) -> List[str]:
    """Flat JSONL ledger lines (header, spans, metrics)."""
    lines = [json.dumps({
        "kind": "header", "format": "repro-obs", "version": LEDGER_VERSION,
    }, sort_keys=True)]
    for span in spans:
        lines.append(json.dumps(
            {"kind": "span", **span.to_dict()}, sort_keys=True
        ))
    lines.append(json.dumps(
        {"kind": "metrics", "snapshot": metrics or {}}, sort_keys=True
    ))
    return lines


def write_export(
    path: str,
    spans: Sequence[Span],
    metrics: Optional[dict] = None,
    fmt: str = "chrome",
) -> None:
    if fmt not in EXPORT_FORMATS:
        raise ValueError(
            f"unknown export format {fmt!r}; expected one of "
            f"{', '.join(EXPORT_FORMATS)}"
        )
    with open(path, "w") as handle:
        if fmt == "chrome":
            json.dump(to_chrome(spans, metrics), handle, indent=2,
                      sort_keys=True)
            handle.write("\n")
        else:
            handle.write("\n".join(to_jsonl_lines(spans, metrics)) + "\n")


# ---------------------------------------------------------------------------
# loader
# ---------------------------------------------------------------------------

def _spans_from_chrome(document: dict) -> List[Span]:
    spans = []
    for event in document.get("traceEvents", ()):
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args", {}))
        span_id = args.pop("span_id", None)
        parent_id = args.pop("parent_id", None)
        start = float(event.get("ts", 0.0)) / 1e6
        spans.append(Span(
            name=str(event.get("name", "")),
            span_id=int(span_id) if span_id is not None else len(spans) + 1,
            parent_id=None if parent_id is None else int(parent_id),
            start=start,
            end=start + float(event.get("dur", 0.0)) / 1e6,
            attributes=args,
        ))
    return sorted(spans, key=lambda s: s.span_id)


def load_export(path: str) -> Tuple[List[Span], dict]:
    """Read a ``repro trace`` export (either format) back.

    Raises ``ValueError`` when the file is neither a chrome trace nor
    a JSONL ledger.
    """
    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if not stripped:
        raise ValueError(f"{path}: empty trace file")
    try:
        document = json.loads(text)
    except ValueError:
        document = None
    if isinstance(document, dict) and "traceEvents" in document:
        return _spans_from_chrome(document), dict(document.get("metrics", {}))
    spans: List[Span] = []
    metrics: dict = {}
    saw_header = False
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: not a ledger line ({exc})")
        kind = record.get("kind")
        if kind == "header":
            saw_header = True
        elif kind == "span":
            spans.append(Span.from_dict(record))
        elif kind == "metrics":
            metrics = dict(record.get("snapshot", {}))
    if not saw_header:
        raise ValueError(
            f"{path}: neither a chrome trace (no traceEvents) nor a "
            f"JSONL ledger (no header line)"
        )
    return sorted(spans, key=lambda s: s.span_id), metrics


# ---------------------------------------------------------------------------
# the per-stage table
# ---------------------------------------------------------------------------

def _format_table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        if rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


_SIZE_ATTRS = (
    "records", "regions", "packages", "package_instructions",
    "static_size", "bytes_rewritten", "checks", "branches", "phases",
    "instructions", "seeds", "shards",
)


def _counter_total(metrics: dict, name: str) -> float:
    return sum(
        value for key, value in metrics.get("counters", {}).items()
        if series_name(key) == name
    )


def _rate_line(metrics: dict, label: str, prefix: str) -> Optional[str]:
    hits = _counter_total(metrics, f"{prefix}.hits")
    misses = _counter_total(metrics, f"{prefix}.misses")
    total = hits + misses
    if not total:
        return None
    return (
        f"{label}: {hits:.0f}/{total:.0f} hits "
        f"({hits / total:.1%} hit rate)"
    )


def stage_table(spans: Sequence[Span], metrics: Optional[dict] = None) -> str:
    """The per-stage wall-time/size table + metrics summary."""
    by_name: Dict[str, Dict[str, float]] = {}
    sizes: Dict[str, Dict[str, float]] = {}
    for span in spans:
        entry = by_name.setdefault(span.name, {"count": 0, "seconds": 0.0})
        entry["count"] += 1
        entry["seconds"] += span.seconds
        size = sizes.setdefault(span.name, {})
        for attr in _SIZE_ATTRS:
            value = span.attributes.get(attr)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                size[attr] = size.get(attr, 0) + value

    def order(name: str) -> Tuple[int, str]:
        try:
            return (STAGE_ORDER.index(name), name)
        except ValueError:
            return (len(STAGE_ORDER), name)

    rows = []
    for name in sorted(by_name, key=order):
        entry = by_name[name]
        detail = " ".join(
            f"{attr}={sizes[name][attr]:,.0f}"
            for attr in _SIZE_ATTRS if attr in sizes[name]
        )
        rows.append([
            name, f"{entry['count']:.0f}", f"{entry['seconds']:.3f}s", detail,
        ])
    lines = [_format_table(["span", "count", "wall", "sizes"], rows)]

    metrics = metrics or {}
    summary = []
    for label, prefix in (
        ("trace cache", "trace_cache"),
        ("artifact store", "artifact_store"),
    ):
        line = _rate_line(metrics, label, prefix)
        if line:
            summary.append(line)
    quarantined = _counter_total(metrics, "pipeline.quarantined")
    summary.append(f"quarantined phases: {quarantined:.0f}")
    # Artifact-store GC bookkeeping (PR 9): read stamps, evictions,
    # and the post-sweep byte gauge, when the store saw any traffic.
    stamped = _counter_total(metrics, "service.artifacts.hits")
    evicted = _counter_total(metrics, "service.artifacts.evictions")
    if stamped or evicted:
        summary.append(
            f"artifact reads stamped: {stamped:.0f}, "
            f"evicted: {evicted:.0f}"
        )
    for key, value in metrics.get("gauges", {}).items():
        if series_name(key) == "service.artifacts.bytes":
            summary.append(f"artifact store bytes: {value:,.0f}")
    # Batched-engine counters appear once a fleet was simulated.
    batched_rows = _counter_total(metrics, "engine.batched.rows")
    if batched_rows:
        retired = _counter_total(metrics, "engine.batched.retired_rows")
        steps = _counter_total(metrics, "engine.batched.steps")
        summary.append(
            f"batched engine: {batched_rows:.0f} client row(s), "
            f"{retired:.0f} in the native kernel, {steps:.0f} steps"
        )
    # Service-layer fault counters only appear once the fleet service
    # has actually seen trouble — a clean run stays clean.
    for label, name in (
        ("quarantined ingests", "service.ingest.quarantined"),
        ("corrupt artifacts", "service.artifacts.corrupt"),
        ("farm shard failures", "farm.shard_failures"),
        ("farm shards degraded", "farm.shards_quarantined"),
        ("farm pool respawns", "farm.pool_respawns"),
        ("torn WAL records", "service.agg.wal.torn"),
    ):
        total = _counter_total(metrics, name)
        if total:
            summary.append(f"{label}: {total:.0f}")
    for key, hist in metrics.get("histograms", {}).items():
        if series_name(key) == "pipeline.stage.seconds":
            summary.append(
                f"{key}: total {hist['total']:.3f}s over "
                f"{hist['count']:.0f} run(s)"
            )
    if summary:
        lines.append("")
        lines.extend(summary)
    return "\n".join(lines)


__all__ = [
    "EXPORT_FORMATS",
    "STAGE_ORDER",
    "load_export",
    "stage_table",
    "to_chrome",
    "to_jsonl_lines",
    "write_export",
]
