"""Per-layer tracing from outside the program.

:func:`install` wraps the public entry points of each layer in
``repro.obs`` spans named ``layer:<key>``.  Every wrapper patches the
name where its caller looks it up (``identify_region`` as
``repro.postlink.vacuum`` imported it, methods on their class), so the
program runs unmodified; the spans ride the existing tracer, and spans
opened inside farm workers come home through ``start_capture`` /
``absorb`` like the program's own.

:func:`build_forest` and :func:`layer_stats` turn span ledgers into
layer busy time, calls and self time.  A layer span's *self time* is
its duration minus the part of it covered by its nearest layer
descendants in the same process; the program's own spans and the
benchmark's phase spans are transparent.  Spans merged home from a
farm worker (everything under
the program's ``farm.shard`` span) ran in another process: they count
toward their own layer's busy time but are never subtracted from a
parent-process span, whose wall time they overlap only in aggregate.
"""

from __future__ import annotations

import asyncio
import functools
import importlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Span-name prefix of every wrapper span.
PREFIX = "layer:"

#: Program span under which a farm worker's merged ledger hangs.
WORKER_ROOT = "farm.shard"


@dataclass(frozen=True)
class Wrap:
    """One wrapped entry point."""

    #: Layer metric key (span name without :data:`PREFIX`).
    key: str
    module: str
    #: ``function`` or ``Class.method`` inside ``module``.
    attribute: str
    #: Optional ``(result, args) -> attributes`` hook annotating sizes.
    sizes: Optional[Callable] = None


def _records(result, args) -> Dict:
    return {"records": len(args[0].unique_records)}


def _branches(result, args) -> Dict:
    return {"branches": int(result.summary.branches)}


def _batched_branches(result, args) -> Dict:
    return {"branches": int(sum(t.summary.branches for t in result.traces))}


def _plan(result, args) -> Dict:
    return {
        "packages": len(result.packages),
        "static_instructions": sum(p.static_size() for p in result.packages),
    }


def _phases(result, args) -> Dict:
    return {"phases": len(result.phases)}


def _instructions(result, args) -> Dict:
    return {"instructions": int(result.instructions)}


def _put_bytes(result, args) -> Dict:
    store, key = args[0], args[1]
    if not result:
        return {"bytes": 0}
    try:
        return {"bytes": os.path.getsize(store.path_of(key))}
    except OSError:
        return {"bytes": 0}


#: The layer map: each entry point, in the module its caller reads it
#: from.  ``dispatch`` is special-cased (async, split by route).
WRAPS: Tuple[Wrap, ...] = (
    Wrap("server.route", "repro.server.app", "ProfileDaemon.route_text"),
    Wrap("aggregate.validate", "repro.service.aggregate",
         "IncrementalAggregator.ingest_text"),
    Wrap("aggregate.fold", "repro.service.aggregate",
         "IncrementalAggregator.ingest_run"),
    Wrap("aggregate.checkpoint", "repro.server.app", "Tenant.checkpoint"),
    Wrap("aggregate.checkpoint.serialize", "repro.service.aggregate",
         "IncrementalAggregator.to_state"),
    Wrap("aggregate.checkpoint.digest", "repro.service.aggregate",
         "IncrementalAggregator.state_digest"),
    Wrap("aggregate.snapshot", "repro.service.aggregate",
         "IncrementalAggregator.snapshot", _phases),
    Wrap("artifacts.put", "repro.service.artifacts", "ArtifactStore.put",
         _put_bytes),
    Wrap("artifacts.get", "repro.service.artifacts", "ArtifactStore.get"),
    Wrap("farm.pack_fleet", "repro.server.routes", "pack_fleet"),
    Wrap("engine.run", "repro.postlink.vacuum", "traced_run", _branches),
    Wrap("engine.run", "repro.engine.batched",
         "BatchedExecutor.run_traced", _batched_branches),
    Wrap("hsd.consume", "repro.engine.listeners",
         "HSDListener.consume_trace", _records),
    Wrap("regions.identify", "repro.postlink.vacuum", "identify_region"),
    Wrap("packages.construct", "repro.postlink.vacuum",
         "construct_packages"),
    Wrap("packages.construct", "repro.postlink.vacuum", "assemble_plan",
         _plan),
    Wrap("optimize", "repro.optimize.passes", "optimize_package"),
    Wrap("optimize.block_costs", "repro.optimize.passes",
         "baseline_block_costs"),
    Wrap("optimize.block_costs", "repro.optimize.passes",
         "packed_block_costs"),
    Wrap("postlink.rewrite", "repro.postlink.vacuum", "rewrite_program"),
    Wrap("postlink.validate", "repro.postlink.validate", "validate_plan"),
    Wrap("postlink.validate", "repro.postlink.validate", "validate_packed"),
    Wrap("postlink.coverage", "repro.postlink.vacuum", "measure_coverage"),
    Wrap("cpu.timing", "repro.cpu.timing", "TimingSimulator.run",
         _instructions),
)

#: Layer keys, in report order (``server.post`` wraps ``dispatch``).
LAYER_KEYS: Tuple[str, ...] = ("server.post", "server.request") + tuple(
    dict.fromkeys(wrap.key for wrap in WRAPS)
)

#: Patching is process-wide, so it happens at most once per process.
_installed = False


def _span_call(key: str, original, sizes, delay: float):
    from repro.obs import span

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with span(PREFIX + key) as entry:
            if delay:
                time.sleep(delay)
            result = original(*args, **kwargs)
        if entry is not None and sizes is not None:
            entry.attributes.update(sizes(result, args))
        return result

    return wrapper


def _span_dispatch(original, delays: Dict[str, float]):
    from repro.obs import span

    @functools.wraps(original)
    async def dispatch(daemon, request):
        key = ("server.post"
               if (request.method, request.path) == ("POST", "/profiles")
               else "server.request")
        with span(PREFIX + key, method=request.method, path=request.path):
            if delays.get(key):
                await asyncio.sleep(delays[key])
            return await original(daemon, request)

    return dispatch


def install(delays: Optional[Dict[str, float]] = None) -> None:
    """Wrap every entry point in :data:`WRAPS` (idempotent).

    ``delays`` injects a fixed sleep, inside the span, into the named
    layer's wrapper — the attribution self-check uses it.
    """
    global _installed
    delays = dict(delays or {})
    unknown = sorted(set(delays) - set(LAYER_KEYS))
    if unknown:
        raise ValueError(f"unknown layer(s) for --delay: {unknown}")
    if _installed:
        return
    _installed = True
    routes = importlib.import_module("repro.server.routes")
    routes.dispatch = _span_dispatch(routes.dispatch, delays)
    for wrap in WRAPS:
        owner = importlib.import_module(wrap.module)
        holder_name, _, name = wrap.attribute.rpartition(".")
        holder = getattr(owner, holder_name) if holder_name else owner
        setattr(holder, name, _span_call(
            wrap.key, getattr(holder, name), wrap.sizes,
            delays.get(wrap.key, 0.0),
        ))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

@dataclass
class Node:
    """One span in absolute monotonic seconds."""

    name: str
    start: float
    end: float
    attributes: Dict
    #: Process the span ran in (``bench`` / ``daemon`` / ``worker``).
    side: str
    children: List["Node"] = field(default_factory=list)
    parent: Optional["Node"] = None

    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def layer(self) -> Optional[str]:
        return self.name[len(PREFIX):] if self.name.startswith(PREFIX) \
            else None

    def root(self) -> "Node":
        node = self
        while node.parent is not None:
            node = node.parent
        return node


def build_forest(spans: Iterable, origin: float, side: str) -> List[Node]:
    """Nodes of one process ledger, shifted onto the absolute clock;
    spans under a merged ``farm.shard`` are marked ``worker``."""
    nodes = {}
    for span in spans:
        nodes[span.span_id] = (span, Node(
            name=span.name, start=origin + span.start,
            end=origin + span.end, attributes=dict(span.attributes),
            side=side,
        ))
    for span, node in nodes.values():
        parent = nodes.get(span.parent_id)
        if parent is not None:
            node.parent = parent[1]
            parent[1].children.append(node)
    for _, node in nodes.values():
        probe = node
        while probe is not None:
            if probe.name == WORKER_ROOT:
                node.side = "worker"
                break
            probe = probe.parent
    return [node for _, node in nodes.values()]


def layer_children(node: Node) -> List[Node]:
    """Nearest layer descendants of ``node`` in its own process."""
    found: List[Node] = []
    stack = list(node.children)
    while stack:
        child = stack.pop()
        if child.side == "worker" and node.side != "worker":
            continue
        if child.layer is not None:
            found.append(child)
        else:
            stack.extend(child.children)
    return found


def covered(node: Node, parts: Sequence[Node]) -> float:
    """Seconds of ``node``'s interval covered by ``parts``."""
    intervals = sorted(
        (max(p.start, node.start), min(p.end, node.end)) for p in parts
    )
    total = 0.0
    cursor = node.start
    for start, end in intervals:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_seconds(node: Node) -> float:
    return max(0.0, node.seconds - covered(node, layer_children(node)))


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    sizes: Dict[str, float] = field(default_factory=dict)


def layer_stats(nodes: Iterable[Node]) -> Dict[str, LayerStats]:
    stats: Dict[str, LayerStats] = {key: LayerStats() for key in LAYER_KEYS}
    for node in nodes:
        key = node.layer
        if key is None:
            continue
        entry = stats.setdefault(key, LayerStats())
        entry.calls += 1
        entry.busy_s += node.seconds
        entry.self_s += self_seconds(node)
        for name, value in node.attributes.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                entry.sizes[name] = entry.sizes.get(name, 0) + value
    return stats


def within(nodes: Iterable[Node], windows: Sequence[Tuple[float, float]]):
    """Nodes whose top-level ancestor started inside one of ``windows``."""
    for node in nodes:
        start = node.root().start
        if any(lo <= start <= hi for lo, hi in windows):
            yield node


def render_table(
    stats: Dict[str, LayerStats], wall: float
) -> str:
    """Busy seconds, calls, self time and share of wall per layer."""
    rows = [("layer", "calls", "busy_s", "self_s", "self/wall")]
    for key in LAYER_KEYS:
        entry = stats[key]
        if not entry.calls:
            continue
        rows.append((
            key, str(entry.calls), f"{entry.busy_s:.4f}",
            f"{entry.self_s:.4f}",
            f"{entry.self_s / wall:.1%}" if wall else "-",
        ))
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths))
        .rstrip()
        for row in rows
    )
