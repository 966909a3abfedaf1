"""Endpoint dispatch for the profile daemon.

The wire surface, all JSON except the dashboards.  Every data route
exists twice: tenant-scoped under ``/tenants/<name>/…``, and flat at
the root as a PR-9 compatibility alias for the **default tenant**
(``config.benchmark/config.input_name``):

============================== ======================================
``POST /tenants/<t>/profiles`` NDJSON stream of profile documents,
                               every line pinned to tenant ``<t>``
                               (created lazily); lines stamped for a
                               *different* tenant quarantine with
                               stage ``route``.
``POST /profiles``             the flat alias **demultiplexes**: each
                               line routes by its ``meta.benchmark``
                               stamp, unstamped lines fold into the
                               default tenant.  Both upload routes
                               answer only once every line is in its
                               tenant's fsync'd write-ahead log; 503
                               when it cannot be made durable.
``GET /tenants/<t>/snapshot``  tenant's merged fleet profile + digest.
``POST /tenants/<t>/repack``   sharded farm pack of that tenant's
                               snapshot; full fleet report + artifact
                               keys.
``GET /tenants``               JSON tenant index (names + counters).
``GET /tenants/<t>/``          per-tenant HTML dashboard.
``GET /``                      HTML tenant index page.
``GET /artifacts/<k>``         content-addressed artifact retrieval
                               (shared across tenants; stamps the
                               read for GC).
``GET /healthz``               liveness + per-tenant/store counters.
``GET /metrics``               ``repro.obs`` registry snapshot.
============================== ======================================

``/snapshot`` and ``/repack`` at the root alias the default tenant.
Tenant names may contain ``/`` (benchmark specs like ``181.mcf/A``),
so tenant routes parse by *suffix*: the last path segment is the verb,
everything between ``/tenants/`` and the verb is the tenant name —
unambiguous because a tenant name may never end in a reserved segment.

Every handler returns a :class:`~repro.server.http.Response`; protocol
errors raise :class:`~repro.server.http.BadRequest`.  Handlers run on
the event loop but push blocking work (packing, WAL appends,
checkpoint writes) through ``asyncio.to_thread``, so ingest keeps
streaming while a repack runs.  Because of that split, every
aggregator touch — folding a document on the loop, serializing or
snapshotting in a worker thread — happens under that tenant's lock;
the aggregator itself has no locking.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import ServiceError
from repro.obs import default_registry, inc
from repro.service import FarmConfig, build_report, canonical_json, pack_fleet

from .http import BadRequest, Request, Response

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .app import ProfileDaemon, Tenant

#: Upload size cap: a fleet posts documents in batches, not the whole
#: fleet in one request.
MAX_UPLOAD_BYTES = 64 * 1024 * 1024


async def _profiles(
    daemon: "ProfileDaemon",
    request: Request,
    tenant: Optional["Tenant"] = None,
) -> Response:
    """Streaming NDJSON ingest: one profile document JSON per line.

    ``tenant`` pins a scoped upload; ``None`` (the flat alias) routes
    each line by its ``meta.benchmark`` stamp.
    """
    if request.length > MAX_UPLOAD_BYTES:
        raise BadRequest(
            f"upload of {request.length} bytes exceeds the "
            f"{MAX_UPLOAD_BYTES}-byte cap; batch the fleet", status=413,
        )
    received = folded = duplicates = 0
    rejected: List[Dict] = []
    truncated = None
    #: tenant name -> (tenant, its (WAL position, line) records)
    logged: Dict[str, Tuple["Tenant", List[Tuple[int, str]]]] = {}
    folded_by: Dict[str, int] = {}

    def ingest_line(line: bytes) -> None:
        nonlocal received, folded, duplicates
        text = line.decode("utf-8", errors="replace").strip()
        if not text:
            return
        received += 1
        disposition, routed, reject, position = daemon.route_text(
            text, pinned=tenant
        )
        # Folded, deduplicated and quarantined lines all changed the
        # tenant's state, so all of them are logged.
        logged.setdefault(routed.name, (routed, []))[1].append(
            (position, text)
        )
        if disposition == "folded":
            folded += 1
            folded_by[routed.name] = folded_by.get(routed.name, 0) + 1
        elif disposition == "duplicate":
            duplicates += 1
        else:
            entry = {"line": received, "tenant": routed.name}
            entry.update(reject or {})
            rejected.append(entry)

    buffer = b""
    try:
        async for chunk in request.chunks():
            buffer += chunk
            while True:
                line, sep, buffer = buffer.partition(b"\n")
                if not sep:
                    buffer = line
                    break
                ingest_line(line)
    except BadRequest as exc:
        # A peer that hung up mid-body gets its partial work accounted
        # and a 400 — the documents already folded stay folded.
        truncated = str(exc)
    if buffer and truncated is None:
        ingest_line(buffer)

    # Append, then answer: the response leaves only once every line
    # above is in its tenant's fsync'd WAL (or a durable checkpoint).
    if logged and not await asyncio.to_thread(daemon.make_durable, logged):
        inc("server.ingest.not_durable")
        return Response.error(
            503,
            f"{received} line(s) were applied but could not be made "
            "durable: the artifact store rejected both the write-ahead "
            "log append and a full checkpoint",
            hint="retry the upload once the store's disk accepts "
                 "writes; replayed lines deduplicate",
        )
    documents = (tenant.counters()["documents"] if tenant is not None
                 else daemon.totals()["documents"])
    body = {
        "received": received,
        "folded": folded,
        "duplicates": duplicates,
        "rejected": rejected,
        "documents": documents,
        "tenants": folded_by,
    }
    if tenant is not None:
        body["tenant"] = tenant.name
    if truncated is not None:
        body["truncated"] = truncated
    status = 400 if rejected or truncated is not None else 200
    return Response.json(body, status=status)


def _snapshot_payload(daemon: "ProfileDaemon", tenant: "Tenant") -> Dict:
    fleet = tenant.snapshot()
    return {
        "tenant": tenant.name,
        "fleet": fleet.to_dict(),
        "digest": fleet.digest(),
    }


async def _snapshot(
    daemon: "ProfileDaemon",
    request: Request,
    tenant: Optional["Tenant"] = None,
) -> Response:
    tenant = tenant or daemon.registry.default
    try:
        payload = await asyncio.to_thread(_snapshot_payload, daemon, tenant)
    except ServiceError as exc:
        return Response.error(404, str(exc), hint=exc.hint)
    return Response.json(payload)


def _repack_sync(daemon: "ProfileDaemon", tenant: "Tenant") -> Dict:
    from repro.experiments.parallel import resolve_jobs

    cfg = daemon.config
    benchmark, input_name = tenant.bench_spec(cfg)
    # One lock hold: the snapshot, the rejection view, and the ingest
    # counters must describe the same instant; packing and report
    # building below work on materialized copies, unlocked.
    with tenant.lock:
        fleet = tenant.aggregator.snapshot()
        ingest = tenant.aggregator.ingest_view()
        documents = tenant.aggregator.documents
        deduplicated = tenant.aggregator.duplicates
    farm = FarmConfig(
        benchmark=benchmark,
        input_name=input_name,
        scale=cfg.scale,
        pipeline=cfg.pipeline,
        shard_size=cfg.shard_size,
    )
    packed = pack_fleet(
        fleet, farm, jobs=cfg.jobs, store=daemon.store,
        policy=daemon.farm_policy,
    )
    report = build_report(
        ingest, fleet, packed, farm,
        daemon.store, jobs=resolve_jobs(cfg.jobs),
    ).to_dict()
    report["aggregate"] = {
        "mode": "streaming",
        "checkpoint": "restored" if tenant.restored else "cold",
        "documents": documents,
        "deduplicated": deduplicated,
    }
    return {
        "tenant": tenant.name,
        "report": report,
        "artifacts": [outcome.key for outcome in packed.outcomes],
    }


async def _repack(
    daemon: "ProfileDaemon",
    request: Request,
    tenant: Optional["Tenant"] = None,
) -> Response:
    tenant = tenant or daemon.registry.default
    lock = daemon._repack_lock
    assert lock is not None
    async with lock:
        try:
            body = await asyncio.to_thread(_repack_sync, daemon, tenant)
        except ServiceError as exc:
            return Response.error(409, str(exc), hint=exc.hint)
        tenant.last_report = body["report"]
    return Response.json(body)


async def _artifact(daemon: "ProfileDaemon", request: Request) -> Response:
    key = request.path[len("/artifacts/"):]
    if not key or "/" in key:
        raise BadRequest(f"malformed artifact key {key!r}")
    payload = await asyncio.to_thread(daemon.store.get, key)
    if payload is None:
        return Response.error(404, f"no artifact under key {key!r}")
    # Canonical bytes, exactly as a local store.get would canonicalize:
    # the HTTP round trip is byte-identical to the on-disk payload.
    return Response(status=200, body=canonical_json(payload),
                    content_type="application/json")


def _tenant_counters(daemon: "ProfileDaemon") -> Dict[str, Dict]:
    return {t.name: t.counters() for t in daemon.registry.tenants()}


async def _healthz(daemon: "ProfileDaemon", request: Request) -> Response:
    store = daemon.store
    totals = daemon.totals()
    return Response.json({
        "status": "ok",
        "benchmark": f"{daemon.config.benchmark}/"
                     f"{daemon.config.input_name}",
        "uptime": round(daemon.uptime, 3),
        "documents": totals["documents"],
        "duplicates": totals["duplicates"],
        "quarantined": totals["quarantined"],
        "checkpoint": "restored" if daemon.restored else "cold",
        "tenants": _tenant_counters(daemon),
        "wal": {t.name: t.wal_status() for t in daemon.registry.tenants()},
        "store": {
            "root": store.root if store.enabled else "off",
            "hits": store.stats.hits,
            "misses": store.stats.misses,
            "puts": store.stats.puts,
            "evictions": store.stats.evictions,
        },
    })


async def _metrics(daemon: "ProfileDaemon", request: Request) -> Response:
    return Response.json({
        "metrics": default_registry().snapshot(),
        "server": daemon.server_stats(),
        "tenants": _tenant_counters(daemon),
    })


async def _tenant_index(daemon: "ProfileDaemon", request: Request) -> Response:
    return Response.json({
        "default": daemon.config.default_tenant,
        "tenants": _tenant_counters(daemon),
    })


async def _index_page(daemon: "ProfileDaemon", request: Request) -> Response:
    from .dashboard import render_index

    html = await asyncio.to_thread(render_index, daemon)
    return Response.html(html)


async def _tenant_page(
    daemon: "ProfileDaemon", request: Request, tenant: "Tenant"
) -> Response:
    from .dashboard import render_tenant

    html = await asyncio.to_thread(render_tenant, daemon, tenant)
    return Response.html(html)


#: (method, exact path) -> handler; prefix routes handled in dispatch.
_EXACT = {
    ("POST", "/profiles"): _profiles,
    ("GET", "/snapshot"): _snapshot,
    ("POST", "/repack"): _repack,
    ("GET", "/healthz"): _healthz,
    ("GET", "/metrics"): _metrics,
    ("GET", "/tenants"): _tenant_index,
    ("GET", "/"): _index_page,
}

#: Paths that exist (for 405-vs-404 on a method mismatch).
_KNOWN_PATHS = {path for _, path in _EXACT} | {"/artifacts/"}


async def _dispatch_tenant(
    daemon: "ProfileDaemon", request: Request
) -> Response:
    """Suffix-parse ``/tenants/<name>/<verb>`` and route it."""
    from .app import RouteError

    rest = request.path[len("/tenants/"):]
    if rest.endswith("/"):
        name = rest[:-1]
        tenant = daemon.registry.peek(name)
        if tenant is None:
            return Response.error(404, f"no tenant named {name!r}")
        if request.method != "GET":
            return Response.error(405, "the tenant dashboard is read-only")
        return await _tenant_page(daemon, request, tenant)
    name, _, verb = rest.rpartition("/")
    if verb == "profiles":
        if request.method != "POST":
            return Response.error(405, "profiles accepts POST only")
        try:
            tenant = daemon.registry.get(name)
        except RouteError as exc:
            return Response.error(400, str(exc), hint=exc.hint)
        return await _profiles(daemon, request, tenant=tenant)
    if verb in ("snapshot", "repack"):
        tenant = daemon.registry.peek(name)
        if tenant is None:
            return Response.error(404, f"no tenant named {name!r}")
        if verb == "snapshot":
            if request.method != "GET":
                return Response.error(405, "snapshot accepts GET only")
            return await _snapshot(daemon, request, tenant=tenant)
        if request.method != "POST":
            return Response.error(405, "repack accepts POST only")
        return await _repack(daemon, request, tenant=tenant)
    return Response.error(
        404,
        f"no tenant route for {request.path!r}",
        hint="tenant routes end in /profiles, /snapshot, /repack, or "
             "/ (dashboard)",
    )


async def dispatch(daemon: "ProfileDaemon", request: Request) -> Response:
    """Route one request; 404 unknown paths, 405 wrong methods."""
    handler = _EXACT.get((request.method, request.path))
    if handler is not None:
        return await handler(daemon, request)
    if request.path.startswith("/artifacts/"):
        if request.method != "GET":
            return Response.error(405, "artifacts are read-only")
        return await _artifact(daemon, request)
    if request.path == "/tenants/":
        if request.method != "GET":
            return Response.error(405, "the tenant index is read-only")
        return await _tenant_index(daemon, request)
    if request.path.startswith("/tenants/"):
        return await _dispatch_tenant(daemon, request)
    if any(path == request.path for path in _KNOWN_PATHS):
        return Response.error(
            405, f"{request.method} not supported on {request.path}"
        )
    return Response.error(404, f"no route for {request.path}")


__all__ = ["MAX_UPLOAD_BYTES", "dispatch"]
