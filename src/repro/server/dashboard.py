"""The daemon's HTML pages: a tenant index plus per-tenant views.

No JavaScript, no external assets, no template engine — just escaped
HTML built from the same structures the JSON endpoints serve, so the
dashboards can never disagree with the API.

``GET /`` renders :func:`render_index`: the daemon summary (uptime,
request/GC/checkpoint counters, store root/bytes) plus one row per
tenant — documents, duplicates, quarantined, checkpoint disposition —
each linking to that tenant's page at ``/tenants/<name>/``.

``GET /tenants/<name>/`` renders :func:`render_tenant`, the PR-9
single-tenant dashboard scoped to one aggregator:

* tenant summary (benchmark spec, ingest counters, checkpoint
  disposition, write-ahead-log bytes and the WAL position the last
  checkpoint covers);
* the merged-phase provenance table from the current snapshot
  (branches, contributing runs, detections, agreement, epoch bounds,
  staleness) — the fleet analog of the paper's per-phase tables;
* the tenant's most recent repack report (per-shard rows with
  ``/artifacts/<key>`` links, cache hit rate, fault counters);
* the ``repro stats`` per-stage span/metric table
  (:func:`repro.obs.render.stage_table`) in a ``<pre>`` block;
* the tail of the tenant's quarantine log.
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING, List
from urllib.parse import quote

from repro.errors import ServiceError
from repro.obs import default_registry
from repro.obs.render import stage_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .app import ProfileDaemon, Tenant

_STYLE = """
body { font-family: monospace; margin: 2em; background: #fdfdfd; }
h1, h2 { font-family: sans-serif; }
table { border-collapse: collapse; margin: 0.5em 0 1.5em; }
th, td { border: 1px solid #999; padding: 2px 8px; text-align: right; }
th { background: #eee; }
td.l, th.l { text-align: left; }
pre { background: #f2f2f2; padding: 1em; overflow-x: auto; }
"""


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _table(headers: List[str], rows: List[List[str]],
           left: int = 1) -> List[str]:
    """An HTML table; the first ``left`` columns are left-aligned."""
    def cells(tag: str, row: List[str]) -> str:
        parts = []
        for index, cell in enumerate(row):
            cls = ' class="l"' if index < left else ""
            parts.append(f"<{tag}{cls}>{_esc(cell)}</{tag}>")
        return "".join(parts)

    out = ["<table>", f"<tr>{cells('th', headers)}</tr>"]
    out.extend(f"<tr>{cells('td', row)}</tr>" for row in rows)
    out.append("</table>")
    return out


def _page(title: str, body: List[str]) -> str:
    return "\n".join([
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title>",
        f"<style>{_STYLE}</style></head><body>",
        *body,
        "</body></html>",
    ])


def tenant_href(name: str) -> str:
    """Dashboard URL for one tenant (``/`` is a path separator, kept)."""
    return f"/tenants/{quote(name, safe='/')}/"


def render_index(daemon: "ProfileDaemon") -> str:
    """The ``GET /`` page: daemon summary + tenant index."""
    cfg = daemon.config
    store = daemon.store
    stats = daemon.server_stats()
    out = ["<h1>repro server — tenant index</h1>"]
    out.extend(_table(
        ["field", "value"],
        [
            ["default tenant", cfg.default_tenant],
            ["uptime", f"{daemon.uptime:.1f}s"],
            ["requests", stats["requests"]],
            ["tenants", stats["tenants"]],
            ["checkpoints written", stats["checkpoints"]],
            ["gc sweeps", stats["gc_sweeps"]],
            ["store root", store.root if store.enabled else "off"],
            ["store bytes", f"{store.total_bytes():,}"
             if store.enabled else "-"],
            ["store evictions", store.stats.evictions],
        ],
    ))

    out.append("<h2>Tenants</h2>")
    rows = []
    for tenant in daemon.registry.tenants():
        counters = tenant.counters()
        label = (f"{tenant.name} (default)"
                 if tenant.name == cfg.default_tenant else tenant.name)
        link = (f'<a href="{_esc(tenant_href(tenant.name))}">'
                f"{_esc(label)}</a>")
        rows.append([
            link,
            _esc(counters["documents"]),
            _esc(counters["duplicates"]),
            _esc(counters["quarantined"]),
            _esc(counters["checkpoint"]),
        ])
    # The tenant link is pre-built HTML; bypass the escaping helper
    # for that one column.
    headers = ["tenant", "documents", "duplicates", "quarantined",
               "checkpoint"]
    out.append("<table><tr>" + '<th class="l">' + headers[0] + "</th>"
               + "".join(f"<th>{h}</th>" for h in headers[1:]) + "</tr>")
    for row in rows:
        out.append("<tr>" + "".join(
            f'<td class="l">{cell}</td>' if index == 0 else f"<td>{cell}</td>"
            for index, cell in enumerate(row)
        ) + "</tr>")
    out.append("</table>")
    return _page("repro server — tenants", out)


def render_tenant(daemon: "ProfileDaemon", tenant: "Tenant") -> str:
    """One tenant's full dashboard (the PR-9 page, scoped)."""
    agg = tenant.aggregator
    store = daemon.store
    stats = daemon.server_stats()
    counters = tenant.counters()
    wal = tenant.wal_status()
    out = [
        f"<h1>repro server — tenant {_esc(tenant.name)}</h1>",
        '<p><a href="/">&larr; tenant index</a></p>',
    ]
    out.extend(_table(
        ["field", "value"],
        [
            ["tenant", tenant.name],
            ["uptime", f"{daemon.uptime:.1f}s"],
            ["requests", stats["requests"]],
            ["documents folded", counters["documents"]],
            ["duplicates deduped", counters["duplicates"]],
            ["quarantined", counters["quarantined"]],
            ["checkpoint", counters["checkpoint"]],
            ["checkpoints written", stats["checkpoints"]],
            ["WAL bytes", f"{wal['bytes']:,}"],
            ["WAL position", wal["position"]],
            ["checkpoint position", wal["checkpoint_position"]],
            ["gc sweeps", stats["gc_sweeps"]],
            ["store root", store.root if store.enabled else "off"],
            ["store bytes", f"{store.total_bytes():,}"
             if store.enabled else "-"],
            ["store evictions", store.stats.evictions],
        ],
    ))

    out.append("<h2>Merged fleet snapshot</h2>")
    try:
        fleet = tenant.snapshot()
    except ServiceError as exc:
        out.append(f"<p>no snapshot yet: {_esc(exc)}</p>")
    else:
        out.append(
            f"<p>{len(fleet.phases)} merged phase(s) from {fleet.runs} "
            f"run(s) (max epoch {fleet.max_epoch}, {fleet.aged_out} aged "
            f"out); digest <code>{_esc(fleet.digest())}</code></p>"
        )
        out.extend(_table(
            ["phase", "branches", "runs", "detections", "agreement",
             "epochs", "staleness"],
            [
                [
                    phase.index,
                    len(phase.record.branches),
                    len(phase.provenance.run_ids),
                    phase.provenance.detections,
                    f"{phase.provenance.agreement:.4f}",
                    f"{phase.provenance.first_epoch}.."
                    f"{phase.provenance.last_epoch}",
                    phase.provenance.staleness,
                ]
                for phase in fleet.phases
            ],
        ))

    out.append("<h2>Last repack</h2>")
    report = tenant.last_report
    if report is None:
        out.append("<p>no repack yet — <code>POST "
                   f"{_esc(tenant_href(tenant.name))}repack</code></p>")
    else:
        pack = report["pack"]
        cache = pack["cache"]
        out.append(
            f"<p>{pack['packages']} package(s) over phases "
            f"{_esc(pack['phase_set'])}; cache hit rate "
            f"{float(cache['hit_rate']):.1%}; "
            f"{pack['faults']['degraded_shards']} degraded shard(s)</p>"
        )
        rows = []
        for shard in pack["shards"]:
            key = str(shard["key"])
            link = (f'<a href="/artifacts/{_esc(key)}">'
                    f"{_esc(key[:16])}…</a>")
            rows.append([
                shard["shard"], _esc(shard["phases"]), link,
                "hit" if shard["cached"] else "packed",
                shard["packages"], f"{float(shard['coverage']):.1%}",
                shard["attempts"],
                "degraded" if shard["degraded"] else "ok",
            ])
        # The artifact link is pre-built HTML; bypass the escaping
        # table helper for that one column.
        out.append("<table><tr>" + "".join(
            f"<th>{h}</th>" for h in
            ["shard", "phases", "artifact", "source", "packages",
             "coverage", "attempts", "state"]
        ) + "</tr>")
        for row in rows:
            cells = []
            for index, cell in enumerate(row):
                cells.append(f"<td>{cell}</td>" if index in (1, 2)
                             else f"<td>{_esc(cell)}</td>")
            out.append("<tr>" + "".join(cells) + "</tr>")
        out.append("</table>")

    out.append("<h2>Stages and metrics</h2>")
    out.append("<pre>"
               + _esc(stage_table([], default_registry().snapshot()))
               + "</pre>")

    with tenant.lock:
        quarantine_tail = list(agg.rejected[-10:])
    if quarantine_tail:
        out.append("<h2>Quarantine log (last 10)</h2><pre>")
        out.extend(_esc(reject.render()) for reject in quarantine_tail)
        out.append("</pre>")

    return _page(f"repro server — {tenant.name}", out)


def render_dashboard(daemon: "ProfileDaemon") -> str:
    """PR-9 compatibility: the default tenant's full dashboard."""
    return render_tenant(daemon, daemon.registry.default)


__all__ = ["render_dashboard", "render_index", "render_tenant",
           "tenant_href"]
