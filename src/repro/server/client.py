"""A tiny blocking client for the profile daemon.

``http.client`` over one keep-alive connection — enough for the
tests, the CI smoke job, and :mod:`examples.http_fleet` to drive the
full route surface without any dependency.  Each helper mirrors one
endpoint and returns parsed JSON plus the HTTP status, so callers can
assert on both.

Since PR 10 the daemon is multi-tenant and the client follows:
:meth:`DaemonClient.tenant` returns a :class:`TenantClient` handle
scoped to one tenant's routes::

    with DaemonClient.for_daemon(handle) as client:
        gcc = client.tenant("gcc/train")
        gcc.upload(documents)
        status, snap = gcc.snapshot()
        status, packed = gcc.repack()

``client.tenant()`` (no name) speaks the flat PR-9 routes, which
alias the daemon's default tenant — ``POST /profiles`` through that
handle still demultiplexes stamped lines per tenant.  Per-tenant
operations live only on these handles; the client itself keeps the
daemon-wide endpoints.
"""

from __future__ import annotations

import json
from http.client import HTTPConnection, HTTPException
from typing import Dict, Iterable, Optional, Tuple
from urllib.parse import quote


class TenantClient:
    """One tenant's route surface over a shared :class:`DaemonClient`.

    ``name=None`` binds the flat root routes (the default-tenant
    aliases); a named handle speaks ``/tenants/<name>/…``.
    """

    def __init__(self, client: "DaemonClient", name: Optional[str] = None):
        self.client = client
        self.name = name

    def path(self, verb: str) -> str:
        if self.name is None:
            return f"/{verb}"
        return f"/tenants/{quote(self.name, safe='/')}/{verb}"

    def upload(self, texts: Iterable[str]) -> Tuple[int, Dict]:
        """POST documents as one NDJSON upload (one JSON per line)."""
        body = "\n".join(
            " ".join(text.split("\n")) for text in texts
        ).encode()
        return self.client.request_json(
            "POST", self.path("profiles"), body=body,
        )

    def snapshot(self) -> Tuple[int, Dict]:
        return self.client.request_json("GET", self.path("snapshot"))

    def repack(self) -> Tuple[int, Dict]:
        return self.client.request_json("POST", self.path("repack"))

    def dashboard(self) -> Tuple[int, str]:
        path = self.path("") if self.name is not None else "/"
        status, body = self.client.request("GET", path)
        return status, body.decode()


class DaemonClient:
    """Blocking HTTP client bound to one daemon address."""

    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[HTTPConnection] = None

    @classmethod
    def for_daemon(cls, handle, timeout: float = 30.0) -> "DaemonClient":
        """A client for a :class:`~repro.server.app.DaemonHandle`."""
        return cls(handle.daemon.config.host, handle.port, timeout=timeout)

    def _connection(self) -> HTTPConnection:
        if self._conn is None:
            self._conn = HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "DaemonClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
    ) -> Tuple[int, bytes]:
        """One request; reconnects once if the keep-alive went stale."""
        headers = {"Content-Type": content_type} if body else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                return response.status, response.read()
            except (ConnectionError, HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def request_json(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict]:
        status, payload = self.request(method, path, body=body)
        return status, json.loads(payload)

    # -- tenant surface ----------------------------------------------

    def tenant(self, name: Optional[str] = None) -> TenantClient:
        """A handle on one tenant's routes (``None`` = flat aliases)."""
        return TenantClient(self, name)

    def tenants(self) -> Tuple[int, Dict]:
        """The JSON tenant index: names, counters, the default."""
        return self.request_json("GET", "/tenants")

    # -- daemon-wide endpoint helpers --------------------------------

    def healthz(self) -> Tuple[int, Dict]:
        return self.request_json("GET", "/healthz")

    def metrics(self) -> Tuple[int, Dict]:
        return self.request_json("GET", "/metrics")

    def artifact(self, key: str) -> Tuple[int, bytes]:
        """Raw canonical bytes of one stored artifact (or a 404 body)."""
        return self.request("GET", f"/artifacts/{key}")

    def dashboard(self) -> Tuple[int, str]:
        """The tenant index page (``GET /``)."""
        status, body = self.request("GET", "/")
        return status, body.decode()


__all__ = ["DaemonClient", "TenantClient"]
