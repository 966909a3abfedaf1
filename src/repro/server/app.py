"""The long-running profile daemon: asyncio loop, tenants, lifecycle, GC.

This is the deployment shape of the BOLT data-center loop: clients
push serialized HSD profile documents over HTTP, the daemon folds each
one into a checkpointed
:class:`~repro.service.aggregate.IncrementalAggregator` as it arrives,
and operators pull merged snapshots, re-packed artifacts, and a
dashboard back out.

Since PR 10 the daemon is **multi-tenant**: one process collects
profiles for *many* binaries.  Each distinct ``meta.benchmark`` stamp
seen in uploads lazily becomes a tenant — its own aggregator, its own
lock, its own pinned checkpoint slot — while the artifact store and
the GC byte budget stay shared across tenants.  The module splits
cleanly:

* :class:`ServerConfig` — everything that parameterizes one daemon
  (defined in :mod:`repro.api`, re-exported here);
* :class:`Tenant` / :class:`TenantRegistry` — per-benchmark aggregator
  state plus the lazy creation, restore, and routing rules;
* :class:`ProfileDaemon` — the asyncio server plus registry/store
  lifecycle: restore every known tenant on boot (its checkpoint, then
  the records of its write-ahead log past it), make every upload's
  lines durable in the touched tenants' WALs before answering (one
  fsync per tenant; a full checkpoint only once the log outgrows the
  last one — :mod:`repro.service.wal`), periodic artifact-store GC
  sweeps under ``gc_max_bytes`` (every tenant's checkpoint slot and
  the tenant directory are pinned, so eviction can never eat daemon
  state), and graceful shutdown — SIGTERM stops the listener, drains
  in-flight requests, and writes a final checkpoint per tenant, so a
  restarted daemon resumes every tenant with no double-counting
  (replayed uploads dedup by content digest), as does one restarted
  after ``kill -9``;
* :func:`start_daemon_thread` — the test/example harness: the same
  daemon on an ephemeral port in a background thread, with a handle
  that stops it synchronously.

The routing rule (documented in ``docs/service.md``): a scoped upload
(``POST /tenants/<name>/profiles``) pins every line to ``<name>`` and
quarantines lines stamped for a *different* tenant (stage ``route``);
a flat upload (``POST /profiles``) demultiplexes per line by the
``meta.benchmark`` stamp, with unstamped lines folding into the
default tenant (``config.benchmark/config.input_name``).  Flat
``/snapshot``, ``/repack``, and the per-tenant dashboard alias the
default tenant, so every PR-9 caller keeps working unchanged.

Request routing lives in :mod:`repro.server.routes`; the HTTP wire
plumbing in :mod:`repro.server.http`.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import re
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.api import ServerConfig
from repro.errors import ServiceError
from repro.obs import inc, set_gauge
from repro.service import (
    ArtifactStore,
    FarmPolicy,
    IncrementalAggregator,
    MergePolicy,
    checkpoint_key,
    default_store,
)
from repro.service.aggregate import quarantine_profile
from repro.service.wal import WriteAheadLog, wal_dir

from .http import BadRequest, Response, read_request, write_response

logger = logging.getLogger(__name__)

#: Version stamp of the tenant-directory slot payload.
TENANT_DIRECTORY_VERSION = 1

#: Path segments a tenant name may not end in — they would collide
#: with the ``/tenants/<name>/<verb>`` route suffixes.
RESERVED_SEGMENTS = frozenset({"profiles", "snapshot", "repack", "tenants"})

#: Characters a tenant name may use (benchmark specs like
#: ``181.mcf/A`` route cleanly; no URL escaping is ever needed).
_TENANT_CHARS = re.compile(r"[A-Za-z0-9._/:+-]+\Z")

_MAX_TENANT_NAME = 120


class RouteError(ServiceError):
    """A profile document that cannot be routed to a tenant.

    Quarantined per line with stage ``route`` — a mis-addressed upload
    is the sender's error and must never bleed into another tenant's
    aggregate (nor 500 the daemon).
    """

    default_hint = (
        "stamp meta.benchmark with the tenant the document belongs "
        "to, or upload through that tenant's /tenants/<name>/profiles"
    )

    def __init__(self, message: str, **kwargs):
        super().__init__(message, **kwargs)
        self.stage = "route"


def check_tenant_name(name: str) -> Optional[str]:
    """Why ``name`` cannot name a tenant, or ``None`` if it can."""
    if not isinstance(name, str) or not name:
        return "tenant name must be a non-empty string"
    if len(name) > _MAX_TENANT_NAME:
        return f"tenant name exceeds {_MAX_TENANT_NAME} characters"
    if not _TENANT_CHARS.match(name):
        return ("tenant name may only use letters, digits, and ./:+-_ "
                f"(got {name!r})")
    segments = name.split("/")
    if any(not segment for segment in segments):
        return f"tenant name has an empty path segment: {name!r}"
    if segments[-1] in RESERVED_SEGMENTS:
        return (f"tenant name may not end in a reserved segment "
                f"({', '.join(sorted(RESERVED_SEGMENTS))}): {name!r}")
    return None


def tenant_directory_key(tag: str) -> str:
    """Artifact-store slot listing a daemon's known tenants.

    A mutable slot like the checkpoint slots: keyed by daemon tag so a
    restarted daemon can eagerly restore every tenant it served, not
    just the ones that happen to receive traffic first.
    """
    digest = hashlib.blake2b(digest_size=20)
    digest.update(f"tenant-directory-v{TENANT_DIRECTORY_VERSION};".encode())
    digest.update(f"tag={tag};".encode())
    return digest.hexdigest()


@dataclass
class Tenant:
    """One benchmark's aggregator state inside a multi-tenant daemon."""

    name: str
    #: Checkpoint tag: the daemon tag itself for the default tenant
    #: (so PR-9 single-tenant checkpoints restore), ``tag:name`` else.
    tag: str
    #: Pinned artifact-store slot this tenant checkpoints into.
    slot: str
    aggregator: IncrementalAggregator
    #: Serializes every touch of :attr:`aggregator`: ingest mutates on
    #: the event loop while snapshots/checkpoints/dashboard renders
    #: run in worker threads, and the aggregator has no locking of its
    #: own.  Held only around in-memory work (fold, serialize,
    #: materialize), never across disk writes.
    lock: threading.Lock = field(default_factory=threading.Lock)
    restored: bool = False
    #: Report dict of this tenant's most recent successful ``/repack``.
    last_report: Optional[Dict] = None
    #: The tenant's write-ahead log (``None`` with the store off).
    wal: Optional[WriteAheadLog] = None
    #: WAL position of the newest line applied (taken under :attr:`lock`).
    position: int = 0
    #: WAL position the last checkpoint covers.
    checkpointed: int = 0
    #: Size in bytes of the last checkpoint.
    checkpoint_bytes: int = 0
    #: One checkpoint at a time: a slower, older checkpoint landing
    #: after a newer one must never retire WAL segments it lacks.
    _checkpointing: threading.Lock = field(default_factory=threading.Lock)

    def snapshot(self):
        """Materialize the merged fleet under :attr:`lock`.

        The returned :class:`~repro.service.aggregate.FleetProfile` is
        built from fresh structures, so callers may use it unlocked.
        """
        with self.lock:
            return self.aggregator.snapshot()

    def ingest(
        self,
        text: str,
        parsed: Optional[Dict] = None,
        route_error: Optional["RouteError"] = None,
        name: Optional[str] = None,
        position: Optional[int] = None,
    ) -> Tuple[str, Optional[Dict], int]:
        """Fold or quarantine one routed line; ``(disposition, reject,
        position)``.

        The line takes its WAL position under :attr:`lock` — the next
        one, or ``position`` when a replay restores a logged line.
        """
        agg = self.aggregator
        with self.lock:
            self.position = (self.position + 1 if position is None
                             else max(self.position, position))
            if route_error is not None:
                label = name or "<upload:{}>".format(
                    hashlib.blake2b(text.encode(), digest_size=16)
                    .hexdigest()[:12]
                )
                reject = quarantine_profile(label, route_error)
                agg.rejected.append(reject)
            else:
                before_rejects = len(agg.rejected)
                before_dupes = agg.duplicates
                if agg.ingest_text(text, name=name, parsed=parsed):
                    return "folded", None, self.position
                if agg.duplicates > before_dupes:
                    return "duplicate", None, self.position
                reject = agg.rejected[-1] \
                    if len(agg.rejected) > before_rejects else None
                if reject is None:  # pragma: no cover - ingest invariant
                    return "duplicate", None, self.position
            return "rejected", {
                "error": reject.error,
                "stage": reject.stage,
                "exception_type": reject.exception_type,
            }, self.position

    @property
    def dirty(self) -> bool:
        """Lines were applied since the last checkpoint."""
        return self.position > self.checkpointed

    def checkpoint(self, store: ArtifactStore) -> bool:
        """Durably persist the aggregator, then retire the WAL it
        covers; never fatal.

        State is serialized, and the WAL rotated, under :attr:`lock`,
        so the checkpoint covers exactly the lines applied before it;
        the disk write happens unlocked.  Older WAL segments are
        deleted only once the checkpoint is durable.
        """
        with self._checkpointing:
            with self.lock:
                agg = self.aggregator
                if not (agg.documents or agg.rejected):
                    return False
                state = agg.to_state()
                position = self.position
                boundary = self.wal.rotate() if self.wal is not None \
                    else None
            size = agg.save_checkpoint(
                store, self.tag, state=state, wal_position=position
            )
            if not size:
                return False
            self.checkpointed = position
            self.checkpoint_bytes = size
            if boundary is not None:
                self.wal.drop_before(boundary)
            return True

    def wal_status(self) -> Dict:
        """WAL bytes and positions for health and the dashboard."""
        return {
            "bytes": self.wal.bytes if self.wal is not None else 0,
            "position": self.position,
            "checkpoint_position": self.checkpointed,
        }

    def counters(self) -> Dict:
        """Thread-safe ingest counters for health/metrics/dashboard."""
        with self.lock:
            return {
                "documents": self.aggregator.documents,
                "duplicates": self.aggregator.duplicates,
                "quarantined": len(self.aggregator.rejected),
                "checkpoint": "restored" if self.restored else "cold",
            }

    def bench_spec(self, config: ServerConfig) -> Tuple[str, str]:
        """(benchmark, input) this tenant's ``/repack`` packs against.

        The default tenant packs the configured pair; a named tenant's
        name *is* its benchmark spec (``NAME/INPUT``, or a bare name
        that borrows the configured input).
        """
        if self.name == config.default_tenant:
            return config.benchmark, config.input_name
        if "/" in self.name:
            benchmark, _, input_name = self.name.rpartition("/")
            return benchmark, input_name
        return self.name, config.input_name


class TenantRegistry:
    """Lazily-created per-``meta.benchmark`` tenants over one store.

    Creation, restore, and the persisted tenant directory are
    serialized under one registry lock; each created tenant's
    checkpoint slot is pinned immediately, so the shared GC budget can
    never evict live daemon state.  Tenants are never dropped — the
    registry is append-only for a daemon's lifetime.
    """

    def __init__(
        self,
        config: ServerConfig,
        store: ArtifactStore,
        policy: MergePolicy,
    ):
        self.config = config
        self.store = store
        self.policy = policy
        self._lock = threading.RLock()
        self._tenants: Dict[str, Tenant] = {}
        self.directory_slot = tenant_directory_key(config.tag)
        self.store.pin(self.directory_slot)
        # Read the persisted directory BEFORE any get() — creating a
        # tenant rewrites the slot from the in-memory registry, so
        # reading afterwards would see only what was just written.
        known = self._stored_directory()
        #: The tenant the flat (PR-9) routes alias.
        self.default = self.get(config.default_tenant)
        for name in known:
            if check_tenant_name(name) is None:
                self.get(name)

    def _stored_directory(self) -> List[str]:
        payload = self.store.get(self.directory_slot)
        if not isinstance(payload, dict):
            return []
        if payload.get("version") != TENANT_DIRECTORY_VERSION:
            return []
        names = payload.get("tenants")
        return [n for n in names if isinstance(n, str)] \
            if isinstance(names, list) else []

    def _save_directory(self) -> None:
        # Durable: a tenant's WAL is only found on boot through it.
        self.store.put(self.directory_slot, {
            "kind": "tenant-directory",
            "version": TENANT_DIRECTORY_VERSION,
            "tag": self.config.tag,
            "tenants": sorted(self._tenants),
        }, durable=True)

    def get(self, name: str) -> Tenant:
        """The named tenant, created (and checkpoint-restored) lazily.

        Raises :class:`RouteError` for an invalid name — callers turn
        that into a per-line quarantine or a 400, never a new tenant.
        """
        problem = check_tenant_name(name)
        if problem is not None:
            raise RouteError(problem)
        with self._lock:
            tenant = self._tenants.get(name)
            if tenant is not None:
                return tenant
            tag = (self.config.tag if name == self.config.default_tenant
                   else f"{self.config.tag}:{name}")
            slot = checkpoint_key(tag, self.policy)
            # The tenant's state must survive any GC pressure; pin
            # before the first checkpoint can exist so there is no
            # window in which a sweep could take the slot.
            self.store.pin(slot)
            found = IncrementalAggregator.load_checkpoint(
                self.store, tag, self.policy
            )
            tenant = Tenant(
                name=name,
                tag=tag,
                slot=slot,
                aggregator=(found.aggregator if found is not None
                            else IncrementalAggregator(self.policy)),
                restored=found is not None,
                wal=(WriteAheadLog(wal_dir(self.store.root, slot))
                     if self.store.enabled else None),
            )
            if found is not None:
                tenant.position = tenant.checkpointed = found.position
                tenant.checkpoint_bytes = found.size
            self._replay(tenant)
            self._tenants[name] = tenant
            inc("server.tenants.created")
            self._save_directory()
            return tenant

    def _replay(self, tenant: Tenant) -> None:
        """Re-apply the tenant's WAL records past its checkpoint,
        through the same routing and ingest code as an upload."""
        if tenant.wal is None:
            return
        records = tenant.wal.replay(after=tenant.checkpointed)
        for position, text in records:
            self.route(text, pinned=tenant, position=position)
        if records:
            tenant.restored = True
            logger.info("server: tenant %s replayed %d WAL record(s)",
                        tenant.name, len(records))

    def route(
        self,
        text: str,
        pinned: Optional[Tenant] = None,
        name: Optional[str] = None,
        position: Optional[int] = None,
    ) -> Tuple[str, Tenant, Optional[Dict], int]:
        """Route one profile document to its tenant and fold it.

        The routing rule: ``pinned`` (a scoped upload's URL tenant)
        wins, and a conflicting ``meta.benchmark`` stamp is
        quarantined into ``pinned`` with stage ``route``; without a
        pin, the stamp picks (and lazily creates) the tenant and
        unstamped documents fold into the default tenant.  Replaying
        a tenant's WAL pins every record to that tenant, which routes
        each exactly as its upload did.

        Returns ``(disposition, tenant, reject, position)`` where
        disposition is ``folded`` | ``duplicate`` | ``rejected``,
        ``reject`` (for rejections only) carries the quarantine
        fields, and ``position`` is the line's WAL position.
        """
        parsed: Optional[Dict] = None
        stamp = None
        try:
            loaded = json.loads(text)
        except ValueError:
            loaded = None
        if isinstance(loaded, dict):
            parsed = loaded
            meta = loaded.get("meta")
            if isinstance(meta, dict):
                stamp = meta.get("benchmark")

        route_error: Optional[RouteError] = None
        tenant = pinned
        if stamp is not None:
            if not isinstance(stamp, str) or check_tenant_name(stamp):
                route_error = RouteError(
                    f"unroutable meta.benchmark stamp {stamp!r}"
                )
            elif pinned is not None and stamp != pinned.name:
                route_error = RouteError(
                    f"document stamped for tenant {stamp!r} uploaded "
                    f"to tenant {pinned.name!r}"
                )
            elif pinned is None:
                tenant = self.get(stamp)
        if tenant is None:
            tenant = self.default
        disposition, reject, position = tenant.ingest(
            text, parsed=parsed, route_error=route_error, name=name,
            position=position,
        )
        return disposition, tenant, reject, position

    def peek(self, name: str) -> Optional[Tenant]:
        """The named tenant if it exists; reads never create tenants."""
        with self._lock:
            return self._tenants.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def tenants(self) -> List[Tenant]:
        """All tenants, sorted by name (a stable iteration snapshot)."""
        with self._lock:
            return [self._tenants[name] for name in sorted(self._tenants)]


class ProfileDaemon:
    """One long-running profile service over N tenants + one store."""

    def __init__(
        self,
        config: ServerConfig,
        store: Optional[ArtifactStore] = None,
        policy: Optional[MergePolicy] = None,
        farm_policy: Optional[FarmPolicy] = None,
    ):
        self.config = config
        if store is None:
            store = (ArtifactStore(config.store) if config.store
                     else default_store())
        self.store = store
        self.policy = policy or MergePolicy()
        self.farm_policy = farm_policy or FarmPolicy()
        self.registry = TenantRegistry(config, self.store, self.policy)

        if config.profiles_dir:
            for path in sorted(Path(config.profiles_dir).glob("*.json")):
                try:
                    text = path.read_text()
                except OSError as exc:
                    tenant = self.registry.default
                    with tenant.lock:
                        tenant.aggregator.rejected.append(
                            quarantine_profile(str(path), exc)
                        )
                    continue
                self.route_text(text, name=str(path))

        self.started = time.time()
        self.port: Optional[int] = None
        #: Set (thread-safely readable) once the listener is bound.
        self.ready = threading.Event()
        self.requests = 0
        self.gc_sweeps = 0
        self.checkpoints = 0

        self._inflight = 0
        self._writers: set = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._repack_lock: Optional[asyncio.Lock] = None

    # -- single-tenant compatibility surface -------------------------
    # The PR-9 daemon held exactly one aggregator; these properties
    # keep that shape pointing at the default tenant so existing
    # callers (tests, tooling poking a live daemon) stay correct.

    @property
    def aggregator(self) -> IncrementalAggregator:
        return self.registry.default.aggregator

    @property
    def agg_lock(self) -> threading.Lock:
        return self.registry.default.lock

    @property
    def restored(self) -> bool:
        """True when any tenant resumed from a checkpoint."""
        return any(t.restored for t in self.registry.tenants())

    @property
    def last_report(self) -> Optional[Dict]:
        return self.registry.default.last_report

    # -- state the routes read/write ---------------------------------

    @property
    def uptime(self) -> float:
        return time.time() - self.started

    def server_stats(self) -> Dict:
        return {
            "requests": self.requests,
            "inflight": self._inflight,
            "gc_sweeps": self.gc_sweeps,
            "checkpoints": self.checkpoints,
            "tenants": len(self.registry.names()),
            "uptime": round(self.uptime, 3),
        }

    def totals(self) -> Dict:
        """Ingest counters summed over every tenant."""
        totals = {"documents": 0, "duplicates": 0, "quarantined": 0}
        for tenant in self.registry.tenants():
            counters = tenant.counters()
            for key in totals:
                totals[key] += counters[key]
        return totals

    def snapshot(self):
        """The default tenant's merged fleet (PR-9 compatibility)."""
        return self.registry.default.snapshot()

    def checkpoint_tenant(self, tenant: Tenant) -> bool:
        saved = tenant.checkpoint(self.store)
        if saved:
            self.checkpoints += 1
        return saved

    def checkpoint(self, dirty_only: bool = False) -> bool:
        """Persist every tenant (or only those with lines applied
        since their last checkpoint); counted, never fatal."""
        saved = False
        for tenant in self.registry.tenants():
            if tenant.dirty or not dirty_only:
                saved = self.checkpoint_tenant(tenant) or saved
        return saved

    def make_durable(
        self, batches: Dict[str, Tuple[Tenant, List[Tuple[int, str]]]]
    ) -> bool:
        """Append each tenant's ``(position, line)`` records to its WAL
        — one write and one fsync per tenant — then checkpoint the
        tenants whose log has outgrown their last checkpoint.

        False when some tenant's lines could not be made durable: its
        append failed and so did a fallback full checkpoint.  With the
        store off nothing is durable, and nothing is promised.
        """
        if not self.store.enabled:
            return True
        durable = True
        for tenant, records in batches.values():
            try:
                tenant.wal.append(records)
            except OSError as exc:
                logger.warning(
                    "server: WAL append for tenant %s failed (%s); "
                    "writing a full checkpoint instead", tenant.name, exc,
                )
                if not self.checkpoint_tenant(tenant):
                    durable = False
                continue
            # Checkpoint once the log outgrows the last checkpoint:
            # serialization stays amortized O(1) per logged byte and
            # replay stays bounded by one checkpoint's worth.
            if tenant.wal.bytes > tenant.checkpoint_bytes:
                self.checkpoint_tenant(tenant)
        return durable

    def sweep_store(self) -> int:
        """One GC pass under the configured byte cap; evicted count.

        The cap is one budget over the whole store — tenants share it,
        and eviction accounting stays global; only pinned slots (every
        tenant's checkpoint, the tenant directory) are exempt.
        """
        if self.config.gc_max_bytes is None:
            return 0
        evicted = self.store.evict(self.config.gc_max_bytes)
        self.gc_sweeps += 1
        if evicted:
            logger.info(
                "server gc: evicted %d artifact(s), store now %d byte(s)",
                len(evicted), self.store.total_bytes(),
            )
        return len(evicted)

    # -- per-line tenant routing -------------------------------------

    def route_text(
        self,
        text: str,
        pinned: Optional[Tenant] = None,
        name: Optional[str] = None,
    ) -> Tuple[str, Tenant, Optional[Dict], int]:
        """Route one profile document to its tenant and fold it
        (:meth:`TenantRegistry.route`)."""
        return self.registry.route(text, pinned=pinned, name=name)

    # -- asyncio lifecycle -------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        from .routes import dispatch

        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader)
                except BadRequest as exc:
                    await write_response(
                        writer, Response.error(exc.status, str(exc)), False
                    )
                    break
                if request is None:
                    break
                self.requests += 1
                self._inflight += 1
                try:
                    response = await dispatch(self, request)
                    # An unread body would desynchronize keep-alive
                    # framing; a handler that failed mid-body closes.
                    try:
                        await request.drain()
                    except BadRequest:
                        request.headers["connection"] = "close"
                except BadRequest as exc:
                    response = Response.error(exc.status, str(exc))
                    request.headers["connection"] = "close"
                except Exception as exc:  # route bug: 500, keep serving
                    logger.exception("server: unhandled error on %s %s",
                                     request.method, request.path)
                    response = Response.error(
                        500, f"{type(exc).__name__}: {exc}"
                    )
                    # The handler may have died mid-body; unread bytes
                    # would desynchronize keep-alive framing.
                    request.headers["connection"] = "close"
                finally:
                    self._inflight -= 1
                inc("server.requests",
                    method=request.method, status=str(response.status))
                keep = request.keep_alive and not (
                    self._shutdown and self._shutdown.is_set()
                )
                await write_response(writer, response, keep)
                if not keep:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer went away mid-exchange; nothing to answer
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _gc_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.gc_interval)
            # Checkpoint tenants with WAL records past their
            # checkpoint (bounding replay), then shrink under the cap.
            await asyncio.to_thread(self.checkpoint, dirty_only=True)
            await asyncio.to_thread(self.sweep_store)

    async def serve(self) -> None:
        """Run the daemon until shutdown is requested."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._repack_lock = asyncio.Lock()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = server.sockets[0].getsockname()[1]
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                self._loop.add_signal_handler(signum, self._shutdown.set)
            except (NotImplementedError, ValueError, RuntimeError):
                # Not the main thread (the test harness) or an
                # event-loop policy without signal support: the owner
                # stops us via request_shutdown() instead.
                break
        gc_task = (
            asyncio.ensure_future(self._gc_loop())
            if self.config.gc_max_bytes is not None
            else None
        )
        tenants = self.registry.tenants()
        restored = sum(1 for t in tenants if t.restored)
        print(
            f"repro server: listening on "
            f"http://{self.config.host}:{self.port} "
            f"(default tenant {self.config.default_tenant}, "
            f"checkpoint {'restored' if restored else 'cold'} "
            f"[{restored}/{len(tenants)} tenant(s)])",
            flush=True,
        )
        self.ready.set()
        try:
            await self._shutdown.wait()
        finally:
            # Stop accepting, drain what is in flight, then write the
            # final checkpoints — the order SIGTERM semantics promise.
            server.close()
            await server.wait_closed()
            deadline = time.monotonic() + self.config.drain_timeout
            while self._inflight and time.monotonic() < deadline:
                await asyncio.sleep(0.01)
            # Idle keep-alive connections are parked in read_request;
            # close them so their handler tasks finish before the loop
            # tears down (a cancelled reader would log noise instead).
            for writer in list(self._writers):
                writer.close()
            while self._writers and time.monotonic() < deadline + 1.0:
                await asyncio.sleep(0.01)
            if gc_task is not None:
                gc_task.cancel()
                try:
                    await gc_task
                except asyncio.CancelledError:
                    pass
            await asyncio.to_thread(self.checkpoint)
            set_gauge("server.uptime_seconds", round(self.uptime, 3))
            print("repro server: checkpointed and stopped", flush=True)

    def run(self) -> int:
        """Blocking entry point (the CLI's daemon path)."""
        asyncio.run(self.serve())
        return 0

    def request_shutdown(self) -> None:
        """Thread-safe shutdown trigger (harness equivalent of SIGTERM)."""
        loop, event = self._loop, self._shutdown
        if loop is None or event is None:
            return
        try:
            loop.call_soon_threadsafe(event.set)
        except RuntimeError:
            pass  # loop already closed


@dataclass
class DaemonHandle:
    """A running background daemon plus its lifecycle controls."""

    daemon: ProfileDaemon
    thread: threading.Thread

    @property
    def port(self) -> int:
        assert self.daemon.port is not None
        return self.daemon.port

    @property
    def base_url(self) -> str:
        return f"http://{self.daemon.config.host}:{self.port}"

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: drain, final checkpoint, join."""
        self.daemon.request_shutdown()
        self.thread.join(timeout=timeout)
        if self.thread.is_alive():
            raise RuntimeError("daemon thread did not stop in time")

    def __enter__(self) -> "DaemonHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        if self.thread.is_alive():
            self.stop()


def start_daemon_thread(
    config: ServerConfig,
    store: Optional[ArtifactStore] = None,
    policy: Optional[MergePolicy] = None,
    farm_policy: Optional[FarmPolicy] = None,
    timeout: float = 10.0,
) -> DaemonHandle:
    """Run a daemon on a background thread; returns once it is bound.

    The tests' and examples' front door: an ephemeral port (``port=0``
    recommended), a real socket, the full route surface — without
    subprocess management.
    """
    daemon = ProfileDaemon(
        config, store=store, policy=policy, farm_policy=farm_policy
    )
    thread = threading.Thread(
        target=daemon.run, name="repro-server", daemon=True
    )
    thread.start()
    if not daemon.ready.wait(timeout=timeout):
        daemon.request_shutdown()
        raise RuntimeError("daemon failed to bind within the timeout")
    return DaemonHandle(daemon=daemon, thread=thread)


__all__ = [
    "DaemonHandle",
    "ProfileDaemon",
    "RouteError",
    "ServerConfig",
    "Tenant",
    "TenantRegistry",
    "check_tenant_name",
    "start_daemon_thread",
    "tenant_directory_key",
]
