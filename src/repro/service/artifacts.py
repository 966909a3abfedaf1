"""Content-addressed store of finished packing artifacts.

The packing farm's unit of work — pack one shard of merged phases
against one binary under one configuration — is a pure function of its
inputs, so its result is cached exactly like the trace cache caches
runs: by a content hash of everything that determines it,

    key = H(program image bytes + block symbols + entry,
            merged-profile digest (records + provenance),
            pack configuration fingerprint,
            store format version)

and never invalidated — a changed binary, profile, or knob simply
addresses a different entry.  Entries are canonical JSON (sorted keys,
minimal separators), so a given pack result has exactly one byte
representation: serial and parallel farms produce byte-identical
store entries, which the service tests assert directly.

Every entry embeds a ``stamp`` (its own key + format version),
mirroring the trace-cache v2 discipline: an entry whose payload
disagrees with its file name or schema — tampering, a partial copy, a
stale format — is detected on load, deleted, and treated as a miss,
never trusted.  Writes are atomic (shared tmp-file + rename helper
from :mod:`repro.engine.trace_cache`), so concurrent farm workers can
share one store directory.

Layout: one ``<key>.json`` per artifact under ``REPRO_ARTIFACT_STORE``
(or ``~/.cache/repro/artifacts``); setting the root to ``off`` (or
``0``/``none``/``disabled``) disables the store entirely.

**Read-time bookkeeping and GC.**  Every successful :meth:`get` stamps
a ``<key>.hits.json`` sidecar (atomic, via the shared
:func:`~repro.engine.trace_cache.atomic_write`) carrying the entry's
``hit_count`` and ``last_hit`` wall-clock time, so the store knows
which artifacts still earn their bytes.  :meth:`ArtifactStore.evict`
shrinks the store under a byte cap by deleting the least-recently-hit
entries first (entries never read rank by file mtime); keys registered
with :meth:`~ArtifactStore.pin` — the long-running daemon pins its
aggregator checkpoint slots — are never evicted.  Counters
``service.artifacts.{hits,evictions}`` and the
``service.artifacts.bytes`` gauge surface in ``repro stats``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.engine.trace_cache import DISABLED_VALUES, atomic_write
from repro.obs import inc, set_gauge
from repro.program.image import ProgramImage

#: Bump when the artifact payload schema changes; participates in both
#: the content key and the embedded stamp.
#: v2: shard payloads carry ``unique_selected`` (shared Table-3 count).
FORMAT_VERSION = 2

_ENV_DIR = "REPRO_ARTIFACT_STORE"

#: Suffix of the read-bookkeeping sidecar written next to each entry.
HIT_SIDECAR_SUFFIX = ".hits.json"

logger = logging.getLogger(__name__)


def canonical_json(payload: Dict) -> bytes:
    """The one byte representation of ``payload`` (sorted, minimal)."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode()


def image_digest(image: ProgramImage) -> str:
    """Content hash of a linked binary (bytes + symbols + entry)."""
    digest = hashlib.blake2b(digest_size=20)
    digest.update(bytes(image.data))
    for symbol in image.symbols:
        digest.update(
            f"{symbol.function}/{symbol.label}@{symbol.address}".encode()
        )
    digest.update(image.program.entry.encode())
    return digest.hexdigest()


def artifact_key(
    image: ProgramImage, profile_digest: str, config_fingerprint: str
) -> str:
    """Content hash addressing one shard's packing artifact."""
    digest = hashlib.blake2b(digest_size=20)
    digest.update(f"artifact-v{FORMAT_VERSION}".encode())
    digest.update(image_digest(image).encode())
    digest.update(profile_digest.encode())
    digest.update(config_fingerprint.encode())
    return digest.hexdigest()


@dataclass
class ArtifactStats:
    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        looked_up = self.hits + self.misses + self.errors
        return self.hits / looked_up if looked_up else 0.0


@dataclass
class ArtifactEntry:
    """One stored artifact as the GC sees it."""

    key: str
    #: Entry bytes on disk (payload file + hit sidecar).
    bytes: int
    #: Wall-clock time of the last read (file mtime if never read).
    last_hit: float
    hit_count: int
    pinned: bool = False


class ArtifactStore:
    """Disk store of canonical-JSON packing artifacts by content key."""

    def __init__(self, root: Optional[str] = None):
        env = os.environ.get(_ENV_DIR, "")
        if root is None:
            root = env
        self.enabled = str(root).strip().lower() not in DISABLED_VALUES
        if not root or not self.enabled:
            root = os.path.join(
                os.path.expanduser("~"), ".cache", "repro", "artifacts"
            )
        self.root = str(root)
        self.stats = ArtifactStats()
        #: Keys :meth:`evict` must never delete (checkpoint slots).
        self.pinned: Set[str] = set()

    def path_of(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    def sidecar_of(self, key: str) -> str:
        return os.path.join(self.root, f"{key}{HIT_SIDECAR_SUFFIX}")

    @staticmethod
    def _check_key(key: str) -> None:
        """Reject keys whose payload path collides with another key's
        hit sidecar: ``path_of('<k>.hits')`` == ``sidecar_of('<k>')``,
        so such an entry would be invisible to :meth:`entries` and a
        read stamp of ``<k>`` would overwrite its payload."""
        if key.endswith(".hits"):
            raise ValueError(
                f"artifact key {key!r} collides with the "
                f"{HIT_SIDECAR_SUFFIX!r} sidecar namespace"
            )

    def pin(self, key: str) -> None:
        """Exempt ``key`` from eviction (e.g. a checkpoint slot)."""
        self._check_key(key)
        self.pinned.add(key)

    def _stamp_hit(self, key: str) -> None:
        """Record a read in the entry's ``.hits.json`` sidecar.

        Bookkeeping must never break a read: a corrupt sidecar resets
        the count, a failed write is dropped silently.
        """
        path = self.sidecar_of(key)
        count = 0
        try:
            with open(path, "rb") as handle:
                count = int(json.loads(handle.read())["hit_count"])
        except (OSError, ValueError, TypeError, KeyError):
            count = 0
        stamp = canonical_json({
            "key": key,
            "hit_count": count + 1,
            "last_hit": round(time.time(), 6),
        })
        try:
            atomic_write(self.root, path, lambda handle: handle.write(stamp))
        except OSError:
            return
        inc("service.artifacts.hits")

    def get(self, key: str) -> Optional[Dict]:
        """The stored payload for ``key``, or ``None`` on a miss.

        Corrupt entries — unparseable JSON, a missing/mismatched
        stamp, a stale format version — are deleted and counted as
        errors; they are never returned.
        """
        if not self.enabled:
            return None
        if key.endswith(".hits"):
            # The would-be payload path is another key's hit sidecar;
            # a plain miss, without reading (or corrupt-deleting) it.
            self.stats.misses += 1
            inc("artifact_store.misses")
            return None
        path = self.path_of(key)
        try:
            with open(path, "rb") as handle:
                document = json.loads(handle.read())
            stamp = document["stamp"]
            if stamp["key"] != key or stamp["version"] != FORMAT_VERSION:
                raise ValueError("stamp mismatch")
            payload = document["payload"]
            if not isinstance(payload, dict):
                raise ValueError("payload must be an object")
        except FileNotFoundError:
            self.stats.misses += 1
            inc("artifact_store.misses")
            return None
        except Exception as exc:  # corrupt/foreign entry: drop and miss
            self.stats.errors += 1
            inc("artifact_store.errors")
            inc("service.artifacts.corrupt")
            logger.warning(
                "artifact store: corrupt entry %s (%s: %s); deleting and "
                "treating as a miss", path, type(exc).__name__, exc,
            )
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        self.stats.hits += 1
        inc("artifact_store.hits")
        self._stamp_hit(key)
        return payload

    def put(self, key: str, payload: Dict, durable: bool = False) -> int:
        """Persist a payload; returns the entry's size in bytes, or 0
        when the store is off or the write failed (the farm then just
        keeps its in-memory result).  ``durable`` fsyncs the entry and
        the store directory before returning (checkpoint slots).
        Raises ``ValueError`` on a key that collides with the
        hit-sidecar namespace."""
        self._check_key(key)
        if not self.enabled:
            return 0
        document = canonical_json(
            {
                "stamp": {"key": key, "version": FORMAT_VERSION},
                "payload": payload,
            }
        )
        try:
            atomic_write(
                self.root,
                self.path_of(key),
                lambda handle: handle.write(document),
                durable=durable,
            )
        except OSError:
            self.stats.errors += 1
            inc("artifact_store.errors")
            return 0
        self.stats.puts += 1
        inc("artifact_store.puts")
        return len(document)

    # -- GC ----------------------------------------------------------

    def entries(self) -> List[ArtifactEntry]:
        """Every stored artifact with its GC bookkeeping.

        Sidecars and in-flight temp files are not entries; an entry
        that was never read ranks by its payload file's mtime with a
        zero hit count.
        """
        if not self.enabled:
            return []
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        result: List[ArtifactEntry] = []
        for name in sorted(names):
            if (not name.endswith(".json")
                    or name.endswith(HIT_SIDECAR_SUFFIX)
                    or name.startswith(".tmp-")):
                continue
            key = name[: -len(".json")]
            path = os.path.join(self.root, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue  # raced with a concurrent eviction
            size = stat.st_size
            last_hit, hit_count = stat.st_mtime, 0
            sidecar = self.sidecar_of(key)
            try:
                size += os.path.getsize(sidecar)
                with open(sidecar, "rb") as handle:
                    stamp = json.loads(handle.read())
                last_hit = float(stamp["last_hit"])
                hit_count = int(stamp["hit_count"])
            except (OSError, ValueError, TypeError, KeyError):
                pass  # unread or corrupt sidecar: mtime ordering
            result.append(ArtifactEntry(
                key=key, bytes=size, last_hit=last_hit,
                hit_count=hit_count, pinned=key in self.pinned,
            ))
        return result

    def total_bytes(self) -> int:
        return sum(entry.bytes for entry in self.entries())

    def evict(self, max_bytes: int) -> List[str]:
        """Delete least-recently-hit entries until the store fits
        under ``max_bytes``; returns the evicted keys.

        LRU by ``last_hit`` (sidecar stamp, else payload mtime), ties
        broken by key for determinism.  Pinned keys — checkpoint slots
        a daemon registered with :meth:`pin` — are never deleted, even
        if the store stays over the cap because of them.
        """
        if not self.enabled or max_bytes is None:
            return []
        entries = self.entries()
        total = sum(entry.bytes for entry in entries)
        evicted: List[str] = []
        for entry in sorted(entries, key=lambda e: (e.last_hit, e.key)):
            if total <= max_bytes:
                break
            if entry.pinned:
                continue
            for path in (self.path_of(entry.key),
                         self.sidecar_of(entry.key)):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            total -= entry.bytes
            evicted.append(entry.key)
            self.stats.evictions += 1
            inc("service.artifacts.evictions")
        set_gauge("service.artifacts.bytes", total)
        return evicted


_DEFAULT_STORE: Optional[ArtifactStore] = None


def default_store() -> ArtifactStore:
    global _DEFAULT_STORE
    if _DEFAULT_STORE is None:
        _DEFAULT_STORE = ArtifactStore()
    return _DEFAULT_STORE


def reset_default_store() -> None:
    """Re-read the environment (tests repoint ``REPRO_ARTIFACT_STORE``)."""
    global _DEFAULT_STORE
    _DEFAULT_STORE = None


__all__ = [
    "ArtifactEntry",
    "ArtifactStats",
    "ArtifactStore",
    "FORMAT_VERSION",
    "HIT_SIDECAR_SUFFIX",
    "artifact_key",
    "canonical_json",
    "default_store",
    "image_digest",
    "reset_default_store",
]
