"""Content-addressed cache of retired-branch traces.

Re-running an *unmodified* workload is the single biggest cost in the
experiment drivers: the fault campaign replays the same baseline run
per trial, the differential oracle re-simulates the original program on
every check, and every figure/table regeneration starts from the same
profiling runs.  This cache keys a finished trace by the *content* that
determines it —

    key = H(program image bytes + block symbols,
            behavior model fingerprint,
            phase script,
            execution limits, start block, format version)

— so any change to the program's encoded instructions, the branch
behavior model (seed, default, per-phase biases, stable ids), the phase
script, or the run budget misses the cache by construction.  There is
no invalidation logic to get wrong: stale entries are simply never
addressed again.

Traces are stored in *address coordinates* (branch instruction
addresses and block start addresses from the linked
:class:`~repro.program.image.ProgramImage`), not instruction uids: uids
are process-local allocation counters, while addresses are a pure
function of the program content that the key already hashes.  On load
the addresses are mapped back onto the current process' uids.

Layout: one ``<key>.npz`` per trace under ``REPRO_TRACE_CACHE`` (or
``~/.cache/repro/traces``); ``REPRO_TRACE_CACHE=off`` disables the
cache entirely.  Writes are atomic (tmp file + rename) so concurrent
experiment workers can share one cache directory.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.engine.behavior import BehaviorModel
from repro.engine.compiled import (
    CompiledExecutor,
    TraceData,
    compiled_enabled,
    program_signature,
)
from repro.engine.executor import ExecutionLimits, ExecutionSummary, StopReason
from repro.engine.phases import PhaseScript
from repro.obs import annotate, inc, span
from repro.program.image import ProgramImage
from repro.program.program import Program

#: Bump when the trace layout or engine semantics change.  The version
#: participates in the content key (stale-format entries are never
#: addressed) *and* is embedded in every payload (an entry whose file
#: name somehow disagrees with its content — tampering, a tool writing
#: under the wrong name, a partial copy — is detected on load and
#: treated as a miss, never trusted).
_FORMAT_VERSION = 2

_ENV_DIR = "REPRO_TRACE_CACHE"

#: Values of a store-root setting that turn the store off entirely.
#: Shared with the artifact store (:mod:`repro.service.artifacts`).
DISABLED_VALUES = frozenset({"off", "0", "none", "disabled"})
_DISABLED_VALUES = DISABLED_VALUES


def fsync_dir(path: str) -> None:
    """Make the entries of directory ``path`` durable (creates,
    renames, unlinks)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(root: str, path: str, write, durable: bool = False) -> None:
    """Write a store entry atomically (tmp file + rename).

    ``write`` receives a binary file handle.  Creates ``root`` on
    demand; on any failure the temp file is removed and the original
    entry (if any) is left untouched.  Both content-addressed stores —
    the trace cache here and the service artifact store — share this
    discipline so concurrent workers can write one directory safely.
    ``durable`` also fsyncs the file before the rename and ``root``
    after it, so the entry survives power loss once this returns.
    """
    os.makedirs(root, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=root, prefix=".tmp-", suffix=os.path.splitext(path)[1]
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if durable:
            fsync_dir(root)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# shared program images
# ---------------------------------------------------------------------------

_IMAGES: "WeakKeyDictionary[Program, Tuple[int, ProgramImage]]" = (
    WeakKeyDictionary()
)


def image_for(program: Program) -> ProgramImage:
    """Memoized linked image of a program (layout + encode is ~100ms on
    suite-sized programs; profiling, hashing, and validation share it).
    Guarded by :func:`~repro.engine.compiled.program_signature` so an
    in-place structural mutation re-links instead of serving a stale
    image."""
    signature = program_signature(program)
    try:
        cached = _IMAGES.get(program)
        if cached is not None and cached[0] == signature:
            return cached[1]
        image = ProgramImage(program)
        _IMAGES[program] = (signature, image)
        return image
    except TypeError:  # pragma: no cover - non-weakref-able subclass
        return ProgramImage(program)


# ---------------------------------------------------------------------------
# fingerprints / keys
# ---------------------------------------------------------------------------

def behavior_fingerprint(behavior: BehaviorModel) -> bytes:
    """Everything that determines branch outcomes."""
    parts = [
        f"default={behavior.default_prob!r}",
        f"seed={behavior.seed!r}",
    ]
    for uid in sorted(behavior._stable_id):
        parts.append(f"sid:{uid}={behavior._stable_id[uid]}")
    for uid in sorted(behavior._bias):
        table = behavior._bias[uid]
        for phase in sorted(table, key=lambda p: (p is not None, p)):
            parts.append(f"bias:{uid}:{phase}={table[phase]!r}")
    return "\n".join(parts).encode()


def _limits_fingerprint(limits: ExecutionLimits) -> bytes:
    return (
        f"branches={limits.max_branches} "
        f"instructions={limits.max_instructions} "
        f"steps={limits.max_steps}"
    ).encode()


def _script_fingerprint(script: PhaseScript) -> bytes:
    return ";".join(
        f"{s.phase_id}:{s.branches}" for s in script.segments
    ).encode()


def trace_key(
    program: Program,
    behavior: BehaviorModel,
    phase_script: PhaseScript,
    limits: ExecutionLimits,
    start: Optional[Tuple[str, str]] = None,
    image: Optional[ProgramImage] = None,
) -> str:
    """Content hash addressing one deterministic run."""
    image = image or image_for(program)
    digest = hashlib.blake2b(digest_size=20)
    digest.update(f"v{_FORMAT_VERSION}".encode())
    digest.update(bytes(image.data))
    # Block boundaries matter (block_visits granularity), so hash the
    # symbol table alongside the raw instruction bytes.
    for symbol in image.symbols:
        digest.update(
            f"{symbol.function}/{symbol.label}@{symbol.address}".encode()
        )
    digest.update(image.program.entry.encode())
    digest.update(behavior_fingerprint(behavior))
    digest.update(_script_fingerprint(phase_script))
    digest.update(_limits_fingerprint(limits))
    digest.update(repr(start).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# address <-> uid coordinate change
# ---------------------------------------------------------------------------

def _block_address_maps(program: Program, image: ProgramImage):
    uid_to_addr: Dict[int, int] = {}
    addr_to_uid: Dict[int, int] = {}
    for function in program.functions.values():
        for block in function.blocks:
            address = image.block_address[(function.name, block.label)]
            uid_to_addr[block.uid] = address
            addr_to_uid[address] = block.uid
    return uid_to_addr, addr_to_uid


def _encode_trace(
    trace: TraceData, program: Program, image: ProgramImage
) -> Optional[Dict[str, np.ndarray]]:
    """Trace in address coordinates, or ``None`` if not representable
    (e.g. a branch uid that is not an original instruction)."""
    inst_addr = image.instruction_address
    try:
        branch_addresses = np.asarray(
            [inst_addr[uid] for uid in trace.uids.tolist()], dtype=np.uint64
        )
    except KeyError:
        return None
    uid_to_addr, _ = _block_address_maps(program, image)
    visit_items = list(trace.summary.block_visits.items())
    try:
        visit_addresses = np.asarray(
            [uid_to_addr[uid] for uid, _ in visit_items], dtype=np.uint64
        )
    except KeyError:
        return None
    summary = trace.summary
    return {
        "branch_addresses": branch_addresses,
        "taken": trace.taken.astype(bool),
        "visit_addresses": visit_addresses,
        "visit_counts": np.asarray(
            [count for _, count in visit_items], dtype=np.int64
        ),
        "scalars": np.asarray(
            [
                summary.instructions,
                summary.branches,
                summary.taken_branches,
                summary.calls,
                summary.steps,
            ],
            dtype=np.int64,
        ),
        "stop_reason": np.asarray([summary.stop_reason.value]),
    }


class _StampMismatch(Exception):
    """Entry payload disagrees with its file name or schema version."""


def _stamp(key: str) -> np.ndarray:
    return np.asarray([key, f"v{_FORMAT_VERSION}"])


def _stamp_matches(payload, key: str) -> bool:
    try:
        stamp = payload["stamp"]
        return str(stamp[0]) == key and str(stamp[1]) == f"v{_FORMAT_VERSION}"
    except (KeyError, IndexError):
        return False


def _decode_trace(
    payload, program: Program, image: ProgramImage
) -> Optional[TraceData]:
    """Back to uid coordinates against the *current* program."""
    addr_inst = image.address_instruction
    try:
        uids = np.asarray(
            [
                addr_inst[addr].uid
                for addr in payload["branch_addresses"].tolist()
            ],
            dtype=np.int64,
        )
        _, addr_to_uid = _block_address_maps(program, image)
        block_visits = {
            addr_to_uid[addr]: int(count)
            for addr, count in zip(
                payload["visit_addresses"].tolist(),
                payload["visit_counts"].tolist(),
            )
        }
        scalars = payload["scalars"].tolist()
        stop_reason = StopReason(str(payload["stop_reason"][0]))
    except (KeyError, ValueError):
        return None
    summary = ExecutionSummary(
        instructions=scalars[0],
        branches=scalars[1],
        taken_branches=scalars[2],
        calls=scalars[3],
        steps=scalars[4],
        stop_reason=stop_reason,
        block_visits=block_visits,
    )
    return TraceData(
        uids=uids, taken=payload["taken"].astype(bool), summary=summary
    )


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------

@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    puts: int = 0
    errors: int = 0


class TraceCache:
    """Disk + in-memory LRU cache of :class:`TraceData` by content key."""

    def __init__(self, root: Optional[str] = None, memory_entries: int = 8):
        env = os.environ.get(_ENV_DIR, "")
        if root is None:
            root = env
        self.enabled = str(root).strip().lower() not in _DISABLED_VALUES
        if not root or not self.enabled:
            root = os.path.join(
                os.path.expanduser("~"), ".cache", "repro", "traces"
            )
        self.root = root
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, Tuple[TraceData, Program]]" = (
            OrderedDict()
        )
        self.stats = CacheStats()

    # -- paths -------------------------------------------------------
    def path_of(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.npz")

    # -- memory LRU --------------------------------------------------
    def _remember(self, key: str, trace: TraceData, program: Program) -> None:
        memory = self._memory
        memory[key] = (trace, program)
        memory.move_to_end(key)
        while len(memory) > self.memory_entries:
            memory.popitem(last=False)

    # -- API ---------------------------------------------------------
    def get(
        self, key: str, program: Program, image: Optional[ProgramImage] = None
    ) -> Optional[TraceData]:
        """The cached trace for ``key``, remapped onto ``program``'s
        uids, or ``None`` on a miss."""
        if not self.enabled:
            return None
        cached = self._memory.get(key)
        # The in-memory entry is uid-mapped for one specific program
        # object; a same-content different-object program must go
        # through the address remap below.
        if cached is not None and cached[1] is program:
            self._memory.move_to_end(key)
            self.stats.hits += 1
            inc("trace_cache.hits", tier="memory")
            return cached[0]
        path = self.path_of(key)
        try:
            with np.load(path, allow_pickle=False) as payload:
                if not _stamp_matches(payload, key):
                    # Truncated-then-rewritten, stale-schema, or
                    # misnamed entry: drop it and recompute.
                    raise _StampMismatch()
                trace = _decode_trace(
                    payload, program, image or image_for(program)
                )
        except FileNotFoundError:
            self.stats.misses += 1
            inc("trace_cache.misses")
            return None
        except Exception:  # corrupt/foreign file: drop and miss
            self.stats.errors += 1
            inc("trace_cache.errors")
            try:
                os.unlink(path)
            except OSError:
                pass
            return None
        if trace is None:
            self.stats.errors += 1
            inc("trace_cache.errors")
            return None
        self.stats.hits += 1
        inc("trace_cache.hits", tier="disk")
        self._remember(key, trace, program)
        return trace

    def put(
        self,
        key: str,
        trace: TraceData,
        program: Program,
        image: Optional[ProgramImage] = None,
    ) -> bool:
        """Persist a trace; returns False when it is not cacheable."""
        if not self.enabled:
            return False
        payload = _encode_trace(trace, program, image or image_for(program))
        if payload is None:
            return False
        payload["stamp"] = _stamp(key)
        self._remember(key, trace, program)
        path = self.path_of(key)
        try:
            atomic_write(
                self.root,
                path,
                lambda handle: np.savez_compressed(handle, **payload),
            )
        except OSError:
            self.stats.errors += 1
            inc("trace_cache.errors")
            return False
        self.stats.puts += 1
        inc("trace_cache.puts")
        return True


_DEFAULT_CACHE: Optional[TraceCache] = None


def default_cache() -> TraceCache:
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = TraceCache()
    return _DEFAULT_CACHE


def reset_default_cache() -> None:
    """Re-read the environment (tests repoint ``REPRO_TRACE_CACHE``)."""
    global _DEFAULT_CACHE
    _DEFAULT_CACHE = None


def traced_run(
    workload,
    program: Optional[Program] = None,
    cache: Optional[TraceCache] = None,
) -> TraceData:
    """The workload's full retired-branch trace, through the cache.

    Only runs of the workload's behavior/script/limits over ``program``
    (default: the workload's own program) are addressed; packed clones
    hash to their own keys because their image bytes differ.
    """
    program = program or workload.program
    cache = cache or default_cache()
    image = image_for(program)
    key = trace_key(
        program, workload.behavior, workload.phase_script, workload.limits,
        image=image,
    )
    trace = cache.get(key, program, image=image)
    if trace is not None:
        return trace
    with span("engine.traced_run", workload=workload.name) as entry:
        executor = CompiledExecutor(
            program,
            workload.behavior,
            workload.phase_script,
            limits=workload.limits,
        )
        trace = executor.run_traced()
        annotate(entry, branches=trace.summary.branches,
                 instructions=trace.summary.instructions)
    inc("engine.simulated_branches", trace.summary.branches)
    cache.put(key, trace, program, image=image)
    return trace


__all__ = [
    "CacheStats",
    "DISABLED_VALUES",
    "TraceCache",
    "atomic_write",
    "behavior_fingerprint",
    "compiled_enabled",
    "default_cache",
    "fsync_dir",
    "image_for",
    "reset_default_cache",
    "trace_key",
    "traced_run",
]
