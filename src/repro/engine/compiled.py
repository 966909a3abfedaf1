"""Compiled trace engine: the block executor lowered to flat tables.

The reference :class:`~repro.engine.executor.BlockExecutor` interprets
one :class:`BlockInfo` object per step and calls back into the
behavior model for every retired conditional branch.  This module keeps
the exact same semantics but removes the per-event Python dispatch:

* the resolved ``BlockInfo`` graph is lowered once per program into
  flat successor/uid/size tables indexed by dense block ids
  (:class:`CompiledProgram`, memoized per :class:`Program` object);
* branch outcomes are precomputed in bulk: a vectorized numpy
  splitmix64 fills per-branch *unit* tables (the uniform draw for each
  occurrence) in geometric chunks, and per-phase probability schedules
  are bound per run (:class:`OutcomeTable`) — the hot loop reduces to
  two list indexings and a float compare per branch;
* the phase cursor is inlined as three integers;
* runs can record the retired-branch stream as numpy arrays
  (:meth:`CompiledExecutor.run_traced`) and later *replay* a recorded
  stream through a different (packed) program with per-event uid
  verification (:meth:`CompiledExecutor.run`'s ``replay``), which skips
  outcome computation entirely.

Equivalence with the reference engine is contractual: identical
:class:`~repro.engine.executor.ExecutionSummary` fields (including
``block_visits`` and ``stop_reason``) and an identical
``(branch_uid, taken, phase)`` event stream.  ``tests/test_compiled_engine.py``
asserts this property across the workload suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.engine.behavior import BehaviorModel, hash_unit
from repro.engine.executor import (
    KIND_BRANCH,
    KIND_CALL,
    KIND_FALL,
    KIND_HALT,
    KIND_JUMP,
    KIND_RET,
    ExecutionLimits,
    ExecutionSummary,
    ExecutorError,
    StopReason,
    build_block_infos,
)
from repro.engine.phases import PhaseScript
from repro.obs import inc, span
from repro.program.program import Program

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV = 0x100000001B3

#: Initial per-branch outcome table size; doubles on demand.
_UNIT_CHUNK = 512


def _vec_splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over a uint64 array (wraps mod 2^64
    exactly like the masked scalar version in :mod:`repro.engine.behavior`)."""
    x = x + _GOLDEN
    x = x ^ (x >> np.uint64(30))
    x = x * _MIX1
    x = x ^ (x >> np.uint64(27))
    x = x * _MIX2
    x = x ^ (x >> np.uint64(31))
    return x


def hash_units_bulk(stable_key: int, start: int, stop: int, seed: int) -> List[float]:
    """``[hash_unit(stable_key, occ, seed) for occ in range(start, stop)]``
    computed vectorized; bit-identical to the scalar path."""
    occurrences = np.arange(start, stop, dtype=np.uint64)
    inner = _vec_splitmix64(occurrences ^ np.uint64(seed & _MASK64))
    mixed = _vec_splitmix64(inner ^ np.uint64((stable_key * _FNV) & _MASK64))
    # uint64 -> float64 rounds to nearest, then the 2^64 scale is exact,
    # matching Python's int/float true division in hash_unit().
    return (mixed / 2.0**64).tolist()


class OutcomeTable:
    """Memoized vectorized branch outcomes for one :class:`BehaviorModel`.

    ``units(uid)`` is the per-occurrence uniform draw table for one
    static branch (grown geometrically); outcomes are ``unit < prob``
    with the probability picked per phase at run time.  Tables are keyed
    by the behavior's *stable id* for the branch, so a late
    ``set_bias`` that registers a new stable id invalidates only that
    branch's table.
    """

    def __init__(self, behavior: BehaviorModel):
        self.behavior = behavior
        #: uid -> (stable key the table was built with, unit list)
        self._units: Dict[int, Tuple[int, List[float]]] = {}

    def _key_of(self, uid: int) -> int:
        return self.behavior._stable_id.get(uid, uid)

    def units(self, uid: int, need: int = _UNIT_CHUNK) -> List[float]:
        """Unit table for ``uid`` with at least ``need`` entries."""
        key = self._key_of(uid)
        cached = self._units.get(uid)
        if cached is not None and cached[0] == key and len(cached[1]) >= need:
            return cached[1]
        have = cached[1] if cached is not None and cached[0] == key else []
        target = max(_UNIT_CHUNK, len(have) * 2, need)
        have = have + hash_units_bulk(
            key, len(have), target, self.behavior.seed
        )
        self._units[uid] = (key, have)
        return have

    def grow(self, uid: int, need: int) -> List[float]:
        """Extend ``uid``'s table past ``need`` (hot-loop slow path)."""
        return self.units(uid, need + 1)

    def probs(self, uid: int, phase_ids: Sequence[int]) -> List[float]:
        """Taken probability of ``uid`` indexed by phase id (dense list
        covering ``0..max(phase_ids)``)."""
        prob = self.behavior.prob
        top = max(phase_ids) if phase_ids else 0
        return [prob(uid, phase) for phase in range(top + 1)]


_OUTCOME_TABLES: "WeakKeyDictionary[BehaviorModel, OutcomeTable]" = (
    WeakKeyDictionary()
)


def outcome_table_for(behavior: BehaviorModel) -> OutcomeTable:
    """Process-wide outcome table shared by every run of ``behavior``."""
    try:
        table = _OUTCOME_TABLES.get(behavior)
        if table is None:
            table = OutcomeTable(behavior)
            _OUTCOME_TABLES[behavior] = table
        return table
    except TypeError:  # pragma: no cover - non-weakref-able subclass
        return OutcomeTable(behavior)


def share_outcome_table(behavior: BehaviorModel, table: OutcomeTable) -> None:
    """Pre-seed :func:`outcome_table_for` for ``behavior``.

    The batched engine's per-row behavior views alias one base model's
    bias/stable-id state; views of the same (base, seed) draw identical
    units, so their unit tables are interchangeable.  Registering the
    shared table here keeps repeat rows (the controller's per-epoch
    fleet re-probe) from regrowing every branch's table from scratch."""
    try:
        _OUTCOME_TABLES[behavior] = table
    except TypeError:  # pragma: no cover - non-weakref-able subclass
        pass


class CompiledProgram:
    """A program lowered to flat, dense-index successor tables."""

    def __init__(self, program: Program):
        self.program = program
        infos = build_block_infos(program)
        ordered = list(infos.values())
        index = {id(info): i for i, info in enumerate(ordered)}
        n = len(ordered)

        # Plain Python lists: scalar indexing beats numpy in the
        # interpreter loop; numpy is used for the bulk outcome hashing.
        self.kind: List[int] = [info.kind for info in ordered]
        self.size: List[int] = [info.size for info in ordered]
        self.uid: List[int] = [info.uid for info in ordered]
        self.fall: List[int] = [
            index[id(info.fall)] if info.fall is not None else -1
            for info in ordered
        ]
        self.target: List[int] = [
            index[id(info.target)] if info.target is not None else -1
            for info in ordered
        ]
        self.conts: List[Tuple[int, ...]] = [
            tuple(index[id(c)] for c in info.continuations)
            for info in ordered
        ]

        # Dense ids for branch origin uids (packed copies share the
        # origin uid and therefore the occurrence counter).
        dense_of: Dict[int, int] = {}
        self.branch_dense: List[int] = [-1] * n
        for i, info in enumerate(ordered):
            if info.kind == KIND_BRANCH:
                dense = dense_of.setdefault(info.branch_uid, len(dense_of))
                self.branch_dense[i] = dense
        self.branch_uids: List[int] = [0] * len(dense_of)
        for buid, dense in dense_of.items():
            self.branch_uids[dense] = buid

        self.index_of: Dict[Tuple[str, str], int] = {
            key: index[id(info)] for key, info in infos.items()
        }
        entry_fn = program.functions[program.entry]
        self.entry_index = self.index_of[(entry_fn.name, entry_fn.entry_label)]

        #: Lazily built straight-line segments (see :func:`_build_segment`)
        #: as parallel per-start-block tables, shared by every run.
        #: ``seg_end[b] is None`` means not built yet; list indexing
        #: keeps the hot loop free of dict lookups and tuple unpacking.
        self.seg_blocks: List[Optional[np.ndarray]] = [None] * n
        self.seg_instr: List[int] = [0] * n
        self.seg_steps: List[int] = [0] * n
        self.seg_calls: List[int] = [0] * n
        self.seg_pushes: List[Tuple[int, ...]] = [()] * n
        self.seg_kind: List[int] = [0] * n
        self.seg_end: List[Optional[int]] = [None] * n

        #: Fused branch-to-branch transitions (see :func:`_build_fused`),
        #: keyed by ``2 * branch_block_index + outcome``.  ``None`` =
        #: not built, ``False`` = walk too long to fuse (rare; the
        #: per-segment path handles those events exactly).
        self.fused: List[object] = [None] * (2 * n)


def _build_segment(cp: "CompiledProgram", b: int) -> Optional[int]:
    """Pre-aggregate the deterministic walk starting at block ``b``
    into the compiled program's parallel segment tables.

    Follows FALL/JUMP/CALL edges until the first conditional branch,
    RET, or HALT (inclusive), recording the visited block indices, the
    instruction/step/call totals, and the exact continuation-stack push
    sequence the reference loop would perform.  Deferring the pushes is
    sound because RET terminates a segment, so nothing pops in between.
    Returns the terminal block index, or ``None`` when the walk
    revisits a block — a branchless cycle, which only the step-limited
    per-block loop can terminate.
    """
    kind = cp.kind
    size = cp.size
    fall = cp.fall
    target = cp.target
    conts = cp.conts
    n = len(kind)

    blocks: List[int] = []
    pushes: List[int] = []
    instructions = 0
    calls = 0
    cur = b
    while True:
        blocks.append(cur)
        if len(blocks) > n:
            return None
        instructions += size[cur]
        k = kind[cur]
        if k == KIND_FALL:
            cur = fall[cur]
        elif k == KIND_JUMP:
            if conts[cur]:
                pushes.extend(conts[cur])
            cur = target[cur]
        elif k == KIND_CALL:
            calls += 1
            pushes.append(fall[cur])
            cur = target[cur]
        else:  # BRANCH / RET / HALT terminate the segment
            cp.seg_blocks[b] = np.asarray(blocks, dtype=np.int64)
            cp.seg_instr[b] = instructions
            cp.seg_steps[b] = len(blocks)
            cp.seg_calls[b] = calls
            cp.seg_pushes[b] = tuple(pushes)
            cp.seg_kind[b] = k
            cp.seg_end[b] = cur
            return cur


#: Steps allowed in one fused walk: generous enough for deep call
#: chains between branches, small enough to bound the build cost.
_FUSE_PAD = 64


def _build_fused(cp: "CompiledProgram", key: int):
    """Pre-aggregate the deterministic walk *after* a branch outcome.

    ``key`` encodes ``2 * branch_block_index + outcome``.  Starting at
    the branch's taken/fall successor, chains segments — resolving RETs
    against a virtual stack of this walk's own pushes — until the next
    conditional branch, a RET that must pop the caller's (real) stack,
    or HALT.  The result collapses an entire inter-branch call chain
    into one table entry: unique visited blocks + counts (as arrays for
    vectorized accumulation), instruction/step/call totals, leftover
    pushes for the real stack, and the end state.

    Returns the entry (also stored in ``cp.fused[key]``), ``False``
    when the walk exceeds its step bound (stored too; the per-segment
    path executes such events exactly), or ``None`` on a branchless
    cycle — the whole run must fall back to the per-block loop.
    """
    j = key >> 1
    seg_blocks = cp.seg_blocks
    seg_instr = cp.seg_instr
    seg_steps = cp.seg_steps
    seg_calls = cp.seg_calls
    seg_pushes = cp.seg_pushes
    seg_kind = cp.seg_kind
    seg_end = cp.seg_end
    bound = 4 * len(cp.kind) + _FUSE_PAD

    vstack: List[int] = []
    start_counts: Dict[int, int] = {}
    instructions = 0
    steps = 0
    calls = 0
    if key & 1:
        if cp.conts[j]:
            vstack.extend(cp.conts[j])
        i = cp.target[j]
    else:
        i = cp.fall[j]
    while True:
        e = seg_end[i]
        if e is None:
            if _build_segment(cp, i) is None:
                return None
            e = seg_end[i]
        start_counts[i] = start_counts.get(i, 0) + 1
        instructions += seg_instr[i]
        steps += seg_steps[i]
        calls += seg_calls[i]
        if steps > bound:
            cp.fused[key] = False
            return False
        if seg_pushes[i]:
            vstack.extend(seg_pushes[i])
        ek = seg_kind[i]
        if ek == KIND_BRANCH:
            end_kind, end = KIND_BRANCH, e
            break
        if ek == KIND_RET:
            if vstack:
                i = vstack.pop()
                continue
            end_kind, end = KIND_RET, -1
            break
        end_kind, end = KIND_HALT, -1
        break

    block_counts: Dict[int, int] = {}
    for s, c in start_counts.items():
        for b in seg_blocks[s].tolist():
            block_counts[b] = block_counts.get(b, 0) + c
    entry = (
        np.fromiter(block_counts, dtype=np.int64, count=len(block_counts)),
        np.fromiter(
            block_counts.values(), dtype=np.int64, count=len(block_counts)
        ),
        instructions,
        steps,
        calls,
        tuple(vstack),
        end_kind,
        end,
    )
    cp.fused[key] = entry
    return entry


def program_signature(program: Program) -> int:
    """Cheap structural fingerprint of everything that determines a
    program's execution semantics under this engine: block identity and
    order, lengths, terminator kinds/targets/origins, continuations,
    and layout's branch inversions.  Used to detect in-place mutation
    of a memoized program (fault-injection tests sabotage programs
    after their first run) without paying a full recompile per run.
    O(blocks), not O(instructions): block *length* stands in for size,
    so the one mutation shape it cannot see is an in-place same-length
    swap of a non-terminator instruction — which no pipeline stage or
    oracle performs (they replace terminators or clone whole programs).
    """
    parts: List = []
    for function in program.functions.values():
        parts.append(function.name)
        for block in function.blocks:
            term = block.terminator
            parts.append((
                block.label,
                block.uid,
                len(block.instructions),
                None if term is None else term.opcode,
                None if term is None else term.target,
                None if term is None else term.root_origin(),
                bool(block.meta.get("branch_inverted")),
                tuple(block.continuations),
            ))
    return hash(tuple(parts))


_COMPILED: "WeakKeyDictionary[Program, Tuple[int, CompiledProgram]]" = (
    WeakKeyDictionary()
)


def compile_program(program: Program, refresh: bool = False) -> CompiledProgram:
    """Lower ``program``, memoizing per program object.

    The memo is guarded by :func:`program_signature`, so an in-place
    mutation (rare — the rewriter clones rather than mutates, but the
    fault-injection oracle tests sabotage programs directly)
    transparently recompiles.  ``refresh=True`` forces it.
    """
    signature = program_signature(program)
    try:
        cached = None if refresh else _COMPILED.get(program)
        if cached is not None and cached[0] == signature:
            return cached[1]
        with span("engine.compile", functions=len(program.functions)):
            compiled = CompiledProgram(program)
        inc("engine.compile.programs")
        _COMPILED[program] = (signature, compiled)
        return compiled
    except TypeError:  # pragma: no cover - non-weakref-able subclass
        return CompiledProgram(program)


@dataclass
class TraceData:
    """A recorded retired-branch stream plus the run's summary."""

    uids: np.ndarray      # int64 branch origin uid per retired branch
    taken: np.ndarray     # bool outcome per retired branch
    summary: ExecutionSummary

    def __len__(self) -> int:
        return int(self.uids.shape[0])

    def phases(self, phase_script: PhaseScript) -> np.ndarray:
        """Ground-truth phase id per event (from the script that drove
        the run), reconstructed without replaying."""
        return phases_for(phase_script, len(self))


_PHASE_ARRAYS: "WeakKeyDictionary[PhaseScript, np.ndarray]" = (
    WeakKeyDictionary()
)


def phases_for(script: PhaseScript, n: int) -> np.ndarray:
    """Phase id of each of the first ``n`` branch retirements.

    Memoized per script (read-only views of one grown array): a batched
    fleet reconstructs this for every client row of the same script, and
    the controller re-asks every epoch."""
    try:
        cached = _PHASE_ARRAYS.get(script)
    except TypeError:  # pragma: no cover - non-weakref-able subclass
        cached = None
    if cached is not None and len(cached) >= n:
        return cached[:n]
    arr = _phases_for(script, n)
    arr.setflags(write=False)
    try:
        _PHASE_ARRAYS[script] = arr
    except TypeError:  # pragma: no cover - non-weakref-able subclass
        pass
    return arr


def _phases_for(script: PhaseScript, n: int) -> np.ndarray:
    ids: List[int] = []
    lengths: List[int] = []
    total = 0
    for segment in script.segments:
        if total >= n:
            break
        take = min(segment.branches, n - total)
        ids.append(segment.phase_id)
        lengths.append(take)
        total += take
    if total < n:  # indices beyond the script stay in the final phase
        ids.append(script.segments[-1].phase_id)
        lengths.append(n - total)
    if not ids:
        return np.zeros(0, dtype=np.int64)
    return np.repeat(np.asarray(ids, dtype=np.int64), lengths)


class ReplayDivergence(ExecutorError):
    """A replayed stream did not match the program's control flow."""


class CompiledExecutor:
    """Drop-in fast executor: same constructor shape as
    :class:`~repro.engine.executor.BlockExecutor` minus ``block_hook``
    (block-level callbacks need the reference engine)."""

    def __init__(
        self,
        program: Program,
        behavior: BehaviorModel,
        phase_script: PhaseScript,
        branch_hooks: Sequence = (),
        limits: Optional[ExecutionLimits] = None,
    ):
        self.program = program
        self.behavior = behavior
        self.phase_script = phase_script
        self.branch_hooks = list(branch_hooks)
        self.limits = limits or ExecutionLimits()
        self.compiled = compile_program(program)
        self.outcomes = outcome_table_for(behavior)
        # Branch events delivered to hooks by an aborted segment run
        # (see run()'s fallback hand-off).
        self._aborted_events = 0

    # -- execution ---------------------------------------------------
    def run(
        self,
        start: Optional[Tuple[str, str]] = None,
        collect_trace: bool = False,
        replay: Optional[TraceData] = None,
    ) -> ExecutionSummary:
        """Run to a limit/halt; exact :class:`ExecutionSummary` parity
        with the reference engine.

        ``collect_trace`` records the branch stream into
        ``self.last_trace``.  ``replay`` consumes a recorded stream
        (verifying the branch uid at every event) instead of computing
        outcomes — raises :class:`ReplayDivergence` if the program's
        control flow leaves the recorded stream.

        Dispatches to the segment engine (one iteration per *branch
        event*, straight-line walks pre-aggregated) whenever the run
        budget permits; the per-block event loop remains as the exact
        fallback for instruction-limited runs and degenerate graphs.
        """
        skip_hooks = 0
        if self.limits.max_instructions is None:
            self._aborted_events = 0
            summary = self._run_segments(start, collect_trace, replay)
            if summary is not None:
                return summary
            # The segment engine bailed out mid-run (step guard or a
            # branchless cycle discovered on the fly).  Its partial
            # event stream is a strict prefix of the true stream, and
            # hooks already saw it — the fallback must not re-emit it.
            skip_hooks = self._aborted_events
        return self._run_events(start, collect_trace, replay, skip_hooks)

    def _run_segments(
        self,
        start: Optional[Tuple[str, str]],
        collect_trace: bool,
        replay: Optional[TraceData],
    ) -> Optional[ExecutionSummary]:
        """Segment-batched run; returns ``None`` when the graph or the
        step budget forces the per-block fallback.

        A *segment* is the maximal deterministic walk from a block
        through FALL/JUMP/CALL edges up to (and including) the next
        conditional branch, RET, or HALT — its visit set, instruction
        count, step count, call count, and continuation pushes are all
        precomputed (:func:`_build_segment`), so the interpreter loop
        advances one branch retirement (or return) at a time instead of
        one block at a time.
        """
        cp = self.compiled
        i = cp.entry_index if start is None else cp.index_of[start]

        kind = cp.kind
        fall = cp.fall
        target = cp.target
        conts = cp.conts
        branch_dense = cp.branch_dense
        branch_uids = cp.branch_uids
        seg_instr = cp.seg_instr
        seg_steps = cp.seg_steps
        seg_calls = cp.seg_calls
        seg_pushes = cp.seg_pushes
        seg_kind = cp.seg_kind
        seg_end = cp.seg_end
        nblocks = len(kind)

        limits = self.limits
        max_branches = limits.max_branches
        if max_branches is None:
            max_branches = float("inf")
        # Conservative ceiling: one segment is at most nblocks steps
        # and one fused walk at most 4 * nblocks + _FUSE_PAD, so
        # crossing the guard means the reference engine may stop
        # mid-chunk — replay per block instead.
        step_guard = limits.max_steps - 4 * nblocks - _FUSE_PAD

        # Inlined phase cursor.
        segments = self.phase_script.segments
        nsegs = len(segments)
        seg_i = 0
        seg_phase = [s.phase_id for s in segments]
        seg_len = [s.branches for s in segments]
        cur_phase = seg_phase[0]
        remaining = seg_len[0]

        ndense = len(branch_uids)
        occs = [0] * ndense
        units: List[List[float]] = [[]] * ndense
        probs: List[List[float]] = [[]] * ndense
        outcome_table = self.outcomes

        replaying = replay is not None
        if replaying:
            r_uids = replay.uids.tolist()
            r_taken = replay.taken.tolist()
            n_replay = len(r_uids)
        else:
            for dense, buid in enumerate(branch_uids):
                units[dense] = outcome_table.units(buid)
                probs[dense] = outcome_table.probs(buid, seg_phase)

        hooks = tuple(self.branch_hooks) or None
        single_hook = hooks[0] if hooks is not None and len(hooks) == 1 else None
        # The phase id feeds outcome hashing and hooks; a hook-less
        # replay needs neither, so the cursor can be skipped entirely.
        need_phase = not replaying or hooks is not None

        trace_uids: Optional[List[int]] = [] if collect_trace else None
        trace_taken: Optional[List[bool]] = [] if collect_trace else None

        seg_count = [0] * nblocks
        fused = cp.fused
        fused_count: Dict[int, int] = {}
        fused_count_get = fused_count.get
        stack: List[int] = []
        stop_reason = StopReason.HALTED
        instructions = 0
        branches = 0
        taken_total = 0
        calls = 0
        steps = 0

        k_branch = KIND_BRANCH
        k_ret = KIND_RET

        # j >= 0: a branch event at block j is pending (its block and
        # everything leading to it already accounted).  j < 0: step
        # segments from block i until the next terminal.
        j = -1
        while True:
            if j < 0:
                e = seg_end[i]
                if e is None:
                    if _build_segment(cp, i) is None:
                        # Branchless cycle: only the per-block loop can
                        # hit its step limit.
                        self._aborted_events = branches
                        return None
                    e = seg_end[i]
                seg_count[i] += 1
                instructions += seg_instr[i]
                steps += seg_steps[i]
                calls += seg_calls[i]
                if steps > step_guard:
                    self._aborted_events = branches
                    return None
                pushes = seg_pushes[i]
                if pushes:
                    stack.extend(pushes)
                end_kind = seg_kind[i]
                if end_kind == k_branch:
                    j = e
                elif end_kind == k_ret:
                    if not stack:
                        stop_reason = StopReason.STACK_UNDERFLOW
                        break
                    i = stack.pop()
                    continue
                else:  # KIND_HALT
                    stop_reason = StopReason.HALTED
                    break

            # -- branch event at block j ---------------------------
            if branches >= max_branches:
                stop_reason = StopReason.BRANCH_LIMIT
                break
            dense = branch_dense[j]
            buid = branch_uids[dense]
            if need_phase:
                # Inlined PhaseCursor.advance().
                phase = cur_phase
                remaining -= 1
                if remaining <= 0 and seg_i + 1 < nsegs:
                    seg_i += 1
                    cur_phase = seg_phase[seg_i]
                    remaining = seg_len[seg_i]
            if replaying:
                if branches >= n_replay or r_uids[branches] != buid:
                    raise ReplayDivergence(
                        f"replay diverged at branch {branches}: program "
                        f"retires uid {buid}, stream has "
                        f"{r_uids[branches] if branches < n_replay else 'EOF'}"
                    )
                taken = r_taken[branches]
            else:
                occ = occs[dense]
                occs[dense] = occ + 1
                unit_list = units[dense]
                if occ >= len(unit_list):
                    unit_list = outcome_table.grow(buid, occ)
                    units[dense] = unit_list
                taken = unit_list[occ] < probs[dense][phase]
            branches += 1
            if taken:
                taken_total += 1
            if trace_uids is not None:
                trace_uids.append(buid)
                trace_taken.append(taken)
            if single_hook is not None:
                single_hook(buid, taken, phase)
            elif hooks is not None:
                for hook in hooks:
                    hook(buid, taken, phase)

            # -- fused transition to the next event ----------------
            key = j + j + taken
            f = fused[key]
            if f is None:
                f = _build_fused(cp, key)
                if f is None:
                    self._aborted_events = branches
                    return None
            if f is False:
                # Too long to fuse: resume exact per-segment stepping.
                if taken:
                    if conts[j]:
                        stack.extend(conts[j])
                    i = target[j]
                else:
                    i = fall[j]
                j = -1
                continue
            fused_count[key] = fused_count_get(key, 0) + 1
            instructions += f[2]
            steps += f[3]
            calls += f[4]
            if steps > step_guard:
                self._aborted_events = branches
                return None
            if f[5]:
                stack.extend(f[5])
            end_kind = f[6]
            if end_kind == k_branch:
                j = f[7]
            elif end_kind == k_ret:
                if not stack:
                    stop_reason = StopReason.STACK_UNDERFLOW
                    break
                i = stack.pop()
                j = -1
            else:  # KIND_HALT
                stop_reason = StopReason.HALTED
                break

        if replaying and (
            branches != n_replay
            or stop_reason is not replay.summary.stop_reason
        ):
            raise ReplayDivergence(
                f"replay ended with {branches}/{n_replay} branches "
                f"({stop_reason.value} vs recorded "
                f"{replay.summary.stop_reason.value})"
            )

        visit_counts = np.zeros(nblocks, dtype=np.int64)
        seg_blocks = cp.seg_blocks
        for b, count in enumerate(seg_count):
            # Blocks within one segment are distinct (a repeat would be
            # a branchless cycle, rejected above), so fancy-index add
            # is exact.
            if count:
                visit_counts[seg_blocks[b]] += count
        for key, count in fused_count.items():
            f = fused[key]
            # f[0] holds unique block indices, f[1] their per-walk
            # visit counts.
            visit_counts[f[0]] += f[1] * count
        uid = cp.uid
        summary = ExecutionSummary(
            instructions=instructions,
            branches=branches,
            taken_branches=taken_total,
            calls=calls,
            steps=steps,
            stop_reason=stop_reason,
            block_visits={
                uid[j]: count
                for j, count in enumerate(visit_counts.tolist())
                if count
            },
        )
        if collect_trace:
            self.last_trace = TraceData(
                uids=np.asarray(trace_uids, dtype=np.int64),
                taken=np.asarray(trace_taken, dtype=bool),
                summary=summary,
            )
        return summary

    def _run_events(
        self,
        start: Optional[Tuple[str, str]],
        collect_trace: bool,
        replay: Optional[TraceData],
        skip_hooks: int = 0,
    ) -> ExecutionSummary:
        """The per-block event loop (exact fallback path).

        ``skip_hooks`` suppresses hook delivery for the first N branch
        events — used when an aborted segment run already delivered
        that exact prefix to the hooks.
        """
        cp = self.compiled
        i = cp.entry_index if start is None else cp.index_of[start]

        kind = cp.kind
        size = cp.size
        fall = cp.fall
        target = cp.target
        conts = cp.conts
        branch_dense = cp.branch_dense
        branch_uids = cp.branch_uids

        limits = self.limits
        max_branches = limits.max_branches
        max_instructions = limits.max_instructions
        max_steps = limits.max_steps

        # Inlined phase cursor.
        segments = self.phase_script.segments
        nsegs = len(segments)
        seg_i = 0
        seg_phase = [s.phase_id for s in segments]
        seg_len = [s.branches for s in segments]
        cur_phase = seg_phase[0]
        remaining = seg_len[0]

        # Per-dense-branch outcome state.
        ndense = len(branch_uids)
        occs = [0] * ndense
        phase_ids = seg_phase
        units: List[List[float]] = [[]] * ndense
        probs: List[List[float]] = [[]] * ndense
        outcome_table = self.outcomes
        for dense, buid in enumerate(branch_uids):
            units[dense] = outcome_table.units(buid)
            probs[dense] = outcome_table.probs(buid, phase_ids)

        hooks = tuple(self.branch_hooks) or None
        if skip_hooks and hooks is not None:
            real_hooks = hooks
            pending = [skip_hooks]

            def _after_skip(buid, taken, phase, _h=real_hooks, _p=pending):
                if _p[0] > 0:
                    _p[0] -= 1
                    return
                for hook in _h:
                    hook(buid, taken, phase)

            hooks = (_after_skip,)
        single_hook = hooks[0] if hooks is not None and len(hooks) == 1 else None

        replaying = replay is not None
        if replaying:
            r_uids = replay.uids.tolist()
            r_taken = replay.taken.tolist()
            n_replay = len(r_uids)

        trace_uids: Optional[List[int]] = [] if collect_trace else None
        trace_taken: Optional[List[bool]] = [] if collect_trace else None

        visits = [0] * len(kind)
        stack: List[int] = []
        stop_reason = StopReason.HALTED
        instructions = 0
        branches = 0
        taken_total = 0
        calls = 0
        steps = 0

        while True:
            steps += 1
            if steps > max_steps:
                stop_reason = StopReason.STEP_LIMIT
                break
            visits[i] += 1
            instructions += size[i]
            if max_instructions is not None and instructions >= max_instructions:
                stop_reason = StopReason.INSTRUCTION_LIMIT
                break
            k = kind[i]
            if k == KIND_BRANCH:
                if max_branches is not None and branches >= max_branches:
                    stop_reason = StopReason.BRANCH_LIMIT
                    break
                dense = branch_dense[i]
                buid = branch_uids[dense]
                # Inlined PhaseCursor.advance().
                phase = cur_phase
                remaining -= 1
                if remaining <= 0 and seg_i + 1 < nsegs:
                    seg_i += 1
                    cur_phase = seg_phase[seg_i]
                    remaining = seg_len[seg_i]
                if replaying:
                    if branches >= n_replay or r_uids[branches] != buid:
                        raise ReplayDivergence(
                            f"replay diverged at branch {branches}: program "
                            f"retires uid {buid}, stream has "
                            f"{r_uids[branches] if branches < n_replay else 'EOF'}"
                        )
                    taken = r_taken[branches]
                else:
                    occ = occs[dense]
                    occs[dense] = occ + 1
                    unit_list = units[dense]
                    if occ >= len(unit_list):
                        unit_list = outcome_table.grow(buid, occ)
                        units[dense] = unit_list
                    taken = unit_list[occ] < probs[dense][phase]
                branches += 1
                if taken:
                    taken_total += 1
                if trace_uids is not None:
                    trace_uids.append(buid)
                    trace_taken.append(taken)
                if single_hook is not None:
                    single_hook(buid, taken, phase)
                elif hooks is not None:
                    for hook in hooks:
                        hook(buid, taken, phase)
                if taken:
                    if conts[i]:
                        stack.extend(conts[i])
                    i = target[i]
                else:
                    i = fall[i]
            elif k == KIND_FALL:
                i = fall[i]
            elif k == KIND_JUMP:
                if conts[i]:
                    stack.extend(conts[i])
                i = target[i]
            elif k == KIND_CALL:
                calls += 1
                stack.append(fall[i])
                i = target[i]
            elif k == KIND_RET:
                if not stack:
                    stop_reason = StopReason.STACK_UNDERFLOW
                    break
                i = stack.pop()
            else:  # KIND_HALT
                stop_reason = StopReason.HALTED
                break

        if replaying and (
            branches != n_replay
            or stop_reason is not replay.summary.stop_reason
        ):
            raise ReplayDivergence(
                f"replay ended with {branches}/{n_replay} branches "
                f"({stop_reason.value} vs recorded "
                f"{replay.summary.stop_reason.value})"
            )

        uid = cp.uid
        summary = ExecutionSummary(
            instructions=instructions,
            branches=branches,
            taken_branches=taken_total,
            calls=calls,
            steps=steps,
            stop_reason=stop_reason,
            block_visits={
                uid[j]: count for j, count in enumerate(visits) if count
            },
        )
        if collect_trace:
            self.last_trace = TraceData(
                uids=np.asarray(trace_uids, dtype=np.int64),
                taken=np.asarray(trace_taken, dtype=bool),
                summary=summary,
            )
        return summary

    def run_traced(
        self, start: Optional[Tuple[str, str]] = None
    ) -> TraceData:
        """Run and return the recorded branch stream + summary."""
        self.run(start=start, collect_trace=True)
        return self.last_trace


def run_workload(
    workload,
    program: Optional[Program] = None,
    branch_hooks: Sequence = (),
    collect_trace: bool = False,
    replay: Optional[TraceData] = None,
):
    """Convenience: a compiled run of a workload (or a packed variant)."""
    executor = CompiledExecutor(
        program or workload.program,
        workload.behavior,
        workload.phase_script,
        branch_hooks=branch_hooks,
        limits=workload.limits,
    )
    summary = executor.run(collect_trace=collect_trace, replay=replay)
    if collect_trace:
        return executor.last_trace
    return summary
