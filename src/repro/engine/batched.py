"""Batched execution: N client runs of one binary in one call.

Fleet features (service ingest, the drift controller's per-epoch
probes, the bench suite) simulate clients by re-running the compiled
engine once per client.  All of those runs share one
:class:`~repro.engine.compiled.CompiledProgram`; only the per-row
behavior seed (and, under drift, the per-row bias table) differs.
This module batches them:

* :class:`BatchTables` lowers the compiled program's lazily-built
  segment/fused tables into flat numpy arrays shared by every row —
  built once per program, cached alongside the compiled tables;
* :class:`BatchedExecutor` advances N rows through two kernels, both
  **bit-identical** to N sequential
  :class:`~repro.engine.compiled.CompiledExecutor` runs:

  - ``native`` — the fused-transition walk compiled to a tiny C
    kernel at runtime with the system C compiler (see
    :mod:`repro.engine.native`); used automatically when a compiler
    is available;
  - ``scalar`` — one :class:`CompiledExecutor` per row: the exactness
    fallback for hazards (instruction-limited budgets, step-guard
    crossings, branchless cycles, stack overflow), and for every row
    when the kernel cannot load (no C compiler, or
    ``REPRO_NATIVE=off``, which makes it the native rows' oracle);
* :func:`record_row` runs one recording — the trace cache's miss path
  and the differential oracle's packed side — on the native kernel
  with the same one-row plumbing, outside :class:`BatchedExecutor` and
  its fleet-row counters.

Equivalence is contractual, exactly as for the compiled engine:
identical :class:`~repro.engine.executor.ExecutionSummary` fields and
identical ``(branch_uid, taken, phase)`` event streams per row, for
divergent per-row behavior seeds over one binary
(``tests/test_batched_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.engine.behavior import BehaviorModel
from repro.engine.compiled import (
    CompiledExecutor,
    CompiledProgram,
    OutcomeTable,
    TraceData,
    _build_fused,
    _build_segment,
    _FUSE_PAD,
    compile_program,
    share_outcome_table,
)
from repro.engine.executor import (
    KIND_BRANCH,
    KIND_HALT,
    KIND_RET,
    ExecutionLimits,
    ExecutionSummary,
    StopReason,
)
from repro.engine.native import flatten_ragged, native_kernel, walk_tables_for
from repro.engine.phases import PhaseScript
from repro.obs import annotate, inc, span
from repro.program.program import Program

_MASK64 = (1 << 64) - 1
_FNV = 0x100000001B3

#: seg_kind / f_kind encoding shared with the native kernel.
_K_BRANCH, _K_RET, _K_HALT, _K_HAZARD = 0, 1, 2, 3

_STOP = (StopReason.HALTED, StopReason.BRANCH_LIMIT, StopReason.STACK_UNDERFLOW)


def row_behavior(base: BehaviorModel, seed: int) -> BehaviorModel:
    """A view of ``base`` with its own outcome seed.

    Shares the bias and stable-id tables by reference (rows of a fleet
    run one binary; only the seed diverges), so per-row probability
    lookups cost nothing extra and an
    :class:`~repro.engine.compiled.OutcomeTable` keyed on the view
    never serves units hashed under another row's seed.  Views of the
    same ``(base, seed)`` share one outcome table — unit draws depend
    only on (stable key, seed) — so repeat rows (the controller's
    per-epoch fleet probe replays the same client seeds every epoch)
    reuse grown unit tables instead of rehashing them.
    """
    view = BehaviorModel.__new__(BehaviorModel)
    view.default_prob = base.default_prob
    view.seed = seed
    view._bias = base._bias
    view._stable_id = base._stable_id
    try:
        by_seed = _ROW_TABLES.get(base)
        if by_seed is None:
            by_seed = {}
            _ROW_TABLES[base] = by_seed
        table = by_seed.get(seed)
        if table is None:
            table = OutcomeTable(view)
            by_seed[seed] = table
        share_outcome_table(view, table)
    except TypeError:  # pragma: no cover - non-weakref-able subclass
        pass
    return view


_ROW_TABLES: "WeakKeyDictionary[BehaviorModel, Dict[int, OutcomeTable]]" = (
    WeakKeyDictionary()
)


class BatchTables:
    """The compiled program's segment/fused tables as flat arrays.

    Everything the native kernel indexes per event, built
    once per :class:`CompiledProgram` (all segments and fused
    transitions force-built up front) and shared by every batch.
    Blocks whose segment walk is a branchless cycle are marked
    ``_K_HAZARD``; rows that reach one bail out to the scalar kernel,
    mirroring the compiled engine's own fallback.
    """

    def __init__(self, cp: CompiledProgram):
        n = len(cp.kind)
        self.nblocks = n
        for b in range(n):
            if cp.seg_end[b] is None:
                _build_segment(cp, b)
        for j in range(n):
            if cp.kind[j] == KIND_BRANCH:
                for outcome in (0, 1):
                    if cp.fused[2 * j + outcome] is None:
                        _build_fused(cp, 2 * j + outcome)

        self.seg_end = np.asarray(
            [-1 if e is None else e for e in cp.seg_end], dtype=np.int32
        )
        kind_of = {KIND_BRANCH: _K_BRANCH, KIND_RET: _K_RET, KIND_HALT: _K_HALT}
        self.seg_kind = np.asarray(
            [
                _K_HAZARD if cp.seg_end[b] is None else kind_of[cp.seg_kind[b]]
                for b in range(n)
            ],
            dtype=np.uint8,
        )
        self.seg_instr = np.asarray(cp.seg_instr, dtype=np.int64)
        self.seg_steps = np.asarray(cp.seg_steps, dtype=np.int64)
        self.seg_calls = np.asarray(cp.seg_calls, dtype=np.int64)
        (self.seg_push_off, self.seg_push_cnt,
         self.seg_push_data) = flatten_ragged(cp.seg_pushes)

        nk = 2 * n
        self.f_valid = np.zeros(nk, dtype=np.uint8)
        self.f_end = np.full(nk, -1, dtype=np.int32)
        self.f_kind = np.zeros(nk, dtype=np.uint8)
        self.f_instr = np.zeros(nk, dtype=np.int64)
        self.f_steps = np.zeros(nk, dtype=np.int64)
        self.f_calls = np.zeros(nk, dtype=np.int64)
        f_pushes: List[Tuple[int, ...]] = [()] * nk
        #: Per-key unique visited blocks + per-walk counts, for
        #: block_visits reconstruction (mirrors the scalar engine).
        self.fb_blocks: List[Optional[np.ndarray]] = [None] * nk
        self.fb_counts: List[Optional[np.ndarray]] = [None] * nk
        #: Per-key successor when the key is unfused: the branch's raw
        #: taken/fall edge, continuation pushes included.
        self.u_next = np.full(nk, -1, dtype=np.int32)
        u_pushes: List[Tuple[int, ...]] = [()] * nk
        for j in range(n):
            if cp.kind[j] != KIND_BRANCH:
                continue
            for outcome in (0, 1):
                key = 2 * j + outcome
                if outcome:
                    self.u_next[key] = cp.target[j]
                    u_pushes[key] = cp.conts[j]
                else:
                    self.u_next[key] = cp.fall[j]
                f = cp.fused[key]
                if f is None or f is False:
                    continue
                self.f_valid[key] = 1
                self.f_kind[key] = kind_of[f[6]]
                self.f_end[key] = f[7]
                self.f_instr[key] = f[2]
                self.f_steps[key] = f[3]
                self.f_calls[key] = f[4]
                f_pushes[key] = f[5]
                self.fb_blocks[key] = f[0]
                self.fb_counts[key] = f[1]
        (self.f_push_off, self.f_push_cnt,
         self.f_push_data) = flatten_ragged(f_pushes)
        (self.u_push_off, self.u_push_cnt,
         self.u_push_data) = flatten_ragged(u_pushes)

        self.branch_dense = np.asarray(cp.branch_dense, dtype=np.int32)
        self.ndense = len(cp.branch_uids)
        self.branch_uids = np.asarray(cp.branch_uids, dtype=np.int64)
        #: branch origin uid per *block* (for log -> event stream).
        self.block_buid = walk_tables_for(cp).branch_uid
        self.uid = cp.uid
        self.seg_blocks = cp.seg_blocks
        self.entry_index = cp.entry_index


_TABLES: "WeakKeyDictionary[CompiledProgram, BatchTables]" = WeakKeyDictionary()


def batch_tables_for(cp: CompiledProgram) -> BatchTables:
    tables = _TABLES.get(cp)
    if tables is None:
        tables = BatchTables(cp)
        _TABLES[cp] = tables
    return tables


def stable_fnv_for(behavior: BehaviorModel, tables: BatchTables) -> np.ndarray:
    """Per-dense-branch ``stable_id * FNV`` (the outer hash key)."""
    stable = behavior._stable_id
    return np.asarray(
        [
            (stable.get(int(buid), int(buid)) * _FNV) & _MASK64
            for buid in tables.branch_uids.tolist()
        ],
        dtype=np.uint64,
    )


def prob_matrix(
    behavior: BehaviorModel, tables: BatchTables, phase_ids: Sequence[int]
) -> np.ndarray:
    """``[ndense, nphase]`` taken probabilities (phase ids dense from 0,
    exactly like :meth:`OutcomeTable.probs`)."""
    top = max(phase_ids) if phase_ids else 0
    prob = behavior.prob
    return np.asarray(
        [
            [prob(int(buid), phase) for phase in range(top + 1)]
            for buid in tables.branch_uids.tolist()
        ],
        dtype=np.float64,
    )


@dataclass
class BatchRun:
    """One completed batch: per-row traces + which kernel ran them."""

    traces: List[TraceData]
    kernel: str
    #: Rows that bailed to the scalar kernel (hazards), by index.
    scalar_rows: List[int]

    @property
    def summaries(self) -> List[ExecutionSummary]:
        return [trace.summary for trace in self.traces]


class BatchedExecutor:
    """Advance N client runs of one program over shared tables.

    ``seeds`` gives each row its behavior seed; ``row_probs`` optionally
    overrides the per-row probability matrix (shape ``[ndense, nphase]``,
    see :func:`prob_matrix`) for fleets whose rows drifted apart.  The
    phase script and limits are shared by every row, so the flat
    tables, phase arrays, and native row buffers are built once per
    batch; only the seed (and a drifted row's probabilities) differs.
    """

    def __init__(
        self,
        program: Program,
        behavior: BehaviorModel,
        phase_script: PhaseScript,
        seeds: Sequence[int],
        limits: Optional[ExecutionLimits] = None,
        row_probs: Optional[Sequence[Optional[np.ndarray]]] = None,
    ):
        self.program = program
        self.behavior = behavior
        self.phase_script = phase_script
        self.seeds = [int(s) for s in seeds]
        self.limits = limits or ExecutionLimits()
        self.compiled = compile_program(program)
        self.tables = batch_tables_for(self.compiled)
        self.row_probs = list(row_probs) if row_probs is not None else None
        if self.row_probs is not None and len(self.row_probs) != len(self.seeds):
            raise ValueError("row_probs must align with seeds")

    # -- public API ---------------------------------------------------
    def run_traced(self) -> BatchRun:
        """Run every row; bit-identical per-row traces + summaries."""
        n = len(self.seeds)
        kernel = pick_kernel(self.limits)
        with span("engine.batched.run", rows=n, kernel=kernel) as entry:
            inc("engine.batched.rows", n, kernel=kernel)
            if kernel == "scalar":
                traces = [self._scalar_row(i) for i in range(n)]
                run = BatchRun(traces=traces, kernel=kernel,
                               scalar_rows=list(range(n)))
            else:
                run = self._run_native()
            steps = sum(t.summary.steps for t in run.traces)
            inc("engine.batched.steps", steps, kernel=run.kernel)
            inc(
                "engine.batched.retired_rows",
                n - len(run.scalar_rows),
                kernel=run.kernel,
            )
            annotate(entry, steps=steps, scalar_rows=len(run.scalar_rows))
        return run

    # -- shared row plumbing ------------------------------------------
    def _row_prob(self, i: int, shared: np.ndarray) -> np.ndarray:
        if self.row_probs is not None and self.row_probs[i] is not None:
            return np.ascontiguousarray(self.row_probs[i], dtype=np.float64)
        return shared

    def _scalar_row(self, i: int) -> TraceData:
        """Exact per-row fallback: a sequential compiled run."""
        executor = CompiledExecutor(
            self.program,
            row_behavior(self.behavior, self.seeds[i]),
            self.phase_script,
            limits=self.limits,
        )
        if self.row_probs is not None and self.row_probs[i] is not None:
            # Drifted rows carry their own probabilities; the behavior
            # view reflects them only if the caller captured the bias
            # table at the same time.  simulate_fleet does (it restores
            # biases between rows), so a scalar rerun re-reads the
            # shared bias dict -- which may have moved on.  Rebind the
            # outcome table's prob source to the captured matrix.
            matrix = self._row_prob(i, None)
            tables = self.tables
            uid_probs = {
                int(buid): matrix[d].tolist()
                for d, buid in enumerate(tables.branch_uids.tolist())
            }
            outcomes = executor.outcomes

            class _Pinned:
                def units(self, uid, need=512):
                    return outcomes.units(uid, need)

                def grow(self, uid, need):
                    return outcomes.grow(uid, need)

                def probs(self, uid, phase_ids):
                    if uid in uid_probs:
                        return uid_probs[uid]
                    return outcomes.probs(uid, phase_ids)

            executor.outcomes = _Pinned()
        executor.run(collect_trace=True)
        return executor.last_trace

    # -- native kernel ------------------------------------------------
    def _run_native(self) -> BatchRun:
        rows = _NativeRows(
            self.tables, self.behavior, self.phase_script, self.limits
        )
        traces: List[TraceData] = []
        scalar_rows: List[int] = []
        for i, seed in enumerate(self.seeds):
            trace = rows.run(seed, self._row_prob(i, rows.probs))
            if trace is None:
                scalar_rows.append(i)
                trace = self._scalar_row(i)
            traces.append(trace)
        return BatchRun(traces=traces, kernel="native",
                        scalar_rows=scalar_rows)


def record_row(
    program: Program,
    behavior: BehaviorModel,
    phase_script: PhaseScript,
    limits: ExecutionLimits,
) -> Optional[TraceData]:
    """One run of ``program`` under ``behavior``'s own seed, computed
    and recorded by the native kernel: a batch of one row, without
    :class:`BatchedExecutor`, so no ``engine.batched`` counter (they
    count fleet rows) sees it.

    ``None`` when :func:`pick_kernel` picks ``scalar`` for ``limits``
    or the row bails; the caller then records through
    :meth:`CompiledExecutor.run_traced`, the result this equals.
    """
    if pick_kernel(limits) != "native":
        return None
    tables = batch_tables_for(compile_program(program))
    rows = _NativeRows(tables, behavior, phase_script, limits)
    return rows.run(behavior.seed, rows.probs)


def pick_kernel(limits: ExecutionLimits) -> str:
    """``native`` or ``scalar`` for rows run under ``limits``.

    The native kernel shares limits across rows and pre-sizes the event
    log from ``max_branches``; instruction-limited or unbounded budgets
    take the compiled engine's own exact paths, as every row does when
    the kernel cannot load."""
    if (
        limits.max_instructions is not None
        or limits.max_branches is None
        or limits.max_branches > (1 << 26)
        or native_kernel() is None
    ):
        return "scalar"
    return "native"


class _NativeRows:
    """Rows of one program, behavior, phase script and limits on the
    native kernel: the probability matrix, outcome hash keys, phase
    arrays and scratch buffers every row shares, built once."""

    def __init__(self, tables: BatchTables, behavior: BehaviorModel,
                 phase_script: PhaseScript, limits: ExecutionLimits):
        self.kernel = native_kernel()
        self.tables = tables
        segments = phase_script.segments
        self.script_phase = np.asarray(
            [s.phase_id for s in segments], dtype=np.int64
        )
        self.script_len = np.asarray(
            [s.branches for s in segments], dtype=np.int64
        )
        self.probs = prob_matrix(behavior, tables, self.script_phase.tolist())
        self.nphase = self.probs.shape[1] if self.probs.size else 1
        self.stable_fnv = stable_fnv_for(behavior, tables)
        self.max_branches = limits.max_branches
        self.step_guard = limits.max_steps - 4 * tables.nblocks - _FUSE_PAD
        self.state = self.kernel.row_state(tables, limits.max_branches)

    def run(self, seed: int, probs: np.ndarray) -> Optional[TraceData]:
        """One row; ``None`` when the kernel bails."""
        tables, state = self.tables, self.state
        result = self.kernel.run_row(
            tables, state, self.stable_fnv, probs, self.nphase,
            self.script_phase, self.script_len, seed & _MASK64,
            self.max_branches, self.step_guard,
        )
        if result is None:
            return None
        instr, branches, taken, calls, steps, stop, nev = result
        visits = np.zeros(tables.nblocks, dtype=np.int64)
        for b in np.nonzero(state.seg_cnt)[0].tolist():
            visits[tables.seg_blocks[b]] += int(state.seg_cnt[b])
        for key in np.nonzero(state.fused_cnt)[0].tolist():
            visits[tables.fb_blocks[key]] += (
                tables.fb_counts[key] * int(state.fused_cnt[key])
            )
        uid = tables.uid
        summary = ExecutionSummary(
            instructions=instr,
            branches=branches,
            taken_branches=taken,
            calls=calls,
            steps=steps,
            stop_reason=_STOP[stop],
            block_visits={
                uid[j]: count
                for j, count in enumerate(visits.tolist())
                if count
            },
        )
        log = state.log[:nev]
        return TraceData(
            uids=tables.block_buid[log >> 1],
            taken=(log & 1).astype(bool),
            summary=summary,
        )


__all__ = [
    "BatchRun",
    "BatchTables",
    "BatchedExecutor",
    "batch_tables_for",
    "pick_kernel",
    "prob_matrix",
    "record_row",
    "row_behavior",
    "stable_fnv_for",
]
