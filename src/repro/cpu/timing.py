"""Block-granularity timing model of the Table 2 EPIC machine.

The paper measures speedup with "a custom software emulator that
performs cycle-by-cycle full-pipeline simulation"; simulating every
instruction through a ten-stage pipeline is infeasible in Python at
the experiment scale, so this model charges (see DESIGN.md,
"Substitutions"):

* each block's *statically scheduled* cycle count (independent
  per-block schedules for original code, superblock-aware incremental
  costs for packages — computed by :mod:`repro.optimize.passes`);
* a 1-cycle fetch bubble per taken control transfer (this is what the
  layout pass's fallthrough chaining wins back);
* the 7-cycle branch resolution penalty per gshare direction
  mispredict, BTB-miss redirects on taken branches, and RAS-mismatch
  penalties on returns;
* I-cache / L2 fetch-miss latencies per cache line of each block.

Both binaries run under identical structures, so the measured speedup
isolates the effects of packaging, layout, and rescheduling.

Every :meth:`TimingSimulator.run` starts cold.  It replays the
workload's cached branch trace through the C ``timing_walk`` of
:mod:`repro.engine.native`, which steps blocks like the reference
interpreter and applies :meth:`TimingSimulator._on_block` and
:meth:`TimingSimulator._on_branch` inline.  Those two hooks, driven by
the reference interpreter, remain the model's definition and the
walk's test oracle; they run whenever the walk cannot (see
:meth:`TimingSimulator.run`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.engine.compiled import compile_program
from repro.engine.executor import (
    KIND_BRANCH,
    KIND_CALL,
    KIND_JUMP,
    KIND_RET,
    BlockInfo,
    ExecutionSummary,
)
from repro.engine.native import TimingCounts, native_kernel
from repro.engine.trace_cache import image_for, traced_run
from repro.obs import inc
from repro.optimize.machine import MachineDescription, TABLE2_MACHINE
from repro.program.program import Program
from repro.workloads.base import Workload

from .branch_pred import (
    BranchTargetBuffer,
    GsharePredictor,
    PredictorStats,
    ReturnAddressStack,
)
from .caches import CacheStats, FetchHierarchy, MemoryHierarchyConfig

_BTB_REDIRECT_PENALTY = 2
#: Table 2's branch structures: gshare history bits, BTB entries and
#: ways, RAS depth.
_HISTORY_BITS = 10
_BTB_ENTRIES, _BTB_WAYS = 1024, 4
_RAS_DEPTH = 32


@dataclass
class TimingResult:
    """Cycle count and component statistics for one run."""

    cycles: int
    instructions: int
    branches: int
    mispredict_cycles: int
    fetch_bubble_cycles: int
    icache_stall_cycles: int
    btb_redirect_cycles: int
    ras_penalty_cycles: int
    summary: ExecutionSummary
    predictor_accuracy: float
    icache_miss_rate: float

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def _timing_result(
    counts,
    summary: ExecutionSummary,
    predictor: PredictorStats,
    l1i: CacheStats,
) -> TimingResult:
    """``counts`` carries the six cycle tallies under the names the
    hooks use: the simulator after a hook-driven run, or the walk's
    :class:`~repro.engine.native.TimingCounts`."""
    return TimingResult(
        cycles=counts.cycles
        + counts.mispredict_cycles
        + counts.fetch_bubbles
        + counts.icache_stalls
        + counts.btb_redirects
        + counts.ras_penalties,
        instructions=summary.instructions,
        branches=summary.branches,
        mispredict_cycles=counts.mispredict_cycles,
        fetch_bubble_cycles=counts.fetch_bubbles,
        icache_stall_cycles=counts.icache_stalls,
        btb_redirect_cycles=counts.btb_redirects,
        ras_penalty_cycles=counts.ras_penalties,
        summary=summary,
        predictor_accuracy=predictor.accuracy,
        icache_miss_rate=l1i.miss_rate,
    )


class TimingSimulator:
    """Runs a workload over one program and accumulates cycles."""

    def __init__(
        self,
        program: Program,
        block_costs: Dict[int, int],
        machine: MachineDescription = TABLE2_MACHINE,
        hierarchy: Optional[MemoryHierarchyConfig] = None,
    ):
        self.program = program
        self.machine = machine
        self.hierarchy_config = hierarchy or MemoryHierarchyConfig()
        image = image_for(program)

        # Per block uid: (cost, address, bytes, inverted-branch flag).
        self._static: Dict[int, Tuple[int, int, int, bool]] = {}
        for function in program.functions.values():
            for block in function.blocks:
                address = image.block_address[(function.name, block.label)]
                size_bytes = block.size() * 8
                self._static[block.uid] = (
                    block_costs.get(block.uid, 0),
                    address,
                    size_bytes,
                    bool(block.meta.get("branch_inverted")),
                )

    def _reset(self) -> None:
        """Cold structures and zeroed counters for a hook-driven run."""
        self.hierarchy = FetchHierarchy(self.hierarchy_config)
        self.predictor = GsharePredictor(_HISTORY_BITS)
        self.btb = BranchTargetBuffer(_BTB_ENTRIES, _BTB_WAYS)
        self.ras = ReturnAddressStack(_RAS_DEPTH)
        self.cycles = 0
        self.mispredict_cycles = 0
        self.fetch_bubbles = 0
        self.icache_stalls = 0
        self.btb_redirects = 0
        self.ras_penalties = 0
        self._pending_branch: Optional[Tuple[int, bool]] = None
        self._return_pending = False
        self._return_predicted: Optional[int] = None

    # -- hooks ----------------------------------------------------------
    def _on_block(self, info: BlockInfo) -> None:
        cost, address, size_bytes, inverted = self._static[info.uid]

        if self._return_pending:
            if self._return_predicted != address:
                self.ras_penalties += self.machine.branch_resolution
            self._return_pending = False
            self._return_predicted = None

        self.cycles += cost
        stall = self.hierarchy.fetch_penalty(address, size_bytes)
        self.icache_stalls += stall

        kind = info.kind
        if kind == KIND_BRANCH:  # resolved by the branch hook
            branch_address = address + max(size_bytes - 8, 0)
            self._pending_branch = (branch_address, inverted)
        elif kind == KIND_JUMP:
            self.fetch_bubbles += self.machine.taken_bubble
            if not self.btb.lookup_and_update(address + max(size_bytes - 8, 0)):
                self.btb_redirects += _BTB_REDIRECT_PENALTY
        elif kind == KIND_CALL:
            self.fetch_bubbles += self.machine.taken_bubble
            self.ras.push(address + size_bytes)
        elif kind == KIND_RET:
            self.fetch_bubbles += self.machine.taken_bubble
            self._return_pending = True
            self._return_predicted = self.ras.pop()

    def _on_branch(self, _uid: int, taken: bool, _phase: int) -> None:
        pending = self._pending_branch
        self._pending_branch = None
        if pending is None:
            return
        branch_address, inverted = pending
        physical_taken = taken != inverted
        correct = self.predictor.predict_and_update(branch_address, physical_taken)
        if not correct:
            self.mispredict_cycles += self.machine.branch_resolution
        elif physical_taken:
            self.fetch_bubbles += self.machine.taken_bubble
            if not self.btb.lookup_and_update(branch_address):
                self.btb_redirects += _BTB_REDIRECT_PENALTY

    # -- driving ---------------------------------------------------------
    def run(self, workload: Workload) -> TimingResult:
        """Time one run of ``workload`` over this program, from cold.

        Takes the native walk whenever the kernel loads.  The
        hook-driven model runs instead under ``REPRO_NATIVE=off``,
        without a C compiler, and when the walk bails: the program
        leaves the recorded branch stream (a mis-patched binary), or
        its stack outgrows the kernel's cap.  Both give the same result.
        """
        walk = self._walk(workload)
        if walk is not None:
            inc("cpu.timing.runs", path="native")
            return _timing_result(
                walk,
                walk.summary,
                PredictorStats(walk.predictions, walk.mispredictions),
                CacheStats(walk.l1i_accesses, walk.l1i_misses),
            )
        inc("cpu.timing.runs", path="reference")
        self._reset()
        summary = workload.run(
            program=self.program,
            block_hook=self._on_block,
            branch_hooks=[self._on_branch],
        )
        return _timing_result(
            self, summary, self.predictor.stats, self.hierarchy.l1i.stats
        )

    def _walk(self, workload: Workload) -> Optional[TimingCounts]:
        """The workload's recorded branch stream replayed through
        ``timing_walk``; ``None`` when the kernel is unavailable or
        bails."""
        kernel = native_kernel()
        if kernel is None:
            return None
        return kernel.timing_walk(
            compile_program(self.program),
            self._static,
            traced_run(workload),
            workload.limits,
            self.machine,
            self.hierarchy_config,
            history_bits=_HISTORY_BITS,
            btb_entries=_BTB_ENTRIES,
            btb_ways=_BTB_WAYS,
            ras_depth=_RAS_DEPTH,
            btb_redirect=_BTB_REDIRECT_PENALTY,
        )
