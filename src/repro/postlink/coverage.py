"""Execution-coverage measurement (paper section 5.1, Figure 8).

"Our emulator tabulated the number of dynamic instructions executed in
the packages and in original code and computed the percentage spent in
the packages."

The packed program's conditional-branch stream is identical to the
original run's (copies resolve behaviour through origin uids), so the
coverage run replays the original run's recorded stream over the
packed program — through the C ``timing_walk`` of
:mod:`repro.engine.native` with its timing model off — and classifies
dynamic instructions by the block they came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.engine.compiled import (
    ReplayDivergence,
    compile_program,
    run_workload,
)
from repro.engine.executor import ExecutionSummary
from repro.engine.native import native_kernel
from repro.engine.trace_cache import traced_run
from repro.obs import inc
from repro.program.program import Program
from repro.workloads.base import Workload

from .rewriter import PackedProgram


@dataclass
class CoverageResult:
    """Dynamic instruction split between packages and original code."""

    package_instructions: int
    original_instructions: int
    branches: int
    launch_entries: int

    @property
    def total_instructions(self) -> int:
        return self.package_instructions + self.original_instructions

    @property
    def package_fraction(self) -> float:
        total = self.total_instructions
        return self.package_instructions / total if total else 0.0

    def to_dict(self) -> Dict:
        return {
            "package_fraction": self.package_fraction,
            "package_instructions": self.package_instructions,
            "original_instructions": self.original_instructions,
            "branches": self.branches,
            "launch_entries": self.launch_entries,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"<CoverageResult {self.package_fraction:.1%} of "
            f"{self.total_instructions} instructions in packages>"
        )


def classify_summary(
    packed: PackedProgram, summary: ExecutionSummary
) -> CoverageResult:
    """Split a finished run's dynamic instructions by code section."""
    package_uids = packed.package_block_uids()
    sizes: Dict[int, int] = {}
    launch_uids = set()
    for function in packed.program.functions.values():
        for block in function.blocks:
            sizes[block.uid] = block.size()
            if block.meta.get("launch_trampoline"):
                launch_uids.add(block.uid)

    package_count = 0
    original_count = 0
    launch_entries = 0
    for uid, visits in summary.block_visits.items():
        weight = visits * sizes[uid]
        if uid in package_uids:
            package_count += weight
        else:
            original_count += weight
        if uid in launch_uids:
            launch_entries += visits
    return CoverageResult(
        package_instructions=package_count,
        original_instructions=original_count,
        branches=summary.branches,
        launch_entries=launch_entries,
    )


def project_coverage(
    workload: Workload,
    selected_uids: Iterable[int],
    summary: Optional[ExecutionSummary] = None,
) -> CoverageResult:
    """Project a selected-instruction set onto an *original-program* run.

    :func:`measure_coverage` executes the packed binary, which is only
    semantically faithful under the behaviour stream it was profiled
    from (outcomes are occurrence-indexed).  When the question is "how
    well would the shipped packages cover *today's* behaviour?" — the
    drift controller's question — the honest measurement runs the
    original program under the current behaviour and classifies each
    dynamic instruction by whether its uid was selected into a package.
    This is exactly the paper's section 5.1 tabulation, computed from
    the profile side instead of the rewritten binary.

    ``selected_uids`` is an instruction-origin uid set (e.g.
    :func:`repro.regions.region.selected_origins` over a pack's
    regions).  Pass ``summary`` to classify an existing run instead of
    re-executing.  ``launch_entries`` is 0: no packed binary runs here.
    """
    selected: Set[int] = set(selected_uids)
    sizes: Dict[int, int] = {}
    chosen: Dict[int, int] = {}
    for function in workload.program.functions.values():
        for block in function.blocks:
            sizes[block.uid] = block.size()
            chosen[block.uid] = sum(
                1 for inst in block.instructions if inst.uid in selected
            )
    if summary is None:
        summary = workload.run()
    package_count = 0
    original_count = 0
    for uid, visits in summary.block_visits.items():
        inside = chosen.get(uid, 0)
        package_count += visits * inside
        original_count += visits * (sizes.get(uid, 0) - inside)
    return CoverageResult(
        package_instructions=package_count,
        original_instructions=original_count,
        branches=summary.branches,
        launch_entries=0,
    )


def measure_coverage(workload: Workload, packed: PackedProgram) -> CoverageResult:
    """Run the workload over the packed program and classify it.

    The packed run *replays* the original program's cached branch
    stream (identical by construction — copies resolve behaviour
    through origin uids) with per-event uid verification, skipping
    outcome computation entirely: through the native walk when the
    kernel loads, else (and when the walk bails) through the compiled
    engine.  A :class:`ReplayDivergence` — a genuinely mis-rewritten
    program — falls back to a computed run so the divergence surfaces
    through the normal coverage/differential numbers rather than an
    engine error.  Counter
    ``postlink.coverage.runs{path=native|compiled|computed}``.
    """
    summary, path = _packed_run(workload, packed.program)
    inc("postlink.coverage.runs", path=path)
    return classify_summary(packed, summary)


def _packed_run(
    workload: Workload, program: Program
) -> Tuple[ExecutionSummary, str]:
    trace = traced_run(workload)
    kernel = native_kernel()
    if kernel is not None:
        summary = kernel.replay(
            compile_program(program), trace, workload.limits
        )
        if summary is not None:
            return summary, "native"
    try:
        return run_workload(workload, program=program, replay=trace), "compiled"
    except ReplayDivergence:
        return workload.run(program=program), "computed"
