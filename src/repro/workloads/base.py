"""Workload bundles: a program plus everything needed to run it.

A :class:`Workload` carries the program, its behavioral branch model,
the ground-truth phase script, and the run budget.  The Vacuum Packing
pipeline and all experiments consume workloads; the suite in
:mod:`repro.workloads.suite` produces one per Table 1 benchmark input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.engine.behavior import BehaviorModel
from repro.engine.compiled import CompiledExecutor
from repro.engine.executor import (
    BlockExecutor,
    ExecutionLimits,
    ExecutionSummary,
)
from repro.engine.phases import PhaseScript
from repro.program.program import Program


@dataclass
class Workload:
    """A runnable benchmark: program + behavior + phases + budget."""

    name: str
    program: Program
    behavior: BehaviorModel
    phase_script: PhaseScript
    limits: ExecutionLimits
    #: Free-form description (e.g. the Table 1 input name).
    description: str = ""
    meta: dict = field(default_factory=dict)

    def executor(
        self,
        program: Optional[Program] = None,
        branch_hooks=(),
        block_hook=None,
    ) -> BlockExecutor:
        """An executor for this workload (optionally over a packed
        variant of the program — the phase script and behavior carry
        over unchanged because both are keyed by origin uids and
        branch counts)."""
        return BlockExecutor(
            program or self.program,
            self.behavior,
            self.phase_script,
            branch_hooks=branch_hooks,
            block_hook=block_hook,
            limits=self.limits,
        )

    def run(self, program: Optional[Program] = None, **kwargs) -> ExecutionSummary:
        """Run to the budget; equivalent under either engine.

        Uses the compiled trace engine unless a ``block_hook`` is
        requested: block-level callbacks need the reference interpreter
        (:meth:`executor`, also the compiled engine's test oracle).
        The timing model requests one only on its fallback path; its
        usual path replays the cached trace through a C walk
        (:mod:`repro.cpu.timing`).
        """
        if kwargs.get("block_hook") is None:
            kwargs.pop("block_hook", None)
            return CompiledExecutor(
                program or self.program,
                self.behavior,
                self.phase_script,
                limits=self.limits,
                **kwargs,
            ).run()
        return self.executor(program, **kwargs).run()
