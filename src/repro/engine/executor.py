"""Block-granularity behavioral executor.

This is the engine that "runs" workload programs for profiling,
coverage measurement, and timing.  It walks the program one basic block
at a time; straight-line instructions are counted in bulk and only
control transfers are interpreted:

* conditional branches consult the :class:`~repro.engine.behavior.BehaviorModel`
  under the current phase of the :class:`~repro.engine.phases.PhaseScript`;
* calls and returns maintain a continuation stack of block references;
* cross-function (``fn::label``) targets — patched launch points and
  package side exits/links — transfer directly, and exit blocks that
  leave partially-inlined code push their recorded return
  continuations first (see :class:`repro.program.block.BasicBlock`).

Because copied package instructions resolve behaviour through their
``origin`` uid, the conditional-branch outcome stream of a packed
program is bit-identical to the original program's, which is what makes
the paper's coverage (Fig. 8) and speedup (Fig. 10) comparisons sound.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import Opcode
from repro.program.cfg import is_cross_function, split_cross_function
from repro.program.program import Program

from .behavior import BehaviorModel
from .phases import PhaseScript

# Block-terminator kinds, as small ints for the hot loop.
_FALL, _BRANCH, _JUMP, _CALL, _RET, _HALT = range(6)

#: Public aliases for consumers of BlockInfo.kind (e.g. the timing model).
KIND_FALL, KIND_BRANCH, KIND_JUMP, KIND_CALL, KIND_RET, KIND_HALT = (
    _FALL,
    _BRANCH,
    _JUMP,
    _CALL,
    _RET,
    _HALT,
)

#: Branch-event hook: ``hook(branch_origin_uid, taken, phase)``.
BranchHook = Callable[[int, bool, int], None]
#: Block-event hook: ``hook(block_info)``.
BlockHook = Callable[["BlockInfo"], None]


class StopReason(Enum):
    HALTED = "halted"
    BRANCH_LIMIT = "branch_limit"
    INSTRUCTION_LIMIT = "instruction_limit"
    STACK_UNDERFLOW = "stack_underflow"
    STEP_LIMIT = "step_limit"


@dataclass
class ExecutionLimits:
    """Run budgets; the first one reached stops execution."""

    max_branches: Optional[int] = None
    max_instructions: Optional[int] = None
    max_steps: int = 500_000_000


class BlockInfo:
    """Pre-resolved execution record for one basic block."""

    __slots__ = (
        "function",
        "label",
        "uid",
        "size",
        "kind",
        "branch_uid",
        "target",
        "fall",
        "continuations",
        "block",
    )

    def __init__(self, function: str, block) -> None:
        self.function = function
        self.label = block.label
        self.uid = block.uid
        self.size = block.size()
        self.block = block
        self.kind = _FALL
        self.branch_uid = 0
        self.target: Optional["BlockInfo"] = None
        self.fall: Optional["BlockInfo"] = None
        self.continuations: Tuple["BlockInfo", ...] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<BlockInfo {self.function}/{self.label}>"


@dataclass
class ExecutionSummary:
    """Aggregate results of one run."""

    instructions: int = 0
    branches: int = 0
    taken_branches: int = 0
    calls: int = 0
    steps: int = 0
    stop_reason: StopReason = StopReason.HALTED
    block_visits: Dict[int, int] = field(default_factory=dict)

    @property
    def taken_fraction(self) -> float:
        return self.taken_branches / self.branches if self.branches else 0.0


class ExecutorError(Exception):
    """Raised when a program cannot be prepared for execution."""


def _lookup_target(
    infos: Dict[Tuple[str, str], BlockInfo], function: str, target: str
) -> BlockInfo:
    if is_cross_function(target):
        remote_fn, remote_label = split_cross_function(target)
        key = (remote_fn, remote_label)
    else:
        key = (function, target)
    try:
        return infos[key]
    except KeyError:
        raise ExecutorError(f"unresolved control target {key}") from None


def _resolve_info(
    infos: Dict[Tuple[str, str], BlockInfo],
    program: Program,
    info: BlockInfo,
    function: str,
    block,
    next_info: Optional[BlockInfo],
) -> None:
    # Continuations are stored as (function, label) pairs.
    if block.continuations:
        info.continuations = tuple(
            infos[(fn, label)] for fn, label in block.continuations
        )
    term = block.terminator
    if term is None:
        if next_info is None:
            raise ExecutorError(
                f"{function}/{block.label} falls off the end of the function"
            )
        info.kind = _FALL
        info.fall = next_info
    elif term.is_conditional_branch:
        if next_info is None:
            raise ExecutorError(
                f"{function}/{block.label} may fall off the function end"
            )
        info.kind = _BRANCH
        info.branch_uid = term.root_origin()
        info.target = _lookup_target(infos, function, term.target)
        info.fall = next_info
        if block.meta.get("branch_inverted"):
            # The layout pass physically inverted this branch; the
            # behavior model still speaks in original-taken terms,
            # so swap the successors here.
            info.target, info.fall = info.fall, info.target
    elif term.opcode is Opcode.JUMP:
        info.kind = _JUMP
        info.target = _lookup_target(infos, function, term.target)
    elif term.is_call:
        if next_info is None:
            raise ExecutorError(
                f"{function}/{block.label}: call at function end"
            )
        info.kind = _CALL
        if is_cross_function(term.target):
            # Patched launch point: call directly into a package block.
            info.target = _lookup_target(infos, function, term.target)
        else:
            callee = program.functions.get(term.target)
            if callee is None:
                raise ExecutorError(
                    f"{function}/{block.label}: call to unknown {term.target!r}"
                )
            info.target = infos[(callee.name, callee.entry_label)]
        info.fall = next_info
    elif term.is_return:
        info.kind = _RET
    elif term.opcode is Opcode.HALT:
        info.kind = _HALT
    else:  # pragma: no cover - defensive
        raise ExecutorError(f"unhandled terminator {term.render()!r}")


def build_block_infos(program: Program) -> Dict[Tuple[str, str], BlockInfo]:
    """Build the resolved :class:`BlockInfo` graph for a program.

    Shared by the reference :class:`BlockExecutor` and the compiled
    engine (:mod:`repro.engine.compiled`), so both execute the exact
    same successor resolution (branch inversion, continuations, calls).
    """
    infos: Dict[Tuple[str, str], BlockInfo] = {}
    # First pass: create one BlockInfo per block.
    for function in program.functions.values():
        for block in function.blocks:
            infos[(function.name, block.label)] = BlockInfo(
                function.name, block
            )
    # Second pass: resolve successors.
    for function in program.functions.values():
        blocks = function.blocks
        for i, block in enumerate(blocks):
            info = infos[(function.name, block.label)]
            next_info = (
                infos[(function.name, blocks[i + 1].label)]
                if i + 1 < len(blocks)
                else None
            )
            _resolve_info(infos, program, info, function.name, block, next_info)
    return infos


class BlockExecutor:
    """Executes a program against a behavior model and phase script."""

    def __init__(
        self,
        program: Program,
        behavior: BehaviorModel,
        phase_script: PhaseScript,
        branch_hooks: Sequence[BranchHook] = (),
        block_hook: Optional[BlockHook] = None,
        limits: Optional[ExecutionLimits] = None,
    ):
        self.program = program
        self.behavior = behavior
        self.phase_script = phase_script
        self.branch_hooks = list(branch_hooks)
        self.block_hook = block_hook
        self.limits = limits or ExecutionLimits()
        self._infos: Dict[Tuple[str, str], BlockInfo] = build_block_infos(
            program
        )

    # -- execution ---------------------------------------------------------
    def run(self, start: Optional[Tuple[str, str]] = None) -> ExecutionSummary:
        """Run from ``start`` (default: program entry) until a limit/halt."""
        entry_function = self.program.functions[self.program.entry]
        if start is None:
            start = (entry_function.name, entry_function.entry_label)
        info: Optional[BlockInfo] = self._infos[start]

        summary = ExecutionSummary()
        visits: Dict[int, int] = defaultdict(int)
        stack: List[BlockInfo] = []
        cursor = self.phase_script.cursor()
        cursor_advance = cursor.advance
        occurrences: Dict[int, int] = defaultdict(int)
        behavior_taken = self.behavior.taken
        # Hook dispatch is skipped entirely when nothing is registered;
        # the common single-hook case avoids the loop as well.
        hooks = tuple(self.branch_hooks) or None
        single_hook = hooks[0] if hooks is not None and len(hooks) == 1 else None
        block_hook = self.block_hook
        max_branches = self.limits.max_branches
        max_instructions = self.limits.max_instructions
        max_steps = self.limits.max_steps

        instructions = 0
        branches = 0
        taken_total = 0
        calls = 0
        steps = 0

        while True:
            steps += 1
            if steps > max_steps:
                summary.stop_reason = StopReason.STEP_LIMIT
                break
            visits[info.uid] += 1
            instructions += info.size
            if block_hook is not None:
                block_hook(info)
            if max_instructions is not None and instructions >= max_instructions:
                summary.stop_reason = StopReason.INSTRUCTION_LIMIT
                break
            kind = info.kind
            if kind == _BRANCH:
                if max_branches is not None and branches >= max_branches:
                    summary.stop_reason = StopReason.BRANCH_LIMIT
                    break
                buid = info.branch_uid
                occ = occurrences[buid]
                occurrences[buid] = occ + 1
                phase = cursor_advance()
                taken = behavior_taken(buid, occ, phase)
                branches += 1
                if taken:
                    taken_total += 1
                if single_hook is not None:
                    single_hook(buid, taken, phase)
                elif hooks is not None:
                    for hook in hooks:
                        hook(buid, taken, phase)
                next_info = info.target if taken else info.fall
                if taken and info.continuations:
                    stack.extend(info.continuations)
                info = next_info
            elif kind == _FALL:
                info = info.fall
            elif kind == _JUMP:
                if info.continuations:
                    stack.extend(info.continuations)
                info = info.target
            elif kind == _CALL:
                calls += 1
                stack.append(info.fall)
                info = info.target
            elif kind == _RET:
                if not stack:
                    summary.stop_reason = StopReason.STACK_UNDERFLOW
                    break
                info = stack.pop()
            else:  # _HALT
                summary.stop_reason = StopReason.HALTED
                break

        summary.instructions = instructions
        summary.branches = branches
        summary.taken_branches = taken_total
        summary.calls = calls
        summary.steps = steps
        summary.block_visits = dict(visits)
        return summary
