"""Superblock formation and superblock-aware block costs.

The paper notes that package formation increases scheduling scope:
"the elimination of cold paths may increase block scope by eliminating
side entrances" (section 5.4).  After layout, maximal fallthrough
chains without side entrances are scheduled as single units; each
member block is then attributed the *incremental* cycles it adds to
the chain, so the dynamic timing walk charges exactly the joint
schedule regardless of which side exit ends the traversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.program.block import BasicBlock
from repro.program.cfg import ControlFlowGraph

from .machine import MachineDescription, TABLE2_MACHINE
from .schedule import schedule_sequence


@dataclass
class Superblock:
    """One single-entry, multiple-exit straight-line chain."""

    labels: List[str]
    #: incremental cycle cost per member block, same order as labels
    member_cycles: List[int] = field(default_factory=list)


def form_superblocks(blocks: Sequence[BasicBlock], entry_label: str) -> List[Superblock]:
    """Partition a laid-out block list into superblocks.

    A block starts a new superblock when it is an explicit control
    target (any taken arc lands on it), has more than one predecessor,
    or follows a block that cannot fall through (jump/return/halt) or
    that ends in a call (calls bound scheduling regions).
    """
    cfg = ControlFlowGraph(blocks, entry_label)
    taken_targets = {arc.dst for arc in cfg.arcs if arc.kind.value == "taken"}

    superblocks: List[Superblock] = []
    current: List[str] = []
    for i, block in enumerate(blocks):
        label = block.label
        preds = cfg.pred_labels(label)
        starts_new = (
            not current
            or label in taken_targets
            or len(preds) != 1
            or i == 0
        )
        if not starts_new:
            previous = blocks[i - 1]
            prev_term = previous.terminator
            reaches_by_fall = (
                prev_term is None or prev_term.is_conditional_branch
            )
            starts_new = not reaches_by_fall or preds[0] != previous.label
        if starts_new and current:
            superblocks.append(Superblock(current))
            current = []
        current.append(label)
    if current:
        superblocks.append(Superblock(current))
    return superblocks


def superblock_costs(
    blocks: Sequence[BasicBlock],
    entry_label: str,
    machine: MachineDescription = TABLE2_MACHINE,
) -> Dict[int, int]:
    """Per-block incremental cycle costs under joint scheduling.

    Returns ``{block uid: cycles}``; the sum over a superblock's
    members equals the chain's joint schedule length, and any prefix
    (ending at a side exit) is charged only its own cumulative cycles.
    """
    by_label = {block.label: block for block in blocks}
    costs: Dict[int, int] = {}
    for superblock in form_superblocks(blocks, entry_label):
        members = [by_label[label] for label in superblock.labels]
        instructions = []
        boundaries = []
        for block in members:
            instructions.extend(block.instructions)
            boundaries.append(len(instructions))
        if not instructions:
            for block in members:
                costs[block.uid] = 0
                superblock.member_cycles.append(0)
            continue
        schedule = schedule_sequence(instructions, machine)
        previous_cum = 0
        start = 0
        running_max = -1
        for block, boundary in zip(members, boundaries):
            for index in range(start, boundary):
                running_max = max(running_max, schedule.issue_cycle.get(index, 0))
            start = boundary
            cum = running_max + 1 if running_max >= 0 else 0
            cost = cum - previous_cum
            previous_cum = cum
            costs[block.uid] = max(cost, 0)
            superblock.member_cycles.append(max(cost, 0))
    return costs


def per_block_costs(
    blocks: Sequence[BasicBlock],
    machine: MachineDescription = TABLE2_MACHINE,
) -> Dict[int, int]:
    """Baseline: each block scheduled independently (no superblocks)."""
    costs = {}
    for block in blocks:
        real = [inst for inst in block.instructions if not inst.is_pseudo]
        if not real:
            costs[block.uid] = 0
        else:
            costs[block.uid] = schedule_sequence(block.instructions, machine).length
    return costs
