"""Temperature lattice and region markings (paper section 3.2.1).

"Each block and arc in the CFG is augmented with *weight* and
*temperature* fields, along with an additional *taken probability*
field for each block ending in a branch.  ...  After this
initialization, blocks can have a temperature that is either Hot or
Unknown, while the temperature of CFG arcs can be Hot, Cold, or
Unknown."

A :class:`RegionMarking` holds those fields for every function touched
by one hot-spot record; it is the mutable working state shared by
seeding, inference, and growth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.program.function import Function
from repro.program.program import Program


class Temp(Enum):
    """Block / arc temperature."""

    UNKNOWN = "unknown"
    HOT = "hot"
    COLD = "cold"


ArcKey = Tuple[str, str]


@dataclass
class FunctionMarking:
    """Temperatures and weights over one function's CFG."""

    function: Function
    block_temp: Dict[str, Temp] = field(default_factory=dict)
    arc_temp: Dict[ArcKey, Temp] = field(default_factory=dict)
    block_weight: Dict[str, float] = field(default_factory=dict)
    arc_weight: Dict[ArcKey, float] = field(default_factory=dict)
    taken_prob: Dict[str, float] = field(default_factory=dict)
    #: Labels of blocks whose terminator branch appeared in the HSD
    #: record (as opposed to being inferred hot later).
    seeded_blocks: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        cfg = self.function.cfg
        for block in cfg.blocks:
            self.block_temp.setdefault(block.label, Temp.UNKNOWN)
        for arc in cfg.arcs:
            self.arc_temp.setdefault(arc.key, Temp.UNKNOWN)

    # -- mutation ------------------------------------------------------
    def set_block(self, label: str, temp: Temp) -> bool:
        """Set a block temperature; returns True if it changed."""
        if self.block_temp.get(label) is temp:
            return False
        self.block_temp[label] = temp
        return True

    def set_arc(self, key: ArcKey, temp: Temp) -> bool:
        if self.arc_temp.get(key) is temp:
            return False
        self.arc_temp[key] = temp
        return True

    # -- queries -----------------------------------------------------------
    def hot_blocks(self) -> List[str]:
        return [l for l, t in self.block_temp.items() if t is Temp.HOT]

    def cold_blocks(self) -> List[str]:
        return [l for l, t in self.block_temp.items() if t is Temp.COLD]

    def block(self, label: str) -> Temp:
        return self.block_temp[label]

    def arc(self, key: ArcKey) -> Temp:
        return self.arc_temp[key]

    def in_arcs(self, label: str):
        return self.function.cfg.predecessors(label)

    def out_arcs(self, label: str):
        return self.function.cfg.successors(label)


class RegionMarking:
    """Markings for all functions involved in one hot-spot's region."""

    def __init__(self, program: Program):
        self.program = program
        self.functions: Dict[str, FunctionMarking] = {}

    def marking(self, function_name: str) -> FunctionMarking:
        """The marking for a function, created on first touch.

        Region identification naturally pulls new functions in (e.g.
        Statement 9 of the inference algorithm heats a callee's
        prologue), so markings are created lazily.
        """
        existing = self.functions.get(function_name)
        if existing is not None:
            return existing
        function = self.program.function(function_name)
        created = FunctionMarking(function)
        self.functions[function_name] = created
        return created

    def __contains__(self, function_name: str) -> bool:
        return function_name in self.functions

    def __iter__(self) -> Iterator[FunctionMarking]:
        return iter(list(self.functions.values()))

    # -- aggregate queries --------------------------------------------------
    def hot_block_count(self) -> int:
        return sum(len(m.hot_blocks()) for m in self.functions.values())

    def hot_instruction_count(self) -> int:
        total = 0
        for marking in self.functions.values():
            by_label = marking.function.cfg.by_label
            total += sum(by_label[l].size() for l in marking.hot_blocks())
        return total

    def hot_functions(self) -> List[str]:
        return [
            name
            for name, marking in self.functions.items()
            if marking.hot_blocks()
        ]

    def temperature_of(self, function_name: str, label: str) -> Temp:
        marking = self.functions.get(function_name)
        if marking is None:
            return Temp.UNKNOWN
        return marking.block_temp.get(label, Temp.UNKNOWN)
