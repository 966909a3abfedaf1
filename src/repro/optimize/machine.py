"""EPIC machine description (paper Table 2).

An 8-issue machine with five functional-unit classes: 5 integer ALUs,
3 floating-point units (long-latency FP operations share them), 3
memory units, and 3 branch units.  The list scheduler and the timing
model both consume this description, so the same machine constrains
static schedules and dynamic cycle counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.isa.instructions import FuClass, Instruction, Opcode

#: Default operation latencies (cycles until dependents may issue).
DEFAULT_LATENCIES: Dict[str, int] = {
    "ialu": 1,
    "imul": 3,
    "load": 3,
    "store": 1,
    "fpu": 3,
    "long_fp": 12,
    "branch": 1,
}


@dataclass(frozen=True)
class MachineDescription:
    """Issue width, functional-unit counts, and latencies."""

    issue_width: int = 8
    ialu_units: int = 5
    fpu_units: int = 3
    mem_units: int = 3
    branch_units: int = 3
    branch_resolution: int = 7  # mispredict penalty, cycles
    taken_bubble: int = 1      # fetch redirect on any taken transfer
    latencies: Dict[str, int] = field(default_factory=lambda: dict(DEFAULT_LATENCIES))

    # -- resource accounting ------------------------------------------
    def unit_class(self, inst: Instruction) -> str:
        """Which unit pool an instruction occupies."""
        fu = inst.fu_class
        if fu is FuClass.IALU:
            return "ialu"
        if fu in (FuClass.FPU, FuClass.LONG_FP):
            return "fpu"  # long-latency FP shares the FP units
        if fu is FuClass.MEM:
            return "mem"
        if fu is FuClass.BRANCH:
            return "branch"
        return "none"  # pseudo instructions occupy nothing

    def latency(self, inst: Instruction) -> int:
        """Result latency of an instruction."""
        if inst.is_pseudo:
            return 0
        op = inst.opcode
        if op in (Opcode.MUL, Opcode.MULI):
            return self.latencies["imul"]
        if inst.is_load:
            return self.latencies["load"]
        if inst.is_store:
            return self.latencies["store"]
        fu = inst.fu_class
        if fu is FuClass.FPU:
            return self.latencies["fpu"]
        if fu is FuClass.LONG_FP:
            return self.latencies["long_fp"]
        if fu is FuClass.BRANCH:
            return self.latencies["branch"]
        return self.latencies["ialu"]


#: The evaluation machine of the paper (Table 2).
TABLE2_MACHINE = MachineDescription()
