"""The :class:`HotRegion` result object.

One physical region is identified per program phase (hot-spot record);
package construction (:mod:`repro.packages`) consumes the region's hot
subgraph and its call-graph slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Set, Tuple

from repro.analysis.weights import WeightEstimate, estimate_weights
from repro.hsd.records import HotSpotRecord
from repro.program.callgraph import CallGraph, CallSite
from repro.program.program import Program

from .config import RegionConfig
from .temperature import RegionMarking, Temp


@dataclass
class HotSubgraph:
    """The selected pieces of one function: hot blocks + included arcs."""

    function_name: str
    blocks: List[str]
    arcs: List[Tuple[str, str]]

    def __contains__(self, label: str) -> bool:
        return label in set(self.blocks)


class HotRegion:
    """An identified hot region for one detected phase."""

    def __init__(
        self,
        program: Program,
        record: HotSpotRecord,
        marking: RegionMarking,
        config: RegionConfig,
    ):
        self.program = program
        self.record = record
        self.marking = marking
        self.config = config

    # -- structure ----------------------------------------------------
    def function_names(self) -> List[str]:
        """Functions contributing at least one hot block."""
        return sorted(self.marking.hot_functions())

    def subgraph(self, function_name: str) -> HotSubgraph:
        """Hot blocks and included (Hot) arcs of one function.

        Only arcs whose two endpoints are hot are included; Hot arcs
        into excluded blocks cannot exist after inference, but Cold and
        Unknown arcs between hot blocks are exits / excluded paths.
        """
        fn_marking = self.marking.marking(function_name)
        cfg = fn_marking.function.cfg
        hot = {l for l in fn_marking.hot_blocks()}
        # Keep layout order for determinism.
        blocks = [b.label for b in cfg.blocks if b.label in hot]
        arcs = [
            arc.key
            for arc in cfg.arcs
            if fn_marking.arc(arc.key) is Temp.HOT
            and arc.src in hot
            and arc.dst in hot
        ]
        return HotSubgraph(function_name, blocks, arcs)

    def call_graph(self) -> CallGraph:
        """Call sites whose calling block is hot, between region functions."""
        names = set(self.function_names())
        graph = CallGraph()
        for name in sorted(names):
            graph.add_function(name)
        for name in sorted(names):
            fn_marking = self.marking.marking(name)
            hot = set(fn_marking.hot_blocks())
            for block in fn_marking.function.blocks:
                term = block.terminator
                if (
                    term is not None
                    and term.is_call
                    and block.label in hot
                    and term.target in names
                ):
                    graph.add_site(
                        CallSite(name, term.target, block.label, term.uid)
                    )
        return graph

    # -- statistics ---------------------------------------------------------
    def hot_instruction_count(self) -> int:
        return self.marking.hot_instruction_count()

    def hot_block_count(self) -> int:
        return self.marking.hot_block_count()

    def estimate_weights(self, function_name: str) -> WeightEstimate:
        """Profile weights for a whole function from record probabilities.

        Implements the weight calculation of section 5.4 (method of
        [4]): the recorded taken probabilities drive the flow
        equations; unrecorded branches default to 50/50.
        """
        fn_marking = self.marking.marking(function_name)
        return estimate_weights(fn_marking.function.cfg, fn_marking.taken_prob)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"<HotRegion record #{self.record.index}: "
            f"{self.hot_block_count()} blocks across "
            f"{len(self.function_names())} functions>"
        )


def selected_origins(regions: Iterable["HotRegion"]) -> Set[int]:
    """Original-binary instruction uids selected into ≥ 1 region.

    The one shared implementation of Table 3's "static instructions
    selected" set: :meth:`PackResult.expansion_row
    <repro.postlink.vacuum.PackResult.expansion_row>` and the fleet
    service's shard payloads both count from here (a regression test
    asserts they agree).  Pseudo instructions never count; replicated
    copies collapse onto the instruction they were cloned from via
    :meth:`~repro.isa.instructions.Instruction.root_origin`.
    """
    selected: Set[int] = set()
    for region in regions:
        for name in region.function_names():
            function = region.program.function(name)
            for label in region.subgraph(name).blocks:
                for inst in function.cfg.by_label[label].instructions:
                    if not inst.is_pseudo:
                        selected.add(inst.root_origin())
    return selected
