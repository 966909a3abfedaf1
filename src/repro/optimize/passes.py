"""Optimization pass pipeline for packages (paper section 5.4).

``optimize_packages`` applies the paper's "additional code layout and
scheduling passes": per package, cold-code sinking, hot-path layout
(with branch inversion and jump elimination), then superblock-aware
scheduling to produce the per-block cycle costs the timing model
charges.  Original-code blocks are costed with independent per-block
schedules — the paper's baseline binaries were already scheduled by the
IMPACT compiler at block scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.packages.package import Package
from repro.program.program import Program
from repro.regions.region import HotRegion

from .layout import LayoutResult, layout_package
from .machine import MachineDescription, TABLE2_MACHINE
from .sink import sink_cold_instructions
from .superblock import per_block_costs, superblock_costs


@dataclass
class PackageOptimizationReport:
    """What the pass pipeline did to one package."""

    package: str
    layout: Optional[LayoutResult] = None
    instructions_sunk: int = 0
    classic: Optional["ClassicReport"] = None


@dataclass
class OptimizationSummary:
    reports: List[PackageOptimizationReport] = field(default_factory=list)


def region_taken_probabilities(regions: Iterable[HotRegion]) -> Dict[int, float]:
    """Branch origin uid -> recorded taken probability, across regions.

    Later regions win on conflicts; the probabilities only steer layout
    heuristics, so any consistent choice is acceptable.
    """
    probs: Dict[int, float] = {}
    for region in regions:
        for name in region.function_names():
            marking = region.marking.marking(name)
            cfg = marking.function.cfg
            for label, prob in marking.taken_prob.items():
                term = cfg.by_label[label].terminator
                if term is not None and term.is_conditional_branch:
                    probs[term.root_origin()] = prob
    return probs


def optimize_package(
    package: Package,
    taken_prob: Optional[Dict[int, float]] = None,
    enable_sink: bool = True,
    enable_layout: bool = True,
    enable_classic: bool = False,
) -> PackageOptimizationReport:
    """Run the pass pipeline on one package, in place."""
    from .classic import run_classic_passes

    from .reorder import reorder_package

    report = PackageOptimizationReport(package=package.name)
    if enable_classic:
        report.classic = run_classic_passes(package)
    if enable_sink:
        report.instructions_sunk = sink_cold_instructions(package)
    if enable_layout:
        report.layout = layout_package(package, taken_prob)
        # Realize the schedules physically so an in-order front end
        # (and the pipeline validator) sees the compacted order.
        reorder_package(package)
    return report


def optimize_packages(
    packages: Sequence[Package],
    regions: Iterable[HotRegion] = (),
    enable_sink: bool = True,
    enable_layout: bool = True,
    enable_classic: bool = False,
) -> OptimizationSummary:
    """Optimize every package; returns the aggregate report."""
    taken_prob = region_taken_probabilities(regions)
    summary = OptimizationSummary()
    for package in packages:
        summary.reports.append(
            optimize_package(
                package, taken_prob, enable_sink, enable_layout, enable_classic
            )
        )
    return summary


def packed_block_costs(
    program: Program,
    package_names: Iterable[str],
    machine: MachineDescription = TABLE2_MACHINE,
    superblocks: bool = True,
) -> Dict[int, int]:
    """Cycle cost of every block of a packed program.

    All code — original and packages — is costed with the same
    superblock-aware scheduler (the paper's baselines were already
    scheduled by the IMPACT compiler at comparable scope).  Packages
    still win where their *structure* is better: partial inlining
    removes call-site scheduling barriers, layout extends fallthrough
    chains, and cold-path elimination compacts them.
    """
    costs: Dict[int, int] = {}
    for function in program.functions.values():
        if superblocks:
            costs.update(
                superblock_costs(function.blocks, function.entry_label, machine)
            )
        else:
            costs.update(per_block_costs(function.blocks, machine))
    return costs


def baseline_block_costs(
    program: Program, machine: MachineDescription = TABLE2_MACHINE
) -> Dict[int, int]:
    """Schedule costs for an unpacked program (same scheduler as the
    packed side, so timing differences come from structure alone)."""
    costs: Dict[int, int] = {}
    for function in program.functions.values():
        costs.update(
            superblock_costs(function.blocks, function.entry_label, machine)
        )
    return costs
