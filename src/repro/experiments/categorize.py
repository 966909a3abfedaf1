"""Figure 9: categorization of hot-spot branch behavior across phases.

"First, the branches were separated into two groups, those whose
static branch appears in only a single phase (Unique) and those whose
static branch appears in multiple phases (Multi) ...  The unique
branches were then divided into biased and unbiased types ...  Multi
branches that show a bias ... that vary between phases (> 70%) are
categorized as Multi High, those with more moderate swings, between
(40%) and (70%), are Multi Low, while all other biased branches are
Multi Same.  Any Multi branches that never show a bias are categorized
as Multi No Bias."

Each static branch is weighted by its dynamic execution count, so the
categories report *fractions of dynamic branches* like the paper's
stacked bars; branches never captured in any hot spot are reported as
"Not in hot spot".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.listeners import HSDListener
from repro.hsd.detector import HotSpotDetector
from repro.hsd.records import HotSpotRecord
from repro.program.image import ProgramImage
from repro.workloads.base import Workload
from repro.workloads.suite import SUITE, BenchmarkInput, load_benchmark

from .parallel import parallel_map
from .report import format_percent, format_table

CATEGORIES = [
    "unique_biased",
    "unique_unbiased",
    "multi_high",
    "multi_low",
    "multi_same",
    "multi_no_bias",
    "not_in_hot_spot",
]

#: Taken-fraction boundary for calling a branch biased (70/30).
BIAS_THRESHOLD = 0.7
#: Swing boundaries between Multi High / Low / Same.
HIGH_SWING = 0.7
LOW_SWING = 0.4


def categorize_branch(fractions: Sequence[float]) -> str:
    """Category of one static branch from its per-phase taken fractions."""
    if not fractions:
        return "not_in_hot_spot"

    def biased(fraction: float) -> bool:
        return fraction >= BIAS_THRESHOLD or fraction <= 1.0 - BIAS_THRESHOLD

    if len(fractions) == 1:
        return "unique_biased" if biased(fractions[0]) else "unique_unbiased"
    if not any(biased(f) for f in fractions):
        return "multi_no_bias"
    swing = max(fractions) - min(fractions)
    if swing > HIGH_SWING:
        return "multi_high"
    if swing >= LOW_SWING:
        return "multi_low"
    return "multi_same"


@dataclass
class CategorizationRow:
    """Figure 9 stack for one benchmark input (fractions of dynamic
    branch executions)."""

    benchmark: str
    input_name: str
    fractions: Dict[str, float]

    @property
    def name(self) -> str:
        return f"{self.benchmark} {self.input_name}"


@dataclass
class CategorizationReport:
    rows: List[CategorizationRow] = field(default_factory=list)

    def averages(self) -> Dict[str, float]:
        if not self.rows:
            return {c: 0.0 for c in CATEGORIES}
        return {
            c: sum(r.fractions[c] for r in self.rows) / len(self.rows)
            for c in CATEGORIES
        }

    def render(self) -> str:
        headers = ["benchmark"] + CATEGORIES
        table_rows = [
            [r.name] + [format_percent(r.fractions[c]) for c in CATEGORIES]
            for r in self.rows
        ]
        avg = self.averages()
        table_rows.append(["average"] + [format_percent(avg[c]) for c in CATEGORIES])
        return format_table(
            headers,
            table_rows,
            title="Figure 9: categorization of hot spot branch behavior",
        )


class _ExecutionCounter:
    """Branch hook counting dynamic executions per static branch."""

    def __init__(self) -> None:
        self.counts: Dict[int, int] = {}

    def __call__(self, branch_uid: int, _taken: bool, _phase: int) -> None:
        self.counts[branch_uid] = self.counts.get(branch_uid, 0) + 1


def categorize_workload(workload: Workload) -> CategorizationRow:
    """Profile one workload and bucket its dynamic branches."""
    image = ProgramImage(workload.program)
    listener = HSDListener(
        HotSpotDetector(), dict(image.instruction_address)
    )
    counter = _ExecutionCounter()
    workload.run(branch_hooks=[listener, counter])

    # Collect per-branch taken fractions across the unique phases.
    address_of: Dict[int, int] = {}
    for uid in counter.counts:
        address_of[uid] = image.instruction_address[uid]
    by_address: Dict[int, List[float]] = {}
    for record in listener.unique_records:
        for address, profile in record.branches.items():
            by_address.setdefault(address, []).append(profile.taken_fraction)

    weights = {c: 0 for c in CATEGORIES}
    total = 0
    for uid, count in counter.counts.items():
        fractions = by_address.get(address_of[uid], [])
        weights[categorize_branch(fractions)] += count
        total += count

    entry = workload.meta.get("entry")
    fractions = {
        c: (weights[c] / total if total else 0.0) for c in CATEGORIES
    }
    return CategorizationRow(
        benchmark=entry.benchmark if entry else workload.name,
        input_name=entry.input_name if entry else "",
        fractions=fractions,
    )


def _measure_entry(
    args: Tuple[BenchmarkInput, Optional[float]]
) -> CategorizationRow:
    entry, scale = args
    workload = load_benchmark(entry.benchmark, entry.input_name, scale)
    return categorize_workload(workload)


def run_figure9(
    entries: Optional[Sequence[BenchmarkInput]] = None,
    scale: Optional[float] = None,
    verbose: bool = False,
    jobs: Optional[int] = None,
) -> CategorizationReport:
    """Regenerate Figure 9 over the (sub)suite."""
    report = CategorizationReport()
    work = [(entry, scale) for entry in entries or SUITE]
    report.rows = parallel_map(_measure_entry, work, jobs=jobs)
    if verbose:
        for row in report.rows:
            print(
                f"  {row.name:18s} "
                + " ".join(
                    f"{c}={format_percent(row.fractions[c])}" for c in CATEGORIES
                ),
                flush=True,
            )
    return report
