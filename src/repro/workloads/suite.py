"""The benchmark suite modeled on the paper's Table 1.

Twelve benchmarks, nineteen benchmark-input pairs.  Each spec shapes
the synthetic generator (:mod:`repro.workloads.synthetic`) to evoke the
real benchmark's control-flow character — interpreter dispatch loops
with recursion for *130.li*, pipeline stages for *132.ijpeg*, a
loader-then-simulate structure for *124.m88ksim*, frame-type phases for
*mpeg2dec*, and so on.  Dynamic sizes follow Table 1 scaled by ~1/1000
(see DESIGN.md, "Substitutions"); the ``scale`` argument rescales all
budgets, subject to the per-phase floor the Hot Spot Detector needs.

The per-benchmark shape notes below cite the paper's own observations
(section 5): *124.m88ksim* has "two phases for loading a binary, each
with the same launch point"; *134.perl*'s "command execution loop may
serve as the root function for different packages"; *130.li* "exhibits
an interesting characteristic where a few weakly executed callers call
an important callee".
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from .base import Workload
from .synthetic import SyntheticSpec, build_workload

#: Approximate dynamic instructions per retired conditional branch in
#: generated code; used to turn Table 1 instruction counts into branch
#: budgets.
_INSTRUCTIONS_PER_BRANCH = 5


@dataclass(frozen=True)
class BenchmarkInput:
    """One row of Table 1: a benchmark plus one input."""

    benchmark: str
    input_name: str
    input_description: str
    #: Table 1 dynamic instruction count (millions, unscaled).
    paper_minsts: int
    spec: SyntheticSpec

    @property
    def key(self) -> Tuple[str, str]:
        return (self.benchmark, self.input_name)

    @property
    def full_name(self) -> str:
        return f"{self.benchmark}/{self.input_name}"


def _spec(name: str, seed: int, minsts: int, **kwargs) -> SyntheticSpec:
    """Build a spec with a branch budget scaled from Table 1."""
    budget = int(minsts * 1_000_000 / 1000 / _INSTRUCTIONS_PER_BRANCH)
    defaults = dict(branch_budget=budget)
    defaults.update(kwargs)
    return SyntheticSpec(name=name, seed=seed, **defaults)


def _build_suite() -> List[BenchmarkInput]:
    entries: List[BenchmarkInput] = []

    def add(benchmark, input_name, description, minsts, spec):
        entries.append(
            BenchmarkInput(benchmark, input_name, description, minsts, spec)
        )

    # 099.go — game AI: a wide, branchy evaluation with overlapping
    # phases and comparatively weak bias; Table 3's largest expansion.
    add("099.go", "A", "SPEC Train", 338, _spec(
        "099.go-A", seed=9901, minsts=338,
        phases=3, phase_pattern="return", work_functions=12,
        functions_per_phase=5, shared_fraction=0.6, shared_root=True,
        diamonds_per_function=4, swing_fraction=0.15, low_swing_fraction=0.18,
        cold_functions=70, cold_blocks_per_function=12,
    ))

    # 124.m88ksim — CPU simulator: loader phases sharing a launch point
    # followed by the simulate loop; linking is decisive (section 5.1).
    add("124.m88ksim", "A", "SPEC Train", 89, _spec(
        "124.m88ksim-A", seed=8801, minsts=89,
        phases=3, work_functions=7, functions_per_phase=2,
        shared_fraction=0.5, shared_root=True,
        cold_functions=130, cold_blocks_per_function=14,
        swing_fraction=0.18,
    ))

    # 130.li — lisp interpreter: shared eval loop, recursion, and the
    # weak-caller/important-callee structure the paper highlights.
    li = dict(
        phases=3, work_functions=8, functions_per_phase=3,
        shared_fraction=0.7, shared_root=True, recursion=True,
        cold_functions=90, cold_blocks_per_function=13,
    )
    add("130.li", "A", "SPEC Train", 122, _spec("130.li-A", 1301, 122, **li))
    add("130.li", "B", "6 Queens", 32, _spec("130.li-B", 1302, 32, **li))
    add("130.li", "C", "Reduced Ref", 362, _spec("130.li-C", 1303, 362, **li))

    # 132.ijpeg — image compression: sequential pipeline stages, each a
    # distinct root; little cross-phase sharing.
    ijpeg = dict(
        phases=4, work_functions=8, functions_per_phase=2,
        shared_fraction=0.25, shared_root=False,
        diamonds_per_function=3, block_size=6,
        cold_functions=110, cold_blocks_per_function=14,
    )
    add("132.ijpeg", "A", "SPEC Train", 1094, _spec("132.ijpeg-A", 1321, 1094, **ijpeg))
    add("132.ijpeg", "B", "Custom Faces", 57, _spec("132.ijpeg-B", 1322, 57, **ijpeg))
    add("132.ijpeg", "C", "Custom Scenery", 320, _spec("132.ijpeg-C", 1323, 320, **ijpeg))

    # 134.perl — interpreter: one command loop dispatching phase-specific
    # handlers; Table 3's smallest footprint (huge cold interpreter body).
    # Distinct command mixes keep the phases distinguishable to the
    # 30%/bias-flip similarity filter (handlers differ per phase and a
    # few shared branches swing hard).
    perl = dict(
        phases=3, work_functions=9, functions_per_phase=3,
        shared_fraction=0.34, shared_root=True,
        diamonds_per_function=4,
        cold_functions=200, cold_blocks_per_function=15,
        swing_fraction=0.25,
    )
    add("134.perl", "A", "SPEC Train 1", 1512, _spec("134.perl-A", 1341, 1512, **perl))
    add("134.perl", "B", "SPEC Train 2", 28, _spec("134.perl-B", 1342, 28, **perl))
    add("134.perl", "C", "SPEC Train 3", 8, _spec("134.perl-C", 1343, 8, **perl))

    # 164.gzip — compress/decompress alternation.
    add("164.gzip", "A", "SPEC Train", 1902, _spec(
        "164.gzip-A", 1641, 1902,
        phases=2, phase_pattern="repeat", work_functions=5,
        functions_per_phase=2, shared_fraction=0.4, shared_root=False,
        block_size=6, cold_functions=90, cold_blocks_per_function=13,
    ))

    # 175.vpr — place then route: two long phases; the paper notes
    # inference helps noticeably here.
    add("175.vpr", "A", "SPEC Test", 1012, _spec(
        "175.vpr-A", 1751, 1012,
        phases=2, work_functions=7, functions_per_phase=3,
        shared_fraction=0.3, shared_root=False,
        diamonds_per_function=4, cold_functions=100,
    ))

    # 181.mcf — network simplex: two phases over shared pricing code;
    # large coverage gain from linking (section 5.1).
    add("181.mcf", "A", "SPEC Test", 105, _spec(
        "181.mcf-A", 1811, 105,
        phases=2, phase_pattern="repeat", work_functions=5,
        functions_per_phase=2, shared_fraction=0.75, shared_root=True,
        swing_fraction=0.35, diamonds_per_function=4, cold_functions=60,
    ))

    # 197.parser — recursive-descent parsing: shared root, recursion,
    # strong linking gains (sections 5.1, 5.4).
    add("197.parser", "A", "UMN_sm_red", 178, _spec(
        "197.parser-A", 1971, 178,
        phases=3, phase_pattern="return", work_functions=8,
        functions_per_phase=3, shared_fraction=0.7, shared_root=True,
        recursion=True, swing_fraction=0.18,
        cold_functions=140, cold_blocks_per_function=14,
    ))

    # 255.vortex — OO database: transaction-type phases over a shared
    # dispatch core.
    vortex = dict(
        phases=3, work_functions=9, functions_per_phase=3,
        shared_fraction=0.6, shared_root=True,
        cold_functions=150, cold_blocks_per_function=15,
    )
    add("255.vortex", "A", "UMN_sm_red", 63, _spec("255.vortex-A", 2551, 63, **vortex))
    add("255.vortex", "B", "UMN_md_red", 315, _spec("255.vortex-B", 2552, 315, **vortex))

    # 300.twolf — placement/annealing: two phases; inference and linking
    # both matter (section 5.1).
    add("300.twolf", "A", "UMN_sm_red", 167, _spec(
        "300.twolf-A", 3001, 167,
        phases=2, phase_pattern="repeat", work_functions=6,
        functions_per_phase=2, shared_fraction=0.7, shared_root=True,
        swing_fraction=0.2, cold_functions=80,
    ))

    # mpeg2dec — video decode: I/P/B frame types repeating.
    add("mpeg2dec", "A", "Media Train", 99, _spec(
        "mpeg2dec-A", 7001, 99,
        phases=3, phase_pattern="repeat", work_functions=6,
        functions_per_phase=2, shared_fraction=0.5, shared_root=False,
        block_size=7, cold_functions=70,
    ))

    return entries


#: All Table 1 benchmark-input pairs, in paper order.
SUITE: List[BenchmarkInput] = _build_suite()

_BY_KEY: Dict[Tuple[str, str], BenchmarkInput] = {e.key: e for e in SUITE}


def benchmark_names() -> List[str]:
    """Distinct benchmark names, in Table 1 order."""
    seen: List[str] = []
    for entry in SUITE:
        if entry.benchmark not in seen:
            seen.append(entry.benchmark)
    return seen


def suite_entries() -> List[BenchmarkInput]:
    return list(SUITE)


def default_scale() -> float:
    """Experiment scale factor (``REPRO_SCALE`` env var, default 1.0).

    1.0 corresponds to ~1/1000 of Table 1's dynamic sizes, the largest
    scale that keeps the full 19-input matrix tractable in Python.
    """
    return float(os.environ.get("REPRO_SCALE", "1.0"))


def load_benchmark(
    benchmark: str, input_name: str = "A", scale: Optional[float] = None
) -> Workload:
    """Build the workload for one Table 1 benchmark input.

    ``scale`` multiplies the dynamic branch budget (phase lengths keep
    the detector-imposed floor).  The returned workload's ``meta``
    carries the suite entry for reporting.
    """
    key = (benchmark, input_name)
    entry = _BY_KEY.get(key)
    if entry is None:
        known = ", ".join(sorted(f"{b}/{i}" for b, i in _BY_KEY))
        raise KeyError(f"unknown benchmark input {benchmark}/{input_name}; "
                       f"known: {known}")
    scale = default_scale() if scale is None else scale
    spec = entry.spec
    if scale != 1.0:
        spec = replace(spec, branch_budget=max(int(spec.branch_budget * scale), 1))
    workload = build_workload(spec)
    workload.meta["entry"] = entry
    return workload
