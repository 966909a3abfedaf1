"""The ``offline_pack`` workload: the paper's single-binary path.

A seeded draw picks one input of each Table-1 benchmark in
:data:`STRATA` — the four benchmarks that ship with several inputs —
at default scale, and builds each workload during set-up.  The stream
then runs, per input, ``repro.pack`` from an empty per-run trace cache
(so coverage replays the profiled trace exactly as ``repro pack``
does) followed by the Figure-10 timing model on the original and the
packed binary.  The engine, HSD, pipeline and ``repro.cpu`` layers do
all the work; no daemon layer runs.

Why these strata: the seed varies the *input* of each benchmark while
the program mix stays fixed, so two seeds draw the same amount of
packing and timing work and comparable packing quality.  Within each
stratum the inputs agree on pack cost, Figure-10 cost and Table-3 code
growth to within a few percent at default scale (2-core measurement);
134.perl/A and 132.ijpeg/A are left out because their timing runs cost
two to three times their siblings', and 130.li/A because its coverage
(0.80) sits far below its siblings' (1.00).
"""

from __future__ import annotations

import os
import random
import time
from statistics import geometric_mean
from typing import List, Tuple

import repro
from repro.api import PipelineConfig
from repro.workloads.suite import load_benchmark

from harness import (
    Context,
    Outcome,
    check_pack,
    evaluate,
    phase,
    reset_vmhwm,
    set_up,
    vmhwm_mb,
)

#: Timed packs per input (fresh copies); ``pack_s`` sums their medians.
PACK_REPEATS = 3

STRATA: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("130.li", ("B", "C")),
    ("132.ijpeg", ("B", "C")),
    ("134.perl", ("B", "C")),
    ("255.vortex", ("A", "B")),
)


def draw(seed: int) -> List[Tuple[str, str]]:
    """The seed's four (benchmark, input) pairs, one per stratum."""
    rng = random.Random(f"offline_pack:{seed}")
    return [(bench, rng.choice(inputs)) for bench, inputs in STRATA]


def run_offline_pack(ctx: Context, trace_out: str = None) -> Outcome:
    inputs = draw(ctx.seed)
    copies, setup_s = set_up(ctx, lambda attempt, last: [
        [load_benchmark(bench, name) for _ in range(PACK_REPEATS)]
        for bench, name in inputs
    ])

    config = PipelineConfig()
    evaluations = []
    reset_vmhwm()
    with phase("bench.stream"):
        started = time.perf_counter()
        for (bench, name), builds in zip(inputs, copies):
            label = f"{bench}/{name}"
            with phase("bench.input", input=label):
                evaluations.append(evaluate(
                    ctx, label, builds,
                    lambda workload: repro.pack(workload, config),
                    timings=1,
                ))
        stream_s = time.perf_counter() - started
    rss_mb = vmhwm_mb(os.getpid())
    with phase("bench.check"):
        for evaluation in evaluations:
            check_pack(ctx, evaluation, differential=True)

    pack_s = sum(e.pack_s for e in evaluations)
    figure10_s = sum(e.figure10_s for e in evaluations)
    metrics = {
        "setup_s": setup_s,
        "stream_s": stream_s,
        "peak_rss_mb": rss_mb,
        "pack_s": pack_s,
        "figure10_s": figure10_s,
        "coverage": sum(e.coverage for e in evaluations) / len(evaluations),
        "speedup": geometric_mean([e.speedup for e in evaluations]),
        "code_growth_pct": (
            sum(e.code_growth_pct for e in evaluations) / len(evaluations)
        ),
    }
    details = {"inputs": (len(evaluations), "count")}
    for evaluation in evaluations:
        details[f"{evaluation.name} pack_s"] = (evaluation.pack_s, "s")
        details[f"{evaluation.name} figure10_s"] = (
            evaluation.figure10_s, "s"
        )
        details[f"{evaluation.name} coverage"] = (
            evaluation.coverage, "fraction"
        )
        details[f"{evaluation.name} speedup"] = (evaluation.speedup, "x")
        details[f"{evaluation.name} code_growth_pct"] = (
            evaluation.code_growth_pct, "%"
        )
    return Outcome(metrics=metrics, details=details)
