"""Batched engine: bit-identity with sequential compiled runs.

The contract (see :mod:`repro.engine.batched`) is that a batch of N
client rows — divergent behavior seeds over one binary — produces the
same :class:`ExecutionSummary` fields and the same
``(branch_uid, taken, phase)`` event stream as N sequential
:class:`CompiledExecutor` runs, for both kernels (``scalar``,
``native``) and through the fleet simulation layer (byte-identical
profile documents).
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batched import BatchedExecutor, row_behavior
from repro.engine.compiled import CompiledExecutor
from repro.engine.native import native_kernel
from repro.fuzz import load_case
from repro.obs.metrics import MetricsRegistry, series_name, swap_registry
from repro.postlink.vacuum import VacuumPacker
from repro.service.aggregate import ingest_dir, merge_runs
from repro.service.artifacts import ArtifactStore
from repro.service.clients import simulate_fleet
from repro.service.farm import FarmConfig, pack_fleet
from repro.workloads.suite import load_benchmark
from repro.workloads.synthetic import (
    MIN_PHASE_BRANCHES,
    SyntheticSpec,
    build_workload,
)

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))

KERNELS = ("scalar", "native")

SUITE_INPUTS = (
    ("181.mcf", "A"),
    ("134.perl", "C"),
    ("130.li", "B"),
    ("099.go", "A"),
)


def summary_tuple(summary):
    return (
        summary.instructions,
        summary.branches,
        summary.taken_branches,
        summary.calls,
        summary.steps,
        summary.stop_reason,
        tuple(sorted(summary.block_visits.items())),
    )


def sequential_traces(workload, seeds, limits=None):
    limits = limits or workload.limits
    traces = []
    for seed in seeds:
        executor = CompiledExecutor(
            workload.program,
            row_behavior(workload.behavior, seed),
            workload.phase_script,
            limits=limits,
        )
        traces.append(executor.run_traced())
    return traces


def assert_batch_matches(workload, seeds, limits=None):
    limits = limits or workload.limits
    expected = sequential_traces(workload, seeds, limits)
    run = BatchedExecutor(
        workload.program,
        workload.behavior,
        workload.phase_script,
        seeds=seeds,
        limits=limits,
    ).run_traced()
    assert len(run.traces) == len(seeds)
    for row, (exp, got) in enumerate(zip(expected, run.traces)):
        assert summary_tuple(exp.summary) == summary_tuple(got.summary), (
            f"row {row} summary diverged under kernel {run.kernel}"
        )
        assert np.array_equal(exp.uids, got.uids), f"row {row} uids"
        assert np.array_equal(exp.taken, got.taken), f"row {row} taken"
        assert np.array_equal(
            exp.phases(workload.phase_script),
            got.phases(workload.phase_script),
        ), f"row {row} phases"
    return run


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "bench,input_name", SUITE_INPUTS,
    ids=[f"{b}/{i}" for b, i in SUITE_INPUTS],
)
def test_suite_bit_identity(bench, input_name, kernel, monkeypatch):
    if kernel == "native" and native_kernel() is None:
        pytest.skip("no C compiler for the native kernel")
    if kernel == "scalar":
        monkeypatch.setenv("REPRO_NATIVE", "off")
    workload = load_benchmark(bench, input_name, scale=0.05)
    run = assert_batch_matches(workload, seeds=[3, 4, 5, 6])
    assert run.kernel == kernel


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_fuzz_corpus_bit_identity(path):
    workload = load_case(path).workload
    assert_batch_matches(workload, seeds=[1, 2, 3])


# -- hypothesis: random (N, seeds, phase script) combinations ----------

_HYPO_CACHE = {}


def _hypo_workload(phases, pattern):
    key = (phases, pattern)
    if key not in _HYPO_CACHE:
        spec = SyntheticSpec(
            name=f"t.batched.{phases}.{pattern}",
            seed=17 + phases,
            phases=phases,
            work_functions=4,
            functions_per_phase=2,
            cold_functions=2,
            cold_blocks_per_function=3,
            branch_budget=phases * MIN_PHASE_BRANCHES,
            phase_pattern=pattern,
        )
        workload = build_workload(spec)
        packed = VacuumPacker().pack(workload).packed
        _HYPO_CACHE[key] = (workload, packed)
    return _HYPO_CACHE[key]


@settings(max_examples=12, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    base_seed=st.integers(min_value=0, max_value=60),
    stride=st.integers(min_value=1, max_value=9),
    budget_scale=st.sampled_from([1.0, 1.5, 4.0]),
    phases=st.integers(min_value=2, max_value=3),
    pattern=st.sampled_from(["sequence", "repeat"]),
)
def test_random_batches_bit_identical(
    n, base_seed, stride, budget_scale, phases, pattern
):
    workload, packed = _hypo_workload(phases, pattern)
    seeds = [base_seed + stride * k for k in range(n)]
    # Budgets beyond the script's end make rows run to HALT at
    # seed-dependent event counts: the early-halt stragglers park while
    # the rest of the batch keeps retiring branches.
    limits = replace(
        workload.limits,
        max_branches=int(workload.limits.max_branches * budget_scale),
    )
    expected = sequential_traces(workload, seeds, limits)
    run = BatchedExecutor(
        workload.program,
        workload.behavior,
        workload.phase_script,
        seeds=seeds,
        limits=limits,
    ).run_traced()
    for exp, got in zip(expected, run.traces):
        assert summary_tuple(exp.summary) == summary_tuple(got.summary)
        assert np.array_equal(exp.uids, got.uids)
        assert np.array_equal(exp.taken, got.taken)
    # Replay-through-packed: every batched trace must drive the packed
    # clone of the binary without divergence (copies resolve through
    # origin uids), retiring exactly the recorded number of branches.
    for seed, trace in zip(seeds, run.traces):
        player = CompiledExecutor(
            packed.program,
            row_behavior(workload.behavior, seed),
            workload.phase_script,
            limits=limits,
        )
        replayed = player.run(replay=trace)
        assert replayed.branches == trace.summary.branches
        assert replayed.stop_reason == trace.summary.stop_reason


# -- kernel selection ---------------------------------------------------

def test_single_row_runs_native():
    """A one-client batch takes the native kernel wherever it loads and
    equals the compiled run."""
    workload, _ = _hypo_workload(2, "sequence")
    run = assert_batch_matches(workload, seeds=[5])
    native = native_kernel() is not None
    assert run.kernel == ("native" if native else "scalar")
    assert run.scalar_rows == ([] if native else [0])


# -- observability ------------------------------------------------------

def test_batched_counters_increment():
    from repro.obs import default_registry

    def total(name):
        return sum(
            value
            for key, value in default_registry().snapshot()["counters"].items()
            if series_name(key) == name
        )

    workload, _ = _hypo_workload(2, "sequence")
    before_rows = total("engine.batched.rows")
    before_retired = total("engine.batched.retired_rows")
    run = BatchedExecutor(
        workload.program,
        workload.behavior,
        workload.phase_script,
        seeds=[7, 8, 9],
        limits=workload.limits,
    ).run_traced()
    assert total("engine.batched.rows") == before_rows + 3
    assert (
        total("engine.batched.retired_rows")
        == before_retired + 3 - len(run.scalar_rows)
    )
    assert total("engine.batched.steps") > 0


#: One fleet of three clients; prints the batched rows this process ran.
_FLEET_ROWS = """
import sys
from repro.service.clients import simulate_fleet
simulate_fleet("181.mcf", "A", 3, sys.argv[1], base_seed=5, scale=0.1)
from repro.obs import default_registry
from repro.obs.metrics import series_name
counters = default_registry().snapshot()["counters"]
print(sum(v for k, v in counters.items()
          if series_name(k) == "engine.batched.rows"))
"""


def test_batched_counters_skip_trace_cache_hits(tmp_path):
    """The counters measure engine work this process did: an identical
    fleet rerun against the same warm trace cache adds no rows.  Each
    run is its own process, as two ``repro drift`` invocations are: a
    rebuild in one process renumbers the uids the trace key hashes."""
    env = dict(os.environ, REPRO_TRACE_CACHE=str(tmp_path / "traces"))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p
    )

    def rows(out):
        result = subprocess.run(
            [sys.executable, "-c", _FLEET_ROWS, str(tmp_path / out)],
            env=env, capture_output=True, text=True, check=True,
            timeout=300,
        )
        return int(result.stdout.split()[-1])

    assert rows("cold") == 3
    assert rows("warm") == 0
    assert _fleet_bytes(tmp_path / "cold") == _fleet_bytes(tmp_path / "warm")


# -- fleet layer --------------------------------------------------------

def _fleet_bytes(directory):
    return {
        os.path.basename(p): Path(p).read_bytes()
        for p in sorted(glob.glob(os.path.join(str(directory), "*.json")))
    }


def _batch_rows(call):
    """The fleet rows ``call()`` ran, from ``engine.batched.rows``."""
    registry = MetricsRegistry()
    previous = swap_registry(registry)
    try:
        call()
    finally:
        swap_registry(previous)
    return sum(
        value
        for key, value in registry.snapshot()["counters"].items()
        if series_name(key) == "engine.batched.rows"
    )


def _per_client(hook):
    """``hook`` plus an equal copy of the limits object: a step outside
    the shared-binary contract, so the fleet runs client by client."""

    def mutate(w, i):
        w.limits = replace(w.limits)
        if hook is not None:
            hook(w, i)

    return mutate


def test_fleet_documents_identical_batched_vs_sequential(
    tmp_path, monkeypatch
):
    from repro.engine.trace_cache import reset_default_cache
    from repro.service.drift import DriftSpec, apply_drift

    spec = DriftSpec(severity=0.5, warm_bias=0.4, seed=7)

    def drift(w, i):
        apply_drift(w.behavior, spec)

    # Every trace is computed, so each side's rows are its own.
    monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
    reset_default_cache()
    try:
        for hook in (None, drift):
            tag = "drift" if hook else "plain"
            docs, rows = {}, {}
            for side, mutate in (("seq", _per_client(hook)), ("bat", hook)):
                out = tmp_path / f"{side}-{tag}"
                rows[side] = _batch_rows(lambda: simulate_fleet(
                    "181.mcf", "A", 4, out, base_seed=3, scale=0.1,
                    epochs=2, mutate=mutate,
                ))
                docs[side] = _fleet_bytes(out)
            assert rows == {"seq": 0, "bat": 4}, tag
            assert docs["seq"] and docs["seq"] == docs["bat"], (
                f"{tag} fleet diverged"
            )
    finally:
        reset_default_cache()


def test_fleet_falls_back_when_mutate_rebuilds_program(tmp_path):
    def rebuild(w, i):
        # Replacing the limits object steps outside the shared-binary
        # contract; the fleet must quietly run per-client instead.
        w.limits = replace(w.limits)

    clients = simulate_fleet("181.mcf", "A", 2, tmp_path / "f", base_seed=1,
                             scale=0.05, mutate=rebuild)
    assert len(clients) == 2


def test_farm_jobs_invariant_with_batched_engine(tmp_path):
    out = tmp_path / "profiles"
    simulate_fleet("134.perl", "C", runs=4, out_dir=out, base_seed=0,
                   scale=0.2)
    merged = merge_runs(ingest_dir(out))
    config = FarmConfig(benchmark="134.perl", input_name="C", scale=0.2)
    serial = pack_fleet(merged, config, jobs=1, store=ArtifactStore("off"))
    pooled = pack_fleet(merged, config, jobs=2, store=ArtifactStore("off"))
    assert [o.payload for o in serial.outcomes] == [
        o.payload for o in pooled.outcomes
    ]
    assert [o.key for o in serial.outcomes] == [
        o.key for o in pooled.outcomes
    ]
    assert serial.degraded_shards == pooled.degraded_shards == 0
