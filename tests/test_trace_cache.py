"""Content-addressed trace cache: hits, invalidation-by-key, robustness."""

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.engine.compiled import CompiledExecutor
from repro.engine.executor import ExecutionLimits, StopReason
from repro.engine.native import _STACK_CAP
from repro.engine.trace_cache import (
    _FORMAT_VERSION,
    TraceCache,
    record_trace,
    trace_key,
    traced_run,
)
from repro.obs.metrics import MetricsRegistry, series_name, swap_registry
from repro.workloads.suite import SUITE, load_benchmark
from repro.workloads.synthetic import MIN_PHASE_BRANCHES, SyntheticSpec, build_workload
from tests.test_cpu import recursive_workload


def small_spec(**overrides):
    defaults = dict(
        name="t.cache",
        seed=21,
        phases=2,
        work_functions=3,
        functions_per_phase=2,
        cold_functions=2,
        cold_blocks_per_function=3,
        branch_budget=2 * MIN_PHASE_BRANCHES,
    )
    defaults.update(overrides)
    return SyntheticSpec(**defaults)


@pytest.fixture()
def workload():
    return build_workload(small_spec())


def key_of(workload):
    return trace_key(
        workload.program,
        workload.behavior,
        workload.phase_script,
        workload.limits,
    )


def traces_equal(a, b):
    return (
        np.array_equal(a.uids, b.uids)
        and np.array_equal(a.taken, b.taken)
        and a.summary.block_visits == b.summary.block_visits
        and a.summary.stop_reason == b.summary.stop_reason
        and a.summary.instructions == b.summary.instructions
    )


class TestHit:
    def test_second_run_is_served_from_cache(self, workload, tmp_path):
        cache = TraceCache(root=str(tmp_path))
        first = traced_run(workload, cache=cache)
        assert cache.stats.puts == 1
        second = traced_run(workload, cache=cache)
        assert cache.stats.hits == 1
        assert traces_equal(first, second)

    def test_disk_entry_survives_new_cache_instance(self, workload, tmp_path):
        first = traced_run(workload, cache=TraceCache(root=str(tmp_path)))
        fresh = TraceCache(root=str(tmp_path))
        second = traced_run(workload, cache=fresh)
        assert fresh.stats.hits == 1
        assert fresh.stats.puts == 0
        assert traces_equal(first, second)


class TestRebuild:
    """Keys are in image coordinates: a workload rebuilt in the same
    process (new process-global uids) addresses the same entry."""

    def test_rebuilt_workload_hits_the_same_entry(self, tmp_path):
        cache = TraceCache(root=str(tmp_path))
        first = build_workload(small_spec())
        traced_run(first, cache=cache)
        rebuilt = build_workload(small_spec())
        assert set(rebuilt.behavior._stable_id).isdisjoint(
            first.behavior._stable_id
        )
        trace = traced_run(rebuilt, cache=cache)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.puts) == (1, 1, 1)
        assert len(list(tmp_path.glob("*.npz"))) == 1
        computed = CompiledExecutor(
            rebuilt.program,
            rebuilt.behavior,
            rebuilt.phase_script,
            limits=rebuilt.limits,
        ).run_traced()
        assert traces_equal(trace, computed)

    def test_bias_change_on_one_branch_still_misses(self, tmp_path):
        cache = TraceCache(root=str(tmp_path))
        traced_run(build_workload(small_spec()), cache=cache)
        rebuilt = build_workload(small_spec())
        uid = next(iter(rebuilt.program.branch_block_index()))
        rebuilt.behavior.set_bias(uid, 0.123)
        traced_run(rebuilt, cache=cache)
        assert (cache.stats.hits, cache.stats.puts) == (0, 2)
        assert len(list(tmp_path.glob("*.npz"))) == 2


def recorded_alike(trace, oracle):
    """Equal branch uids, outcomes (dtypes included) and summaries."""
    return (
        trace.uids.dtype == oracle.uids.dtype
        and trace.taken.dtype == oracle.taken.dtype
        and np.array_equal(trace.uids, oracle.uids)
        and np.array_equal(trace.taken, oracle.taken)
        and trace.summary == oracle.summary
    )


class TestRecorder:
    """``record_trace`` — the cache's miss path and the differential
    oracle's packed side — records on the native ``run_row`` kernel and
    equals :meth:`CompiledExecutor.run_traced`; every case the kernel
    cannot take records through the compiled engine instead."""

    @pytest.mark.parametrize(
        "entry", SUITE, ids=[f"{e.benchmark}/{e.input_name}" for e in SUITE]
    )
    def test_suite_input_records_like_the_compiled_engine(
        self, entry, record_paths
    ):
        workload = load_benchmark(entry.benchmark, entry.input_name)
        trace, oracle = record_paths(workload)
        assert recorded_alike(trace, oracle)

    def test_instruction_limited_run_takes_the_compiled_engine(
        self, workload, record_paths
    ):
        limited = replace(
            workload, limits=ExecutionLimits(max_instructions=20_000)
        )
        trace, oracle = record_paths(limited, expect="compiled")
        assert recorded_alike(trace, oracle)
        assert trace.summary.stop_reason is StopReason.INSTRUCTION_LIMIT

    def test_recursion_past_the_stack_cap_takes_the_compiled_engine(
        self, record_paths
    ):
        workload = recursive_workload(_STACK_CAP)
        trace, oracle = record_paths(workload, expect="compiled")
        assert recorded_alike(trace, oracle)
        assert trace.summary.calls > _STACK_CAP

    def test_recordings_stay_out_of_the_fleet_row_counters(self, workload):
        """``engine.batched.*`` counts fleet rows; a single recording on
        the same kernel adds none."""
        registry = MetricsRegistry()
        previous = swap_registry(registry)
        try:
            record_trace(workload)
        finally:
            swap_registry(previous)
        names = {series_name(key) for key in registry.snapshot()["counters"]}
        assert "engine.record.runs" in names
        assert not any(name.startswith("engine.batched.") for name in names)

    @pytest.mark.parametrize("name,value", [("REPRO_NATIVE", "off")])
    def test_switched_off_kernel_takes_the_compiled_engine(
        self, name, value, workload, record_paths, monkeypatch
    ):
        monkeypatch.setenv(name, value)
        trace, oracle = record_paths(workload, expect="compiled")
        assert recorded_alike(trace, oracle)


class TestInvalidation:
    def test_program_content_changes_key(self, workload):
        other = build_workload(small_spec(seed=22))
        assert key_of(workload) != key_of(other)

    def test_limits_change_key(self, workload):
        shorter = replace(workload, limits=replace(workload.limits, max_branches=10))
        assert key_of(workload) != key_of(shorter)

    def test_behavior_change_key(self, workload):
        uid = int(next(iter(workload.behavior._stable_id)))
        before = key_of(workload)
        workload.behavior.set_bias(uid, 0.123)
        assert key_of(workload) != before

    def test_changed_workload_reruns_instead_of_hitting(
        self, workload, tmp_path
    ):
        cache = TraceCache(root=str(tmp_path))
        traced_run(workload, cache=cache)
        shorter = replace(
            workload, limits=replace(workload.limits, max_branches=25)
        )
        trace = traced_run(shorter, cache=cache)
        assert cache.stats.hits == 0
        assert cache.stats.puts == 2
        assert trace.summary.branches == 25


class TestRobustness:
    def test_corrupt_file_is_a_miss_and_removed(self, workload, tmp_path):
        cache = TraceCache(root=str(tmp_path))
        traced_run(workload, cache=cache)
        path = cache.path_of(key_of(workload))
        with open(path, "wb") as handle:
            handle.write(b"not an npz file")
        fresh = TraceCache(root=str(tmp_path))
        trace = traced_run(workload, cache=fresh)
        assert fresh.stats.errors == 1
        assert trace.summary.branches == workload.limits.max_branches

    def test_disabled_cache_never_stores(self, workload, monkeypatch):
        cache = TraceCache(root="off")
        assert not cache.enabled
        trace = traced_run(workload, cache=cache)
        assert cache.stats.puts == 0
        assert cache.stats.hits == 0
        assert trace.summary.branches == workload.limits.max_branches

    def test_truncated_file_is_a_miss_and_removed(self, workload, tmp_path):
        cache = TraceCache(root=str(tmp_path))
        reference = traced_run(workload, cache=cache)
        path = cache.path_of(key_of(workload))
        with open(path, "rb") as handle:
            payload = handle.read()
        with open(path, "wb") as handle:
            handle.write(payload[: len(payload) // 2])
        fresh = TraceCache(root=str(tmp_path))
        trace = traced_run(workload, cache=fresh)
        assert fresh.stats.errors == 1
        assert fresh.stats.hits == 0
        assert not os.path.exists(path) or fresh.stats.puts == 1
        assert traces_equal(trace, reference)

    def test_stale_schema_version_is_a_miss(self, workload, tmp_path):
        cache = TraceCache(root=str(tmp_path))
        reference = traced_run(workload, cache=cache)
        key = key_of(workload)
        path = cache.path_of(key)
        # Rewrite the entry claiming an older schema version.
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in payload.files}
        arrays["stamp"] = np.asarray([key, f"v{_FORMAT_VERSION - 1}"])
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        fresh = TraceCache(root=str(tmp_path))
        trace = traced_run(workload, cache=fresh)
        assert fresh.stats.errors == 1
        assert fresh.stats.hits == 0
        assert traces_equal(trace, reference)

    def test_pre_stamp_entry_is_a_miss(self, workload, tmp_path):
        cache = TraceCache(root=str(tmp_path))
        traced_run(workload, cache=cache)
        path = cache.path_of(key_of(workload))
        with np.load(path, allow_pickle=False) as payload:
            arrays = {name: payload[name] for name in payload.files}
        del arrays["stamp"]
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        fresh = TraceCache(root=str(tmp_path))
        assert fresh.get(key_of(workload), workload.program) is None
        assert fresh.stats.errors == 1

    def test_hash_mismatch_entry_is_a_miss(self, workload, tmp_path):
        """An entry whose embedded key disagrees with its file name
        (misnamed copy, tampering) must never be trusted."""
        cache = TraceCache(root=str(tmp_path))
        traced_run(workload, cache=cache)
        source = cache.path_of(key_of(workload))
        other = build_workload(small_spec(seed=22))
        other_key = key_of(other)
        with open(source, "rb") as src, open(
            cache.path_of(other_key), "wb"
        ) as dst:
            dst.write(src.read())
        fresh = TraceCache(root=str(tmp_path))
        trace = traced_run(other, cache=fresh)
        assert fresh.stats.errors == 1
        assert fresh.stats.hits == 0
        # The recomputed trace belongs to `other`, not to the workload
        # whose bytes were copied over its slot.
        assert trace.summary.branches == other.limits.max_branches
        assert not np.array_equal(
            trace.uids,
            traced_run(workload, cache=TraceCache(root="off")).uids,
        )
