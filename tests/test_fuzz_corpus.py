"""Regression corpus: shrunk fuzzer cases replayed through the oracles.

Every JSON file under ``tests/corpus/`` is a case the fuzz driver once
flagged as novel (plus one real find, see below), minimized, and
committed.  Each must still build deterministically, pass the full
four-oracle conformance stack, and reproduce its recorded coverage
signature — drift in any of these means a pipeline change altered
observable behavior.

``case14-seed12.json`` is the fuzzer's first real find: the
cold-sinking pass moved a dead-on-hot-path instruction into an exit
stub, legitimately retiring fewer work instructions than the original
run.  The differential oracle used to demand exact work-count equality
and failed; it now accounts for recorded sinking per origin uid.  The
dedicated test below keeps that accounting honest.

The injected-bug tests close the loop on the driver itself: a
deliberately mis-patched launch point must be caught by the oracles,
shrink to a tiny program, and stay reproducible through a JSON
round-trip.
"""

import dataclasses
import functools
import glob
import json
import os

import pytest

from repro.fuzz import (
    GenConfig,
    build_case,
    load_case,
    mispatch_launch,
    run_oracle_stack,
    save_case,
    shrink_case,
)
from repro.api import PipelineConfig
from repro.engine.native import _STACK_CAP
from repro.optimize import baseline_block_costs
from repro.optimize.passes import packed_block_costs
from repro.postlink import VacuumPacker, differential_check
from tests.test_cpu import recursive_workload
from tests.test_trace_cache import recorded_alike

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_FILES = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


@functools.lru_cache(maxsize=None)
def packed_case(path):
    """A corpus case's workload and its packed binary (built once)."""
    workload = load_case(path).workload
    packed = VacuumPacker(PipelineConfig(validate=False)).pack(workload).packed
    return workload, packed


def test_corpus_is_populated():
    assert len(CORPUS_FILES) >= 10


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_case_passes_oracle_stack(path):
    case = load_case(path)
    report = run_oracle_stack(case)
    assert report.ok, f"{os.path.basename(path)}: {report.render()}"
    with open(path) as handle:
        stored = json.load(handle).get("signature")
    if stored is not None:
        assert list(report.signature) == list(stored), (
            f"{os.path.basename(path)} signature drifted: "
            f"{stored} -> {list(report.signature)}"
        )


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_case_timing_matches_the_oracle(path, timing_paths):
    """The native timing walk equals the hook-driven model on the
    original and the packed binary of every corpus case."""
    workload, packed = packed_case(path)
    for program, costs in (
        (workload.program, baseline_block_costs(workload.program)),
        (packed.program,
         packed_block_costs(packed.program, packed.package_names)),
    ):
        walk, oracle = timing_paths(program, costs, workload)
        assert walk == oracle


@pytest.mark.parametrize(
    "path", CORPUS_FILES, ids=[os.path.basename(p) for p in CORPUS_FILES]
)
def test_corpus_case_records_and_covers_like_the_oracle(
    path, record_paths, coverage_paths
):
    """The native recorder equals the compiled engine, and the coverage
    walk the compiled replay, on every corpus case: coverage over the
    original binary (a pack without packages) and the packed one."""
    workload, packed = packed_case(path)
    trace, oracle = record_paths(workload)
    assert recorded_alike(trace, oracle)
    original = dataclasses.replace(
        packed, program=workload.program, package_names=set()
    )
    for binary in (original, packed):
        walk, replay = coverage_paths(workload, binary)
        assert walk == replay


def test_sunk_work_is_accounted_not_flagged():
    """The seed-12 regression: sinking reduces the packed run's retired
    work; the differential oracle must attribute the delta to recorded
    sunk origins instead of failing."""
    case = load_case(os.path.join(CORPUS_DIR, "case14-seed12.json"))
    result = VacuumPacker(PipelineConfig(validate=False)).pack(case.workload)
    report = differential_check(case.workload, result.packed)
    assert report.ok, report.render()
    assert report.work_sunk > 0
    assert report.work_packed == report.work_original - report.work_sunk
    assert report.work_unexplained == []


# ---------------------------------------------------------------------------
# injected rewriter bug: caught, shrunk, replayable
# ---------------------------------------------------------------------------

TINY = GenConfig(
    functions=1,
    loop_depth=1,
    call_fanout=0,
    diamonds=1,
    phases=1,
    phase_branches=50_000,
    cold_functions=0,
    irreducible_fraction=0.0,
    recursion=False,
)


@pytest.fixture(scope="module")
def shrunk_mispatch():
    case = build_case(0, TINY)
    report = run_oracle_stack(case, mutate_packed=mispatch_launch)
    assert not report.ok
    failing = tuple(report.failing())
    shrunk = shrink_case(
        case,
        failing=failing,
        mutate_packed=mispatch_launch,
        max_probes=40,
    )
    return shrunk, failing


def test_injected_mispatch_is_caught_and_shrinks_small(shrunk_mispatch):
    shrunk, failing = shrunk_mispatch
    assert "structure" in failing or "pack_differential" in failing
    assert len(shrunk.workload.program.functions) <= 3
    # The minimized case still exposes the bug...
    assert not run_oracle_stack(shrunk, mutate_packed=mispatch_launch).ok
    # ...and is not a degenerate always-failing program.
    assert run_oracle_stack(shrunk).ok


def test_shrunk_case_replays_from_json(tmp_path, shrunk_mispatch):
    shrunk, _ = shrunk_mispatch
    path = str(tmp_path / "mispatch.json")
    save_case(path, shrunk)
    replayed = load_case(path)
    assert replayed.seed == shrunk.seed
    assert replayed.config == shrunk.config
    assert replayed.reduction == shrunk.reduction
    assert not run_oracle_stack(replayed, mutate_packed=mispatch_launch).ok


def test_mispatched_binary_is_timed_by_the_oracle(timing_paths):
    """A mis-patched launch that leaves the recorded branch stream
    makes the native walk bail; the hook-driven model times it."""
    workload = load_case(os.path.join(CORPUS_DIR, "case03-seed3.json")).workload
    packed = VacuumPacker(PipelineConfig(validate=False)).pack(workload).packed
    broken = mispatch_launch(packed)
    costs = packed_block_costs(broken.program, broken.package_names)
    walk, oracle = timing_paths(
        broken.program, costs, workload, expect="reference"
    )
    assert walk == oracle


def test_mispatched_binary_is_covered_by_the_computed_run(coverage_paths):
    """The coverage walk and the compiled replay both reject a binary
    that leaves the recorded stream; coverage computes its run."""
    workload, packed = packed_case(os.path.join(CORPUS_DIR, "case03-seed3.json"))
    broken = mispatch_launch(packed)
    walk, oracle = coverage_paths(
        workload, broken, expect="computed", oracle="computed"
    )
    assert walk == oracle


def test_recursion_past_the_stack_cap_is_covered_by_the_compiled_replay(
    coverage_paths,
):
    """A packed binary that recurses deeper than the walk's stack makes
    the walk bail; the compiled replay, with no cap, covers it."""
    workload = recursive_workload(2 * _STACK_CAP)
    packed = VacuumPacker(PipelineConfig(validate=False)).pack(workload).packed
    walk, replay = coverage_paths(workload, packed, expect="compiled")
    assert walk == replay
    assert walk.package_instructions > 0


@pytest.mark.parametrize(
    "name,value,path", [("REPRO_NATIVE", "off", "compiled")]
)
def test_switched_off_walk_covers_through_the_fallback(
    name, value, path, coverage_paths, monkeypatch
):
    workload, packed = packed_case(os.path.join(CORPUS_DIR, "case03-seed3.json"))
    walk, _ = coverage_paths(workload, packed)
    monkeypatch.setenv(name, value)
    fallback, _ = coverage_paths(workload, packed, expect=path, oracle=path)
    assert fallback == walk
