"""Shared fixtures: small programs used across the test suite."""

from __future__ import annotations

import pytest

from repro.isa.assembler import assemble

LOOP_PROGRAM_SRC = """
func main:
  entry:
    movi r1, 0
    movi r2, 100
  loop:
    addi r1, r1, 1
    call work
  cond:
    slt r3, r1, r2
    brnz r3, loop
  tail:
    halt

func work:
  w0:
    slt r4, r1, r2
    brnz r4, w2
  w1:
    addi r5, r5, 2
  w2:
    ret
"""

DIAMOND_FUNCTION_SRC = """
func dia:
  top:
    movi r1, 1
    brnz r1, right
  left:
    addi r2, r2, 1
    jump merge
  right:
    addi r2, r2, 2
  merge:
    add r3, r2, r1
    ret
"""


@pytest.fixture
def loop_program():
    """Two-function program with a counted loop and a biased callee branch."""
    return assemble(LOOP_PROGRAM_SRC)


@pytest.fixture
def diamond_function():
    """Single function with an if/else diamond."""
    from repro.isa.assembler import assemble_function

    return assemble_function(DIAMOND_FUNCTION_SRC)


def one_path(counter, paths, call):
    """``call()`` against a fresh metrics registry; returns its result
    and the one label of ``paths`` whose ``counter{path=...}`` moved."""
    from repro.obs.metrics import MetricsRegistry, swap_registry

    registry = MetricsRegistry()
    previous = swap_registry(registry)
    try:
        result = call()
    finally:
        swap_registry(previous)
    taken = [path for path in paths if registry.counter(counter, path=path)]
    assert len(taken) == 1, taken
    return result, taken[0]


@pytest.fixture
def timing_paths(monkeypatch):
    """``run(program, costs, workload, hierarchy=None, expect="native")``
    times one binary as configured and asserts, from the
    ``cpu.timing.runs`` counter, that it took path ``expect``.  It then
    times the binary again under ``REPRO_NATIVE=off``, which must take
    the hook-driven oracle, and returns both
    :class:`~repro.cpu.timing.TimingResult` objects.

    Where the native walk cannot run (no C compiler, ``REPRO_NATIVE=off``)
    the first run must take the oracle, and it is returned twice: the
    caller's own assertions still run."""
    from repro.cpu import TimingSimulator
    from repro.engine.native import native_kernel

    def timed(program, costs, workload, hierarchy):
        simulator = TimingSimulator(program, costs, hierarchy=hierarchy)
        return one_path(
            "cpu.timing.runs", ("native", "reference"),
            lambda: simulator.run(workload),
        )

    def run(program, costs, workload, hierarchy=None, expect="native"):
        walkable = native_kernel() is not None
        result, path = timed(program, costs, workload, hierarchy)
        assert path == (expect if walkable else "reference")
        if not walkable:
            return result, result
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_NATIVE", "off")
            oracle, oracle_path = timed(program, costs, workload, hierarchy)
        assert oracle_path == "reference"
        return result, oracle

    return run


@pytest.fixture
def record_paths():
    """``run(workload, program=None, expect="native")`` records one run
    through :func:`~repro.engine.trace_cache.record_trace` as configured
    and asserts, from the ``engine.record.runs`` counter, that it took
    path ``expect``; it returns that trace and the oracle's,
    :meth:`~repro.engine.compiled.CompiledExecutor.run_traced`.

    Where the native kernel cannot record (no C compiler,
    ``REPRO_NATIVE=off``) the path must be ``compiled``."""
    from repro.engine.compiled import CompiledExecutor
    from repro.engine.native import native_kernel
    from repro.engine.trace_cache import record_trace

    def run(workload, program=None, expect="native"):
        program = program or workload.program
        trace, path = one_path(
            "engine.record.runs", ("native", "compiled"),
            lambda: record_trace(workload, program),
        )
        assert path == (expect if native_kernel() is not None else "compiled")
        oracle = CompiledExecutor(
            program, workload.behavior, workload.phase_script,
            limits=workload.limits,
        ).run_traced()
        return trace, oracle

    return run


@pytest.fixture
def coverage_paths(monkeypatch):
    """``run(workload, packed, expect="native", oracle="compiled")``
    measures coverage as configured and asserts, from the
    ``postlink.coverage.runs`` counter, that it took path ``expect``.
    It then measures again under ``REPRO_NATIVE=off``, which must take
    path ``oracle`` (the compiled replay, or the computed run for a
    binary that leaves the recorded stream), and returns both
    :class:`~repro.postlink.coverage.CoverageResult` objects.

    Where the native walk cannot run the first measurement must take
    ``oracle``, and it is returned twice: the caller's own assertions
    still run."""
    from repro.engine.native import native_kernel
    from repro.postlink.coverage import measure_coverage

    paths = ("native", "compiled", "computed")

    def measured(workload, packed):
        return one_path(
            "postlink.coverage.runs", paths,
            lambda: measure_coverage(workload, packed),
        )

    def run(workload, packed, expect="native", oracle="compiled"):
        walkable = native_kernel() is not None
        result, path = measured(workload, packed)
        assert path == (expect if walkable else oracle)
        if not walkable:
            return result, result
        with monkeypatch.context() as patch:
            patch.setenv("REPRO_NATIVE", "off")
            reference, reference_path = measured(workload, packed)
        assert reference_path == oracle
        return result, reference

    return run
