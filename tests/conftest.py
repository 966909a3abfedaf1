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


@pytest.fixture
def timing_paths(monkeypatch):
    """``run(program, costs, workload, hierarchy=None, expect="native",
    **oracle_env)`` times one binary as configured and asserts, from the
    ``cpu.timing.runs`` counter, that it took path ``expect``.  It then
    times the binary again under ``oracle_env`` (default
    ``REPRO_NATIVE=off``), which must take the hook-driven oracle, and
    returns both :class:`~repro.cpu.timing.TimingResult` objects.

    Where the native walk cannot run (no C compiler, ``REPRO_NATIVE=off``,
    ``REPRO_ENGINE=reference``) the first run must take the oracle, and
    it is returned twice: the caller's own assertions still run."""
    from repro.cpu import TimingSimulator
    from repro.engine.compiled import compiled_enabled
    from repro.engine.native import native_kernel
    from repro.obs.metrics import MetricsRegistry, swap_registry

    def timed(program, costs, workload, hierarchy):
        registry = MetricsRegistry()
        previous = swap_registry(registry)
        try:
            simulator = TimingSimulator(program, costs, hierarchy=hierarchy)
            result = simulator.run(workload)
        finally:
            swap_registry(previous)
        paths = [
            path for path in ("native", "reference")
            if registry.counter("cpu.timing.runs", path=path)
        ]
        assert len(paths) == 1, paths
        return result, paths[0]

    def run(program, costs, workload, hierarchy=None, expect="native",
            **oracle_env):
        walkable = compiled_enabled() and native_kernel() is not None
        result, path = timed(program, costs, workload, hierarchy)
        assert path == (expect if walkable else "reference")
        if not walkable:
            return result, result
        with monkeypatch.context() as patch:
            for name, value in (oracle_env or {"REPRO_NATIVE": "off"}).items():
                patch.setenv(name, value)
            oracle, oracle_path = timed(program, costs, workload, hierarchy)
        assert oracle_path == "reference"
        return result, oracle

    return run
