"""Simulated client fleet: many profiling runs of one binary.

At fleet scale, profiles of the same deployed binary arrive from many
machines running different inputs.  This module models that with the
existing workload generators: every simulated client runs the *same*
Table 1 benchmark program under a *divergent* branch-behavior seed
(different dynamic control flow, identical static binary) and ships
its Hot Spot Detector profile as a v2 document with a provenance
stamp (run id, seed, staleness epoch).

The whole fleet advances through the batched engine
(:mod:`repro.engine.batched`): the binary is built, compiled, and
linked once, and the N client runs execute as N rows over the
shared tables — bit-identical to the per-client path, which runs a
fleet of one and any fleet whose ``mutate`` hook does something the
batch cannot express (see :func:`_batched_profiles`).

Runs are spread uniformly over ``epochs`` staleness epochs so the
aggregation layer's staleness accounting has something real to chew
on.  Everything is deterministic in ``(benchmark, input, runs,
base_seed, scale, epochs)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Union

from repro.hsd.serialize import make_provenance, save_profile
from repro.postlink.vacuum import ProfileResult, VacuumPacker
from repro.workloads.base import Workload
from repro.workloads.suite import load_benchmark


@dataclass
class SimulatedClient:
    """One simulated client run: its identity and profile location."""

    run_id: str
    seed: int
    epoch: int
    path: str
    phases: int


def _batched_profiles(
    benchmark: str,
    input_name: str,
    runs: int,
    base_seed: int,
    scale: Optional[float],
    packer: VacuumPacker,
    mutate: Optional[Callable[[Workload, int], None]],
) -> Optional[List[ProfileResult]]:
    """Profile the whole fleet through the batched engine.

    Builds and links the benchmark once, computes each client's trace
    cache key with its seed (and drift mutation) applied, batches the
    misses through :class:`~repro.engine.batched.BatchedExecutor`, and
    runs the detector stage per row.  Bit-identical to the sequential
    path: same cache reads/writes, same records, same summaries.

    Returns ``None`` — fall back to per-client runs — when
    ``runs <= 1`` or a ``mutate`` hook steps outside what one shared
    binary can express: replacing the program/behavior/script/limits
    objects, mutating program structure, or registering different
    stable ids per client.
    """
    from repro.engine.batched import (
        BatchedExecutor,
        batch_tables_for,
        prob_matrix,
    )
    from repro.engine.compiled import compile_program, program_signature
    from repro.engine.trace_cache import default_cache, image_for, trace_key
    from repro.obs import inc

    if runs <= 1:
        return None
    workload = load_benchmark(benchmark, input_name, scale=scale)
    program = workload.program
    behavior = workload.behavior
    script = workload.phase_script
    limits = workload.limits
    signature = program_signature(program)
    pristine = behavior.bias_snapshot()
    tables = batch_tables_for(compile_program(program))
    phase_ids = [segment.phase_id for segment in script.segments]
    image = image_for(program)
    cache = default_cache()

    # Per row: apply seed + drift, address the run, capture the drifted
    # probability matrix, then restore so the next row's mutate sees the
    # same pristine fleet state a fresh per-client build would.
    seeds: List[int] = []
    keys: List[str] = []
    row_probs: Optional[List] = [] if mutate is not None else None
    ids_after_first = None
    for i in range(runs):
        behavior.seed = base_seed + i
        if mutate is not None:
            mutate(workload, i)
            if (
                workload.program is not program
                or workload.behavior is not behavior
                or workload.phase_script is not script
                or workload.limits is not limits
                or program_signature(program) != signature
            ):
                behavior.restore_biases(pristine)
                return None
            if ids_after_first is None:
                ids_after_first = dict(behavior._stable_id)
            elif behavior._stable_id != ids_after_first:
                behavior.restore_biases(pristine)
                return None
            row_probs.append(prob_matrix(behavior, tables, phase_ids))
        keys.append(trace_key(program, behavior, script, limits, image=image))
        seeds.append(base_seed + i)
        if mutate is not None:
            behavior.restore_biases(pristine)

    traces = [cache.get(key, program, image=image) for key in keys]
    misses = [i for i, trace in enumerate(traces) if trace is None]
    if misses:
        executor = BatchedExecutor(
            program,
            behavior,
            script,
            seeds=[seeds[i] for i in misses],
            limits=limits,
            row_probs=(
                [row_probs[i] for i in misses]
                if row_probs is not None
                else None
            ),
        )
        run = executor.run_traced()
        for slot, trace in zip(misses, run.traces):
            traces[slot] = trace
            inc("engine.simulated_branches", trace.summary.branches)
            cache.put(keys[slot], trace, program, image=image)

    return [
        packer.profile_trace(workload, trace, image=image) for trace in traces
    ]


def simulate_fleet(
    benchmark: str,
    input_name: str,
    runs: int,
    out_dir: Union[str, Path],
    base_seed: int = 0,
    epochs: int = 1,
    scale: Optional[float] = None,
    packer: Optional[VacuumPacker] = None,
    epoch_offset: int = 0,
    run_prefix: str = "r",
    file_prefix: str = "client",
    mutate: Optional[Callable[[Workload, int], None]] = None,
) -> List[SimulatedClient]:
    """Profile ``runs`` simulated clients and persist their documents.

    Client ``i`` reruns the benchmark with behavior seed
    ``base_seed + i`` and lands in epoch ``epoch_offset + i * epochs
    // runs``.  The documents are written as ``<file_prefix>-<i>.json``
    under ``out_dir`` with run ids ``...#<run_prefix><i>``; the drift
    controller batches one ``simulate_fleet`` call per service epoch,
    using the prefixes to keep run ids unique across batches.

    ``mutate`` (called with the freshly built workload and the client
    index, after the behavior seed is set) is the drift hook: it edits
    branch behavior in place before profiling, modelling a fleet whose
    dynamic control flow has moved away from the shipped profile.

    The fleet advances through the batched engine (build/compile/link
    once, one row per client) unless :func:`_batched_profiles` declines
    it; the per-client loop that runs instead writes byte-identical
    documents.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    packer = packer or VacuumPacker()
    profiles = _batched_profiles(
        benchmark, input_name, runs, base_seed, scale, packer, mutate
    )
    clients: List[SimulatedClient] = []
    for i in range(runs):
        if profiles is not None:
            profile = profiles[i]
        else:
            workload = load_benchmark(benchmark, input_name, scale=scale)
            # Same binary, divergent dynamic behavior: only the branch
            # outcome seed changes, never the program.
            workload.behavior.seed = base_seed + i
            if mutate is not None:
                mutate(workload, i)
            profile = packer.profile(workload)
        seed = base_seed + i
        run_id = f"{benchmark}/{input_name}#{run_prefix}{i:04d}"
        epoch = epoch_offset + (i * epochs // runs if runs else 0)
        path = out / f"{file_prefix}-{i:04d}.json"
        save_profile(
            path,
            profile.records,
            meta={
                "benchmark": f"{benchmark}/{input_name}",
                "scale": scale,
                "provenance": make_provenance(run_id, seed, epoch),
            },
        )
        clients.append(SimulatedClient(
            run_id=run_id,
            seed=seed,
            epoch=epoch,
            path=str(path),
            phases=profile.phase_count,
        ))
    return clients


__all__ = ["SimulatedClient", "simulate_fleet"]
