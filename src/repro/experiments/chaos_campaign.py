"""Fleet chaos campaign: does the service survive service-scale faults?

The PR-1 fault campaign (:mod:`repro.experiments.fault_campaign`)
corrupts *profile records* and asks whether one pack survives.  This
campaign aims the same philosophy at the fleet service itself: it
simulates a client fleet once, establishes a fault-free control pack,
then replays the full ingest → merge → farm path under each
service-scale fault of :mod:`repro.service.chaos` — a worker process
crashing mid-shard, a shard hanging past its timeout, an artifact-store
entry rotting on disk, a profile truncated mid-upload, a client clock
stamping profiles from the future — and checks two things per trial:

* **survival** — the serve completes without an uncaught exception and
  without degrading any shard to the original layout (the fault budget
  is smaller than the farm's retry budget, so self-healing must win);
* **equivalence** — where the fault is recoverable by construction
  (worker faults, store corruption, clock skew under
  ``MergePolicy.max_epoch_skew``), the packed shard payloads must be
  byte-identical to the fault-free control.  A truncated upload is the
  one lossy mode: there the criterion is that exactly the bad document
  is quarantined and the remaining fleet still merges and packs.

Trials are seeded end to end (fleet simulation, fault placement, farm
backoff), so a failing campaign replays exactly.  Run it via
``python -m repro chaos --seed 0``.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api import PipelineConfig
from repro.experiments.parallel import resolve_jobs
from repro.obs import default_registry
from repro.service import (
    ALL_SERVICE_FAULT_MODES,
    ArtifactStore,
    ChaosSpec,
    FarmConfig,
    FarmPolicy,
    FleetPackResult,
    FleetProfile,
    IncrementalAggregator,
    IngestResult,
    MergePolicy,
    armed,
    canonical_json,
    corrupt_artifact_entry,
    pack_fleet,
    simulate_fleet,
    skew_profile_epoch,
    truncate_profile,
)
from repro.service.chaos import WORKER_FAULT_MODES

from .report import format_table

#: Clock-skew trials clamp runaway epochs to ``median + MAX_EPOCH_SKEW``
#: and keep an epoch window wide enough that no honest client ages out.
EPOCH_WINDOW = 4
MAX_EPOCH_SKEW = 2

#: Worker-fault trials: the chaos budget (one firing) is strictly
#: smaller than the farm's retry budget, so recovery is guaranteed
#: unless the retry machinery itself is broken.
MAX_ATTEMPTS = 3
HANG_SECONDS = 20.0
SHARD_TIMEOUT = 6.0


@dataclass
class ChaosTrial:
    """One fault injection against one full serve."""

    mode: str
    trial: int
    seed: str
    survived: bool = False
    #: Payload equality with the fault-free control; ``None`` when the
    #: mode is lossy by construction (``truncated_profile``).
    matched: Optional[bool] = None
    degraded_shards: int = 0
    retried_shards: int = 0
    quarantined_ingests: int = 0
    corrupt_detected: int = 0
    seconds: float = 0.0
    detail: str = ""
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.survived and self.matched is not False and not self.error


@dataclass
class ChaosCampaignReport:
    """Full chaos campaign result across fault modes."""

    benchmark: str
    seed: int
    trials_per_mode: int
    modes: Tuple[str, ...]
    jobs: int
    control_phases: int
    control_shards: int
    trials: List[ChaosTrial] = field(default_factory=list)

    @property
    def survival_rate(self) -> float:
        if not self.trials:
            return 1.0
        return sum(t.survived for t in self.trials) / len(self.trials)

    def failures(self) -> List[ChaosTrial]:
        return [t for t in self.trials if not t.ok]

    @property
    def ok(self) -> bool:
        return not self.failures()

    def to_dict(self) -> Dict:
        return {
            "benchmark": self.benchmark,
            "seed": self.seed,
            "trials_per_mode": self.trials_per_mode,
            "modes": list(self.modes),
            "jobs": self.jobs,
            "control": {
                "phases": self.control_phases,
                "shards": self.control_shards,
            },
            "survival_rate": round(self.survival_rate, 6),
            "ok": self.ok,
            "trials": [
                {
                    "mode": t.mode,
                    "trial": t.trial,
                    "seed": t.seed,
                    "survived": t.survived,
                    "matched": t.matched,
                    "ok": t.ok,
                    "degraded_shards": t.degraded_shards,
                    "retried_shards": t.retried_shards,
                    "quarantined_ingests": t.quarantined_ingests,
                    "corrupt_detected": t.corrupt_detected,
                    "seconds": round(t.seconds, 6),
                    "detail": t.detail,
                    "error": t.error,
                }
                for t in self.trials
            ],
        }

    def render(self) -> str:
        by_mode: Dict[str, List[ChaosTrial]] = {}
        for trial in self.trials:
            by_mode.setdefault(trial.mode, []).append(trial)
        rows = []
        for mode in self.modes:
            trials = by_mode.get(mode, [])
            if not trials:
                continue
            matched = [t.matched for t in trials if t.matched is not None]
            rows.append([
                mode,
                len(trials),
                f"{100.0 * sum(t.survived for t in trials) / len(trials):.0f}%",
                (f"{sum(matched)}/{len(matched)}" if matched else "n/a"),
                sum(t.retried_shards for t in trials),
                sum(t.degraded_shards for t in trials),
                f"{sum(t.seconds for t in trials):.1f}s",
            ])
        table = format_table(
            ["fault", "trials", "survived", "matched control", "retries",
             "degraded", "wall"],
            rows,
            title=f"Fleet chaos campaign — {self.benchmark} "
                  f"(seed={self.seed}, control: {self.control_phases} "
                  f"phase(s) / {self.control_shards} shard(s))",
        )
        lines = [table, ""]
        lines.append(
            f"overall: {100.0 * self.survival_rate:.0f}% survival across "
            f"{len(self.trials)} trial(s)"
        )
        for failure in self.failures():
            lines.append(
                f"FAILED {failure.mode} trial={failure.trial}: "
                f"{failure.error or 'payloads diverged from control'}"
            )
        return "\n".join(lines)


def _signature(packed: FleetPackResult) -> str:
    """Canonical bytes of every shard payload, in shard order."""
    return canonical_json([outcome.payload for outcome in packed.outcomes])


def _corrupt_counter() -> float:
    counters = default_registry().snapshot().get("counters", {})
    return float(counters.get("service.artifacts.corrupt", 0.0))


def _serve(
    profiles_dir: Path,
    config: FarmConfig,
    merge_policy: MergePolicy,
    store: ArtifactStore,
    policy: FarmPolicy,
    jobs: int,
) -> Tuple[IngestResult, FleetProfile, FleetPackResult]:
    """One ``repro serve``: fold the directory into a fresh aggregator,
    snapshot, and pack."""
    aggregator = IncrementalAggregator(merge_policy)
    aggregator.ingest_dir(profiles_dir)
    fleet = aggregator.snapshot()
    packed = pack_fleet(fleet, config, jobs=jobs, store=store, policy=policy)
    return aggregator.ingest_view(), fleet, packed


def _copy_profiles(source: Path, destination: Path) -> Path:
    shutil.copytree(source, destination)
    return destination


def run_chaos_campaign(
    benchmark: str = "181.mcf",
    input_name: str = "A",
    scale: Optional[float] = None,
    seed: int = 0,
    trials: int = 1,
    modes: Sequence[str] = ALL_SERVICE_FAULT_MODES,
    runs: int = 6,
    epochs: int = 2,
    shard_size: int = 1,
    jobs: Optional[int] = None,
    work_dir: Optional[str] = None,
    verbose: bool = False,
    config: Optional[PipelineConfig] = None,
) -> ChaosCampaignReport:
    """Run ``trials`` seeded injections per fault mode against a serve.

    The fleet is simulated once; every trial gets a pristine copy of
    whatever state its fault mutates (profile documents, an artifact
    store) plus a fresh chaos token directory, so trials are
    independent and the campaign is deterministic for a given
    ``seed``.  Worker faults need a real process pool — those trials
    run with at least two workers regardless of ``jobs``.
    """
    pipeline = config if config is not None else PipelineConfig()
    workers = resolve_jobs(jobs)
    merge_policy = MergePolicy(
        epoch_window=EPOCH_WINDOW, max_epoch_skew=MAX_EPOCH_SKEW
    )
    farm_config = FarmConfig(
        benchmark=benchmark,
        input_name=input_name,
        scale=scale,
        pipeline=pipeline.to_dict(),
        shard_size=shard_size,
    )
    calm = FarmPolicy(max_attempts=MAX_ATTEMPTS, backoff_base=0.01,
                      backoff_seed=seed)

    cleanup: Optional[tempfile.TemporaryDirectory] = None
    if work_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        work = Path(cleanup.name)
    else:
        work = Path(work_dir)
        work.mkdir(parents=True, exist_ok=True)

    try:
        profiles = work / "profiles"
        simulate_fleet(
            benchmark, input_name, runs=runs, out_dir=str(profiles),
            base_seed=seed, epochs=epochs, scale=scale,
        )

        # Fault-free control: the payload signature every recoverable
        # trial must reproduce.
        _, control_fleet, control_packed = _serve(
            profiles, farm_config, merge_policy,
            ArtifactStore(str(work / "control-store")), calm, workers,
        )
        control_signature = _signature(control_packed)

        report = ChaosCampaignReport(
            benchmark=f"{benchmark}/{input_name}",
            seed=seed,
            trials_per_mode=trials,
            modes=tuple(modes),
            jobs=workers,
            control_phases=len(control_fleet.phases),
            control_shards=len(control_packed.outcomes),
        )
        for mode in modes:
            for number in range(trials):
                trial = _run_trial(
                    mode=mode,
                    number=number,
                    seed=seed,
                    work=work,
                    profiles=profiles,
                    farm_config=farm_config,
                    merge_policy=merge_policy,
                    calm=calm,
                    workers=workers,
                    control_signature=control_signature,
                )
                report.trials.append(trial)
                if verbose:
                    status = "ok" if trial.ok else "FAILED"
                    print(f"  {mode} trial={number} {status} "
                          f"retries={trial.retried_shards} "
                          f"degraded={trial.degraded_shards} "
                          f"{trial.seconds:.1f}s"
                          + (f" — {trial.error}" if trial.error else ""),
                          flush=True)
        return report
    finally:
        if cleanup is not None:
            cleanup.cleanup()


def _run_trial(
    mode: str,
    number: int,
    seed: int,
    work: Path,
    profiles: Path,
    farm_config: FarmConfig,
    merge_policy: MergePolicy,
    calm: FarmPolicy,
    workers: int,
    control_signature: str,
) -> ChaosTrial:
    """One fault injection: set the stage, serve, judge the outcome."""
    trial_seed = f"chaos:{seed}:{mode}:{number}"
    rng = random.Random(trial_seed)
    trial_dir = work / f"trial-{mode}-{number:03d}"
    trial_dir.mkdir(parents=True, exist_ok=True)
    trial = ChaosTrial(mode=mode, trial=number, seed=trial_seed)
    started = time.perf_counter()
    try:
        if mode in WORKER_FAULT_MODES:
            _worker_trial(trial, mode, trial_dir, profiles, farm_config,
                          merge_policy, calm, workers, control_signature)
        elif mode == "corrupt_artifact":
            _corrupt_trial(trial, rng, trial_dir, profiles, farm_config,
                           merge_policy, calm, workers, control_signature)
        elif mode == "truncated_profile":
            _truncate_trial(trial, rng, trial_dir, profiles, farm_config,
                            merge_policy, calm, workers)
        elif mode == "epoch_skew":
            _skew_trial(trial, rng, trial_dir, profiles, farm_config,
                        merge_policy, calm, workers, control_signature)
        else:
            trial.error = f"unknown chaos mode {mode!r}"
    except Exception as exc:  # noqa: BLE001 - survival is the metric
        trial.error = f"{type(exc).__name__}: {exc}"
    trial.seconds = time.perf_counter() - started
    return trial


def _judge_recovered(
    trial: ChaosTrial,
    packed: FleetPackResult,
    control_signature: str,
) -> None:
    """Shared verdict for modes that must reproduce the control."""
    trial.degraded_shards = packed.degraded_shards
    trial.retried_shards = packed.retried_shards
    trial.matched = _signature(packed) == control_signature
    if packed.degraded_shards:
        trial.error = (
            f"{packed.degraded_shards} shard(s) degraded to the original "
            f"layout — the chaos budget should be within the retry budget"
        )
    elif not trial.matched:
        trial.error = "packed payloads diverged from the fault-free control"


def _worker_trial(trial, mode, trial_dir, profiles, farm_config,
                  merge_policy, calm, workers, control_signature) -> None:
    # A crash or hang needs a pool to contain it: inline dispatch would
    # take the campaign process down with the worker.
    pool_workers = max(2, workers)
    policy = calm if mode != "shard_hang" else FarmPolicy(
        max_attempts=calm.max_attempts,
        shard_timeout=SHARD_TIMEOUT,
        backoff_base=calm.backoff_base,
        backoff_seed=calm.backoff_seed,
    )
    spec = ChaosSpec(
        mode=mode,
        tokens_dir=str(trial_dir / "tokens"),
        max_triggers=1,
        hang_seconds=HANG_SECONDS,
    )
    with armed(spec):
        _, _, packed = _serve(
            profiles, farm_config, merge_policy,
            ArtifactStore(str(trial_dir / "store")), policy, pool_workers,
        )
    trial.survived = True
    _judge_recovered(trial, packed, control_signature)
    if not trial.error and not packed.retried_shards:
        trial.error = (
            "chaos token was never claimed — the fault did not fire"
        )
    trial.detail = f"pool of {pool_workers}, one {mode} firing"


def _corrupt_trial(trial, rng, trial_dir, profiles, farm_config,
                   merge_policy, calm, workers, control_signature) -> None:
    store = ArtifactStore(str(trial_dir / "store"))
    _serve(profiles, farm_config, merge_policy, store, calm, workers)
    damaged = corrupt_artifact_entry(store.root, rng)
    before = _corrupt_counter()
    _, _, packed = _serve(
        profiles, farm_config, merge_policy, store, calm, workers
    )
    trial.survived = True
    trial.corrupt_detected = int(_corrupt_counter() - before)
    _judge_recovered(trial, packed, control_signature)
    if not trial.error and trial.corrupt_detected < 1:
        trial.error = "store never noticed the corrupt entry"
    if not trial.error and packed.packed_shards < 1:
        trial.error = "corrupt entry was served from cache, not re-packed"
    trial.detail = f"corrupted {Path(damaged).name}"


def _truncate_trial(trial, rng, trial_dir, profiles, farm_config,
                    merge_policy, calm, workers) -> None:
    mutated = _copy_profiles(profiles, trial_dir / "profiles")
    damaged = truncate_profile(mutated, rng)
    ingest, fleet, packed = _serve(
        mutated, farm_config, merge_policy,
        ArtifactStore(str(trial_dir / "store")), calm, workers,
    )
    trial.survived = True
    trial.degraded_shards = packed.degraded_shards
    trial.retried_shards = packed.retried_shards
    trial.quarantined_ingests = len(ingest.rejected)
    if len(ingest.rejected) != 1:
        trial.error = (
            f"expected exactly the truncated document quarantined, got "
            f"{len(ingest.rejected)} rejection(s)"
        )
    elif not fleet.phases:
        trial.error = "surviving fleet merged to zero phases"
    elif packed.degraded_shards:
        trial.error = f"{packed.degraded_shards} shard(s) degraded"
    trial.detail = f"truncated {Path(damaged).name}"


def _skew_trial(trial, rng, trial_dir, profiles, farm_config,
                merge_policy, calm, workers, control_signature) -> None:
    mutated = _copy_profiles(profiles, trial_dir / "profiles")
    damaged = skew_profile_epoch(mutated, rng)
    _, fleet, packed = _serve(
        mutated, farm_config, merge_policy,
        ArtifactStore(str(trial_dir / "store")), calm, workers,
    )
    trial.survived = True
    _judge_recovered(trial, packed, control_signature)
    if not trial.error and fleet.aged_out:
        trial.error = (
            f"one skewed clock aged {fleet.aged_out} honest run(s) out "
            f"of the merge window"
        )
    trial.detail = f"skewed {Path(damaged).name}, clamp at median+" \
                   f"{MAX_EPOCH_SKEW}"


__all__ = [
    "ChaosCampaignReport",
    "ChaosTrial",
    "run_chaos_campaign",
]
