"""Fleet profile service: aggregate many client profiles, pack once —
then keep the artifact fresh as the fleet's behavior drifts.

The deployment layer on top of the single-run pipeline (the BOLT
model): profiles arrive from many client runs of the same binary,
:mod:`~repro.service.aggregate` clusters and merges them into one
provenance-stamped consensus profile, and the
:mod:`~repro.service.farm` fans the merged phases out to worker
processes through the content-addressed
:mod:`~repro.service.artifacts` store.  ``repro ingest`` / ``repro
serve`` drive the whole thing from the command line and emit the JSON
:mod:`~repro.service.report`.

On top of the one-shot request sits the continuous re-optimization
loop: :mod:`~repro.service.drift` injects and detects behavior drift,
:mod:`~repro.service.controller` closes the probe → detect →
re-aggregate → re-pack cycle (``repro drift``), and
:mod:`~repro.service.chaos` injects service-scale faults — worker
crashes, shard hangs, corrupt artifacts, truncated uploads, clock skew
— that the fault-tolerant farm (:class:`~repro.service.farm.FarmPolicy`)
must survive (``repro chaos``).

The long-running daemon (:mod:`repro.server`) keeps one
:mod:`~repro.service.wal` write-ahead log per tenant, so an
acknowledged upload survives a crash between checkpoints.
"""

from .aggregate import (
    AGGREGATOR_STATE_VERSION,
    CONTRACT,
    ClientRun,
    ContractTolerance,
    FleetProfile,
    IncrementalAggregator,
    IngestResult,
    MergePolicy,
    MergedPhase,
    PhaseProvenance,
    RejectedProfile,
    checkpoint_key,
    equivalence_diffs,
    ingest_dir,
    ingest_paths,
    load_client_run,
    merge_runs,
    profiles_equivalent,
    quarantine_profile,
)
from .artifacts import (
    HIT_SIDECAR_SUFFIX,
    ArtifactEntry,
    ArtifactStats,
    ArtifactStore,
    artifact_key,
    canonical_json,
    default_store,
    image_digest,
    reset_default_store,
)
from .chaos import (
    ALL_SERVICE_FAULT_MODES,
    ChaosSpec,
    armed,
    chaos_hook,
    corrupt_artifact_entry,
    skew_profile_epoch,
    truncate_profile,
)
from .clients import SimulatedClient, simulate_fleet
from .controller import ControllerConfig, ControllerReport, run_controller
from .drift import DriftDetector, DriftSpec, apply_drift
from .farm import (
    FarmConfig,
    FarmPolicy,
    FleetPackResult,
    ShardOutcome,
    degraded_payload,
    pack_fleet,
    shard_payload,
    shard_profile_digest,
)
from .report import FleetReport, build_report

__all__ = [
    "AGGREGATOR_STATE_VERSION",
    "ALL_SERVICE_FAULT_MODES",
    "ArtifactEntry",
    "ArtifactStats",
    "ArtifactStore",
    "CONTRACT",
    "ChaosSpec",
    "ClientRun",
    "ContractTolerance",
    "IncrementalAggregator",
    "ControllerConfig",
    "ControllerReport",
    "DriftDetector",
    "DriftSpec",
    "FarmConfig",
    "FarmPolicy",
    "FleetPackResult",
    "FleetProfile",
    "FleetReport",
    "HIT_SIDECAR_SUFFIX",
    "IngestResult",
    "MergePolicy",
    "MergedPhase",
    "PhaseProvenance",
    "RejectedProfile",
    "ShardOutcome",
    "SimulatedClient",
    "apply_drift",
    "armed",
    "artifact_key",
    "build_report",
    "canonical_json",
    "chaos_hook",
    "checkpoint_key",
    "equivalence_diffs",
    "corrupt_artifact_entry",
    "default_store",
    "degraded_payload",
    "image_digest",
    "ingest_dir",
    "ingest_paths",
    "load_client_run",
    "merge_runs",
    "pack_fleet",
    "profiles_equivalent",
    "quarantine_profile",
    "reset_default_store",
    "run_controller",
    "shard_payload",
    "shard_profile_digest",
    "simulate_fleet",
    "skew_profile_epoch",
    "truncate_profile",
]
