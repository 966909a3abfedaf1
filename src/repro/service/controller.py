"""The continuous re-optimization loop (ROADMAP item 3).

One controller run simulates a fleet living through ``epochs`` service
epochs of one deployed binary:

1. every epoch, a batch of simulated clients profiles the binary under
   fresh behavior seeds and ships v2 profile documents
   (:func:`~repro.service.clients.simulate_fleet`);
2. the controller *probes* the shipped artifact: it projects the
   artifact's selected-instruction set onto a run of the original
   program under the epoch's behavior
   (:func:`~repro.postlink.coverage.project_coverage`) — the honest
   "how much of today's execution do the packages cover?" number;
3. a :class:`~repro.service.drift.DriftDetector` watches the projected
   coverage decay against the artifact's provenance staleness (epoch
   stamps merged by :mod:`~repro.service.aggregate`);
4. every shipped document is folded into one live
   :class:`~repro.service.aggregate.IncrementalAggregator` whose merge
   policy ages out epochs older than ``epoch_window``; when the
   detector fires, the controller snapshots it, re-packs the merged
   phases through the fault-tolerant farm (per-shard artifacts in the
   content-addressed store) and ships a fresh linked pack via
   :meth:`~repro.postlink.vacuum.VacuumPacker.pack_records` — the same
   persisted-profile seam as ``examples/offline_reoptimize.py``.

At the configured :class:`~repro.service.drift.DriftSpec` epoch the
fleet's behavior drifts (cold guards warm up), coverage decays, and
the report measures **time-to-recover**: how many epochs pass between
the drift event and a shipped artifact whose projected coverage is
back within ``recovery_tolerance`` of the pre-drift baseline.

Everything is deterministic in the config: client seeds, drift guard
selection, merge arithmetic, and farm payloads are all seeded or pure,
so two runs of the same config produce the same report (timings
aside).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Union

from repro.experiments.parallel import resolve_jobs
from repro.experiments.report import format_table
from repro.obs import annotate, inc, observe, span
from repro.postlink.coverage import project_coverage
from repro.regions.region import selected_origins
from repro.workloads.suite import load_benchmark

from .aggregate import IncrementalAggregator, MergePolicy
from .artifacts import ArtifactStore, default_store
from .clients import simulate_fleet
from .drift import DriftDetector, DriftSpec, apply_drift
from .farm import FarmConfig, FarmPolicy, pack_fleet
from .report import batched_engine_section

CONTROLLER_VERSION = 1


@dataclass(frozen=True)
class ControllerConfig:
    """One continuous re-optimization scenario."""

    benchmark: str
    input_name: str = "A"
    scale: Optional[float] = None
    #: Service epochs to simulate (epoch 0 ships the initial artifact).
    epochs: int = 6
    #: Client profiling runs per epoch.
    clients_per_epoch: int = 4
    #: Client ``i`` of epoch ``e`` runs behavior seed
    #: ``base_seed + e * clients_per_epoch + i``.
    base_seed: int = 0
    #: Epochs of profiles a re-aggregation looks back over (also the
    #: merge policy's epoch-window decay).
    epoch_window: int = 2
    #: Recovered when projected coverage is back within this relative
    #: tolerance of the pre-drift baseline.
    recovery_tolerance: float = 0.05
    #: Farm shard width for re-packs.
    shard_size: int = 1
    #: The injected drift event.
    drift: DriftSpec = field(default_factory=DriftSpec)
    #: Detector gates.
    decay_threshold: float = 0.1
    min_staleness: int = 1
    patience: int = 1
    #: Full pipeline document for the packer (``None`` = defaults).
    pipeline: Optional[Dict] = None

    def __post_init__(self) -> None:
        if self.epochs < 2:
            raise ValueError("controller needs at least 2 epochs")
        if self.clients_per_epoch < 1:
            raise ValueError("clients_per_epoch must be >= 1")
        if not 1 <= self.drift.epoch < self.epochs:
            raise ValueError(
                f"drift epoch {self.drift.epoch} must fall inside the "
                f"run: 1 <= epoch < {self.epochs} (epoch 0 ships the "
                f"initial artifact)"
            )
        if self.epoch_window < 0:
            raise ValueError("epoch_window must be >= 0")
        if not 0 <= self.recovery_tolerance < 1:
            raise ValueError("recovery_tolerance must be in [0, 1)")

    def farm_config(self) -> FarmConfig:
        return FarmConfig(
            benchmark=self.benchmark,
            input_name=self.input_name,
            scale=self.scale,
            pipeline=self.pipeline,
            shard_size=self.shard_size,
        )

    def merge_policy(self) -> MergePolicy:
        return MergePolicy(epoch_window=self.epoch_window)

    def detector(self) -> DriftDetector:
        return DriftDetector(
            decay_threshold=self.decay_threshold,
            min_staleness=self.min_staleness,
            patience=self.patience,
        )

    def to_dict(self) -> Dict:
        return {
            "benchmark": f"{self.benchmark}/{self.input_name}",
            "scale": self.scale,
            "epochs": self.epochs,
            "clients_per_epoch": self.clients_per_epoch,
            "base_seed": self.base_seed,
            "epoch_window": self.epoch_window,
            "recovery_tolerance": self.recovery_tolerance,
            "shard_size": self.shard_size,
            "drift": self.drift.to_dict(),
            "detector": {
                "decay_threshold": self.decay_threshold,
                "min_staleness": self.min_staleness,
                "patience": self.patience,
            },
        }


@dataclass
class _Shipped:
    """The artifact currently deployed to the fleet."""

    epoch: int
    fleet_max_epoch: int
    baseline: float
    selected: Set[int]
    phases: int
    packages: int


@dataclass
class ControllerReport:
    """Structured outcome of one controller run."""

    document: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return self.document

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.document, indent=indent, sort_keys=True)

    @property
    def recovered(self) -> bool:
        return bool(self.document["recovery"]["recovered"])

    @property
    def time_to_recover(self) -> Optional[int]:
        return self.document["recovery"]["time_to_recover_epochs"]

    def render(self) -> str:
        rows = []
        for row in self.document["epochs"]:
            rows.append([
                row["epoch"],
                "drift" if row["drifted"] else "",
                row["action"],
                f"{row['probe_coverage']:.3f}",
                f"{row['coverage']:.3f}",
                f"{row['decay']:.3f}",
                row["staleness"],
                row["phases"] if row["phases"] is not None else "",
                f"{row['seconds']:.2f}s",
            ])
        table = format_table(
            ["epoch", "behavior", "action", "probe", "serving", "decay",
             "staleness", "phases", "wall"],
            rows,
            title=f"continuous re-optimization — "
                  f"{self.document['benchmark']}",
        )
        recovery = self.document["recovery"]
        lines = [table, ""]
        lines.append(
            f"drift at epoch {recovery['drift_epoch']}, detected at "
            f"{recovery['detected_epoch']}, re-packed at "
            f"{recovery['repack_epochs']}"
        )
        if recovery["recovered"]:
            lines.append(
                f"recovered in {recovery['time_to_recover_epochs']} "
                f"epoch(s): coverage "
                f"{recovery['pre_drift_coverage']:.3f} -> "
                f"{recovery['drifted_coverage']:.3f} -> "
                f"{recovery['post_recovery_coverage']:.3f} "
                f"(repack wall {recovery['repack_seconds']:.2f}s)"
            )
        else:
            lines.append("NOT RECOVERED within the simulated epochs")
        return "\n".join(lines)


def run_controller(
    config: ControllerConfig,
    work_dir: Union[str, Path],
    jobs: Optional[int] = None,
    store: Optional[ArtifactStore] = None,
    policy: Optional[FarmPolicy] = None,
    verbose: bool = False,
) -> ControllerReport:
    """Simulate the closed profile → pack → drift → re-pack loop."""
    work = Path(work_dir)
    work.mkdir(parents=True, exist_ok=True)
    store = store or default_store()
    policy = policy or FarmPolicy()
    farm_config = config.farm_config()
    merge_policy = config.merge_policy()
    packer = farm_config.pipeline_config().packer()
    detector = config.detector()

    canonical = load_benchmark(
        config.benchmark, config.input_name, scale=config.scale
    )
    pristine = canonical.behavior.bias_snapshot()
    aggregator = IncrementalAggregator(merge_policy)

    shipped: Optional[_Shipped] = None
    epoch_rows: List[Dict] = []
    events: List[Dict] = []
    detected_epoch: Optional[int] = None
    recovered_epoch: Optional[int] = None
    repack_epochs: List[int] = []
    repack_seconds = 0.0
    pre_drift_coverage: Optional[float] = None
    drifted_coverage: Optional[float] = None
    warmed = 0
    farm_totals = {"cached": 0, "packed": 0, "degraded": 0}

    def emit(message: str) -> None:
        if verbose:
            print(f"[controller] {message}")

    def aggregate_and_ship(epoch: int):
        """Merge the window's profiles, pack through the farm, ship."""
        nonlocal repack_seconds
        started = time.perf_counter()
        # The live state holds every upload; the policy's epoch window
        # ages the out-of-window epochs at snapshot time.
        fleet = aggregator.snapshot()
        packed = pack_fleet(
            fleet, farm_config, jobs=jobs, store=store, policy=policy
        )
        farm_totals["cached"] += packed.cached_shards
        farm_totals["packed"] += packed.packed_shards
        farm_totals["degraded"] += packed.degraded_shards
        # The linked ship pack: the merged consensus records through
        # the persisted-profile seam, against the canonical binary.
        result = packer.pack_records(canonical, fleet.records)
        selected = set(selected_origins(result.regions))
        baseline = project_coverage(canonical, selected).package_fraction
        seconds = time.perf_counter() - started
        repack_seconds += seconds if shipped is not None else 0.0
        observe("controller.ship.seconds", seconds)
        return _Shipped(
            epoch=epoch,
            fleet_max_epoch=fleet.max_epoch,
            baseline=baseline,
            selected=selected,
            phases=len(fleet.phases),
            packages=len(result.packages),
        ), seconds

    for epoch in range(config.epochs):
        epoch_started = time.perf_counter()
        drifted = epoch >= config.drift.epoch
        with span("controller.epoch", epoch=epoch) as entry:
            inc("controller.epochs")
            # This epoch's fleet behavior, on the one canonical
            # workload instance (rebuilding would re-allocate uids and
            # invalidate the shipped selection set).
            canonical.behavior.restore_biases(pristine)
            if drifted:
                count = apply_drift(canonical.behavior, config.drift)
                if epoch == config.drift.epoch:
                    warmed = count
                    events.append({
                        "epoch": epoch, "kind": "drift",
                        "detail": f"warmed {count} cold branch(es) at "
                                  f"severity {config.drift.severity}",
                    })
                    emit(f"epoch {epoch}: drift event — {count} cold "
                         f"branch(es) warmed")
            canonical.behavior.seed = (
                config.base_seed + epoch * config.clients_per_epoch
            )

            # Clients profile under the same (possibly drifted)
            # behavior; their rebuilt workloads drift identically
            # because guard selection is structural (uid order).
            mutate = None
            if drifted:
                drift_spec = config.drift
                mutate = lambda w, i: apply_drift(w.behavior, drift_spec)
            clients = simulate_fleet(
                config.benchmark,
                config.input_name,
                runs=config.clients_per_epoch,
                out_dir=work / f"epoch-{epoch:03d}",
                base_seed=config.base_seed + epoch * config.clients_per_epoch,
                epochs=1,
                scale=config.scale,
                epoch_offset=epoch,
                run_prefix=f"e{epoch:03d}c",
                mutate=mutate,
            )
            aggregator.ingest_paths(client.path for client in clients)

            if shipped is None:
                shipped, seconds = aggregate_and_ship(epoch)
                pre_drift_coverage = shipped.baseline
                action = "ship"
                coverage = shipped.baseline
                probe = coverage
                decay = 0.0
                staleness = 0
                phases: Optional[int] = shipped.phases
                events.append({
                    "epoch": epoch, "kind": "ship",
                    "detail": f"initial artifact: {shipped.phases} "
                              f"phase(s), coverage {coverage:.3f}",
                })
                emit(f"epoch {epoch}: shipped initial artifact "
                     f"(coverage {coverage:.3f})")
            else:
                probe = project_coverage(
                    canonical, shipped.selected
                ).package_fraction
                coverage = probe
                decay = max(
                    0.0,
                    1.0 - probe / shipped.baseline
                    if shipped.baseline else 0.0,
                )
                staleness = epoch - shipped.fleet_max_epoch
                action = "observe"
                phases = None
                if detector.observe(decay, staleness):
                    if detected_epoch is None:
                        detected_epoch = epoch
                        events.append({
                            "epoch": epoch, "kind": "detect",
                            "detail": f"decay {decay:.3f} >= "
                                      f"{config.decay_threshold} at "
                                      f"staleness {staleness}",
                        })
                    emit(f"epoch {epoch}: decay {decay:.3f} at "
                         f"staleness {staleness} — re-packing")
                    shipped, seconds = aggregate_and_ship(epoch)
                    detector.reset()
                    inc("controller.repacks")
                    repack_epochs.append(epoch)
                    action = "repack"
                    coverage = shipped.baseline
                    phases = shipped.phases
                    events.append({
                        "epoch": epoch, "kind": "repack",
                        "detail": f"re-aggregated epochs "
                                  f"{max(0, epoch - config.epoch_window)}"
                                  f"..{epoch}, coverage back to "
                                  f"{coverage:.3f} in {seconds:.2f}s",
                    })
                if not drifted:
                    pre_drift_coverage = coverage

            if drifted:
                # Track the worst *probe* reading: how far the fleet
                # actually fell before (or between) re-packs.
                drifted_coverage = (
                    probe if drifted_coverage is None
                    else min(drifted_coverage, probe)
                )
                target = (pre_drift_coverage or 0.0) * (
                    1.0 - config.recovery_tolerance
                )
                if recovered_epoch is None and coverage >= target:
                    recovered_epoch = epoch
                    observe(
                        "controller.recovery.epochs",
                        epoch - config.drift.epoch,
                    )
                    events.append({
                        "epoch": epoch, "kind": "recover",
                        "detail": f"coverage {coverage:.3f} within "
                                  f"{config.recovery_tolerance:.0%} of "
                                  f"pre-drift "
                                  f"{pre_drift_coverage:.3f}",
                    })
                    emit(f"epoch {epoch}: recovered "
                         f"(coverage {coverage:.3f})")
            annotate(entry, coverage=round(coverage, 6),
                     staleness=staleness)

        epoch_rows.append({
            "epoch": epoch,
            "drifted": drifted,
            "action": action,
            "clients": config.clients_per_epoch,
            #: What the deployed artifact covered when probed this
            #: epoch (before any re-pack)...
            "probe_coverage": round(probe, 6),
            #: ...and what the artifact serving at epoch end covers.
            "coverage": round(coverage, 6),
            "decay": round(decay, 6),
            "staleness": staleness,
            "strikes": detector.strikes,
            "phases": phases,
            "warmed": warmed if drifted else 0,
            "seconds": round(time.perf_counter() - epoch_started, 6),
        })

    recovery = {
        "drift_epoch": config.drift.epoch,
        "warmed_branches": warmed,
        "detected_epoch": detected_epoch,
        "repack_epochs": repack_epochs,
        "recovered_epoch": recovered_epoch,
        "time_to_recover_epochs": (
            recovered_epoch - config.drift.epoch
            if recovered_epoch is not None else None
        ),
        "pre_drift_coverage": round(pre_drift_coverage or 0.0, 6),
        "drifted_coverage": (
            round(drifted_coverage, 6) if drifted_coverage is not None
            else None
        ),
        "post_recovery_coverage": (
            round(epoch_rows[-1]["coverage"], 6)
            if recovered_epoch is not None else None
        ),
        "repack_seconds": round(repack_seconds, 6),
        "recovered": recovered_epoch is not None,
    }
    document = {
        "controller_version": CONTROLLER_VERSION,
        "benchmark": f"{config.benchmark}/{config.input_name}",
        "scale": config.scale,
        "jobs": resolve_jobs(jobs),
        "config": config.to_dict(),
        "epochs": epoch_rows,
        "events": events,
        "recovery": recovery,
        "farm": {
            "cached_shards": farm_totals["cached"],
            "packed_shards": farm_totals["packed"],
            "degraded_shards": farm_totals["degraded"],
            "store_root": store.root if store.enabled else "off",
        },
        "engine": {"batched": batched_engine_section()},
    }
    if not recovery["recovered"]:
        raise_hint = (
            "coverage never returned to within "
            f"{config.recovery_tolerance:.0%} of the pre-drift baseline"
        )
        events.append({
            "epoch": config.epochs - 1, "kind": "unrecovered",
            "detail": raise_hint,
        })
    return ControllerReport(document=document)


__all__ = [
    "CONTROLLER_VERSION",
    "ControllerConfig",
    "ControllerReport",
    "run_controller",
]
