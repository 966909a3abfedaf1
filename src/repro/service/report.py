"""The JSON fleet report: one document per ``repro serve`` request.

Everything an operator needs to audit a fleet packing pass: how many
client profiles were ingested and why any were rejected, what the
merge produced (phases, contributors, agreement, staleness), how the
packing farm fared (per-shard timings, artifact cache hit rate), and
the packed totals.  The phase/package content of the report is
deterministic for a given profile set; only the ``timings`` differ
between invocations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .aggregate import FleetProfile, IngestResult
from .artifacts import ArtifactStore
from .farm import FarmConfig, FleetPackResult

#: v2: ingest carries the quarantined count, shards carry their retry
#: attempts and degraded flag, and the pack section summarizes farm
#: fault handling.
REPORT_VERSION = 2


@dataclass
class FleetReport:
    """Structured outcome of one ingest → merge → pack request."""

    document: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        return self.document

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.document, indent=indent, sort_keys=True)

    @property
    def phase_set(self) -> List[int]:
        return list(self.document["pack"]["phase_set"])

    @property
    def hit_rate(self) -> float:
        return float(self.document["pack"]["cache"]["hit_rate"])

    @property
    def degraded_shards(self) -> int:
        return int(self.document["pack"]["faults"]["degraded_shards"])

    @property
    def quarantined_ingests(self) -> int:
        return int(self.document["ingest"]["quarantined"])


def batched_engine_section() -> Dict[str, int]:
    """Batched-engine counter totals (summed across kernel labels).

    ``{"rows": ..., "retired_rows": ..., "steps": ...}`` from this
    process's metrics registry: the batched-engine work this process
    did (``repro ingest``/``drift``).  A client whose trace the trace
    cache already holds runs no engine and adds nothing, so a request
    served from on-disk profiles or a warm cache reads 0.  The counts
    therefore depend on the cache's state and are not part of a
    report's repeatable content.
    """
    from repro.obs import default_registry
    from repro.obs.metrics import series_name

    snapshot = default_registry().snapshot()
    totals = {"rows": 0, "retired_rows": 0, "steps": 0}
    for key, value in snapshot.get("counters", {}).items():
        name = series_name(key)
        if name.startswith("engine.batched."):
            field_name = name[len("engine.batched."):]
            if field_name in totals:
                totals[field_name] += int(value)
    return totals


def build_report(
    ingest: IngestResult,
    fleet: FleetProfile,
    packed: FleetPackResult,
    config: FarmConfig,
    store: ArtifactStore,
    jobs: int,
) -> FleetReport:
    """Assemble the fleet report document."""
    shards = [
        {
            "shard": outcome.shard,
            "phases": outcome.phases,
            "key": outcome.key,
            "cached": outcome.cached,
            "seconds": round(outcome.seconds, 6),
            "attempts": outcome.attempts,
            "degraded": outcome.degraded,
            "packages": len(outcome.payload["packages"]),
            "unique_selected": outcome.payload.get("unique_selected"),
            "coverage": outcome.payload["coverage"]["package_fraction"],
            "diagnostics": outcome.payload["diagnostics"],
        }
        for outcome in packed.outcomes
    ]
    document = {
        "report_version": REPORT_VERSION,
        "benchmark": f"{config.benchmark}/{config.input_name}",
        "scale": config.scale,
        "jobs": jobs,
        "ingest": {
            "runs": fleet.runs,
            "quarantined": len(ingest.rejected),
            "rejected": [r.render() for r in ingest.rejected],
        },
        "merge": {
            "phases_merged": len(fleet.phases),
            "max_epoch": fleet.max_epoch,
            "aged_out": fleet.aged_out,
            "policy": fleet.policy_fingerprint,
            "profile_digest": fleet.digest(),
            "phases": [
                {
                    "index": phase.index,
                    "branches": len(phase.record.branches),
                    **phase.provenance.to_dict(),
                }
                for phase in fleet.phases
            ],
        },
        "pack": {
            "config": config.fingerprint(),
            "shard_size": max(1, config.shard_size),
            "shards": shards,
            "phase_set": packed.phase_set(),
            "packages": packed.total_packages,
            "cache": {
                "cached_shards": packed.cached_shards,
                "packed_shards": packed.packed_shards,
                "hit_rate": round(packed.hit_rate, 6),
                "store_root": store.root if store.enabled else "off",
            },
            "faults": {
                "degraded_shards": packed.degraded_shards,
                "retried_shards": packed.retried_shards,
            },
        },
        "engine": {"batched": batched_engine_section()},
    }
    return FleetReport(document=document)


__all__ = [
    "FleetReport",
    "REPORT_VERSION",
    "batched_engine_section",
    "build_report",
]
