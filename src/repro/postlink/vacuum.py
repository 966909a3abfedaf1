"""The top-level :class:`VacuumPacker` API.

Ties the whole pipeline together (paper Figure 1):

1. **profile** — run the workload under the Hot Spot Detector and
   software-filter the detections into unique phase records;
2. **identify** — map each record onto the CFG (seeding + inference +
   heuristic growth) to get one hot region per phase;
3. **pack** — construct, order, and link the packages, then rewrite
   the binary with launch points.

The hardware hands software *lossy* profile data, so ``pack`` runs a
per-phase **quarantine loop**: a record whose region identification,
package construction, rewrite, or validation fails is dropped with a
structured :class:`PhaseDiagnostic` and the pipeline completes with the
surviving packages.  ``strict=True`` is the escape hatch that re-raises
the first typed error instead.

The recommended entry point is the :mod:`repro.api` facade, which
composes every knob into one :class:`~repro.api.PipelineConfig`::

    import repro

    config = repro.PipelineConfig()           # paper defaults
    result = repro.pack("134.perl/A", config)
    print(result.coverage.package_fraction)   # Figure 8's metric
    for diag in result.diagnostics:           # quarantined phases
        print(diag.render())

Constructing :class:`VacuumPacker` with a config is equivalent
(``VacuumPacker(config).pack(workload)``); a config is the only way
to set its knobs.

Every stage reports to :mod:`repro.obs`: the Figure-1 spans
(``pipeline.profile`` … ``pipeline.validate``) when tracing is enabled
(``repro trace``), and the ``pipeline.*`` metrics (quarantine drops,
per-stage wall time, bytes rewritten) always.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.obs import annotate, inc, observe, span

from repro.engine.executor import ExecutionSummary
from repro.engine.listeners import HSDListener
from repro.engine.trace_cache import image_for, traced_run
from repro.errors import ProfileError, ReproError, RewriteError
from repro.hsd.detector import HotSpotDetector
from repro.hsd.records import HotSpotRecord
from repro.packages.construct import (
    PackagedProgramPlan,
    RegionPackages,
    assemble_plan,
    construct_packages,
)
from repro.packages.ordering import check_ordering_mode
from repro.program.image import ProgramImage
from repro.regions.identify import branch_locator_from_image, identify_region
from repro.regions.region import HotRegion, selected_origins
from repro.workloads.base import Workload

from .coverage import CoverageResult, measure_coverage
from .rewriter import PackedProgram, rewrite_program


@dataclass
class ProfileResult:
    """Output of the hardware profiling step."""

    records: List[HotSpotRecord]
    raw_detections: int
    summary: ExecutionSummary
    image: ProgramImage

    @property
    def phase_count(self) -> int:
        return len(self.records)


@dataclass
class PhaseDiagnostic:
    """Why one phase was quarantined (or flagged) during packing."""

    stage: str                      # profile | identify | construct |
                                    # optimize | rewrite | validate | coverage
    error: str
    phase: Optional[int] = None     # hot-spot record index, when known
    exception_type: str = ""
    hint: str = ""

    @classmethod
    def from_exception(
        cls, stage: str, exc: BaseException, phase: Optional[int] = None
    ) -> "PhaseDiagnostic":
        if phase is None and isinstance(exc, ReproError):
            phase = exc.phase
        hint = exc.hint if isinstance(exc, ReproError) else ""
        return cls(
            stage=stage,
            error=str(exc),
            phase=phase,
            exception_type=type(exc).__name__,
            hint=hint,
        )

    def render(self) -> str:
        who = f"phase #{self.phase}" if self.phase is not None else "pipeline"
        line = f"[{self.stage}] {who}: {self.error}"
        if self.hint:
            line += f" (hint: {self.hint})"
        return line


@dataclass
class PackResult:
    """Output of the full Vacuum Packing pipeline for one workload."""

    workload: Workload
    profile: ProfileResult
    regions: List[HotRegion]
    plan: PackagedProgramPlan
    packed: PackedProgram
    coverage: CoverageResult
    #: Quarantined phases and other structured failure reports.
    diagnostics: List[PhaseDiagnostic] = field(default_factory=list)
    #: Structural validation report for the surviving plan+binary
    #: (``None`` when the packer ran with ``validate=False``).
    validation: Optional[object] = None

    # -- convenience views -------------------------------------------
    @property
    def packages(self):
        return self.plan.packages

    def quarantined_phases(self) -> Set[int]:
        """Record indexes that were dropped on the way to this result."""
        packed_phases = {r.record.index for r in self.regions}
        return {
            d.phase
            for d in self.diagnostics
            if d.phase is not None and d.phase not in packed_phases
        }

    def unique_selected_instructions(self) -> int:
        """Static instructions selected into ≥ 1 package (Table 3).

        Counts via the shared :func:`repro.regions.region.
        selected_origins` helper — the same implementation the fleet
        service's shard payloads use.
        """
        return len(selected_origins(self.regions))

    def expansion_row(self) -> dict:
        """Table 3 metrics for this workload."""
        original = self.packed.original_static_size
        # Unique static instructions selected into at least one package.
        unique_selected = self.unique_selected_instructions()
        return {
            "benchmark": self.workload.name,
            "pct_increase": 100.0 * self.packed.static_size_increase(),
            "pct_selected": 100.0 * unique_selected / original,
            "package_instructions": self.packed.package_static_size(),
            "replication": (
                self.packed.package_static_size() / unique_selected
                if unique_selected
                else 0.0
            ),
        }


class VacuumPacker:
    """End-to-end Vacuum Packing pipeline with the paper's defaults.

    Configure with one :class:`~repro.api.PipelineConfig`
    (``VacuumPacker(config)``); with no argument the paper defaults
    apply.  ``strict=False`` (the default) degrades per phase: any
    record whose processing fails is quarantined with a
    :class:`PhaseDiagnostic` and the pipeline completes with the
    survivors.  ``strict=True`` re-raises the first error instead.
    ``validate`` controls whether the structural oracles
    (:mod:`repro.postlink.validate`) gate every pack.
    """

    def __init__(self, config=None):
        from repro.api import PipelineConfig

        if config is not None and not isinstance(config, PipelineConfig):
            raise TypeError(
                "VacuumPacker() expects a repro.api.PipelineConfig, "
                f"got {type(config).__name__}"
            )
        self.config = config or PipelineConfig()
        self.hsd_config = self.config.hsd
        self.region_config = self.config.region
        self.similarity = self.config.similarity
        self.link = self.config.link
        self.optimize = self.config.optimize
        self.classic = self.config.classic
        self.ordering = check_ordering_mode(self.config.ordering)
        self.strict = self.config.strict
        self.validate = self.config.validate

    # -- step 1 ------------------------------------------------------
    def profile(self, workload: Workload) -> ProfileResult:
        """Run the workload under the Hot Spot Detector.

        The retired-branch trace comes through the content-addressed
        trace cache (:func:`~repro.engine.trace_cache.traced_run`) and
        is fed to the detector's stream fast path,
        :meth:`~repro.engine.listeners.HSDListener.consume_trace`.
        """
        return self._profile(workload, None, None)

    def profile_trace(
        self,
        workload: Workload,
        trace,
        image: Optional[ProgramImage] = None,
    ) -> ProfileResult:
        """Profile from an already-recorded branch trace.

        The batched fleet engine (:mod:`repro.engine.batched`) advances
        many clients through one program in one batch and hands each
        row's :class:`~repro.engine.trace_cache.TraceData` here; the
        detector/filter stage is identical to :meth:`profile`, only the
        engine run is skipped.  Pass ``image`` to share the linked
        image across rows instead of re-deriving it per client.
        """
        return self._profile(workload, trace, image)

    def _profile(
        self, workload: Workload, trace, image: Optional[ProgramImage]
    ) -> ProfileResult:
        started = time.perf_counter()
        with span("pipeline.profile", workload=workload.name) as entry:
            image = image or image_for(workload.program)
            address_of = {
                uid: address
                for uid, address in image.instruction_address.items()
            }
            listener = HSDListener(
                HotSpotDetector(self.hsd_config), address_of, self.similarity
            )
            if trace is None:
                trace = traced_run(workload)
            listener.consume_trace(trace.uids, trace.taken)
            summary = trace.summary
            annotate(
                entry,
                records=len(listener.unique_records),
                raw_detections=listener.raw_detections,
                branches=summary.branches,
            )
        observe("pipeline.stage.seconds", time.perf_counter() - started,
                stage="profile")
        inc("pipeline.phases_detected", len(listener.unique_records))
        return ProfileResult(
            records=listener.unique_records,
            raw_detections=listener.raw_detections,
            summary=summary,
            image=image,
        )

    def pack_records(
        self,
        workload: Workload,
        records: List[HotSpotRecord],
        image: Optional[ProgramImage] = None,
    ) -> PackResult:
        """Pack from externally supplied phase records.

        The records need not come from profiling ``workload`` in this
        process: offline re-optimization loads them from a persisted
        profile document, and the fleet service
        (:mod:`repro.service`) hands over *merged* consensus records
        aggregated across many client runs.  The only requirement is
        that their branch addresses resolve in ``workload``'s linked
        image (i.e. profile and pack the same binary) — stale
        addresses are quarantined per phase as usual.  The synthetic
        ``summary`` is empty because no run backs these records.
        """
        profile = ProfileResult(
            records=list(records),
            raw_detections=len(records),
            summary=ExecutionSummary(),
            image=image or image_for(workload.program),
        )
        return self.pack(workload, profile=profile)

    # -- step 2 -----------------------------------------------------------
    def identify(
        self, workload: Workload, profile: ProfileResult
    ) -> List[HotRegion]:
        """Strict identification of every record (raises on the first
        unusable one); ``pack`` quarantines per record instead."""
        locate = branch_locator_from_image(profile.image)
        return [
            identify_region(
                workload.program, record, locate, self.region_config
            )
            for record in profile.records
        ]

    # -- step 3 -----------------------------------------------------------
    def pack(
        self, workload: Workload, profile: Optional[ProfileResult] = None
    ) -> PackResult:
        """Run the full pipeline; profiles first if not given one."""
        with span("vacuum.pack", workload=workload.name) as root:
            profile = profile or self.profile(workload)
            diagnostics: List[PhaseDiagnostic] = []

            records = self._screen_records(profile.records, diagnostics)
            started = time.perf_counter()
            with span("pipeline.identify", records=len(records)) as entry:
                regions = self._identify_surviving(
                    workload, profile, records, diagnostics
                )
                annotate(entry, regions=len(regions))
            observe("pipeline.stage.seconds",
                    time.perf_counter() - started, stage="identify")

            surviving = list(regions)
            validation = None
            while True:
                plan, packed, validation, failed = self._attempt(
                    workload, surviving, diagnostics
                )
                if not failed:
                    break
                next_surviving = [
                    r for r in surviving if r.record.index not in failed
                ]
                if len(next_surviving) == len(surviving):  # pragma: no cover
                    # Failure not attributable to any surviving phase;
                    # drop everything rather than loop forever.
                    diagnostics.append(PhaseDiagnostic(
                        stage="rewrite",
                        error="unattributable failure; quarantining all "
                              "remaining phases",
                    ))
                    next_surviving = []
                surviving = next_surviving

            started = time.perf_counter()
            with span("pipeline.coverage") as entry:
                coverage = self._measure(workload, packed, diagnostics)
                annotate(entry, branches=coverage.branches)
            observe("pipeline.stage.seconds",
                    time.perf_counter() - started, stage="coverage")

            for diagnostic in diagnostics:
                inc("pipeline.quarantined", stage=diagnostic.stage)
            inc("pipeline.packs")
            inc("pipeline.phases_packed", len(surviving))
            annotate(
                root,
                phases=len(surviving),
                packages=len(plan.packages) if plan is not None else 0,
                quarantined=len(diagnostics),
            )
        return PackResult(
            workload=workload,
            profile=profile,
            regions=surviving,
            plan=plan,
            packed=packed,
            coverage=coverage,
            diagnostics=diagnostics,
            validation=validation,
        )

    # -- quarantine machinery ---------------------------------------------
    def _screen_records(
        self,
        records: List[HotSpotRecord],
        diagnostics: List[PhaseDiagnostic],
    ) -> List[HotSpotRecord]:
        """Drop records with duplicate indexes (a redundant detection
        that slipped past the software filter)."""
        seen: Set[int] = set()
        unique: List[HotSpotRecord] = []
        for record in records:
            if record.index in seen:
                error = ProfileError(
                    f"duplicate record for phase #{record.index}",
                    phase=record.index,
                    hint="the software similarity filter should have "
                         "rejected this detection; keeping the first",
                )
                if self.strict:
                    raise error
                diagnostics.append(
                    PhaseDiagnostic.from_exception("profile", error)
                )
                continue
            seen.add(record.index)
            unique.append(record)
        return unique

    def _identify_surviving(
        self,
        workload: Workload,
        profile: ProfileResult,
        records: List[HotSpotRecord],
        diagnostics: List[PhaseDiagnostic],
    ) -> List[HotRegion]:
        locate = branch_locator_from_image(profile.image)
        regions: List[HotRegion] = []
        for record in records:
            try:
                regions.append(identify_region(
                    workload.program, record, locate, self.region_config
                ))
            except ReproError as exc:
                if self.strict:
                    raise
                diagnostics.append(PhaseDiagnostic.from_exception(
                    "identify", exc, phase=record.index
                ))
        return regions

    def _attempt(
        self,
        workload: Workload,
        regions: List[HotRegion],
        diagnostics: List[PhaseDiagnostic],
    ) -> Tuple[PackagedProgramPlan, PackedProgram, Optional[object], Set[int]]:
        """One construct→optimize→rewrite→validate attempt.

        Returns the plan, the packed program (``None``-safe only when
        ``failed`` is non-empty), the validation report, and the set of
        phase indexes to quarantine before retrying.  In strict mode
        any failure raises instead.
        """
        failed: Set[int] = set()

        started = time.perf_counter()
        with span("pipeline.pack", regions=len(regions)) as pack_span:
            per_region: List[RegionPackages] = []
            for region in regions:
                index = region.record.index
                try:
                    per_region.append(construct_packages(region))
                except ReproError as exc:
                    if self.strict:
                        raise
                    diagnostics.append(PhaseDiagnostic.from_exception(
                        "construct", exc, phase=index
                    ))
                    failed.add(index)
            if failed:
                observe("pipeline.stage.seconds",
                        time.perf_counter() - started, stage="pack")
                return None, None, None, failed

            plan = assemble_plan(per_region, link=self.link,
                                 ordering=self.ordering)

            if self.optimize:
                from repro.optimize.passes import (
                    optimize_package,
                    region_taken_probabilities,
                )

                taken_prob = region_taken_probabilities(regions)
                for package in plan.packages:
                    try:
                        optimize_package(
                            package, taken_prob, enable_classic=self.classic
                        )
                    except Exception as exc:
                        if self.strict:
                            raise
                        diagnostics.append(PhaseDiagnostic.from_exception(
                            "optimize", exc, phase=package.region_index
                        ))
                        failed.add(package.region_index)
            annotate(
                pack_span,
                packages=len(plan.packages),
                package_instructions=sum(
                    p.static_size() for p in plan.packages
                ),
            )
        observe("pipeline.stage.seconds",
                time.perf_counter() - started, stage="pack")
        if failed:
            return plan, None, None, failed

        started = time.perf_counter()
        with span("pipeline.rewrite") as rewrite_span:
            try:
                packed = rewrite_program(workload.program, plan)
            except RewriteError as exc:
                observe("pipeline.stage.seconds",
                        time.perf_counter() - started, stage="rewrite")
                if self.strict:
                    raise
                diagnostics.append(
                    PhaseDiagnostic.from_exception("rewrite", exc)
                )
                if exc.phase is not None:
                    failed.add(exc.phase)
                else:
                    failed.update(r.record.index for r in regions)
                return plan, None, None, failed
            bytes_rewritten = packed.package_static_size() * 8
            annotate(rewrite_span,
                     static_size=packed.package_static_size(),
                     bytes_rewritten=bytes_rewritten)
        observe("pipeline.stage.seconds",
                time.perf_counter() - started, stage="rewrite")
        inc("pipeline.bytes_rewritten", bytes_rewritten)

        validation = None
        if self.validate:
            from .validate import validate_packed, validate_plan

            started = time.perf_counter()
            with span("pipeline.validate") as validate_span:
                validation = validate_plan(plan, workload.program)
                validation.merge(validate_packed(packed))
                annotate(validate_span, checks=validation.checks,
                         ok=validation.ok)
            observe("pipeline.stage.seconds",
                    time.perf_counter() - started, stage="validate")
            inc("pipeline.validation_checks", validation.checks)
            if not validation.ok:
                if self.strict:
                    validation.raise_if_failed()
                for issue in validation.issues:
                    diagnostics.append(PhaseDiagnostic(
                        stage="validate",
                        error=issue.render(),
                        phase=issue.phase,
                        exception_type="ValidationIssue",
                    ))
                attributable = validation.failing_phases()
                if attributable:
                    failed.update(attributable)
                # Non-attributable issues are reported but do not
                # quarantine: dropping arbitrary phases would not fix
                # them, and the packed program still executes.
        return plan, packed, validation, failed

    def _measure(
        self,
        workload: Workload,
        packed: PackedProgram,
        diagnostics: List[PhaseDiagnostic],
    ) -> CoverageResult:
        try:
            return measure_coverage(workload, packed)
        except Exception as exc:
            if self.strict:
                raise
            diagnostics.append(
                PhaseDiagnostic.from_exception("coverage", exc)
            )
            return CoverageResult(
                package_instructions=0,
                original_instructions=0,
                branches=0,
                launch_entries=0,
            )
