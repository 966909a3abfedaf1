"""Cross-run hot-spot aggregation: many client profiles, one consensus.

The paper's workflow is single-run: one Hot Spot Detector profile
feeds one packing pass.  At fleet scale the profiles arrive from many
client runs of the *same binary* — different inputs, different days —
and must be merged before the optimizer runs (the BOLT deployment
model).  This module does that merge in three steps:

1. **ingest** — load serialized profile documents
   (:mod:`repro.hsd.serialize`), quarantining corrupt ones with typed
   diagnostics instead of failing the batch;
2. **cluster** — group phase records across runs by the paper's own
   branch-set similarity criteria (section 3.1's 30 % rule + bias
   flips, via :func:`repro.hsd.filtering.same_hot_spot`): records
   that the single-run software filter would have called "the same
   hot spot" are the same fleet phase;
3. **merge** — combine each cluster's BBB branch profiles with
   execution-weighted counter averaging (a heavy client run moves the
   consensus more than a short one) into one consensus
   :class:`~repro.hsd.records.HotSpotRecord` per phase, dropping
   branches seen by too few contributors (``branch_quorum``).

Every merged phase carries provenance: the contributing run ids, an
agreement score (mean branch-set overlap between each contributor and
the consensus), and epoch bounds from the profiles' v2 provenance
stamps, so consumers can see how stale each phase is.

Two implementations share these semantics.  Every service path
(``repro serve``, the drift controller, the chaos campaign, the
daemon) folds documents into an :class:`IncrementalAggregator`;
:func:`merge_runs` re-clusters a whole document set from scratch and
is kept as the independent oracle the contract tests compare the
streaming merge against.

Everything is deterministic: runs are processed in sorted run-id
order, records in index order, and all merge arithmetic is a pure
function of the ingested documents — the same profile set always
produces the same fleet profile (and therefore the same artifact-store
keys downstream).
"""

from __future__ import annotations

import hashlib
import logging
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.errors import ServiceError
from repro.obs import inc
from repro.hsd.filtering import SimilarityPolicy, missing_fraction, same_hot_spot
from repro.hsd.records import BranchProfile, HotSpotRecord
from repro.hsd.serialize import (
    ProfileDocument,
    ProfileFormatError,
    document_from_dict,
    document_from_json,
    load_document,
    record_from_entry,
    record_to_entry,
)

from .artifacts import canonical_json

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

@dataclass
class ClientRun:
    """One ingested client profile document."""

    run_id: str
    seed: Optional[int]
    epoch: int
    path: str
    records: List[HotSpotRecord]

    @classmethod
    def from_document(cls, path: str, doc: ProfileDocument) -> "ClientRun":
        run_id = doc.run_id or Path(path).stem
        return cls(
            run_id=run_id,
            seed=doc.seed,
            epoch=doc.epoch,
            path=str(path),
            records=doc.records,
        )


@dataclass
class RejectedProfile:
    """Why one profile document was quarantined during ingest."""

    path: str
    error: str
    exception_type: str
    hint: str = ""
    #: Validation stage that failed: ``read`` (filesystem), or one of
    #: :data:`repro.hsd.serialize.VALIDATION_STAGES` (``parse``,
    #: ``schema``, ``records``, ``provenance``).
    stage: str = "parse"

    def render(self) -> str:
        line = f"{self.path}: [{self.exception_type}/{self.stage}] {self.error}"
        if self.hint:
            line += f" (hint: {self.hint})"
        return line


@dataclass
class IngestResult:
    """Usable client runs plus the quarantined rejects."""

    runs: List[ClientRun] = field(default_factory=list)
    rejected: List[RejectedProfile] = field(default_factory=list)


def quarantine_profile(path: str, exc: Exception) -> RejectedProfile:
    """Record one quarantined document *after* validation finished.

    The ``service.ingest.quarantined`` counter is incremented here —
    once the failing validation stage is known — never earlier, so the
    metric attributes causes correctly: it is labeled with both the
    exception type and the stage that rejected the document (``read``
    for filesystem errors, otherwise the
    :attr:`~repro.hsd.serialize.ProfileFormatError.stage` of the
    parse/schema/records/provenance check that failed).
    """
    stage = getattr(exc, "stage", None) or (
        "read" if isinstance(exc, OSError) else "provenance"
    )
    rejected = RejectedProfile(
        path=path,
        error=str(exc),
        exception_type=type(exc).__name__,
        hint=getattr(exc, "hint", ""),
        stage=stage,
    )
    inc("service.ingest.quarantined",
        exception_type=rejected.exception_type, stage=rejected.stage)
    return rejected


def load_client_run(path: str) -> ClientRun:
    """Load and *fully* validate one document as a :class:`ClientRun`.

    Raises :class:`~repro.hsd.serialize.ProfileFormatError` (or
    ``OSError``) — including for a provenance stamp whose fields parse
    as JSON but carry unusable types — so callers quarantine only
    after every validation stage has run.
    """
    doc = load_document(path)
    try:
        return ClientRun.from_document(path, doc)
    except (TypeError, ValueError) as exc:
        raise ProfileFormatError(
            f"unusable provenance stamp: {exc}", stage="provenance"
        ) from exc


def ingest_paths(paths: Iterable[Union[str, Path]]) -> IngestResult:
    """Load profile documents, quarantining unparseable ones.

    A corrupt document is a typed, per-profile failure
    (:class:`~repro.hsd.serialize.ProfileFormatError`): it lands in
    ``rejected`` with its hint and the rest of the batch proceeds —
    the fleet must not fail because one client shipped a bad file.
    """
    result = IngestResult()
    for path in sorted(str(p) for p in paths):
        try:
            result.runs.append(load_client_run(path))
        except (ProfileFormatError, OSError) as exc:
            result.rejected.append(quarantine_profile(path, exc))
    result.runs.sort(key=lambda run: run.run_id)
    return result


def _dir_paths(directory: Union[str, Path], pattern: str) -> Iterable[Path]:
    root = Path(directory)
    if not root.is_dir():
        raise ServiceError(
            f"ingest directory {str(root)!r} does not exist",
            hint="run `repro ingest` (or point --profiles at a "
                 "directory of profile documents) first",
        )
    return root.glob(pattern)


def ingest_dir(
    directory: Union[str, Path], pattern: str = "*.json"
) -> IngestResult:
    """Ingest every matching profile document under ``directory``."""
    return ingest_paths(_dir_paths(directory, pattern))


# ---------------------------------------------------------------------------
# clustering + merging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MergePolicy:
    """Knobs of the cross-run merge."""

    #: The paper's similarity criteria decide cluster membership.
    similarity: SimilarityPolicy = SimilarityPolicy()
    #: Keep a branch in the consensus only if at least this fraction
    #: of the cluster's contributing records saw it.
    branch_quorum: float = 0.5
    #: Drop merged phases contributed by fewer distinct runs.
    min_runs: int = 1
    #: Epoch-window decay: drop client runs older than this many
    #: epochs behind the fleet max epoch *before* clustering, so a
    #: phase seen only by aged-out clients disappears from the
    #: consensus — and stays gone when the old documents are replayed
    #: through ingest (the window is anchored at the max epoch, which
    #: a replay cannot move backwards).  ``None`` = keep everything.
    epoch_window: Optional[int] = None
    #: Clock-skew clamp: a run's epoch is capped at the fleet median
    #: epoch plus this margin, so one client with a wild clock cannot
    #: define the max epoch (and thereby age every honest client out
    #: of the window).  ``None`` = trust client clocks.
    max_epoch_skew: Optional[int] = None

    def __post_init__(self) -> None:
        if self.epoch_window is not None and self.epoch_window < 0:
            raise ValueError("epoch_window must be >= 0 (or None)")
        if self.max_epoch_skew is not None and self.max_epoch_skew < 0:
            raise ValueError("max_epoch_skew must be >= 0 (or None)")

    def fingerprint(self) -> str:
        sim = self.similarity
        return (
            f"merge:v2;missing={sim.missing_fraction!r};"
            f"bias={sim.bias_threshold!r};flips={sim.max_bias_flips};"
            f"quorum={self.branch_quorum!r};min_runs={self.min_runs};"
            f"window={self.epoch_window!r};skew={self.max_epoch_skew!r}"
        )


@dataclass
class PhaseProvenance:
    """Where one merged phase came from and how much it agrees."""

    #: Distinct contributing run ids, sorted.
    run_ids: List[str]
    #: Number of raw records merged (>= len(run_ids) when one run
    #: contributed several same-phase records).
    detections: int
    #: Mean branch-set overlap between each contributor and the
    #: consensus record (1.0 = every contributor saw every kept branch).
    agreement: float
    #: Oldest / newest contributing staleness epochs.
    first_epoch: int
    last_epoch: int
    #: Fleet max epoch minus ``last_epoch``: 0 = fresh, larger = the
    #: phase was last observed that many epochs ago.
    staleness: int = 0

    def to_dict(self) -> Dict:
        return {
            "run_ids": list(self.run_ids),
            "detections": self.detections,
            "agreement": round(self.agreement, 6),
            "first_epoch": self.first_epoch,
            "last_epoch": self.last_epoch,
            "staleness": self.staleness,
        }

    @classmethod
    def from_dict(cls, entry: Dict) -> "PhaseProvenance":
        return cls(
            run_ids=[str(run_id) for run_id in entry["run_ids"]],
            detections=int(entry["detections"]),
            agreement=float(entry["agreement"]),
            first_epoch=int(entry["first_epoch"]),
            last_epoch=int(entry["last_epoch"]),
            staleness=int(entry.get("staleness", 0)),
        )


@dataclass
class MergedPhase:
    """One fleet phase: a consensus record plus its provenance."""

    index: int
    record: HotSpotRecord
    provenance: PhaseProvenance

    def to_dict(self) -> Dict:
        return {
            "record": record_to_entry(self.record),
            "provenance": self.provenance.to_dict(),
        }

    @classmethod
    def from_dict(cls, index: int, entry: Dict) -> "MergedPhase":
        return cls(
            index=index,
            record=record_from_entry(entry["record"]),
            provenance=PhaseProvenance.from_dict(entry["provenance"]),
        )


@dataclass
class FleetProfile:
    """The merged, provenance-stamped profile of a whole fleet."""

    phases: List[MergedPhase]
    runs: int
    rejected: int
    policy_fingerprint: str
    max_epoch: int = 0
    #: Runs dropped by the merge policy's epoch window.
    aged_out: int = 0

    @property
    def records(self) -> List[HotSpotRecord]:
        return [phase.record for phase in self.phases]

    def to_dict(self) -> Dict:
        return {
            "phases": [phase.to_dict() for phase in self.phases],
            "runs": self.runs,
            "rejected": self.rejected,
            "policy": self.policy_fingerprint,
            "max_epoch": self.max_epoch,
            "aged_out": self.aged_out,
        }

    def digest(self) -> str:
        """Content hash of the merged profile (artifact-key input)."""
        return hashlib.blake2b(
            canonical_json(self.to_dict()), digest_size=20
        ).hexdigest()

    @classmethod
    def from_dict(cls, document: Dict) -> "FleetProfile":
        """Rebuild a fleet profile from :meth:`to_dict` output.

        The wire-format inverse used by ``GET /snapshot`` consumers:
        ``from_dict(p.to_dict())`` round-trips bit-exactly (the
        provenance agreement score is already rounded to the wire's
        six decimals by ``to_dict``), so re-serializing reproduces the
        same :meth:`digest`.  Raises ``KeyError``/``TypeError``/
        ``ValueError`` on a malformed document.
        """
        return cls(
            phases=[
                MergedPhase.from_dict(index, entry)
                for index, entry in enumerate(document["phases"])
            ],
            runs=int(document["runs"]),
            rejected=int(document["rejected"]),
            policy_fingerprint=str(document["policy"]),
            max_epoch=int(document["max_epoch"]),
            aged_out=int(document.get("aged_out", 0)),
        )


def _merge_cluster(
    members: Sequence[Tuple[ClientRun, HotSpotRecord]],
    index: int,
    policy: MergePolicy,
) -> MergedPhase:
    """Execution-weighted consensus of one cluster's records."""
    # Weight each contributing record by its own dynamic mass; an
    # all-zero cluster degenerates to an unweighted mean.
    weights = [max(record.total_executed(), 0) for _, record in members]
    if not any(weights):
        weights = [1] * len(members)

    by_address: Dict[int, List[Tuple[int, BranchProfile]]] = {}
    for (_, record), weight in zip(members, weights):
        for address, profile in record.branches.items():
            by_address.setdefault(address, []).append((weight, profile))

    quorum = max(1, int(round(policy.branch_quorum * len(members))))
    branches: Dict[int, BranchProfile] = {}
    for address in sorted(by_address):
        contributions = by_address[address]
        if len(contributions) < quorum:
            continue
        total_weight = sum(w for w, _ in contributions)
        executed = int(round(
            sum(w * p.executed for w, p in contributions) / total_weight
        ))
        taken = int(round(
            sum(w * p.taken for w, p in contributions) / total_weight
        ))
        branches[address] = BranchProfile(
            address, executed, min(taken, executed)
        )

    consensus = HotSpotRecord(
        index=index,
        detected_at_branch=members[0][1].detected_at_branch,
        branches=branches,
    )
    overlaps = [
        1.0 - missing_fraction(record, consensus) for _, record in members
    ]
    epochs = [run.epoch for run, _ in members]
    run_ids = sorted({run.run_id for run, _ in members})
    return MergedPhase(
        index=index,
        record=consensus,
        provenance=PhaseProvenance(
            run_ids=run_ids,
            detections=len(members),
            agreement=sum(overlaps) / len(overlaps),
            first_epoch=min(epochs),
            last_epoch=max(epochs),
        ),
    )


def merge_runs(
    ingest: Union[IngestResult, Sequence[ClientRun]],
    policy: Optional[MergePolicy] = None,
) -> FleetProfile:
    """Cluster and merge the ingested runs into one fleet profile."""
    policy = policy or MergePolicy()
    if isinstance(ingest, IngestResult):
        runs, rejected = ingest.runs, len(ingest.rejected)
    else:
        runs, rejected = list(ingest), 0
    if not runs:
        raise ServiceError(
            "no usable client profiles to merge",
            hint="every ingested document was rejected (or the "
                 "directory was empty); see the rejection list",
        )

    # Clock-skew clamp first: epochs feed the window and every
    # staleness stamp, so a wild client clock must be contained before
    # any epoch arithmetic happens.  The reference is the fleet median
    # (robust: a single skewed client cannot move it).
    if policy.max_epoch_skew is not None:
        epochs = sorted(run.epoch for run in runs)
        ceiling = epochs[(len(epochs) - 1) // 2] + policy.max_epoch_skew
        clamped: List[ClientRun] = []
        for run in runs:
            if run.epoch > ceiling:
                inc("service.merge.epoch_clamped")
                run = replace(run, epoch=ceiling)
            clamped.append(run)
        runs = clamped

    max_epoch = max(run.epoch for run in runs)
    aged_out = 0
    if policy.epoch_window is not None:
        fresh = [
            run for run in runs
            if run.epoch >= max_epoch - policy.epoch_window
        ]
        aged_out = len(runs) - len(fresh)
        if aged_out:
            inc("service.merge.aged_out", aged_out)
        runs = fresh

    # Greedy clustering in deterministic order; each cluster is
    # represented by its first member (the anchor), so membership does
    # not depend on merge arithmetic.
    clusters: List[List[Tuple[ClientRun, HotSpotRecord]]] = []
    for run in sorted(runs, key=lambda r: r.run_id):
        for record in sorted(run.records, key=lambda r: r.index):
            if not record.branches:
                continue
            for members in clusters:
                if same_hot_spot(record, members[0][1], policy.similarity):
                    members.append((run, record))
                    break
            else:
                clusters.append([(run, record)])

    phases = []
    for members in clusters:
        if len({run.run_id for run, _ in members}) < policy.min_runs:
            continue
        phase = _merge_cluster(members, len(phases), policy)
        phase.provenance.staleness = max_epoch - phase.provenance.last_epoch
        phases.append(phase)
    return FleetProfile(
        phases=phases,
        runs=len(runs),
        rejected=rejected,
        policy_fingerprint=policy.fingerprint(),
        max_epoch=max_epoch,
        aged_out=aged_out,
    )


# ---------------------------------------------------------------------------
# streaming incremental aggregation
# ---------------------------------------------------------------------------
#
# ``merge_runs`` re-clusters every document it has ever seen, so a
# service that re-aggregates on each arriving upload pays O(N) per
# document — O(N^2) over the fleet's life (BOLT's fleet-profile-
# aggregation bottleneck).  :class:`IncrementalAggregator` keeps the
# merged-phase clusters as *live state*: each arriving document is
# matched against existing cluster anchors with the paper's section
# 3.1 similarity criteria (O(phases) work) and folded in as integer
# running sums, so the merged counters it reports are bit-identical to
# the batch division no matter what order documents arrived in.
#
# Epoch handling is deliberately lazy.  Documents are folded into
# per-(cluster, epoch) buckets and the clamp/window arithmetic —
# median-anchored ``max_epoch_skew`` ceilings and ``epoch_window``
# aging — is evaluated against the *current* run-epoch multiset at
# snapshot time.  Evaluating it eagerly per arrival would make the
# result depend on arrival order (an early skewed clock would define a
# ceiling the batch merge, which sees everything at once, never uses).

#: Schema version of the serialized aggregator state; a checkpoint
#: carrying any other version is dropped as a miss (cold start).
AGGREGATOR_STATE_VERSION = 1


@dataclass(frozen=True)
class ContractTolerance:
    """The determinism contract's stated tolerance.

    Ingest order must not change the merged profile beyond this, and
    the streaming aggregator must match the from-scratch batch
    aggregator within it.  Merged branch counters are maintained as
    integer running sums and divided once, so they are *bit-identical*
    whenever the two sides agree on cluster membership; the relative
    tolerance only absorbs a pathological greedy-membership flip
    between near-duplicate phases.  ``agreement`` is a float mean whose
    summation order differs between the two implementations, hence the
    tiny absolute tolerance.
    """

    #: Relative tolerance on merged ``executed``/``taken`` counters.
    counter_rel_tol: float = 1e-9
    #: Absolute tolerance on the provenance agreement score.
    agreement_abs_tol: float = 1e-9


#: The contract every suite workload and every tested ingest order is
#: held to (see ``docs/service.md``, "Determinism contract").
CONTRACT = ContractTolerance()


def equivalence_diffs(
    a: FleetProfile,
    b: FleetProfile,
    tolerance: ContractTolerance = CONTRACT,
) -> List[str]:
    """Every way two merged profiles disagree beyond the contract.

    Empty list = equivalent.  Phase membership, provenance (run ids,
    detections, epoch bounds, staleness), branch sets, and launch
    branches must match exactly; merged counters within
    ``counter_rel_tol`` relative; agreement within
    ``agreement_abs_tol`` absolute.
    """
    diffs: List[str] = []
    if len(a.phases) != len(b.phases):
        return [f"phase count: {len(a.phases)} != {len(b.phases)}"]
    for pa, pb in zip(a.phases, b.phases):
        label = f"phase {pa.index}"
        prov_a, prov_b = pa.provenance, pb.provenance
        if prov_a.run_ids != prov_b.run_ids:
            diffs.append(f"{label}: run_ids {prov_a.run_ids} != "
                         f"{prov_b.run_ids}")
            continue
        if prov_a.detections != prov_b.detections:
            diffs.append(f"{label}: detections {prov_a.detections} != "
                         f"{prov_b.detections}")
        for bound in ("first_epoch", "last_epoch", "staleness"):
            if getattr(prov_a, bound) != getattr(prov_b, bound):
                diffs.append(
                    f"{label}: {bound} {getattr(prov_a, bound)} != "
                    f"{getattr(prov_b, bound)}"
                )
        if abs(prov_a.agreement - prov_b.agreement) > \
                tolerance.agreement_abs_tol:
            diffs.append(f"{label}: agreement {prov_a.agreement!r} != "
                         f"{prov_b.agreement!r}")
        rec_a, rec_b = pa.record, pb.record
        if rec_a.detected_at_branch != rec_b.detected_at_branch:
            diffs.append(f"{label}: detected_at "
                         f"{rec_a.detected_at_branch:#x} != "
                         f"{rec_b.detected_at_branch:#x}")
        if rec_a.addresses != rec_b.addresses:
            diffs.append(
                f"{label}: branch sets differ "
                f"(only-a={sorted(rec_a.addresses - rec_b.addresses)}, "
                f"only-b={sorted(rec_b.addresses - rec_a.addresses)})"
            )
            continue
        for address in sorted(rec_a.addresses):
            ba, bb = rec_a.branches[address], rec_b.branches[address]
            for field_name in ("executed", "taken"):
                va, vb = getattr(ba, field_name), getattr(bb, field_name)
                if abs(va - vb) > tolerance.counter_rel_tol * max(
                        1, abs(va), abs(vb)):
                    diffs.append(f"{label}: branch {address:#x} "
                                 f"{field_name} {va} != {vb}")
    return diffs


def profiles_equivalent(
    a: FleetProfile,
    b: FleetProfile,
    tolerance: ContractTolerance = CONTRACT,
) -> bool:
    """True iff the two merged profiles satisfy the contract."""
    return not equivalence_diffs(a, b, tolerance)


class _Bucket:
    """Partial aggregates of one cluster's members from one raw epoch.

    Everything the exact batch merge needs, in O(addresses) memory
    independent of member count: per-address integer sums (count,
    contributing weight, weighted and unweighted executed/taken),
    member/weight totals, contributing run ids, the multiset of member
    branch-address sets (for the agreement score — deduplicated, since
    fleets of the same binary produce few distinct sets), and the
    bucket's anchor: its lexicographically-least ``(run_id, record
    index)`` member, whose record stands in for the cluster in
    similarity matching exactly like ``members[0]`` does in the batch
    clustering loop.
    """

    __slots__ = ("members", "zero_weight", "weight_total", "run_ids",
                 "sums", "address_sets", "anchor_key", "anchor_record")

    def __init__(self) -> None:
        self.members = 0
        self.zero_weight = 0
        self.weight_total = 0
        self.run_ids: set = set()
        #: address -> [count, weight_sum, w*executed, w*taken,
        #:             executed_sum, taken_sum]
        self.sums: Dict[int, List[int]] = {}
        #: frozenset(addresses) -> member multiplicity
        self.address_sets: Dict[frozenset, int] = {}
        self.anchor_key: Optional[Tuple[str, int]] = None
        self.anchor_record: Optional[HotSpotRecord] = None

    def fold(self, run: ClientRun, record: HotSpotRecord) -> None:
        weight = max(record.total_executed(), 0)
        self.members += 1
        if weight == 0:
            self.zero_weight += 1
        self.weight_total += weight
        self.run_ids.add(run.run_id)
        for address, profile in record.branches.items():
            entry = self.sums.get(address)
            if entry is None:
                self.sums[address] = [
                    1, weight,
                    weight * profile.executed, weight * profile.taken,
                    profile.executed, profile.taken,
                ]
            else:
                entry[0] += 1
                entry[1] += weight
                entry[2] += weight * profile.executed
                entry[3] += weight * profile.taken
                entry[4] += profile.executed
                entry[5] += profile.taken
        addresses = record.addresses
        self.address_sets[addresses] = self.address_sets.get(addresses, 0) + 1
        key = (run.run_id, record.index)
        if self.anchor_key is None or key < self.anchor_key:
            self.anchor_key = key
            self.anchor_record = record


#: A record's clustering behaviour under the paper's section 3.1
#: criteria is fully determined by its branch-address set and each
#: branch's bias class (``missing_fraction`` reads only address sets;
#: ``bias_flips`` reads only per-address ``bias(threshold)``).  Two
#: records with equal signatures are interchangeable in every
#: ``same_hot_spot`` test, which is what lets the aggregator group
#: arrivals by signature in O(record) and defer the greedy clustering
#: to snapshot time, where it runs over one representative per
#: signature in canonical order — the exact batch result, independent
#: of ingest order.
Signature = Tuple[Tuple[int, Optional[str]], ...]


def record_signature(
    record: HotSpotRecord, bias_threshold: float
) -> Signature:
    """The similarity-determining fingerprint of a hot-spot record."""
    return tuple(
        (address, profile.bias(bias_threshold))
        for address, profile in sorted(record.branches.items())
    )


class _SigGroup:
    """All arrivals sharing one similarity signature, by raw epoch."""

    __slots__ = ("buckets",)

    def __init__(self) -> None:
        self.buckets: Dict[int, _Bucket] = {}

    def fold(self, run: ClientRun, record: HotSpotRecord) -> None:
        bucket = self.buckets.get(run.epoch)
        if bucket is None:
            bucket = self.buckets[run.epoch] = _Bucket()
        bucket.fold(run, record)

    def view(self, alive) -> Optional[Tuple[Tuple[str, int],
                                            HotSpotRecord,
                                            List[Tuple[int, "_Bucket"]]]]:
        """(anchor key, anchor record, surviving buckets); None = aged.

        ``alive(epoch)`` is the current epoch-window predicate; a
        group whose every contribution has aged out takes no part in
        clustering — a recurring phase re-enters with fresh epoch
        bounds, exactly as the batch window filter would arrange.
        """
        anchor_key, anchor_record = None, None
        survivors: List[Tuple[int, _Bucket]] = []
        for epoch, bucket in self.buckets.items():
            if not alive(epoch):
                continue
            survivors.append((epoch, bucket))
            if anchor_key is None or bucket.anchor_key < anchor_key:
                anchor_key, anchor_record = (
                    bucket.anchor_key, bucket.anchor_record
                )
        if anchor_key is None:
            return None
        return anchor_key, anchor_record, survivors


class IncrementalAggregator:
    """Streaming counterpart of :func:`merge_runs`: O(record) per document.

    Maintains merged-phase state live.  Each arriving
    :class:`~repro.hsd.serialize.ProfileDocument` is folded into the
    group sharing its similarity signature (:func:`record_signature`)
    with execution-weighted integer counter sums; :meth:`snapshot`
    runs the paper's section 3.1 greedy clustering over one
    representative per surviving signature — in canonical
    first-occurrence order, against each cluster's founding record,
    exactly as :func:`merge_runs` walks individual records — and
    materializes the same :class:`FleetProfile`.  Because a record's
    behaviour under ``same_hot_spot`` depends only on its signature,
    and batch assigns every same-signature record to the same
    (first-matching, creation-ordered) cluster, the streaming result
    equals the batch result for **any** ingest order: membership,
    counters, and provenance are bit-identical, with the determinism
    contract (:data:`CONTRACT`) granting float tolerance only on the
    agreement score, whose summation order differs.

    Epoch-window decay reuses :class:`MergePolicy` semantics
    (``epoch_window`` aging anchored at the fleet max epoch,
    ``max_epoch_skew`` clamping anchored at the fleet median), both
    evaluated lazily at snapshot time so the result is independent of
    arrival order.  State checkpoints round-trip through the artifact
    store (:meth:`save_checkpoint` / :meth:`load_checkpoint`), and
    re-ingesting a path whose content is unchanged is a deduplicated
    no-op, so a restarted service resumes without re-ingesting.
    """

    def __init__(self, policy: Optional[MergePolicy] = None):
        self.policy = policy or MergePolicy()
        self._groups: Dict[Signature, _SigGroup] = {}
        #: raw epoch -> ingested run count (the clamp/window multiset)
        self._epoch_runs: Dict[int, int] = {}
        #: path -> content digest of successfully folded documents
        self._seen: Dict[str, str] = {}
        self.rejected: List[RejectedProfile] = []
        #: Documents folded into the live state.
        self.documents = 0
        #: Re-ingested (path, content) pairs skipped as no-ops.
        self.duplicates = 0
        self._reported_aged = 0

    # -- epoch arithmetic (lazy, order-invariant) --------------------

    def _ceiling(self) -> Optional[int]:
        """Current skew-clamp ceiling (median epoch + max skew)."""
        if self.policy.max_epoch_skew is None or not self._epoch_runs:
            return None
        total = sum(self._epoch_runs.values())
        target = (total - 1) // 2
        seen = 0
        for epoch in sorted(self._epoch_runs):
            seen += self._epoch_runs[epoch]
            if seen > target:
                return epoch + self.policy.max_epoch_skew
        raise AssertionError("unreachable: median of non-empty multiset")

    def _view(self) -> Tuple[Optional[int], int]:
        """(clamp ceiling, fleet max epoch) under the current multiset."""
        if not self._epoch_runs:
            return None, 0
        ceiling = self._ceiling()
        max_epoch = max(
            epoch if ceiling is None else min(epoch, ceiling)
            for epoch in self._epoch_runs
        )
        return ceiling, max_epoch

    def _alive_predicate(self):
        """Current epoch-window survival test for raw bucket epochs."""
        ceiling, max_epoch = self._view()
        window = self.policy.epoch_window

        def alive(epoch: int) -> bool:
            if window is None:
                return True
            effective = epoch if ceiling is None else min(epoch, ceiling)
            return effective >= max_epoch - window

        return alive

    # -- ingest ------------------------------------------------------

    def ingest_run(self, run: ClientRun) -> None:
        """Fold one validated client run into the live state."""
        self._epoch_runs[run.epoch] = self._epoch_runs.get(run.epoch, 0) + 1
        self.documents += 1
        threshold = self.policy.similarity.bias_threshold
        for record in sorted(run.records, key=lambda r: r.index):
            if not record.branches:
                continue
            signature = record_signature(record, threshold)
            group = self._groups.get(signature)
            if group is None:
                group = self._groups[signature] = _SigGroup()
                inc("service.agg.new_clusters")
            else:
                inc("service.agg.matched")
            group.fold(run, record)
            inc("service.agg.folded")

    def ingest_text(
        self, text: str, name: Optional[str] = None,
        parsed: Optional[Dict] = None,
    ) -> bool:
        """Validate and fold one document given as JSON text.

        The network ingest path (``POST /profiles`` feeds each NDJSON
        line here): corrupt documents are quarantined exactly like the
        batch ingest (typed, stage-labeled, counted after validation),
        and re-ingesting already-folded *content* is a deduplicated
        no-op.  The dedup ledger key is ``name`` when given (a file
        path — its content may legitimately change and re-fold) or the
        content digest itself (an anonymous upload — identical bytes
        can never double-count, which is what lets a restarted daemon
        receive replayed uploads safely).

        ``parsed`` lets a caller that already ran ``json.loads(text)``
        (the daemon's per-line tenant router peeks at
        ``meta.benchmark``) skip the second parse; it must be the
        loaded form of ``text`` exactly.  Dedup still hashes ``text``.
        """
        digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
        key = name or f"upload:{digest}"
        if self._seen.get(key) == digest:
            self.duplicates += 1
            inc("service.agg.duplicates")
            return False
        label = name or f"<upload:{digest[:12]}>"
        try:
            if isinstance(parsed, dict):
                doc = document_from_dict(parsed)
            else:
                doc = document_from_json(text)
            run = ClientRun.from_document(label, doc)
        except ProfileFormatError as exc:
            self.rejected.append(quarantine_profile(label, exc))
            return False
        except (TypeError, ValueError) as exc:
            wrapped = ProfileFormatError(
                f"unusable provenance stamp: {exc}", stage="provenance"
            )
            self.rejected.append(quarantine_profile(label, wrapped))
            return False
        self._seen[key] = digest
        self.ingest_run(run)
        return True

    def ingest_path(self, path: Union[str, Path]) -> bool:
        """Load, validate, and fold one document; False if skipped.

        Corrupt documents are quarantined exactly like the batch
        ingest (typed, stage-labeled, counted after validation); a
        path whose content was already folded is a deduplicated no-op,
        which is what lets a restored checkpoint re-scan its ingest
        directory without double-counting.
        """
        path = str(path)
        try:
            text = Path(path).read_text()
        except OSError as exc:
            self.rejected.append(quarantine_profile(path, exc))
            return False
        return self.ingest_text(text, name=path)

    def ingest_paths(self, paths: Iterable[Union[str, Path]]) -> int:
        """Ingest many paths (sorted for determinism); folded count."""
        return sum(
            1 for path in sorted(str(p) for p in paths)
            if self.ingest_path(path)
        )

    def ingest_dir(self, directory: Union[str, Path]) -> int:
        """Ingest every ``*.json`` document under ``directory``; folded
        count.  A missing directory is a :class:`ServiceError`."""
        return self.ingest_paths(_dir_paths(directory, "*.json"))

    def ingest_view(self) -> IngestResult:
        """The batch-shaped view of this aggregator's rejections."""
        return IngestResult(runs=[], rejected=list(self.rejected))

    # -- snapshot ----------------------------------------------------

    def _merge_live(
        self, survivors: List[Tuple[int, _Bucket]]
    ) -> Dict:
        """Exact batch-merge arithmetic over surviving buckets."""
        # Sorted by (epoch, anchor) so the one float accumulation
        # below (the agreement sum) has an arrival-order-independent
        # term order; distinct signature groups can share an epoch.
        survivors = sorted(
            survivors, key=lambda pair: (pair[0], pair[1].anchor_key)
        )
        members = sum(bucket.members for _, bucket in survivors)
        run_ids = set()
        for _, bucket in survivors:
            run_ids.update(bucket.run_ids)
        weight_total = sum(bucket.weight_total for _, bucket in survivors)
        # Batch semantics: an all-zero-weight cluster degenerates to an
        # unweighted mean (weights = [1] * len(members)).
        degenerate = weight_total == 0

        by_address: Dict[int, List[int]] = {}
        for _, bucket in survivors:
            for address, entry in bucket.sums.items():
                acc = by_address.get(address)
                if acc is None:
                    by_address[address] = list(entry)
                else:
                    for i in range(6):
                        acc[i] += entry[i]

        quorum = max(1, int(round(self.policy.branch_quorum * members)))
        branches: Dict[int, BranchProfile] = {}
        for address in sorted(by_address):
            count, wsum, wexec, wtaken, esum, tsum = by_address[address]
            if count < quorum:
                continue
            if degenerate:
                executed = int(round(esum / count))
                taken = int(round(tsum / count))
            else:
                executed = int(round(wexec / wsum))
                taken = int(round(wtaken / wsum))
            branches[address] = BranchProfile(
                address, executed, min(taken, executed)
            )

        consensus_set = frozenset(branches)
        overlap_sum = 0.0
        for _, bucket in survivors:
            for member_set in sorted(bucket.address_sets,
                                     key=lambda s: tuple(sorted(s))):
                multiplicity = bucket.address_sets[member_set]
                if not member_set or not consensus_set:
                    overlap = (
                        1.0 if not member_set and not consensus_set else 0.0
                    )
                else:
                    overlap = 1.0 - max(
                        len(member_set - consensus_set) / len(member_set),
                        len(consensus_set - member_set) / len(consensus_set),
                    )
                overlap_sum += multiplicity * overlap

        ceiling = self._ceiling()
        effective = [
            epoch if ceiling is None else min(epoch, ceiling)
            for epoch, _ in survivors
        ]
        anchor_bucket = min(
            (bucket for _, bucket in survivors),
            key=lambda bucket: bucket.anchor_key,
        )
        return {
            "order_key": anchor_bucket.anchor_key,
            "detected_at": anchor_bucket.anchor_record.detected_at_branch,
            "branches": branches,
            "run_ids": sorted(run_ids),
            "detections": members,
            "agreement": overlap_sum / members,
            "first_epoch": min(effective),
            "last_epoch": max(effective),
        }

    def snapshot(self) -> FleetProfile:
        """Materialize the current merged fleet profile.

        The same structure :func:`merge_runs` computes from scratch —
        phases ordered by their least ``(run_id, record index)``
        member, counters from one integer division, provenance from
        surviving contributors only — in O(clusters x epochs x
        addresses), independent of how many documents were folded.
        """
        if not self.documents:
            raise ServiceError(
                "no usable client profiles to merge",
                hint="every ingested document was rejected (or none "
                     "arrived); see the rejection list",
            )
        ceiling, max_epoch = self._view()
        alive = self._alive_predicate()
        runs = aged_out = 0
        for epoch, count in self._epoch_runs.items():
            if alive(epoch):
                runs += count
            else:
                aged_out += count
        delta = aged_out - self._reported_aged
        if delta > 0:
            inc("service.agg.aged_out", delta)
            self._reported_aged = aged_out

        # Greedy section 3.1 clustering over one representative per
        # surviving signature, in first-occurrence order, against each
        # cluster's founding record — the batch walk, with all
        # same-signature records (which batch necessarily routes to
        # the same cluster) pre-collapsed into one step.
        views = [view for view in
                 (group.view(alive) for group in self._groups.values())
                 if view is not None]
        views.sort(key=lambda view: view[0])
        clusters: List[List] = []  # [founder record, survivor buckets]
        for _, record, survivors in views:
            for cluster in clusters:
                if same_hot_spot(record, cluster[0],
                                 self.policy.similarity):
                    cluster[1].extend(survivors)
                    break
            else:
                clusters.append([record, list(survivors)])

        merged = []
        for _, survivors in clusters:
            parts = self._merge_live(survivors)
            if len(parts["run_ids"]) < self.policy.min_runs:
                continue
            merged.append(parts)
        merged.sort(key=lambda parts: parts["order_key"])

        phases = []
        for index, parts in enumerate(merged):
            record = HotSpotRecord(
                index=index,
                detected_at_branch=parts["detected_at"],
                branches=parts["branches"],
            )
            phases.append(MergedPhase(
                index=index,
                record=record,
                provenance=PhaseProvenance(
                    run_ids=parts["run_ids"],
                    detections=parts["detections"],
                    agreement=parts["agreement"],
                    first_epoch=parts["first_epoch"],
                    last_epoch=parts["last_epoch"],
                    staleness=max_epoch - parts["last_epoch"],
                ),
            ))
        return FleetProfile(
            phases=phases,
            runs=runs,
            rejected=len(self.rejected),
            policy_fingerprint=self.policy.fingerprint(),
            max_epoch=max_epoch,
            aged_out=aged_out,
        )

    # -- checkpoint / restore ----------------------------------------

    def to_state(self) -> Dict:
        """JSON-able serialization of the complete live state."""
        groups = []
        for signature in sorted(
            self._groups, key=lambda sig: [[a, b or ""] for a, b in sig]
        ):
            group = self._groups[signature]
            buckets = {}
            for epoch in sorted(group.buckets):
                bucket = group.buckets[epoch]
                buckets[str(epoch)] = {
                    "members": bucket.members,
                    "zero_weight": bucket.zero_weight,
                    "weight_total": bucket.weight_total,
                    "run_ids": sorted(bucket.run_ids),
                    "sums": {
                        str(address): list(entry)
                        for address, entry in sorted(bucket.sums.items())
                    },
                    "address_sets": [
                        [sorted(addresses), count]
                        for addresses, count in sorted(
                            bucket.address_sets.items(),
                            key=lambda item: tuple(sorted(item[0])),
                        )
                    ],
                    "anchor": {
                        "run_id": bucket.anchor_key[0],
                        "index": bucket.anchor_key[1],
                        "record": record_to_entry(bucket.anchor_record),
                    },
                }
            groups.append({
                "sig": [[address, bias] for address, bias in signature],
                "buckets": buckets,
            })
        return {
            "version": AGGREGATOR_STATE_VERSION,
            "policy": self.policy.fingerprint(),
            "documents": self.documents,
            "duplicates": self.duplicates,
            "epoch_runs": {
                str(epoch): count
                for epoch, count in sorted(self._epoch_runs.items())
            },
            "seen": dict(sorted(self._seen.items())),
            "rejected": [
                {
                    "path": r.path, "error": r.error,
                    "exception_type": r.exception_type,
                    "hint": r.hint, "stage": r.stage,
                }
                for r in self.rejected
            ],
            "reported_aged": self._reported_aged,
            "groups": groups,
        }

    @classmethod
    def from_state(
        cls, state: Dict, policy: Optional[MergePolicy] = None
    ) -> "IncrementalAggregator":
        """Rebuild an aggregator from :meth:`to_state` output.

        Raises ``KeyError``/``TypeError``/``ValueError`` on any shape
        mismatch — :meth:`load_checkpoint` turns those into a cold
        start.
        """
        if state["version"] != AGGREGATOR_STATE_VERSION:
            raise ValueError(
                f"stale aggregator state version {state['version']!r} "
                f"(want {AGGREGATOR_STATE_VERSION})"
            )
        agg = cls(policy)
        if state["policy"] != agg.policy.fingerprint():
            raise ValueError("checkpoint policy fingerprint mismatch")
        agg.documents = int(state["documents"])
        agg.duplicates = int(state.get("duplicates", 0))
        agg._reported_aged = int(state.get("reported_aged", 0))
        agg._epoch_runs = {
            int(epoch): int(count)
            for epoch, count in state["epoch_runs"].items()
        }
        agg._seen = dict(state["seen"])
        agg.rejected = [
            RejectedProfile(**entry) for entry in state["rejected"]
        ]
        for group_state in state["groups"]:
            signature = tuple(
                (int(address), bias if bias is None else str(bias))
                for address, bias in group_state["sig"]
            )
            group = _SigGroup()
            for epoch_text, entry in group_state["buckets"].items():
                bucket = _Bucket()
                bucket.members = int(entry["members"])
                bucket.zero_weight = int(entry["zero_weight"])
                bucket.weight_total = int(entry["weight_total"])
                bucket.run_ids = set(entry["run_ids"])
                bucket.sums = {
                    int(address): [int(v) for v in values]
                    for address, values in entry["sums"].items()
                }
                bucket.address_sets = {
                    frozenset(addresses): int(count)
                    for addresses, count in entry["address_sets"]
                }
                anchor = entry["anchor"]
                bucket.anchor_key = (anchor["run_id"], int(anchor["index"]))
                bucket.anchor_record = record_from_entry(anchor["record"])
                group.buckets[int(epoch_text)] = bucket
            agg._groups[signature] = group
        return agg

    def state_digest(self, state: Optional[Dict] = None) -> str:
        """Content hash guarding a checkpoint against tampering."""
        state = state if state is not None else self.to_state()
        return hashlib.blake2b(
            canonical_json(state), digest_size=20
        ).hexdigest()

    def save_checkpoint(
        self, store, tag: str, state: Optional[Dict] = None,
        wal_position: int = 0,
    ) -> int:
        """Durably persist the live state through the artifact store.

        ``state`` (a :meth:`to_state` document) lets a concurrent
        caller serialize under its own lock and keep only the disk
        write outside it — the aggregator itself has no locking.
        ``wal_position`` records the write-ahead-log position the
        state covers (:mod:`repro.service.wal`).  Returns the
        checkpoint's size in bytes, 0 when it was not written.
        """
        if state is None:
            state = self.to_state()
        size = store.put(checkpoint_key(tag, self.policy), {
            "kind": "aggregator-checkpoint",
            "agg_version": AGGREGATOR_STATE_VERSION,
            "state_digest": self.state_digest(state),
            "state": state,
            "wal_position": wal_position,
        }, durable=True)
        if size:
            inc("service.agg.checkpoint.saved")
        return size

    @classmethod
    def load_checkpoint(
        cls, store, tag: str, policy: Optional[MergePolicy] = None
    ) -> Optional["Checkpoint"]:
        """The stored checkpoint of ``tag``; ``None`` means cold start.

        Every corruption path is a *miss*, never an error: a truncated
        entry fails the store's own stamp check, a stale
        ``agg_version`` or policy fingerprint is refused here, and a
        payload whose ``state_digest`` disagrees with its state is
        never trusted.  A checkpoint written before write-ahead logs
        existed covers position 0.
        """
        policy = policy or MergePolicy()
        key = checkpoint_key(tag, policy)
        payload = store.get(key)
        if payload is None:
            inc("service.agg.checkpoint.miss")
            return None
        try:
            if payload.get("agg_version") != AGGREGATOR_STATE_VERSION:
                raise ValueError(
                    f"stale checkpoint version "
                    f"{payload.get('agg_version')!r}"
                )
            state = payload["state"]
            expected = payload["state_digest"]
            actual = hashlib.blake2b(
                canonical_json(state), digest_size=20
            ).hexdigest()
            if expected != actual:
                raise ValueError("checkpoint state digest mismatch")
            aggregator = cls.from_state(state, policy)
            position = int(payload.get("wal_position", 0))
        except (KeyError, TypeError, ValueError) as exc:
            inc("service.agg.checkpoint.corrupt")
            logger.warning(
                "aggregator checkpoint %r unusable (%s: %s); "
                "falling back to cold start", tag, type(exc).__name__, exc,
            )
            return None
        inc("service.agg.checkpoint.hit")
        try:
            size = os.path.getsize(store.path_of(key))
        except OSError:
            size = 0
        return Checkpoint(aggregator, position, size)


class Checkpoint(NamedTuple):
    """A restored checkpoint: its state and what it covers."""

    aggregator: IncrementalAggregator
    #: Write-ahead-log position the state covers.
    position: int
    #: Entry size on disk.
    size: int


def checkpoint_key(tag: str, policy: MergePolicy) -> str:
    """Stable artifact-store key of one aggregator's checkpoint slot.

    Unlike pack artifacts the checkpoint is a mutable *slot* (latest
    state wins), so the key hashes the identity — tag + merge policy +
    state schema version — not the content.
    """
    digest = hashlib.blake2b(digest_size=20)
    digest.update(f"agg-checkpoint-v{AGGREGATOR_STATE_VERSION};".encode())
    digest.update(f"tag={tag};".encode())
    digest.update(policy.fingerprint().encode())
    return digest.hexdigest()


__all__ = [
    "AGGREGATOR_STATE_VERSION",
    "CONTRACT",
    "Checkpoint",
    "ClientRun",
    "ContractTolerance",
    "FleetProfile",
    "IncrementalAggregator",
    "IngestResult",
    "MergePolicy",
    "MergedPhase",
    "PhaseProvenance",
    "RejectedProfile",
    "checkpoint_key",
    "equivalence_diffs",
    "ingest_dir",
    "ingest_paths",
    "load_client_run",
    "merge_runs",
    "profiles_equivalent",
    "record_signature",
    "quarantine_profile",
]
