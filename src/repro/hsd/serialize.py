"""Hot-spot profile persistence.

Post-link optimization is offline: the profiling run happens in the
end-user environment and the optimizer consumes the recorded hot spots
later ("the profiled program runs to completion before any of the
phases are further processed by the software", paper section 3).  This
module serializes the filtered phase records to a small, versioned JSON
document so a profile can be captured once and re-optimized many times.

Format v2 adds an embedded provenance stamp under ``meta.provenance``
(run id, behavior seed, staleness epoch) so the fleet aggregation
service (:mod:`repro.service`) can weigh and age profiles collected
from many client runs.  v1 documents still load — they simply carry no
provenance and are treated as epoch 0.  Mirroring the trace-cache v2
stamp, parse failures are *typed*: every malformed document raises
:class:`ProfileFormatError`, a :class:`~repro.errors.ProfileError`, so
ingest loops quarantine bad profiles exactly like every other
subsystem error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Union

from repro.errors import ProfileError

from .records import BranchProfile, HotSpotRecord

FORMAT_NAME = "vacuum-packing-profile"
#: Version written by :func:`records_to_dict`.
FORMAT_VERSION = 2
#: Versions :func:`document_from_dict` can still read.
SUPPORTED_VERSIONS = (1, 2)

#: Fields a provenance stamp must carry to be usable by the service.
PROVENANCE_FIELDS = ("run_id", "seed", "epoch")


#: Validation stages a profile document passes through, in order.
#: ``ProfileFormatError.stage`` names the first one that failed, so
#: quarantine metrics can attribute *why* documents are rejected:
#: ``parse`` (not JSON / not an object), ``schema`` (format name,
#: version, records list, meta shape), ``records`` (a malformed record
#: entry), ``provenance`` (a bad v2 provenance stamp).
VALIDATION_STAGES = ("parse", "schema", "records", "provenance")


class ProfileFormatError(ProfileError):
    """Raised when a profile document cannot be parsed.

    A :class:`~repro.errors.ProfileError`, so the packer quarantine
    loop and the service ingest loop both catch it as a typed,
    per-profile failure instead of crashing the run.  ``stage`` names
    the validation stage that failed (one of
    :data:`VALIDATION_STAGES`), so ingest metrics attribute causes.
    """

    default_hint = (
        "the profile document is corrupt or from an incompatible "
        "writer; re-capture the client profile or drop it from the "
        "ingest set"
    )

    def __init__(self, message: str, *, stage: str = "parse", **kwargs):
        super().__init__(message, **kwargs)
        self.stage = stage


def make_provenance(
    run_id: str, seed: Optional[int], epoch: int, **extra
) -> Dict:
    """A v2 provenance stamp for ``meta['provenance']``."""
    stamp = {"run_id": str(run_id), "seed": seed, "epoch": int(epoch)}
    stamp.update(extra)
    return stamp


@dataclass
class ProfileDocument:
    """A parsed profile document: records plus their provenance."""

    records: List[HotSpotRecord]
    meta: Dict = field(default_factory=dict)
    version: int = FORMAT_VERSION

    @property
    def provenance(self) -> Dict:
        """The embedded provenance stamp ({} for v1 documents)."""
        return self.meta.get("provenance", {})

    @property
    def run_id(self) -> str:
        return str(self.provenance.get("run_id", ""))

    @property
    def seed(self) -> Optional[int]:
        return self.provenance.get("seed")

    @property
    def epoch(self) -> int:
        return int(self.provenance.get("epoch", 0))


# ---------------------------------------------------------------------------
# record <-> entry
# ---------------------------------------------------------------------------

def record_to_entry(record: HotSpotRecord) -> Dict:
    """Serializable representation of one phase record."""
    return {
        "index": record.index,
        "detected_at_branch": record.detected_at_branch,
        "branches": [
            {
                "address": profile.address,
                "executed": profile.executed,
                "taken": profile.taken,
            }
            for profile in sorted(
                record.branches.values(), key=lambda p: p.address
            )
        ],
    }


def record_from_entry(entry: Dict) -> HotSpotRecord:
    """Parse one entry produced by :func:`record_to_entry`."""
    try:
        branches = {
            b["address"]: BranchProfile(b["address"], b["executed"], b["taken"])
            for b in entry["branches"]
        }
        return HotSpotRecord(
            index=entry["index"],
            detected_at_branch=entry["detected_at_branch"],
            branches=branches,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProfileFormatError(
            f"malformed record entry: {exc}", stage="records"
        ) from exc


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

def records_to_dict(
    records: Iterable[HotSpotRecord], meta: Optional[Dict] = None
) -> Dict:
    """Serializable representation of a list of phase records."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": dict(meta or {}),
        "records": [record_to_entry(record) for record in records],
    }


def document_from_dict(document: Dict) -> ProfileDocument:
    """Parse a document produced by :func:`records_to_dict`.

    Accepts every version in :data:`SUPPORTED_VERSIONS`; anything else
    — wrong format name, future version, missing or non-list
    ``records``, a malformed provenance stamp — raises
    :class:`ProfileFormatError`.
    """
    if document.get("format") != FORMAT_NAME:
        raise ProfileFormatError(
            f"not a {FORMAT_NAME} document: format={document.get('format')!r}",
            stage="schema",
        )
    version = document.get("version")
    if version not in SUPPORTED_VERSIONS:
        raise ProfileFormatError(
            f"unsupported profile version {version!r} "
            f"(supported: {', '.join(map(str, SUPPORTED_VERSIONS))})",
            stage="schema",
        )
    entries = document.get("records")
    if not isinstance(entries, list):
        raise ProfileFormatError(
            "profile document is missing its 'records' list",
            stage="schema",
        )
    meta = document.get("meta") or {}
    if not isinstance(meta, dict):
        raise ProfileFormatError(
            "profile 'meta' must be a JSON object", stage="schema"
        )
    provenance = meta.get("provenance")
    if provenance is not None:
        if not isinstance(provenance, dict):
            raise ProfileFormatError(
                "'meta.provenance' must be an object", stage="provenance"
            )
        missing = [f for f in PROVENANCE_FIELDS if f not in provenance]
        if missing:
            raise ProfileFormatError(
                f"provenance stamp is missing fields: {', '.join(missing)}",
                stage="provenance",
            )
        epoch = provenance.get("epoch")
        if isinstance(epoch, bool) or not isinstance(epoch, int):
            raise ProfileFormatError(
                f"provenance epoch must be an integer, got {epoch!r}",
                stage="provenance",
            )
        if not isinstance(provenance.get("run_id"), str):
            raise ProfileFormatError(
                "provenance run_id must be a string",
                stage="provenance",
            )
    return ProfileDocument(
        records=[record_from_entry(entry) for entry in entries],
        meta=meta,
        version=version,
    )


def records_to_json(
    records: Iterable[HotSpotRecord], meta: Optional[Dict] = None
) -> str:
    return json.dumps(records_to_dict(records, meta), indent=2, sort_keys=True)


def document_from_json(text: str) -> ProfileDocument:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProfileFormatError(
            f"invalid JSON: {exc}", stage="parse"
        ) from exc
    if not isinstance(document, dict):
        raise ProfileFormatError(
            "profile document must be a JSON object", stage="parse"
        )
    return document_from_dict(document)


def records_from_json(text: str) -> List[HotSpotRecord]:
    return document_from_json(text).records


def save_profile(
    path: Union[str, Path],
    records: Iterable[HotSpotRecord],
    meta: Optional[Dict] = None,
) -> None:
    """Write a profile document to ``path``."""
    Path(path).write_text(records_to_json(records, meta))


def load_profile(path: Union[str, Path]) -> List[HotSpotRecord]:
    """Read a profile document from ``path``."""
    return records_from_json(Path(path).read_text())


def load_document(path: Union[str, Path]) -> ProfileDocument:
    """Read a profile document, keeping its meta/provenance."""
    return document_from_json(Path(path).read_text())
