"""Validation oracles for package plans and packed programs.

Production binary optimizers treat profile data as untrusted input:
stale or corrupt profiles must be *detected* and discarded, never
allowed to corrupt the output binary.  Two layers of defense live here:

* **Structural validators** — cheap invariant checks run on every
  :class:`~repro.packages.construct.PackagedProgramPlan` and
  :class:`~repro.postlink.rewriter.PackedProgram`: every launch point
  targets a real package entry block, every side exit resolves into
  original (or linked) code, package CFGs are well-formed, and
  ``link_image()`` round-trips every patched displacement.

* **Differential oracle** — replays the workload over the original and
  packed programs and asserts the conditional-branch outcome stream is
  bit-identical (compared via a running digest, so arbitrarily long
  streams cost constant memory) and that retired *work* (non
  control-transfer) instructions are preserved **per origin uid**.
  Packing mostly adds/removes control glue — launch trampolines, exit
  jumps, layout's eliminated jumps — but the cold-sinking pass (paper
  section 5.4) legitimately moves a dead-on-hot-path instruction into
  exit blocks, where it retires fewer times.  The oracle therefore
  allows an origin recorded in :attr:`Package.sunk_origins` to retire
  *fewer* times in the packed run (never more); any other per-origin
  drift means the rewrite changed program semantics.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.engine.trace_cache import record_trace, traced_run
from repro.errors import DifferentialError, ValidationError
from repro.isa.instructions import Opcode
from repro.packages.construct import PackagedProgramPlan
from repro.packages.package import Package
from repro.program.cfg import is_cross_function, split_cross_function
from repro.program.program import Program
from repro.workloads.base import Workload

from .rewriter import PackedProgram


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant."""

    kind: str
    detail: str
    package: Optional[str] = None
    #: Hot-spot record index the issue is attributable to, when known.
    phase: Optional[int] = None

    def render(self) -> str:
        where = f" [{self.package}]" if self.package else ""
        return f"{self.kind}{where}: {self.detail}"


@dataclass
class ValidationReport:
    """Outcome of one validator run."""

    checks: int = 0
    issues: List[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, kind: str, detail: str, package: Optional[str] = None,
            phase: Optional[int] = None) -> None:
        self.issues.append(ValidationIssue(kind, detail, package, phase))

    def merge(self, other: "ValidationReport") -> "ValidationReport":
        self.checks += other.checks
        self.issues.extend(other.issues)
        return self

    def failing_phases(self) -> Set[int]:
        return {i.phase for i in self.issues if i.phase is not None}

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise ValidationError(
                f"{len(self.issues)} validation issue(s): "
                + "; ".join(i.render() for i in self.issues[:5]),
                issues=self.issues,
            )

    def render(self) -> str:
        if self.ok:
            return f"validation ok ({self.checks} checks)"
        lines = [f"validation FAILED ({len(self.issues)} issues, "
                 f"{self.checks} checks)"]
        lines.extend(f"  - {issue.render()}" for issue in self.issues)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# structural validation: plan
# ---------------------------------------------------------------------------

def _target_resolves(
    target: str,
    package: Package,
    package_labels: Set[str],
    siblings: Dict[str, Package],
    program: Program,
) -> bool:
    """Can a package-block control target be resolved at link time?"""
    if is_cross_function(target):
        remote_fn, remote_label = split_cross_function(target)
        sibling = siblings.get(remote_fn)
        if sibling is not None:
            return any(b.label == remote_label for b in sibling.blocks)
        function = program.functions.get(remote_fn)
        return function is not None and remote_label in function.cfg
    return target in package_labels


def validate_package(
    package: Package,
    siblings: Dict[str, Package],
    program: Program,
) -> ValidationReport:
    """Structural invariants of one package."""
    report = ValidationReport()
    phase = package.region_index

    report.checks += 1
    if not package.blocks:
        report.add("empty_package", "package has no blocks",
                   package.name, phase)
        return report

    labels = [block.label for block in package.blocks]
    label_set = set(labels)
    report.checks += 1
    if len(labels) != len(label_set):
        dupes = sorted({l for l in labels if labels.count(l) > 1})
        report.add("duplicate_labels", f"duplicated block labels {dupes}",
                   package.name, phase)

    # Entry blocks exist in the package, and mirror real original code.
    for entry_label, location in package.entry_map.items():
        report.checks += 1
        if entry_label not in label_set:
            report.add("dangling_entry",
                       f"entry label {entry_label!r} has no block",
                       package.name, phase)
        fn_name, block_label = location
        function = program.functions.get(fn_name)
        report.checks += 1
        if function is None or block_label not in function.cfg:
            report.add("unmapped_entry",
                       f"entry {entry_label!r} mirrors nonexistent "
                       f"{fn_name}/{block_label}", package.name, phase)

    # CFG well-formedness: every control target resolves, and control
    # never falls off the end of the package function.
    for i, block in enumerate(package.blocks):
        term = block.terminator
        is_last = i == len(package.blocks) - 1
        if term is None or term.is_conditional_branch or term.is_call:
            report.checks += 1
            if is_last:
                report.add("falls_off_end",
                           f"block {block.label!r} can fall off the "
                           "package end", package.name, phase)
        if term is None:
            continue
        if term.is_conditional_branch or term.opcode is Opcode.JUMP:
            report.checks += 1
            if not _target_resolves(term.target, package, label_set,
                                    siblings, program):
                report.add("unresolved_target",
                           f"block {block.label!r} targets unresolvable "
                           f"{term.target!r}", package.name, phase)
        elif term.is_call:
            report.checks += 1
            if is_cross_function(term.target):
                if not _target_resolves(term.target, package, label_set,
                                        siblings, program):
                    report.add("unresolved_call",
                               f"block {block.label!r} calls unresolvable "
                               f"{term.target!r}", package.name, phase)
            elif term.target not in program.functions:
                report.add("unresolved_call",
                           f"block {block.label!r} calls unknown function "
                           f"{term.target!r}", package.name, phase)

    # Exits resolve into original code, or into a linked sibling with an
    # identical calling context (paper section 3.3.4).
    for exit_site in package.exits:
        if exit_site.is_linked:
            dest_name, dest_label = exit_site.linked_to
            sibling = siblings.get(dest_name)
            report.checks += 1
            if sibling is None:
                report.add("dangling_link",
                           f"exit {exit_site.label!r} links to unknown "
                           f"package {dest_name!r}", package.name, phase)
                continue
            dest_block = next(
                (b for b in sibling.blocks if b.label == dest_label), None
            )
            report.checks += 1
            if dest_block is None:
                report.add("dangling_link",
                           f"exit {exit_site.label!r} links to missing "
                           f"block {dest_name}::{dest_label}",
                           package.name, phase)
            elif dest_block.context != exit_site.context:
                report.add("context_mismatch",
                           f"exit {exit_site.label!r} links across calling "
                           f"contexts {exit_site.context} -> "
                           f"{dest_block.context}", package.name, phase)
        else:
            fn_name, block_label = exit_site.target
            function = program.functions.get(fn_name)
            report.checks += 1
            if function is None or block_label not in function.cfg:
                report.add("unresolved_exit",
                           f"exit {exit_site.label!r} targets nonexistent "
                           f"{fn_name}/{block_label}", package.name, phase)
    return report


def validate_plan(
    plan: PackagedProgramPlan, program: Program
) -> ValidationReport:
    """Structural invariants of a whole package plan."""
    report = ValidationReport()
    siblings = {package.name: package for package in plan.packages}
    for package in plan.packages:
        report.merge(validate_package(package, siblings, program))
    return report


# ---------------------------------------------------------------------------
# structural validation: packed program
# ---------------------------------------------------------------------------

def validate_packed(packed: PackedProgram) -> ValidationReport:
    """Structural invariants of the rewritten binary."""
    report = ValidationReport()
    program = packed.program
    packages = {package.name: package for package in plan_packages(packed)}

    # Program-level link validity (call targets resolve).
    report.checks += 1
    try:
        program.validate()
    except Exception as exc:
        report.add("program_invalid", str(exc))

    # Every launch point targets a real entry block of a real package.
    for (fn_name, label), (pkg_name, pkg_label) in packed.launch_map.items():
        package = packages.get(pkg_name)
        phase = package.region_index if package else None
        report.checks += 1
        if pkg_name not in packed.package_names:
            report.add("launch_unknown_package",
                       f"launch {fn_name}/{label} targets undeployed "
                       f"package {pkg_name!r}", pkg_name, phase)
            continue
        function = program.functions.get(pkg_name)
        report.checks += 1
        if function is None or pkg_label not in function.cfg:
            report.add("launch_missing_block",
                       f"launch {fn_name}/{label} targets missing block "
                       f"{pkg_name}::{pkg_label}", pkg_name, phase)
            continue
        report.checks += 1
        if package is not None and pkg_label not in package.entry_map:
            report.add("launch_not_entry",
                       f"launch {fn_name}/{label} targets non-entry block "
                       f"{pkg_name}::{pkg_label}", pkg_name, phase)

    # Side exits of deployed packages leave the package set (or follow
    # a link into a sibling package).
    for package in packages.values():
        for exit_site in package.exits:
            if exit_site.is_linked:
                dest_name, dest_label = exit_site.linked_to
                dest_fn = program.functions.get(dest_name)
                report.checks += 1
                if (
                    dest_name not in packed.package_names
                    or dest_fn is None
                    or dest_label not in dest_fn.cfg
                ):
                    report.add("exit_bad_link",
                               f"exit {exit_site.label!r} links to "
                               f"{dest_name}::{dest_label}, not a deployed "
                               "package block", package.name,
                               package.region_index)
            else:
                fn_name, block_label = exit_site.target
                function = program.functions.get(fn_name)
                report.checks += 1
                if function is None or block_label not in function.cfg:
                    report.add("exit_unresolved",
                               f"exit {exit_site.label!r} targets missing "
                               f"{fn_name}/{block_label}", package.name,
                               package.region_index)
                    continue
                report.checks += 1
                if fn_name in packed.package_names:
                    report.add("exit_into_package",
                               f"unlinked exit {exit_site.label!r} lands in "
                               f"package code {fn_name}/{block_label}",
                               package.name, package.region_index)

    report.merge(_validate_image_roundtrip(packed))
    return report


def _validate_image_roundtrip(packed: PackedProgram) -> ValidationReport:
    """``link_image()`` must encode, and every launch patch must decode
    back to a displacement that reaches the package entry block."""
    report = ValidationReport()
    report.checks += 1
    try:
        image = packed.link_image()
    except Exception as exc:
        report.add("link_failed", f"link_image() failed: {exc}")
        return report

    report.checks += 1
    if image.size_instructions() != packed.program.static_size():
        report.add("image_size_mismatch",
                   f"image holds {image.size_instructions()} instructions, "
                   f"program has {packed.program.static_size()}")

    # The launch map records where each patch was *supposed* to land;
    # comparing the decoded displacement against it (rather than the
    # instruction's current target) catches a mis-applied patch.
    intended: Dict[Tuple[str, str], Tuple[str, str]] = {
        (fn_name, f"{label}__lp"): dest
        for (fn_name, label), dest in packed.launch_map.items()
    }
    for function in packed.program.functions.values():
        for block in function.blocks:
            if not block.meta.get("launch_trampoline"):
                continue
            term = block.terminator
            if term is None or not is_cross_function(term.target):
                continue
            dest = intended.get((function.name, block.label))
            if dest is None:
                dest = split_cross_function(term.target)
            dest_fn, dest_label = dest
            address = image.address_of(term)
            decoded = image.decode_at(address)
            resolved = address + decoded.imm
            report.checks += 1
            try:
                expected = image.address_of_block(dest_fn, dest_label)
            except KeyError:
                report.add("patch_mismatch",
                           f"launch at {address:#x} should target "
                           f"{dest_fn}::{dest_label}, which has no address",
                           dest_fn)
                continue
            if resolved != expected:
                report.add("patch_mismatch",
                           f"launch displacement at {address:#x} resolves to "
                           f"{resolved:#x}, expected {expected:#x} "
                           f"({dest_fn}::{dest_label})", dest_fn)
    return report


def plan_packages(packed: PackedProgram) -> List[Package]:
    """The plan's packages that were actually deployed into the binary."""
    return [
        package
        for package in packed.plan.packages
        if package.name in packed.package_names
    ]


# ---------------------------------------------------------------------------
# differential oracle
# ---------------------------------------------------------------------------

@dataclass
class DifferentialReport:
    """Original-vs-packed replay comparison."""

    branches_original: int = 0
    branches_packed: int = 0
    taken_original: int = 0
    taken_packed: int = 0
    work_original: int = 0
    work_packed: int = 0
    #: Dynamic retirements saved by instructions the sink pass moved
    #: into exit blocks (a recorded, legitimate reduction).
    work_sunk: int = 0
    #: Origin uids whose retirement counts differ and are *not*
    #: explained by recorded sinking — each one is a semantics change.
    work_unexplained: List[int] = field(default_factory=list)
    stream_digest_original: str = ""
    stream_digest_packed: str = ""
    error: Optional[str] = None

    @property
    def streams_match(self) -> bool:
        return (
            self.stream_digest_original == self.stream_digest_packed
            and self.branches_original == self.branches_packed
        )

    @property
    def work_matches(self) -> bool:
        return not self.work_unexplained

    @property
    def ok(self) -> bool:
        return self.error is None and self.streams_match and self.work_matches

    def render(self) -> str:
        if self.ok:
            sunk = f", {self.work_sunk} sunk" if self.work_sunk else ""
            return (f"differential ok: {self.branches_original} branches, "
                    f"{self.work_original} work instructions{sunk}")
        parts = ["differential FAILED:"]
        if self.error:
            parts.append(f"replay error: {self.error}")
        if not self.streams_match:
            parts.append(
                f"branch streams differ "
                f"(original {self.branches_original} branches "
                f"{self.stream_digest_original[:12]}, packed "
                f"{self.branches_packed} branches "
                f"{self.stream_digest_packed[:12]})")
        if not self.work_matches:
            sample = ", ".join(str(u) for u in self.work_unexplained[:5])
            parts.append(f"work instructions differ "
                         f"(original {self.work_original}, "
                         f"packed {self.work_packed}; unexplained "
                         f"origins: {sample})")
        return " ".join(parts)


class _StreamHasher:
    """Constant-memory digest over a (branch uid, taken) event stream."""

    def __init__(self) -> None:
        self._hash = hashlib.blake2b(digest_size=16)
        self._buffer = bytearray()
        self.events = 0
        self.taken = 0

    def __call__(self, uid: int, taken: bool, phase: int) -> None:
        self.events += 1
        if taken:
            self.taken += 1
        self._buffer += struct.pack("<q?", uid, taken)
        if len(self._buffer) >= 65536:
            self._hash.update(self._buffer)
            self._buffer.clear()

    def digest(self) -> str:
        self._hash.update(self._buffer)
        self._buffer.clear()
        return self._hash.hexdigest()


#: Packed record layout matching ``struct.pack("<q?", uid, taken)``.
_EVENT_DTYPE = np.dtype([("u", "<i8"), ("t", "?")])


def digest_stream_arrays(uids, taken) -> str:
    """The :class:`_StreamHasher` digest of a whole recorded stream,
    computed in one shot from (uid, taken) arrays."""
    events = np.empty(len(uids), dtype=_EVENT_DTYPE)
    events["u"] = uids
    events["t"] = taken
    digest = hashlib.blake2b(digest_size=16)
    digest.update(events.tobytes())
    return digest.hexdigest()


def retired_work_instructions(program: Program, summary) -> int:
    """Dynamic non-control (work) instructions retired by one run."""
    per_block: Dict[int, int] = {}
    for function in program.functions.values():
        for block in function.blocks:
            per_block[block.uid] = sum(
                1 for inst in block.instructions
                if not inst.is_pseudo and not inst.is_control
            )
    return sum(
        visits * per_block.get(uid, 0)
        for uid, visits in summary.block_visits.items()
    )


def retired_work_by_origin(program: Program, summary) -> Dict[int, int]:
    """Dynamic work retirements keyed by original-binary instruction uid.

    Replicated copies in packages aggregate onto the instruction they
    were cloned from (via :meth:`Instruction.root_origin`), so the
    packed map is directly comparable to the original program's map.
    """
    per_block: Dict[int, List[int]] = {}
    for function in program.functions.values():
        for block in function.blocks:
            per_block[block.uid] = [
                inst.root_origin()
                for inst in block.instructions
                if not inst.is_pseudo and not inst.is_control
            ]
    counts: Dict[int, int] = {}
    for uid, visits in summary.block_visits.items():
        for origin in per_block.get(uid, ()):
            counts[origin] = counts.get(origin, 0) + visits
    return counts


def _work_divergences(
    original: Dict[int, int],
    packed: Dict[int, int],
    sunk_origins: Set[int],
) -> Tuple[List[int], int]:
    """Split per-origin count differences into (unexplained, sunk savings)."""
    unexplained: List[int] = []
    sunk_savings = 0
    for origin in set(original) | set(packed):
        before = original.get(origin, 0)
        after = packed.get(origin, 0)
        if after == before:
            continue
        if origin in sunk_origins and after < before:
            sunk_savings += before - after
        else:
            unexplained.append(origin)
    return sorted(unexplained), sunk_savings


def differential_check(
    workload: Workload, packed: PackedProgram
) -> DifferentialReport:
    """Replay the workload over both programs and compare behavior.

    The behavior model and phase script are keyed by branch *origin*
    uids and occurrence counts, so both replays consume the identical
    ground truth; any divergence is the rewriter's fault.

    Raises :class:`~repro.errors.DifferentialError` when the two runs
    stop for different reasons: the traces then cover different
    execution prefixes and none of the comparisons in the returned
    report would be meaningful.

    The original side comes through the trace cache, the packed side
    is *recomputed* by the same recorder
    (:func:`~repro.engine.trace_cache.record_trace`; never replayed —
    replay would assume the very stream equality this oracle checks),
    and the digests are taken over the recorded arrays in bulk.
    """
    report = DifferentialReport()
    try:
        original_trace = traced_run(workload)
        packed_trace = record_trace(workload, packed.program)
    except Exception as exc:
        report.error = f"{type(exc).__name__}: {exc}"
        return report
    original_run = original_trace.summary
    packed_run = packed_trace.summary
    report.branches_original = len(original_trace)
    report.branches_packed = len(packed_trace)
    report.taken_original = original_run.taken_branches
    report.taken_packed = packed_run.taken_branches
    report.stream_digest_original = digest_stream_arrays(
        original_trace.uids, original_trace.taken
    )
    report.stream_digest_packed = digest_stream_arrays(
        packed_trace.uids, packed_trace.taken
    )

    report.work_original = retired_work_instructions(
        workload.program, original_run
    )
    report.work_packed = retired_work_instructions(
        packed.program, packed_run
    )
    sunk_origins: Set[int] = set()
    for package in plan_packages(packed):
        sunk_origins |= package.sunk_origins
    report.work_unexplained, report.work_sunk = _work_divergences(
        retired_work_by_origin(workload.program, original_run),
        retired_work_by_origin(packed.program, packed_run),
        sunk_origins,
    )
    # A stop-reason mismatch means the two runs terminated for different
    # reasons — the recorded streams then cover *different execution
    # prefixes*, and every comparison above was computed over truncated,
    # incommensurable data.  A mere failing report would let a caller
    # that only consults streams_match/work_matches silently pass, so
    # this is a loud, typed failure instead.
    if original_run.stop_reason is not packed_run.stop_reason:
        raise DifferentialError(
            f"stop reasons diverge: original {original_run.stop_reason.value}, "
            f"packed {packed_run.stop_reason.value} — traces cover different "
            "prefixes and cannot be compared",
            original=original_run.stop_reason.value,
            packed=packed_run.stop_reason.value,
        )
    return report


def validate_pack(
    workload: Workload,
    packed: PackedProgram,
    differential: bool = False,
) -> Tuple[ValidationReport, Optional[DifferentialReport]]:
    """Run the full oracle battery over one packed program."""
    structural = validate_plan(packed.plan, workload.program)
    structural.merge(validate_packed(packed))
    diff = differential_check(workload, packed) if differential else None
    return structural, diff
