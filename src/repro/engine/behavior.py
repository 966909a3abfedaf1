"""Phase-dependent branch behaviour.

Real programs compute branch conditions from data; our synthetic
workloads substitute a :class:`BehaviorModel` that assigns each static
conditional branch a per-phase taken probability (see DESIGN.md,
"Substitutions").  Outcomes are produced by hashing
``(branch, occurrence, seed)`` through a splitmix64-style mixer, which
has two properties the experiments rely on:

* **Determinism** — the i-th execution of a given original branch
  resolves identically in every run, including runs of the *packed*
  binary where the branch was replicated into several packages (copies
  share the original's uid through ``Instruction.origin``).  Coverage
  and speedup comparisons therefore see the same dynamic control flow.
* **Independence** — outcomes behave statistically like a Bernoulli
  stream at the configured probability, so loop trip counts and bias
  categorization come out as designed.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x


def hash_unit(branch_uid: int, occurrence: int, seed: int) -> float:
    """Deterministic uniform value in [0, 1) for one branch execution."""
    mixed = _splitmix64(branch_uid * 0x100000001B3 ^ _splitmix64(occurrence ^ seed))
    return mixed / float(1 << 64)


BiasSpec = Union[float, Dict[int, float]]


class BehaviorModel:
    """Per-branch, per-phase taken probabilities."""

    def __init__(self, default_prob: float = 0.5, seed: int = 0x5EED):
        self.default_prob = default_prob
        self.seed = seed
        # uid -> phase -> probability; the None phase is the branch default.
        self._bias: Dict[int, Dict[Optional[int], float]] = {}
        # uid -> registration-order id.  Outcomes are hashed on this
        # stable id, so a workload's behaviour depends only on its own
        # construction order, not on how many instructions other
        # workloads allocated first in the same process.
        self._stable_id: Dict[int, int] = {}

    # -- configuration ------------------------------------------------
    def set_bias(
        self, branch_uid: int, probability: float, phase: Optional[int] = None
    ) -> None:
        """Set the taken probability of a branch (optionally per phase)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability} out of range")
        if branch_uid not in self._stable_id:
            self._stable_id[branch_uid] = len(self._stable_id) + 1
        self._bias.setdefault(branch_uid, {})[phase] = probability

    def set_phase_biases(self, branch_uid: int, by_phase: Dict[int, float]) -> None:
        for phase, probability in by_phase.items():
            self.set_bias(branch_uid, probability, phase)

    def register_branches(self, branch_uids: Iterable[int]) -> None:
        """Assign stable ids to branches without configuring a bias.

        Outcomes hash on the stable id with the raw uid as fallback, and
        uids shift with process-global allocation — so any *unregistered*
        branch that executes (default-probability code that only drift or
        a mutated fleet reaches) would resolve differently depending on
        how many workloads were built first in the process.  The workload
        generator registers every conditional branch at build time so the
        model's determinism contract holds for all reachable code, not
        just biased branches.  Idempotent; existing ids never move.
        """
        for uid in branch_uids:
            if uid not in self._stable_id:
                self._stable_id[uid] = len(self._stable_id) + 1

    # -- queries ----------------------------------------------------------
    def prob(self, branch_uid: int, phase: int) -> float:
        """Taken probability of ``branch_uid`` while in ``phase``."""
        table = self._bias.get(branch_uid)
        if table is None:
            return self.default_prob
        if phase in table:
            return table[phase]
        return table.get(None, self.default_prob)

    def taken(self, branch_uid: int, occurrence: int, phase: int) -> bool:
        """Deterministic outcome of one execution of a branch."""
        key = self._stable_id.get(branch_uid, branch_uid)
        return hash_unit(key, occurrence, self.seed) < self.prob(
            branch_uid, phase
        )

    def default_cold_branches(self) -> List[int]:
        """Branches whose only bias entry is a phase-independent 0.0.

        These are the workload generator's never-taken guards into cold
        code — the lever the drift simulator pulls: warming one routes
        real execution into blocks no profile ever saw.  Sorted by uid,
        which is construction order, so the list is structurally stable
        across seeded rebuilds of the same workload.
        """
        return sorted(
            uid for uid, table in self._bias.items()
            if set(table) == {None} and table[None] == 0.0
        )

    def stable_id(self, branch_uid: int) -> int:
        """The registration-order id outcomes are hashed on.

        Stable across seeded rebuilds of the same workload (uids shift
        with process-global allocation; registration order does not),
        which lets drift simulation key per-branch decisions on it.
        """
        return self._stable_id.get(branch_uid, branch_uid)

    def bias_snapshot(self) -> Dict[int, Dict[Optional[int], float]]:
        """A deep copy of the bias table, for later :meth:`restore_biases`."""
        return {uid: dict(phases) for uid, phases in self._bias.items()}

    def restore_biases(
        self, snapshot: Dict[int, Dict[Optional[int], float]]
    ) -> None:
        """Reset the bias table to a :meth:`bias_snapshot` copy.

        Stable ids are left untouched: branches keep the registration
        order they were created with, so outcomes after a restore match
        the original model exactly."""
        self._bias = {uid: dict(phases) for uid, phases in snapshot.items()}

    def __contains__(self, branch_uid: int) -> bool:
        return branch_uid in self._bias
