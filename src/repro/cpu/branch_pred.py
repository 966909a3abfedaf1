"""Branch prediction structures (paper Table 2).

* gshare direction predictor: 10-bit global history XORed into a table
  of 2-bit saturating counters;
* 1024-entry branch target buffer (4-way) for taken-transfer targets;
* 32-entry return address stack.

The paper's machine resolves branches in 7 cycles; the timing model
charges that on a direction mispredict (and on RAS misses), and a
1-cycle fetch bubble on every taken transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class PredictorStats:
    predictions: int = 0
    mispredictions: int = 0

    @property
    def accuracy(self) -> float:
        if not self.predictions:
            return 1.0
        return 1.0 - self.mispredictions / self.predictions


class GsharePredictor:
    """Classic gshare: global history XOR PC bits index a 2-bit PHT."""

    def __init__(self, history_bits: int = 10):
        self.history_bits = history_bits
        self.table_size = 1 << history_bits
        self.mask = self.table_size - 1
        self.counters = [2] * self.table_size  # weakly taken
        self.history = 0
        self.stats = PredictorStats()

    def _index(self, address: int) -> int:
        return ((address >> 3) ^ self.history) & self.mask

    def predict_and_update(self, address: int, taken: bool) -> bool:
        """Predict the branch at ``address``; returns prediction
        correctness and trains the structures."""
        index = self._index(address)
        counter = self.counters[index]
        prediction = counter >= 2
        correct = prediction == taken
        self.stats.predictions += 1
        if not correct:
            self.stats.mispredictions += 1
        if taken and counter < 3:
            self.counters[index] = counter + 1
        elif not taken and counter > 0:
            self.counters[index] = counter - 1
        self.history = ((self.history << 1) | int(taken)) & self.mask
        return correct


class BranchTargetBuffer:
    """Set-associative BTB; a taken transfer missing here costs a
    redirect even when the direction was predicted correctly."""

    def __init__(self, entries: int = 1024, ways: int = 4):
        if entries % ways:
            raise ValueError("entries must divide evenly into ways")
        self.sets = entries // ways
        self.ways = ways
        self._table: List[Dict[int, int]] = [dict() for _ in range(self.sets)]
        self._tick = 0

    def lookup_and_update(self, address: int) -> bool:
        """True on hit; allocates/refreshes the entry either way."""
        self._tick += 1
        index = (address >> 3) % self.sets
        entry_set = self._table[index]
        hit = address in entry_set
        entry_set[address] = self._tick
        if not hit and len(entry_set) > self.ways:
            victim = min(entry_set, key=entry_set.get)
            del entry_set[victim]
        return hit


class ReturnAddressStack:
    """Bounded RAS; overflow drops the oldest entry, so deep call
    chains mispredict on the way back out."""

    def __init__(self, depth: int = 32):
        self.depth = depth
        self._stack: List[int] = []

    def push(self, return_address: int) -> None:
        self._stack.append(return_address)
        if len(self._stack) > self.depth:
            self._stack.pop(0)

    def pop(self) -> Optional[int]:
        """Predicted return address, or ``None`` on underflow."""
        if not self._stack:
            return None
        return self._stack.pop()

    def pop_and_check(self, actual: int) -> bool:
        """True if the predicted return address matches ``actual``."""
        predicted = self.pop()
        return predicted == actual
