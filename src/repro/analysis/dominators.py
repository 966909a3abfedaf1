"""Dominator trees (Cooper-Harvey-Kennedy iterative algorithm).

Used by natural-loop detection, which in turn feeds the workload
generator's loop statistics and the optimizer's layout heuristics.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.program.cfg import ControlFlowGraph


class DominatorTree:
    """Immediate dominators for the blocks reachable from the entry."""

    def __init__(self, cfg: ControlFlowGraph):
        self.cfg = cfg
        self._rpo = self._reverse_postorder()
        self._index = {label: i for i, label in enumerate(self._rpo)}
        self.idom: Dict[str, Optional[str]] = self._compute()

    # -- construction -------------------------------------------------
    def _reverse_postorder(self) -> List[str]:
        seen = set()
        postorder: List[str] = []

        def visit(root: str) -> None:
            stack = [(root, iter(self.cfg.succ_labels(root)))]
            seen.add(root)
            while stack:
                label, succs = stack[-1]
                advanced = False
                for succ in succs:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.cfg.succ_labels(succ))))
                        advanced = True
                        break
                if not advanced:
                    postorder.append(label)
                    stack.pop()

        visit(self.cfg.entry_label)
        return list(reversed(postorder))

    def _compute(self) -> Dict[str, Optional[str]]:
        entry = self.cfg.entry_label
        idom: Dict[str, Optional[str]] = {entry: entry}
        changed = True
        while changed:
            changed = False
            for label in self._rpo:
                if label == entry:
                    continue
                preds = [
                    p for p in self.cfg.pred_labels(label) if p in idom and p in self._index
                ]
                if not preds:
                    continue
                new_idom = preds[0]
                for pred in preds[1:]:
                    new_idom = self._intersect(pred, new_idom, idom)
                if idom.get(label) != new_idom:
                    idom[label] = new_idom
                    changed = True
        idom[entry] = None
        return idom

    def _intersect(self, a: str, b: str, idom: Dict[str, Optional[str]]) -> str:
        fa, fb = a, b
        while fa != fb:
            while self._index[fa] > self._index[fb]:
                fa = idom[fa]  # type: ignore[assignment]
            while self._index[fb] > self._index[fa]:
                fb = idom[fb]  # type: ignore[assignment]
        return fa

    # -- queries ----------------------------------------------------------
    def immediate_dominator(self, label: str) -> Optional[str]:
        """The immediate dominator, or ``None`` for the entry block."""
        return self.idom.get(label)

    def dominates(self, a: str, b: str) -> bool:
        """True if ``a`` dominates ``b`` (every block dominates itself)."""
        node: Optional[str] = b
        while node is not None:
            if node == a:
                return True
            node = self.idom.get(node)
        return False
