"""Whole programs: a set of functions with a designated entry.

A :class:`Program` is what the workload generator emits, what the Hot
Spot Detector profiles, and what the post-link rewriter transforms into
a *packed* program (original code + appended phase packages).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

from repro.isa.instructions import Instruction

from .block import BasicBlock
from .callgraph import CallGraph
from .function import Function


class ProgramError(Exception):
    """Raised for malformed programs."""


class Program:
    """A linked collection of functions."""

    def __init__(self, functions: Iterable[Function], entry: str = "main"):
        self.functions: Dict[str, Function] = {}
        for function in functions:
            if function.name in self.functions:
                raise ProgramError(f"duplicate function {function.name!r}")
            self.functions[function.name] = function
        if entry not in self.functions:
            raise ProgramError(f"entry function {entry!r} not defined")
        self.entry = entry

    # -- structure ----------------------------------------------------
    def validate(self) -> None:
        """Check cross-function invariants (call targets exist).

        Call targets are normally function names; post-link patched
        launch points may instead name a block (``function::label``)
        inside a package.
        """
        from .cfg import is_cross_function, split_cross_function

        for function in self.functions.values():
            for callee in function.callee_names():
                if is_cross_function(callee):
                    target_fn, label = split_cross_function(callee)
                    target = self.functions.get(target_fn)
                    if target is None or label not in target.cfg:
                        raise ProgramError(
                            f"{function.name} calls unresolved target {callee!r}"
                        )
                elif callee not in self.functions:
                    raise ProgramError(
                        f"{function.name} calls undefined function {callee!r}"
                    )

    def call_graph(self) -> CallGraph:
        return CallGraph.from_program(self)

    def add_function(self, function: Function) -> None:
        if function.name in self.functions:
            raise ProgramError(f"duplicate function {function.name!r}")
        self.functions[function.name] = function

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise ProgramError(f"no function named {name!r}") from None

    # -- statistics ------------------------------------------------------
    def static_size(self) -> int:
        """Total static instruction count (excluding pseudo ops)."""
        return sum(f.size() for f in self.functions.values())

    def iter_blocks(self) -> Iterator[Tuple[Function, BasicBlock]]:
        for function in self.functions.values():
            for block in function.blocks:
                yield function, block

    def iter_instructions(self) -> Iterator[Tuple[Function, BasicBlock, Instruction]]:
        for function, block in self.iter_blocks():
            for inst in block.instructions:
                yield function, block, inst

    # -- lookup indexes ---------------------------------------------------
    def block_index(self) -> Dict[int, Tuple[str, str]]:
        """Map block uid -> (function name, block label)."""
        return {
            block.uid: (function.name, block.label)
            for function, block in self.iter_blocks()
        }

    def branch_block_index(self) -> Dict[int, Tuple[str, str]]:
        """Map conditional-branch instruction uid -> (function, block label)."""
        index = {}
        for function, block in self.iter_blocks():
            term = block.terminator
            if term is not None and term.is_conditional_branch:
                index[term.uid] = (function.name, block.label)
        return index

    # -- printing ------------------------------------------------------------
    def render(self) -> str:
        parts = [self.functions[self.entry].render()]
        parts.extend(
            f.render() for name, f in sorted(self.functions.items()) if name != self.entry
        )
        return "\n\n".join(parts)

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"<Program entry={self.entry!r} functions={len(self.functions)} "
            f"insts={self.static_size()}>"
        )


def merge_programs(base: Program, extra_functions: Iterable[Function]) -> Program:
    """New program containing ``base``'s functions plus ``extra_functions``."""
    merged = Program(list(base.functions.values()), entry=base.entry)
    for function in extra_functions:
        merged.add_function(function)
    return merged
