"""Fluent builders for constructing programs in code.

The workload generators, tests, and examples all build programs
through these helpers rather than constructing
:class:`~repro.isa.instructions.Instruction` records by hand::

    fb = FunctionBuilder("main")
    entry = fb.block("entry")
    entry.movi(R(1), 10)
    loop = fb.block("loop")
    loop.subi(R(1), R(1), 1)
    loop.brnz(R(1), "loop")
    done = fb.block("done")
    done.halt()
    program = ProgramBuilder().add(fb.build()).build(entry="main")
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.isa.instructions import Instruction, Opcode
from repro.isa.registers import Reg

from .block import BasicBlock
from .function import Function
from .program import Program


class BuildError(Exception):
    """Raised when a builder is used inconsistently."""


class BlockBuilder:
    """Accumulates the instructions of one basic block."""

    def __init__(self, label: str):
        self.label = label
        self._instructions: List[Instruction] = []
        self._terminated = False

    # -- plumbing -----------------------------------------------------
    def _emit(self, inst: Instruction) -> Instruction:
        if self._terminated:
            raise BuildError(
                f"block {self.label}: cannot add {inst.render()!r} after terminator"
            )
        if inst.is_control:
            self._terminated = True
        self._instructions.append(inst)
        return inst

    def raw(self, inst: Instruction) -> Instruction:
        """Append a pre-built instruction."""
        return self._emit(inst)

    @property
    def terminated(self) -> bool:
        return self._terminated

    def build(self) -> BasicBlock:
        return BasicBlock(self.label, list(self._instructions))

    # -- integer ALU ----------------------------------------------------
    def _alu3(self, op: Opcode, dest: Reg, src1: Reg, src2: Reg) -> Instruction:
        return self._emit(Instruction(op, dest=dest, srcs=(src1, src2)))

    def _alui(self, op: Opcode, dest: Reg, src: Reg, imm: int) -> Instruction:
        return self._emit(Instruction(op, dest=dest, srcs=(src,), imm=imm))

    def add(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.ADD, d, a, b)

    def sub(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.SUB, d, a, b)

    def mul(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.MUL, d, a, b)

    def and_(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.AND, d, a, b)

    def or_(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.OR, d, a, b)

    def xor(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.XOR, d, a, b)

    def shl(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.SHL, d, a, b)

    def shr(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.SHR, d, a, b)

    def slt(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.SLT, d, a, b)

    def seq(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.SEQ, d, a, b)

    def sne(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.SNE, d, a, b)

    def addi(self, d: Reg, a: Reg, imm: int) -> Instruction:
        return self._alui(Opcode.ADDI, d, a, imm)

    def subi(self, d: Reg, a: Reg, imm: int) -> Instruction:
        return self._alui(Opcode.SUBI, d, a, imm)

    def muli(self, d: Reg, a: Reg, imm: int) -> Instruction:
        return self._alui(Opcode.MULI, d, a, imm)

    def andi(self, d: Reg, a: Reg, imm: int) -> Instruction:
        return self._alui(Opcode.ANDI, d, a, imm)

    def ori(self, d: Reg, a: Reg, imm: int) -> Instruction:
        return self._alui(Opcode.ORI, d, a, imm)

    def xori(self, d: Reg, a: Reg, imm: int) -> Instruction:
        return self._alui(Opcode.XORI, d, a, imm)

    def shli(self, d: Reg, a: Reg, imm: int) -> Instruction:
        return self._alui(Opcode.SHLI, d, a, imm)

    def shri(self, d: Reg, a: Reg, imm: int) -> Instruction:
        return self._alui(Opcode.SHRI, d, a, imm)

    def slti(self, d: Reg, a: Reg, imm: int) -> Instruction:
        return self._alui(Opcode.SLTI, d, a, imm)

    def mov(self, d: Reg, s: Reg) -> Instruction:
        return self._emit(Instruction(Opcode.MOV, dest=d, srcs=(s,)))

    def movi(self, d: Reg, imm: int) -> Instruction:
        return self._emit(Instruction(Opcode.MOVI, dest=d, imm=imm))

    def nop(self) -> Instruction:
        return self._emit(Instruction(Opcode.NOP))

    # -- memory ------------------------------------------------------------
    def load(self, d: Reg, base: Reg, offset: int = 0) -> Instruction:
        return self._emit(Instruction(Opcode.LOAD, dest=d, srcs=(base,), imm=offset))

    def store(self, value: Reg, base: Reg, offset: int = 0) -> Instruction:
        return self._emit(Instruction(Opcode.STORE, srcs=(value, base), imm=offset))

    def fload(self, d: Reg, base: Reg, offset: int = 0) -> Instruction:
        return self._emit(Instruction(Opcode.FLOAD, dest=d, srcs=(base,), imm=offset))

    def fstore(self, value: Reg, base: Reg, offset: int = 0) -> Instruction:
        return self._emit(Instruction(Opcode.FSTORE, srcs=(value, base), imm=offset))

    # -- floating point -------------------------------------------------------
    def fadd(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.FADD, d, a, b)

    def fsub(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.FSUB, d, a, b)

    def fmul(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.FMUL, d, a, b)

    def fdiv(self, d: Reg, a: Reg, b: Reg) -> Instruction:
        return self._alu3(Opcode.FDIV, d, a, b)

    def fsqrt(self, d: Reg, a: Reg) -> Instruction:
        return self._emit(Instruction(Opcode.FSQRT, dest=d, srcs=(a,)))

    def fmov(self, d: Reg, s: Reg) -> Instruction:
        return self._emit(Instruction(Opcode.FMOV, dest=d, srcs=(s,)))

    def fneg(self, d: Reg, s: Reg) -> Instruction:
        return self._emit(Instruction(Opcode.FNEG, dest=d, srcs=(s,)))

    def cvtif(self, d: Reg, s: Reg) -> Instruction:
        return self._emit(Instruction(Opcode.CVTIF, dest=d, srcs=(s,)))

    def cvtfi(self, d: Reg, s: Reg) -> Instruction:
        return self._emit(Instruction(Opcode.CVTFI, dest=d, srcs=(s,)))

    # -- control ------------------------------------------------------------
    def brz(self, cond: Reg, target: str) -> Instruction:
        return self._emit(Instruction(Opcode.BRZ, srcs=(cond,), target=target))

    def brnz(self, cond: Reg, target: str) -> Instruction:
        return self._emit(Instruction(Opcode.BRNZ, srcs=(cond,), target=target))

    def jump(self, target: str) -> Instruction:
        return self._emit(Instruction(Opcode.JUMP, target=target))

    def call(self, function_name: str) -> Instruction:
        return self._emit(Instruction(Opcode.CALL, target=function_name))

    def ret(self) -> Instruction:
        return self._emit(Instruction(Opcode.RET))

    def halt(self) -> Instruction:
        return self._emit(Instruction(Opcode.HALT))


class FunctionBuilder:
    """Accumulates the blocks of one function, in layout order."""

    def __init__(self, name: str):
        self.name = name
        self._blocks: List[BlockBuilder] = []
        self._labels: Dict[str, BlockBuilder] = {}
        self._label_counter = 0

    def fresh_label(self, stem: str = "bb") -> str:
        self._label_counter += 1
        return f"{stem}{self._label_counter}"

    def block(self, label: Optional[str] = None) -> BlockBuilder:
        """Start a new block appended after all existing blocks."""
        label = label or self.fresh_label()
        if label in self._labels:
            raise BuildError(f"duplicate block label {label!r} in {self.name}")
        builder = BlockBuilder(label)
        self._blocks.append(builder)
        self._labels[label] = builder
        return builder

    def build(self, entry_label: Optional[str] = None) -> Function:
        if not self._blocks:
            raise BuildError(f"function {self.name} has no blocks")
        return Function(
            self.name,
            [b.build() for b in self._blocks],
            entry_label or self._blocks[0].label,
        )


class ProgramBuilder:
    """Accumulates functions into a :class:`Program`."""

    def __init__(self):
        self._functions: List[Function] = []

    def add(self, function: Function) -> "ProgramBuilder":
        self._functions.append(function)
        return self

    def function(self, name: str) -> FunctionBuilder:
        """Convenience: a new :class:`FunctionBuilder` (not auto-added)."""
        return FunctionBuilder(name)

    def build(self, entry: str = "main", validate: bool = True) -> Program:
        program = Program(self._functions, entry=entry)
        if validate:
            program.validate()
        return program
