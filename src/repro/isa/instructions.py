"""Instruction set for the synthetic EPIC-like machine.

The paper evaluates on an 8-issue EPIC machine with five functional
unit classes (Table 2): integer ALU, floating point, long-latency
floating point, memory, and control.  This module defines a compact
fixed-width instruction set covering those classes, together with the
:class:`Instruction` record used throughout the program model,
analyses, optimizer, and simulators.

Every instruction carries a globally unique ``uid``.  When the package
extractor copies instructions into packages, the copies record the uid
of the instruction they were cloned from in ``origin``; following the
``origin`` chain back to the original binary is how the behavioral
execution engine and the coverage/timing experiments relate replicated
code to the branch it came from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Tuple

from .registers import Reg


class FuClass(Enum):
    """Functional-unit class an opcode executes on (Table 2)."""

    IALU = "ialu"
    FPU = "fpu"
    LONG_FP = "long_fp"
    MEM = "mem"
    BRANCH = "branch"
    PSEUDO = "pseudo"


class Opcode(Enum):
    """Opcodes of the synthetic ISA.

    The ``value`` tuple is ``(mnemonic, fu_class, code)`` where ``code``
    is the byte used by the binary encoding.
    """

    # Integer ALU --------------------------------------------------
    ADD = ("add", FuClass.IALU, 0x01)
    SUB = ("sub", FuClass.IALU, 0x02)
    MUL = ("mul", FuClass.IALU, 0x03)
    AND = ("and", FuClass.IALU, 0x04)
    OR = ("or", FuClass.IALU, 0x05)
    XOR = ("xor", FuClass.IALU, 0x06)
    SHL = ("shl", FuClass.IALU, 0x07)
    SHR = ("shr", FuClass.IALU, 0x08)
    SLT = ("slt", FuClass.IALU, 0x09)
    SEQ = ("seq", FuClass.IALU, 0x0A)
    SNE = ("sne", FuClass.IALU, 0x0B)
    ADDI = ("addi", FuClass.IALU, 0x0C)
    SUBI = ("subi", FuClass.IALU, 0x0D)
    MULI = ("muli", FuClass.IALU, 0x0E)
    ANDI = ("andi", FuClass.IALU, 0x0F)
    ORI = ("ori", FuClass.IALU, 0x10)
    XORI = ("xori", FuClass.IALU, 0x11)
    SHLI = ("shli", FuClass.IALU, 0x12)
    SHRI = ("shri", FuClass.IALU, 0x13)
    SLTI = ("slti", FuClass.IALU, 0x14)
    MOV = ("mov", FuClass.IALU, 0x15)
    MOVI = ("movi", FuClass.IALU, 0x16)
    NOP = ("nop", FuClass.IALU, 0x17)

    # Memory -------------------------------------------------------
    LOAD = ("load", FuClass.MEM, 0x20)
    STORE = ("store", FuClass.MEM, 0x21)
    FLOAD = ("fload", FuClass.MEM, 0x22)
    FSTORE = ("fstore", FuClass.MEM, 0x23)

    # Floating point ----------------------------------------------
    FADD = ("fadd", FuClass.FPU, 0x30)
    FSUB = ("fsub", FuClass.FPU, 0x31)
    FMUL = ("fmul", FuClass.FPU, 0x32)
    FMOV = ("fmov", FuClass.FPU, 0x33)
    FNEG = ("fneg", FuClass.FPU, 0x34)
    CVTIF = ("cvtif", FuClass.FPU, 0x35)
    CVTFI = ("cvtfi", FuClass.FPU, 0x36)

    # Long-latency floating point ----------------------------------
    FDIV = ("fdiv", FuClass.LONG_FP, 0x40)
    FSQRT = ("fsqrt", FuClass.LONG_FP, 0x41)

    # Control ------------------------------------------------------
    BRZ = ("brz", FuClass.BRANCH, 0x50)
    BRNZ = ("brnz", FuClass.BRANCH, 0x51)
    JUMP = ("jump", FuClass.BRANCH, 0x52)
    CALL = ("call", FuClass.BRANCH, 0x53)
    RET = ("ret", FuClass.BRANCH, 0x54)
    HALT = ("halt", FuClass.BRANCH, 0x55)

    # Pseudo-instructions (never emitted to the binary image) ------
    # CONSUME marks registers live across a package side exit; the
    # optimizer treats it as a use so data-flow stays sound after cold
    # code is removed (paper section 3.3.1).
    CONSUME = ("consume", FuClass.PSEUDO, 0x7F)

    # Plain attributes, not properties: opcode classification sits on
    # the hottest paths (encoding, block sizing, scheduling) and a
    # descriptor call per access is measurable there.
    def __init__(self, mnemonic: str, fu_class: FuClass, code: int):
        self.mnemonic = mnemonic
        self.fu_class = fu_class
        self.code = code


OPCODE_BY_MNEMONIC = {op.mnemonic: op for op in Opcode}
OPCODE_BY_CODE = {op.code: op for op in Opcode}

CONDITIONAL_BRANCHES = frozenset({Opcode.BRZ, Opcode.BRNZ})
CONTROL_OPCODES = frozenset(
    {Opcode.BRZ, Opcode.BRNZ, Opcode.JUMP, Opcode.CALL, Opcode.RET, Opcode.HALT}
)
IMMEDIATE_ALU = frozenset(
    {
        Opcode.ADDI,
        Opcode.SUBI,
        Opcode.MULI,
        Opcode.ANDI,
        Opcode.ORI,
        Opcode.XORI,
        Opcode.SHLI,
        Opcode.SHRI,
        Opcode.SLTI,
    }
)

_uid_counter = itertools.count(1)


def _next_uid() -> int:
    return next(_uid_counter)


@dataclass
class Instruction:
    """One machine instruction.

    Fields:

    * ``opcode`` — the operation.
    * ``dest`` — destination register, or ``None``.
    * ``srcs`` — source registers, in operand order.
    * ``imm`` — immediate operand (ALU immediates, memory displacement).
    * ``target`` — label or function-name operand of control transfers.
    * ``uid`` — globally unique id, assigned at construction.
    * ``origin`` — uid of the instruction this one was copied from, or
      ``None`` when the instruction belongs to the original binary.
    """

    opcode: Opcode
    dest: Optional[Reg] = None
    srcs: Tuple[Reg, ...] = ()
    imm: int = 0
    target: Optional[str] = None
    uid: int = field(default_factory=_next_uid)
    origin: Optional[int] = None

    # -- classification -------------------------------------------
    @property
    def fu_class(self) -> FuClass:
        return self.opcode.fu_class

    # Classification avoids frozenset membership (enum hashing is
    # surprisingly hot): control opcodes are exactly the BRANCH
    # functional-unit class, pseudo exactly the PSEUDO class.
    @property
    def is_control(self) -> bool:
        return self.opcode.fu_class is FuClass.BRANCH

    @property
    def is_conditional_branch(self) -> bool:
        opcode = self.opcode
        return opcode is Opcode.BRZ or opcode is Opcode.BRNZ

    @property
    def is_call(self) -> bool:
        return self.opcode is Opcode.CALL

    @property
    def is_return(self) -> bool:
        return self.opcode is Opcode.RET

    @property
    def is_store(self) -> bool:
        return self.opcode in (Opcode.STORE, Opcode.FSTORE)

    @property
    def is_load(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.FLOAD)

    @property
    def is_memory(self) -> bool:
        return self.opcode.fu_class is FuClass.MEM

    @property
    def is_pseudo(self) -> bool:
        return self.opcode.fu_class is FuClass.PSEUDO

    # -- data-flow ------------------------------------------------
    def defs(self) -> Tuple[Reg, ...]:
        """Registers written by this instruction (ignoring calls).

        Call-site register effects depend on the calling convention and
        are handled by the liveness analysis, not here.
        """
        if self.dest is not None:
            return (self.dest,)
        return ()

    def uses(self) -> Tuple[Reg, ...]:
        """Registers read by this instruction (ignoring calls)."""
        return self.srcs

    def root_origin(self) -> int:
        """Uid identifying the original-binary instruction this came from."""
        return self.origin if self.origin is not None else self.uid

    # -- copying ---------------------------------------------------
    def clone(self) -> "Instruction":
        """Copy this instruction, recording its provenance in ``origin``.

        Built by copying ``__dict__`` directly: package extraction and
        the rewriter clone whole programs, and ``dataclasses.replace``
        (or even ``__init__``) costs a multiple of this per copy.
        """
        new = object.__new__(Instruction)
        d = dict(self.__dict__)
        d["uid"] = _next_uid()
        if d["origin"] is None:
            d["origin"] = self.uid
        new.__dict__ = d
        return new

    def retargeted(self, target: str) -> "Instruction":
        """Copy of this instruction with a different control target.

        The uid is preserved: retargeting models a post-link patch of
        the same binary instruction, not a new instruction.
        """
        return Instruction(
            opcode=self.opcode,
            dest=self.dest,
            srcs=self.srcs,
            imm=self.imm,
            target=target,
            uid=self.uid,
            origin=self.origin,
        )

    # -- printing --------------------------------------------------
    def render(self) -> str:
        """Assembly text for this instruction (without address)."""
        op = self.opcode
        parts = [op.mnemonic]
        operands = []
        if op in (Opcode.LOAD, Opcode.FLOAD):
            operands = [str(self.dest), f"[{self.srcs[0]}+{self.imm}]"]
        elif op in (Opcode.STORE, Opcode.FSTORE):
            operands = [str(self.srcs[0]), f"[{self.srcs[1]}+{self.imm}]"]
        elif op is Opcode.MOVI:
            operands = [str(self.dest), str(self.imm)]
        elif op in IMMEDIATE_ALU:
            operands = [str(self.dest), str(self.srcs[0]), str(self.imm)]
        elif op in (Opcode.BRZ, Opcode.BRNZ):
            operands = [str(self.srcs[0]), str(self.target)]
        elif op in (Opcode.JUMP, Opcode.CALL):
            operands = [str(self.target)]
        elif op in (Opcode.RET, Opcode.HALT, Opcode.NOP):
            operands = []
        elif op is Opcode.CONSUME:
            operands = [str(r) for r in self.srcs]
        else:
            if self.dest is not None:
                operands.append(str(self.dest))
            operands.extend(str(r) for r in self.srcs)
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)

    def __str__(self) -> str:
        return self.render()
