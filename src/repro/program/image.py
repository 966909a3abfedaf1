"""Linked binary images.

A :class:`ProgramImage` assigns every instruction of a program a byte
address, encodes the instructions into one flat image, and keeps the
symbol information needed afterwards: function/block addresses and the
reverse map from addresses to instructions.

Two parts of the reproduction depend on real addresses:

* the Hot Spot Detector's Branch Behavior Buffer is indexed by branch
  *address* bits (set-associative contention is part of the paper's
  "lossy" profile story), and
* the post-link rewriter patches launch points by writing new 4-byte
  displacements into the image (see :mod:`repro.postlink.rewriter`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.encoding import (
    INSTRUCTION_BYTES,
    decode_instruction,
    encode_instruction,
    patch_target,
)
from repro.isa.instructions import FuClass, Instruction

_PSEUDO = FuClass.PSEUDO

from .cfg import is_cross_function, split_cross_function
from .program import Program

TEXT_BASE = 0x1000


@dataclass(frozen=True)
class Symbol:
    """A (function, block label) pair with its linked address."""

    function: str
    label: str
    address: int


class LinkError(Exception):
    """Raised when a program cannot be linked into an image."""


class ProgramImage:
    """A program laid out at concrete addresses and encoded to bytes."""

    def __init__(self, program: Program, base_address: int = TEXT_BASE):
        self.program = program
        self.base_address = base_address
        self.block_address: Dict[Tuple[str, str], int] = {}
        self.function_address: Dict[str, int] = {}
        self.instruction_address: Dict[int, int] = {}  # inst uid -> address
        self.address_instruction: Dict[int, Instruction] = {}
        self.symbols: List[Symbol] = []
        self._layout()
        self.data = self._encode()

    # -- layout ------------------------------------------------------
    def _function_order(self) -> List[str]:
        names = [self.program.entry]
        names.extend(
            name for name in self.program.functions if name != self.program.entry
        )
        return names

    def _layout(self) -> None:
        address = self.base_address
        instruction_address = self.instruction_address
        address_instruction = self.address_instruction
        for name in self._function_order():
            function = self.program.functions[name]
            self.function_address[name] = address
            for block in function.blocks:
                self.block_address[(name, block.label)] = address
                self.symbols.append(Symbol(name, block.label, address))
                for inst in block.instructions:
                    if inst.opcode.fu_class is _PSEUDO:
                        continue
                    instruction_address[inst.uid] = address
                    address_instruction[address] = inst
                    address += INSTRUCTION_BYTES
        self.end_address = address

    def _encode(self) -> bytearray:
        image = bytearray(self.end_address - self.base_address)
        base = self.base_address
        instruction_address = self.instruction_address
        for name in self._function_order():
            function = self.program.functions[name]
            resolver = self._resolver_for(name)
            for block in function.blocks:
                for inst in block.instructions:
                    if inst.opcode.fu_class is _PSEUDO:
                        continue
                    address = instruction_address[inst.uid]
                    if inst.target is None:
                        # Target-less encodings are address-independent
                        # (the displacement slot holds the plain
                        # immediate), and instructions are never
                        # field-mutated after construction — so the
                        # bytes can live on the instruction itself.
                        # Packing re-links the same shared original
                        # blocks once per trial; this skips nearly all
                        # of that re-encoding.
                        encoded = inst.__dict__.get("_encoded")
                        if encoded is None:
                            encoded = encode_instruction(inst, address)
                            inst.__dict__["_encoded"] = encoded
                    else:
                        encoded = encode_instruction(inst, address, resolver)
                    offset = address - base
                    image[offset : offset + INSTRUCTION_BYTES] = encoded
        return image

    def _resolver_for(self, function_name: str):
        def resolve(target: str) -> int:
            if is_cross_function(target):
                remote_fn, remote_label = split_cross_function(target)
                key = (remote_fn, remote_label)
                if key in self.block_address:
                    return self.block_address[key]
                raise LinkError(f"unresolved cross-function target {target!r}")
            key = (function_name, target)
            if key in self.block_address:
                return self.block_address[key]
            if target in self.function_address:
                return self.function_address[target]
            raise LinkError(
                f"unresolved target {target!r} referenced from {function_name}"
            )

        return resolve

    # -- queries --------------------------------------------------------
    def size_bytes(self) -> int:
        return len(self.data)

    def size_instructions(self) -> int:
        return len(self.instruction_address)

    def address_of_block(self, function: str, label: str) -> int:
        try:
            return self.block_address[(function, label)]
        except KeyError:
            raise LinkError(f"no block {function}/{label}") from None

    def address_of(self, inst: Instruction) -> int:
        try:
            return self.instruction_address[inst.uid]
        except KeyError:
            raise LinkError(f"instruction {inst.render()!r} not in image") from None

    def instruction_at(self, address: int) -> Optional[Instruction]:
        return self.address_instruction.get(address)

    def decode_at(self, address: int) -> Instruction:
        """Decode the raw bytes at ``address`` (round-trip check helper)."""
        offset = address - self.base_address
        raw = bytes(self.data[offset : offset + INSTRUCTION_BYTES])
        return decode_instruction(raw, address)

    # -- patching --------------------------------------------------------
    def patch_branch_target(self, inst: Instruction, new_address: int) -> None:
        """Retarget the encoded control transfer for ``inst`` in place."""
        address = self.address_of(inst)
        patch_target_offset = address - self.base_address
        patch_target(self.data, patch_target_offset, new_address - self.base_address)
