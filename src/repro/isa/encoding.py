"""Binary encoding of instructions.

Layout of the fixed 8-byte instruction word (little endian)::

    byte 0   opcode
    byte 1   rd
    byte 2   rs1
    byte 3   rs2
    byte 4-7 imm (signed 32-bit, little endian)

The fixed width keeps the gadget scanner honest: a gadget address is any
instruction-slot-aligned address inside an executable segment, and the
scanner decodes forward from it exactly like the CPU's fetch unit would.
"""

from repro.errors import EncodingError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.isa.semantics import INSTRUCTION_SIZE, WORD, decode_entry


def encode(instruction):
    """Encode an :class:`Instruction` into 8 bytes."""
    return WORD.pack(
        int(instruction.opcode),
        instruction.rd,
        instruction.rs1,
        instruction.rs2,
        instruction.imm,
    )


def decode(blob, offset=0):
    """Decode 8 bytes starting at *offset* into an :class:`Instruction`.

    Raises :class:`EncodingError` for truncated input, an undefined opcode
    byte or out-of-range register fields — the CPU turns that into an
    illegal-instruction fault.
    """
    opcode, rd, rs1, rs2, imm = decode_entry(blob, offset)
    return Instruction(Opcode(opcode), rd=rd, rs1=rs1, rs2=rs2, imm=imm)


def try_decode(blob, offset=0):
    """Like :func:`decode` but returns ``None`` instead of raising.

    Used by the gadget scanner, which probes arbitrary byte positions.
    """
    try:
        return decode(blob, offset)
    except EncodingError:
        return None


def encode_program(instructions):
    """Encode a sequence of instructions into one bytes object."""
    return b"".join(encode(instruction) for instruction in instructions)


def decode_program(blob):
    """Decode a whole text segment into a list of instructions."""
    if len(blob) % INSTRUCTION_SIZE:
        raise EncodingError(
            f"text segment length {len(blob)} is not a multiple of "
            f"{INSTRUCTION_SIZE}"
        )
    return [decode(blob, off) for off in range(0, len(blob), INSTRUCTION_SIZE)]
