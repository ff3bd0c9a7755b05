"""The ISA's value semantics: the one definition every engine executes.

Opcode constants, decoding into the flat dispatch tuple, the value of
every ALU result and branch condition, each opcode's register operands
and its long-latency cost live here and nowhere else.  The three
dispatch sites — the architectural executor
:func:`repro.cpu.cpu.execute` (which both cores run), the wrong-path
walker ``speculate`` and the superblock compiler — take them from this
module and add the memory effects and PMU events around them.

Registers hold unsigned 32-bit ints; the signed view of one is
``(x ^ 0x80000000) - 0x80000000``.  :data:`RESULT` and
:data:`CONDITION` give each register-register opcode's result and each
branch's condition as one expression over ``{a}`` and ``{b}``.  The
superblock compiler formats the strings into its generated source;
:data:`ALU` and :data:`TAKEN` are the same strings compiled into
opcode-indexed function tuples for the interpreters.

An immediate opcode is its register twin (:data:`TWIN`) with
``b = imm & 0xFFFFFFFF``.  This holds because immediates decode as
signed 32-bit values: the masked immediate is the bit pattern a
register would hold, and its signed view is the immediate again.
``ALU[op]`` of an immediate opcode takes the raw immediate.
"""

import struct

from repro.errors import EncodingError
from repro.isa.opcodes import Opcode, is_valid_opcode

MASK32 = 0xFFFFFFFF

# Plain ints keep the engines' dispatch free of enum attribute traffic;
# the assertion below pins them to the ``Opcode`` definition.
NOP, HALT = 0x00, 0x01
ADD, SUB, MUL, DIV, MOD = 0x10, 0x11, 0x12, 0x13, 0x14
AND, OR, XOR, SHL, SHR, SRA, SLT, SLTU = (
    0x15, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x1B, 0x1C)
ADDI, MULI, ANDI, ORI, XORI = 0x20, 0x21, 0x22, 0x23, 0x24
SHLI, SHRI, SRAI, SLTI, LI, MOV = 0x25, 0x26, 0x27, 0x28, 0x29, 0x2A
LW, LB, SW, SB, PUSH, POP = 0x30, 0x31, 0x32, 0x33, 0x34, 0x35
BEQ, BNE, BLT, BGE, BLTU, BGEU = 0x40, 0x41, 0x42, 0x43, 0x44, 0x45
JMP, JMPR, CALL, CALLR, RET = 0x48, 0x49, 0x4A, 0x4B, 0x4C
SYSCALL, CLFLUSH, MFENCE, RDCYCLE, RDINSTRET = (
    0x50, 0x51, 0x52, 0x53, 0x54)

assert all(
    globals()[member.name] == member.value for member in Opcode
), "dispatch constants drifted from the ISA definition"

#: The 8-byte instruction word: opcode, rd, rs1, rs2, then a signed
#: 32-bit immediate, little endian (see :mod:`repro.isa.encoding`).
WORD = struct.Struct("<BBBBi")
INSTRUCTION_SIZE = WORD.size


def decode_entry(blob, offset=0):
    """Decode the word at *offset* into ``(op, rd, rs1, rs2, imm)``.

    Raises :class:`EncodingError` for truncated input, an undefined
    opcode byte or out-of-range register fields.
    """
    if len(blob) - offset < INSTRUCTION_SIZE:
        raise EncodingError(
            f"truncated instruction: need {INSTRUCTION_SIZE} bytes, "
            f"have {len(blob) - offset}"
        )
    entry = WORD.unpack_from(blob, offset)
    opcode, rd, rs1, rs2, _imm = entry
    if not is_valid_opcode(opcode):
        raise EncodingError(f"illegal opcode byte {opcode:#04x}")
    if rd >= 16 or rs1 >= 16 or rs2 >= 16:
        raise EncodingError(
            f"register field out of range in encoded instruction "
            f"(rd={rd}, rs1={rs1}, rs2={rs2})"
        )
    return entry


def _div(a, b):
    """Signed division truncating toward zero; ``x / 0`` is all ones."""
    if b == 0:
        return MASK32
    a = (a ^ 0x80000000) - 0x80000000
    b = (b ^ 0x80000000) - 0x80000000
    quotient = abs(a) // abs(b)
    return (-quotient if (a < 0) != (b < 0) else quotient) & MASK32


def _mod(a, b):
    """Remainder of :func:`_div`, signed like the dividend; ``x % 0`` is x."""
    if b == 0:
        return a
    a = (a ^ 0x80000000) - 0x80000000
    remainder = abs(a) % abs((b ^ 0x80000000) - 0x80000000)
    return (-remainder if a < 0 else remainder) & MASK32


#: Names the :data:`RESULT` expressions of DIV and MOD call.
HELPERS = {"_div": _div, "_mod": _mod}

#: Register-register opcode -> result expression over ``{a}``/``{b}``.
RESULT = {
    ADD: "({a} + {b}) & 0xFFFFFFFF",
    SUB: "({a} - {b}) & 0xFFFFFFFF",
    MUL: "({a} * {b}) & 0xFFFFFFFF",
    DIV: "_div({a}, {b})",
    MOD: "_mod({a}, {b})",
    AND: "{a} & {b}",
    OR: "{a} | {b}",
    XOR: "{a} ^ {b}",
    SHL: "({a} << ({b} & 31)) & 0xFFFFFFFF",
    SHR: "{a} >> ({b} & 31)",
    SRA: "((({a} ^ 0x80000000) - 0x80000000) >> ({b} & 31)) & 0xFFFFFFFF",
    SLT: "1 if ({a} ^ 0x80000000) - 0x80000000"
         " < ({b} ^ 0x80000000) - 0x80000000 else 0",
    SLTU: "1 if {a} < {b} else 0",
}

#: Immediate opcode -> the register opcode it equals with
#: ``b = imm & 0xFFFFFFFF``.
TWIN = {
    ADDI: ADD, MULI: MUL, ANDI: AND, ORI: OR, XORI: XOR,
    SHLI: SHL, SHRI: SHR, SRAI: SRA, SLTI: SLT,
}

#: Conditional branch opcode -> taken condition over ``{a}``/``{b}``.
CONDITION = {
    BEQ: "{a} == {b}",
    BNE: "{a} != {b}",
    BLT: "({a} ^ 0x80000000) - 0x80000000"
         " < ({b} ^ 0x80000000) - 0x80000000",
    BGE: "({a} ^ 0x80000000) - 0x80000000"
         " >= ({b} ^ 0x80000000) - 0x80000000",
    BLTU: "{a} < {b}",
    BGEU: "{a} >= {b}",
}


def _functions(size, expressions):
    """Opcode-indexed tuple of ``(a, b)`` functions (None elsewhere)."""
    table = [None] * size
    for op, expression in expressions.items():
        table[op] = eval(f"lambda a, b: {expression}", dict(HELPERS))
    return tuple(table)


#: ``ALU[op](a, b)``: the result of every RRR and RRI opcode.
ALU = _functions(SLTI + 1, {
    **{op: expression.format(a="a", b="b")
       for op, expression in RESULT.items()},
    **{op: RESULT[twin].format(a="a", b="(b & 0xFFFFFFFF)")
       for op, twin in TWIN.items()},
})

#: ``TAKEN[op](a, b)``: whether a conditional branch is taken.
TAKEN = _functions(BGEU + 1, {
    op: condition.format(a="a", b="b")
    for op, condition in CONDITION.items()
})

#: Register operands per opcode, for schedulers: flags over the
#: dispatch tuple's register fields an opcode reads (``READS_RS1``,
#: ``READS_RS2``) and writes (``WRITES_RD``; writes to ``r0`` are
#: dropped), and ``USES_SP`` for the stack pointer that push, pop, call
#: and ret both read and write.
READS_RS1, READS_RS2, WRITES_RD, USES_SP = 1, 2, 4, 8

_OPERANDS = {
    **{op: READS_RS1 | READS_RS2 | WRITES_RD for op in RESULT},
    **{op: READS_RS1 | WRITES_RD for op in TWIN},
    LI: WRITES_RD, MOV: READS_RS1 | WRITES_RD,
    LW: READS_RS1 | WRITES_RD, LB: READS_RS1 | WRITES_RD,
    SW: READS_RS1 | READS_RS2, SB: READS_RS1 | READS_RS2,
    PUSH: USES_SP | READS_RS1, POP: USES_SP | WRITES_RD,
    **{op: READS_RS1 | READS_RS2 for op in CONDITION},
    JMPR: READS_RS1, CALL: USES_SP, CALLR: USES_SP | READS_RS1,
    RET: USES_SP, CLFLUSH: READS_RS1,
    RDCYCLE: WRITES_RD, RDINSTRET: WRITES_RD,
}
#: ``OPERANDS[op]``: the operand flags of every opcode (0: none).
OPERANDS = tuple(_OPERANDS.get(op, 0) for op in range(RDINSTRET + 1))

#: Opcodes that execute for longer than one cycle -> the ``CpuConfig``
#: knob holding their extra cycles.
EXTRA_CYCLES = {
    MUL: "mul_extra", MULI: "mul_extra",
    DIV: "div_extra", MOD: "div_extra",
}
