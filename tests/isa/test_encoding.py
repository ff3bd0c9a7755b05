"""Encoding/decoding tests, including hypothesis round-trip properties."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EncodingError
from repro.isa.encoding import (
    INSTRUCTION_SIZE,
    decode,
    decode_program,
    encode,
    encode_program,
    try_decode,
)
from repro.isa.instruction import IMM_MAX, IMM_MIN, Instruction
from repro.isa.opcodes import Opcode
from repro.isa.semantics import decode_entry

_OPCODES = st.sampled_from(list(Opcode))
_REGS = st.integers(min_value=0, max_value=15)
_IMMS = st.integers(min_value=IMM_MIN, max_value=IMM_MAX)

instructions = st.builds(
    Instruction, opcode=_OPCODES, rd=_REGS, rs1=_REGS, rs2=_REGS, imm=_IMMS
)


class TestRoundTrip:
    @given(instructions)
    def test_encode_decode_identity(self, instruction):
        assert decode(encode(instruction)) == instruction

    @given(st.lists(instructions, max_size=20))
    def test_program_roundtrip(self, program):
        blob = encode_program(program)
        assert len(blob) == INSTRUCTION_SIZE * len(program)
        assert decode_program(blob) == program

    @given(instructions)
    def test_decode_entry_agrees_with_decode(self, instruction):
        blob = b"\x00" * INSTRUCTION_SIZE + encode(instruction)
        decoded = decode(blob, INSTRUCTION_SIZE)
        assert decode_entry(blob, INSTRUCTION_SIZE) == (
            int(decoded.opcode), decoded.rd, decoded.rs1, decoded.rs2,
            decoded.imm)

    def test_encoding_is_fixed_width(self):
        assert len(encode(Instruction(Opcode.NOP))) == INSTRUCTION_SIZE
        assert len(encode(Instruction(Opcode.LI, rd=5, imm=-1))) == \
            INSTRUCTION_SIZE


def _same_error(blob, offset=0):
    """decode and decode_entry reject *blob* with the same message."""
    with pytest.raises(EncodingError) as from_decode:
        decode(blob, offset)
    with pytest.raises(EncodingError) as from_entry:
        decode_entry(blob, offset)
    assert str(from_entry.value) == str(from_decode.value)


class TestDecodeErrors:
    def test_truncated(self):
        with pytest.raises(EncodingError):
            decode(b"\x00\x00\x00")
        _same_error(b"\x00\x00\x00")
        _same_error(b"\x00" * 12, offset=8)

    def test_illegal_opcode(self):
        blob = bytes([0xFF, 0, 0, 0, 0, 0, 0, 0])
        with pytest.raises(EncodingError):
            decode(blob)
        assert try_decode(blob) is None
        _same_error(blob)

    def test_register_field_out_of_range(self):
        blob = bytes([int(Opcode.ADD), 16, 0, 0, 0, 0, 0, 0])
        with pytest.raises(EncodingError):
            decode(blob)
        for field in (1, 2, 3):
            blob = bytearray(8)
            blob[field] = 16
            _same_error(bytes(blob))

    def test_misaligned_program_length(self):
        with pytest.raises(EncodingError):
            decode_program(b"\x00" * 9)

    @given(st.binary(min_size=8, max_size=8))
    def test_try_decode_never_raises(self, blob):
        result = try_decode(blob)
        assert result is None or isinstance(result, Instruction)


class TestOpcodeValuesStable:
    """The gadget scanner depends on these byte values never changing."""

    def test_ret_value(self):
        assert int(Opcode.RET) == 0x4C

    def test_pop_value(self):
        assert int(Opcode.POP) == 0x35

    def test_syscall_value(self):
        assert int(Opcode.SYSCALL) == 0x50

    def test_encoded_ret_first_byte(self):
        assert encode(Instruction(Opcode.RET))[0] == 0x4C
