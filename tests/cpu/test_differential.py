"""Differential testing: the CPU vs independent references.

Random straight-line ALU programs run on both the full speculative CPU
and a minimal Python evaluator of the ISA semantics, written here from
the ISA's definition and sharing no code with the engines; the
architectural register file must match exactly.  Every ALU opcode
also runs on every pair of 32-bit edge operands (INT_MIN / -1, shifts
of 32 and more, compares across the sign bit) as explicit examples,
and drawn operands lean on the same edges.  Catches semantic slips,
dispatch mix-ups, masking bugs and zero-register violations that unit
tests might miss.

Generated counted loops — ALU ops, loads and stores, block-ending
timing reads, fences and data ``clflush``, a data-dependent forward
branch, a direct or register-indirect call to a leaf and an optional
indirect jump with a data-dependent target — run long enough to cross
the superblock engine's hot threshold, and run under both engines
(``sb`` and ``step``) paused at drawn chunk sizes; the whole observable
machine must agree at every pause.  The same loops (minus ``rdcycle``,
whose value is a cycle count) also run on the in-order and the
out-of-order core, whose architectural state and instruction-mix and
branch-prediction PMU events must agree at every pause.
"""

import dataclasses
import hashlib
import math

from hypothesis import example, given, settings, strategies as st

from repro.cpu import engine_override
from repro.cpu.cpu import Cpu
from repro.cpu.pmu import EVENT_NAMES
from repro.cpu.superblock import SuperblockEngine
from repro.isa.encoding import INSTRUCTION_SIZE, encode_program
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Opcode
from repro.mem.memory import Memory, PERM_R, PERM_W, PERM_X
from repro.uarch import OooCore

_RRR_OPS = [
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
    Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
    Opcode.SRA, Opcode.SLT, Opcode.SLTU,
]
_RRI_OPS = [
    Opcode.ADDI, Opcode.MULI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
    Opcode.SHLI, Opcode.SHRI, Opcode.SRAI, Opcode.SLTI,
]

#: INT_MIN / -1, shifts of 32 and more, compares across the sign bit
_EDGES = (0, 1, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF)
_IMM_EDGES = (0, 1, -1, 31, 32, -(2**31), 2**31 - 1)

_REGS = st.integers(min_value=0, max_value=15)
_IMM = st.one_of(
    st.sampled_from(_IMM_EDGES),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
)
_WORD = st.one_of(
    st.sampled_from(_EDGES),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)


def _alu_instruction():
    rrr = st.builds(
        lambda op, rd, rs1, rs2: Instruction(op, rd=rd, rs1=rs1, rs2=rs2),
        st.sampled_from(_RRR_OPS), _REGS, _REGS, _REGS,
    )
    rri = st.builds(
        lambda op, rd, rs1, imm: Instruction(op, rd=rd, rs1=rs1, imm=imm),
        st.sampled_from(_RRI_OPS), _REGS, _REGS, _IMM,
    )
    li = st.builds(
        lambda rd, imm: Instruction(Opcode.LI, rd=rd, imm=imm),
        _REGS, _IMM,
    )
    mov = st.builds(
        lambda rd, rs1: Instruction(Opcode.MOV, rd=rd, rs1=rs1),
        _REGS, _REGS,
    )
    return st.one_of(rrr, rri, li, mov)


def _signed(value):
    return value - (1 << 32) if value & 0x80000000 else value


def _quotient(a, b):
    # exact for 32-bit operands: the float quotient is off by far less
    # than the distance to the next integer
    return int(_signed(a) / _signed(b)) if b else -1


def _remainder(a, b):
    return int(math.fmod(_signed(a), _signed(b))) if b else a


#: opcode -> (a, b) -> result before the 32-bit wrap; *b* is the second
#: register's value, or the sign-extended immediate for RRI opcodes
_REFERENCE = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.MUL: lambda a, b: a * b,
    Opcode.DIV: _quotient,
    Opcode.MOD: _remainder,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.SHL: lambda a, b: a << (b % 32),
    Opcode.SHR: lambda a, b: a >> (b % 32),
    Opcode.SRA: lambda a, b: _signed(a) >> (b % 32),
    Opcode.SLT: lambda a, b: int(_signed(a) < _signed(b)),
    Opcode.SLTU: lambda a, b: int(a < b),
    Opcode.ADDI: lambda a, imm: a + imm,
    Opcode.MULI: lambda a, imm: a * imm,
    Opcode.ANDI: lambda a, imm: a & imm,
    Opcode.ORI: lambda a, imm: a | imm,
    Opcode.XORI: lambda a, imm: a ^ imm,
    Opcode.SHLI: lambda a, imm: a << (imm % 32),
    Opcode.SHRI: lambda a, imm: a >> (imm % 32),
    Opcode.SRAI: lambda a, imm: _signed(a) >> (imm % 32),
    Opcode.SLTI: lambda a, imm: int(_signed(a) < imm),
}


def _reference_run(instructions, initial_regs):
    """Minimal independent evaluator of the ALU subset."""
    regs = list(initial_regs)
    for insn in instructions:
        op = insn.opcode
        if op == Opcode.LI:
            value = insn.imm & 0xFFFFFFFF
        elif op == Opcode.MOV:
            value = regs[insn.rs1]
        elif op in _RRR_OPS:
            value = _REFERENCE[op](regs[insn.rs1], regs[insn.rs2])
        else:
            value = _REFERENCE[op](regs[insn.rs1], insn.imm)
        if insn.rd != 0:
            regs[insn.rd] = value & 0xFFFFFFFF
    return regs


def _edge_examples(test):
    """Every ALU opcode on every pair of edge operands, as explicit
    examples: r1-r7 hold the edges, and each program applies one opcode
    with one edge as the first operand against all seven second
    operands (register edges, or immediate edges), into r8-r14."""
    initial = [0, *_EDGES] + [0] * 8
    for op in _RRR_OPS + _RRI_OPS:
        for a in range(1, 8):
            if op in _RRR_OPS:
                program = [Instruction(op, rd=8 + j, rs1=a, rs2=1 + j)
                           for j in range(7)]
            else:
                program = [Instruction(op, rd=8 + j, rs1=a, imm=imm)
                           for j, imm in enumerate(_IMM_EDGES)]
            test = example(program, list(initial))(test)
    return test


def _cpu_run(instructions, initial_regs):
    memory = Memory()
    blob = encode_program(instructions + [Instruction(Opcode.HALT)])
    memory.map_segment("text", 0x1000, max(4096, len(blob)),
                       PERM_R | PERM_X)
    memory.write_bytes(0x1000, blob, force=True)
    cpu = Cpu(memory)
    for index, value in enumerate(initial_regs):
        cpu.state.write_reg(index, value)
    cpu.state.pc = 0x1000
    cpu.run()
    return list(cpu.state.regs)


class TestDifferential:
    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(_alu_instruction(), min_size=1, max_size=40),
        st.lists(_WORD, min_size=16, max_size=16),
    )
    @_edge_examples
    def test_cpu_matches_reference(self, instructions, initial):
        initial[0] = 0  # r0 is architectural zero
        expected = _reference_run(instructions, initial)
        actual = _cpu_run(instructions, initial)
        assert actual == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_alu_instruction(), min_size=1, max_size=40))
    def test_cpu_is_deterministic(self, instructions):
        zeros = [0] * 16
        assert _cpu_run(instructions, zeros) == \
            _cpu_run(instructions, zeros)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(_alu_instruction(), min_size=1, max_size=20))
    def test_r0_always_zero(self, instructions):
        regs = _cpu_run(instructions, [0] * 16)
        assert regs[0] == 0


# -- generated loops: sb vs step ----------------------------------------

_TEXT = 0x1000
_DATA = 0x40000
#: two pages, so indexed accesses exercise D-TLB misses as well as hits
_DATA_SIZE = 0x2000
_STACK_TOP = 0x80000
_STACK_SIZE = 0x1000
#: r1 counts iterations, r2 holds the data base, r12 is address/branch
#: scratch, r13 is sp; generated code writes only the rest (or r0).
_COUNTER, _BASE, _SCRATCH, _SP = 1, 2, 12, 13
#: enough iterations to cross the superblock hot threshold and then
#: run compiled for a while
_MIN_ITERATIONS = SuperblockEngine.HOT_THRESHOLD + 4
_FREE = (3, 4, 5, 6, 7, 8, 9, 10, 11, 14, 15)
_DEST = st.sampled_from((0,) + _FREE)
_ANY_REG = st.integers(min_value=0, max_value=15)
_BRANCH_OPS = (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE,
               Opcode.BLTU, Opcode.BGEU)


def _loop_alu():
    """One ALU instruction writing r0 or a free register."""
    return st.one_of(
        st.builds(lambda op, rd, a, b: [Instruction(op, rd=rd, rs1=a, rs2=b)],
                  st.sampled_from(_RRR_OPS), _DEST, _ANY_REG, _ANY_REG),
        st.builds(lambda op, rd, a, imm: [Instruction(op, rd=rd, rs1=a,
                                                      imm=imm)],
                  st.sampled_from(_RRI_OPS), _DEST, _ANY_REG, _IMM),
        st.builds(lambda rd, imm: [Instruction(Opcode.LI, rd=rd, imm=imm)],
                  _DEST, _IMM),
        st.builds(lambda rd, a: [Instruction(Opcode.MOV, rd=rd, rs1=a)],
                  _DEST, _ANY_REG),
    )


def _loop_mem():
    """A load or store at a fixed or a data-dependent data address."""
    def fixed(op, reg, offset, base=_BASE):
        if op in (Opcode.LW, Opcode.SW):
            offset &= ~3
        if op in (Opcode.LW, Opcode.LB):
            return [Instruction(op, rd=reg, rs1=base, imm=offset)]
        return [Instruction(op, rs1=base, rs2=reg, imm=offset)]

    def indexed(op, reg, src):
        mask = _DATA_SIZE - (4 if op in (Opcode.LW, Opcode.SW) else 1)
        address = [
            Instruction(Opcode.ANDI, rd=_SCRATCH, rs1=src, imm=mask),
            Instruction(Opcode.ADD, rd=_SCRATCH, rs1=_SCRATCH, rs2=_BASE),
        ]
        return address + fixed(op, reg, 0, base=_SCRATCH)

    ops = st.sampled_from((Opcode.LW, Opcode.LB, Opcode.SW, Opcode.SB))
    return st.one_of(
        st.builds(fixed, ops, _DEST,
                  st.integers(min_value=0, max_value=_DATA_SIZE - 1)),
        st.builds(indexed, ops, _DEST, _ANY_REG),
    )


def _loop_serial(rdcycle=True):
    """An op that ends a superblock: timing read, fence, data clflush."""
    reads = ((Opcode.RDCYCLE, Opcode.RDINSTRET) if rdcycle
             else (Opcode.RDINSTRET,))
    return st.one_of(
        st.builds(lambda op, rd: [Instruction(op, rd=rd)],
                  st.sampled_from(reads), _DEST),
        st.just([Instruction(Opcode.MFENCE)]),
        st.builds(lambda offset: [Instruction(Opcode.CLFLUSH, rs1=_BASE,
                                              imm=offset)],
                  st.integers(min_value=0, max_value=_DATA_SIZE - 1)),
    )


def _loop_item(serial=True, rdcycle=True):
    kinds = [_loop_alu(), _loop_alu(), _loop_mem()]
    if serial:
        kinds.append(_loop_serial(rdcycle))
    return st.one_of(kinds)


def _flat(items):
    return [instruction for item in items for instruction in item]


@st.composite
def _loop_program(draw, rdcycle=True):
    """``(instructions, initial regs)`` for one generated counted loop.

    Layout::

        loop:  head; <forward branch over skipped>; skipped
               call leaf | li r12, leaf; callr r12
               [andi r12, rX, 1; shli r12, r12, 3; jmpr r12, skip; skip: nop]
               tail
               addi r1, r1, -1; bne r1, zero, loop; halt
        leaf:  leaf body; ret

    The optional ``jmpr`` lands on the ``nop`` or just past it, as the
    low bit of rX says (of the counter r1, it alternates every
    iteration: an indirect mispredict each time).  The tail holds no
    block-ending op, so ``tail; addi; bne`` always compiles once hot.
    ``rdcycle=False`` leaves the cycle-counter read out of the draw.
    """
    item = _loop_item(rdcycle=rdcycle)
    head = _flat(draw(st.lists(item, min_size=1, max_size=6)))
    skipped = _flat(draw(st.lists(item, min_size=1, max_size=4)))
    tail = _flat(draw(st.lists(_loop_item(serial=False), min_size=1,
                               max_size=4)))
    leaf = _flat(draw(st.lists(item, min_size=1, max_size=5)))
    op = draw(st.sampled_from(_BRANCH_OPS))
    a = draw(_ANY_REG)
    b = draw(_ANY_REG)
    offset = (len(skipped) + 1) * INSTRUCTION_SIZE
    if draw(st.booleans()):
        # low bits of a live value: taken often enough to mispredict
        branch = [
            Instruction(Opcode.ANDI, rd=_SCRATCH, rs1=a,
                        imm=draw(st.sampled_from((1, 3, 7)))),
            Instruction(op, rs1=_SCRATCH, rs2=0, imm=offset),
        ]
    else:
        branch = [Instruction(op, rs1=a, rs2=b, imm=offset)]
    body = head + branch + skipped
    call_index = len(body)
    # the call, patched once the leaf's pc is known
    indirect_call = draw(st.booleans())
    body += [None, None] if indirect_call else [None]
    if draw(st.booleans()):
        nop_pc = _TEXT + (len(body) + 3) * INSTRUCTION_SIZE
        body += [
            Instruction(Opcode.ANDI, rd=_SCRATCH,
                        rs1=draw(st.sampled_from((_COUNTER,)) | _ANY_REG),
                        imm=1),
            Instruction(Opcode.SHLI, rd=_SCRATCH, rs1=_SCRATCH, imm=3),
            Instruction(Opcode.JMPR, rs1=_SCRATCH, imm=nop_pc),
            Instruction(Opcode.NOP),
        ]
    body += tail
    body.append(Instruction(Opcode.ADDI, rd=_COUNTER, rs1=_COUNTER,
                            imm=-1))
    body.append(Instruction(Opcode.BNE, rs1=_COUNTER, rs2=0,
                            imm=-len(body) * INSTRUCTION_SIZE))
    body.append(Instruction(Opcode.HALT))
    if indirect_call:
        body[call_index] = Instruction(
            Opcode.LI, rd=_SCRATCH, imm=_TEXT + len(body) * INSTRUCTION_SIZE)
        body[call_index + 1] = Instruction(Opcode.CALLR, rs1=_SCRATCH)
    else:
        body[call_index] = Instruction(
            Opcode.CALL, imm=(len(body) - call_index) * INSTRUCTION_SIZE)
    program = body + leaf + [Instruction(Opcode.RET)]

    regs = draw(st.lists(_WORD, min_size=16, max_size=16))
    regs[0] = 0
    regs[_COUNTER] = draw(st.integers(min_value=_MIN_ITERATIONS,
                                      max_value=48))
    regs[_BASE] = _DATA
    regs[_SP] = _STACK_TOP
    return program, regs


def _loop_cpu(program, regs, mode, core=Cpu):
    memory = Memory()
    blob = encode_program(program)
    memory.map_segment("text", _TEXT, max(4096, len(blob)),
                       PERM_R | PERM_X)
    memory.write_bytes(_TEXT, blob, force=True)
    memory.map_segment("data", _DATA, _DATA_SIZE, PERM_R | PERM_W)
    memory.write_bytes(_DATA, bytes(range(256)) * (_DATA_SIZE // 256))
    memory.map_segment("stack", _STACK_TOP - _STACK_SIZE, _STACK_SIZE,
                       PERM_R | PERM_W)
    with engine_override(mode):
        cpu = core(memory)
    for index, value in enumerate(regs):
        cpu.state.write_reg(index, value)
    cpu.state.pc = _TEXT
    return cpu


def _memory_digest(cpu):
    """sha256 of the data and stack segments."""
    memory = cpu.memory
    image = (memory.read_bytes(_DATA, _DATA_SIZE)
             + memory.read_bytes(_STACK_TOP - _STACK_SIZE, _STACK_SIZE))
    return hashlib.sha256(image).hexdigest()


def _machine(cpu):
    """Everything observable: architectural, memory, timing, PMU,
    caches, TLBs."""
    caches = cpu.caches
    return {
        "regs": list(cpu.state.regs),
        "pc": cpu.state.pc,
        "halted": cpu.state.halted,
        "memory": _memory_digest(cpu),
        "cycles": cpu.cycles,
        "events": cpu.pmu.read(),
        "l1i": dataclasses.asdict(caches.l1i.stats),
        "l1d": dataclasses.asdict(caches.l1d.stats),
        "itlb": (cpu.itlb.hits, cpu.itlb.misses),
        "dtlb": (cpu.dtlb.hits, cpu.dtlb.misses),
    }


#: The PMU events both cores must agree on: the 15 of the instruction
#: mix and the 7 of branch prediction.  Cycles, stalls, caches, TLBs
#: and ``spec_*`` legitimately differ: the cores differ in time and in
#: the speculation window.
_SHARED_EVENTS = (
    EVENT_NAMES[:EVENT_NAMES.index("cycles")]
    + EVENT_NAMES[EVENT_NAMES.index("branch_mispredictions"):
                  EVENT_NAMES.index("l1d_accesses")]
)
assert len(_SHARED_EVENTS) == 22


def _architectural(cpu):
    """The committed machine: regs, pc, data and stack, and the
    instruction-mix and branch-prediction events."""
    events = cpu.pmu.read()
    return {
        "regs": list(cpu.state.regs),
        "pc": cpu.state.pc,
        "halted": cpu.state.halted,
        "events": {name: events[name] for name in _SHARED_EVENTS},
        "memory": _memory_digest(cpu),
    }


#: Tier-1 draws a fixed-seed, bounded sample; the ``ci`` profile
#: (registered in tests/conftest.py) draws a deeper, random one.
_GENERATED = (
    settings(deadline=None)
    if settings.get_current_profile_name() == "ci"
    else settings(max_examples=25, derandomize=True, deadline=None)
)


class TestGeneratedLoopsSbVsStep:
    """sb ≡ step on loops that cross the superblock hot threshold."""

    @_GENERATED
    @given(_loop_program(),
           st.lists(st.integers(min_value=1, max_value=300), max_size=10))
    def test_sb_matches_step_at_every_pause(self, generated, chunks):
        program, regs = generated
        sb = _loop_cpu(program, regs, "sb")
        step = _loop_cpu(program, regs, "step")
        for chunk in chunks:
            assert sb.run(max_instructions=chunk) == \
                step.run(max_instructions=chunk)
            assert _machine(sb) == _machine(step)
        sb.run()
        step.run()
        assert sb.state.halted and step.state.halted
        assert _machine(sb) == _machine(step)
        # the loop really ran hot: compiled code retired instructions
        assert sb._sb is not None and sb._sb.stats["translated"] > 0
        assert step._sb is None


class TestGeneratedLoopsInorderVsOoo:
    """inorder ≡ ooo on the committed machine and the shared PMU events
    at every pause."""

    @_GENERATED
    @given(_loop_program(rdcycle=False),
           st.lists(st.integers(min_value=1, max_value=300), max_size=10))
    def test_ooo_matches_inorder_at_every_pause(self, generated, chunks):
        program, regs = generated
        inorder = _loop_cpu(program, regs, "sb")
        ooo = _loop_cpu(program, regs, "sb", core=OooCore)
        for chunk in chunks:
            assert inorder.run(max_instructions=chunk) == \
                ooo.run(max_instructions=chunk)
            assert _architectural(inorder) == _architectural(ooo)
        inorder.run()
        ooo.run()
        assert inorder.state.halted and ooo.state.halted
        assert _architectural(inorder) == _architectural(ooo)
