"""The speculative CPU: an interpreter with a bounded wrong-path window.

Execution model
---------------
Instructions commit in order.  Control transfers consult the branch
predictor (BHT / BTB / RSB); on a misprediction the CPU first executes up
to ``spec_window`` *wrong-path* instructions starting at the predicted
target.  Wrong-path execution works on a shadow register file and a store
buffer, so architectural state is squashed afterwards — but instruction
and data fetches performed on the wrong path still fill the caches and
TLBs.  That persistence is precisely the Spectre channel the paper (and
Kocher et al.) exploit, so it is modelled faithfully rather than faked.

Timing model
------------
A width-``issue_width`` superscalar is approximated by charging
``1/issue_width`` cycles per simple instruction, plus real penalties for
memory-hierarchy misses, branch mispredictions, fences, and long-latency
arithmetic.  ``rdcycle`` exposes the cycle counter to software, which is
what the covert channel's flush+reload timer reads.

Interpreter layout
------------------
The decode cache stores flat ``(op, rd, rs1, rs2, imm)`` tuples with
*op* a plain int, so dispatch compares ints and operand access is
index-based — no dataclass or enum traffic per retired instruction.
:meth:`Cpu.step` is the single-instruction reference and the only
interpreter: :meth:`Cpu.run` loops over it, except that under the
default ``sb`` engine hot code runs as compiled superblocks
(:mod:`repro.cpu.superblock`), which deoptimise back to step().  The
run loop is bit-exact with a bare step() loop — the differential tests
in ``tests/cpu/test_run_loop.py`` and ``tests/cpu/test_differential.py``
pin that.
"""

import dataclasses

from repro.branch.predictor import BranchPredictor
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.engine import engine_mode
from repro.cpu.pmu import Pmu
from repro.cpu.shadow_stack import ShadowStack
from repro.cpu.state import CpuState, to_signed
from repro.errors import (
    CpuFault,
    EncodingError,
    MemoryFault,
    PrivilegeFault,
    ShadowStackViolation,
)
from repro.cpu.superblock import SuperblockEngine
from repro.isa.encoding import INSTRUCTION_SIZE, decode
from repro.isa.opcodes import Opcode
from repro.mem.tlb import Tlb
from repro.obs.prof import current_profiler
from repro.obs.tracer import current_tracer
from time import perf_counter

MASK32 = 0xFFFFFFFF

# Dispatch constants: plain ints.  ``Opcode`` members are IntEnum (int
# comparisons work), but int literals keep the hot dispatch free of any
# enum attribute traffic.  The assertion below pins every constant to
# the ISA definition, so they cannot drift silently.
_NOP, _HALT = 0x00, 0x01
_ADD, _SUB, _MUL, _DIV, _MOD = 0x10, 0x11, 0x12, 0x13, 0x14
_AND, _OR, _XOR, _SHL, _SHR, _SRA, _SLT, _SLTU = (
    0x15, 0x16, 0x17, 0x18, 0x19, 0x1A, 0x1B, 0x1C)
_ADDI, _MULI, _ANDI, _ORI, _XORI = 0x20, 0x21, 0x22, 0x23, 0x24
_SHLI, _SHRI, _SRAI, _SLTI, _LI, _MOV = 0x25, 0x26, 0x27, 0x28, 0x29, 0x2A
_LW, _LB, _SW, _SB, _PUSH, _POP = 0x30, 0x31, 0x32, 0x33, 0x34, 0x35
_BEQ, _BNE, _BLT, _BGE, _BLTU, _BGEU = 0x40, 0x41, 0x42, 0x43, 0x44, 0x45
_JMP, _JMPR, _CALL, _CALLR, _RET = 0x48, 0x49, 0x4A, 0x4B, 0x4C
_SYSCALL, _CLFLUSH, _MFENCE, _RDCYCLE, _RDINSTRET = (
    0x50, 0x51, 0x52, 0x53, 0x54)

assert all(
    globals()[f"_{member.name}"] == member.value for member in Opcode
), "dispatch constants drifted from the ISA definition"


@dataclasses.dataclass(frozen=True)
class CpuConfig:
    """Microarchitectural knobs.

    ``shadow_stack`` and ``clflush_privileged`` implement two of the
    paper's Section-IV countermeasures.
    """

    issue_width: int = 4
    spec_window: int = 48
    mispredict_penalty: float = 14.0
    btb_miss_penalty: float = 8.0
    mul_extra: float = 1.0
    div_extra: float = 3.0
    fence_latency: float = 8.0
    clflush_latency: float = 6.0
    syscall_latency: float = 40.0
    shadow_stack: bool = False
    clflush_privileged: bool = False
    #: InvisiSpec-style defense (Yan et al., MICRO'18; discussed by the
    #: paper): wrong-path loads are serviced from an invisible buffer
    #: and never fill the caches, so a squash leaves no trace — the
    #: covert channel's transmit side goes dark.
    invisible_speculation: bool = False


def _truncdiv(numerator, denominator):
    """C-style truncating integer division (rounds toward zero)."""
    quotient = abs(numerator) // abs(denominator)
    if (numerator < 0) != (denominator < 0):
        quotient = -quotient
    return quotient


def _alu_rrr(op, a, b):
    """32-bit register-register ALU semantics."""
    if op == _ADD:
        return (a + b) & MASK32
    if op == _SUB:
        return (a - b) & MASK32
    if op == _MUL:
        return (a * b) & MASK32
    if op == _DIV:
        if b == 0:
            return MASK32
        return _truncdiv(to_signed(a), to_signed(b)) & MASK32
    if op == _MOD:
        if b == 0:
            return a
        sa, sb = to_signed(a), to_signed(b)
        return (sa - sb * _truncdiv(sa, sb)) & MASK32
    if op == _AND:
        return a & b
    if op == _OR:
        return a | b
    if op == _XOR:
        return a ^ b
    if op == _SHL:
        return (a << (b & 31)) & MASK32
    if op == _SHR:
        return a >> (b & 31)
    if op == _SRA:
        return (to_signed(a) >> (b & 31)) & MASK32
    if op == _SLT:
        return 1 if to_signed(a) < to_signed(b) else 0
    if op == _SLTU:
        return 1 if a < b else 0
    raise AssertionError(f"not an RRR opcode: {op}")


def _alu_rri(op, a, imm):
    """32-bit register-immediate ALU semantics."""
    if op == _ADDI:
        return (a + imm) & MASK32
    if op == _MULI:
        return (a * imm) & MASK32
    if op == _ANDI:
        return a & (imm & MASK32)
    if op == _ORI:
        return a | (imm & MASK32)
    if op == _XORI:
        return a ^ (imm & MASK32)
    if op == _SHLI:
        return (a << (imm & 31)) & MASK32
    if op == _SHRI:
        return a >> (imm & 31)
    if op == _SRAI:
        return (to_signed(a) >> (imm & 31)) & MASK32
    if op == _SLTI:
        return 1 if to_signed(a) < imm else 0
    raise AssertionError(f"not an RRI opcode: {op}")


def _branch_taken(op, a, b):
    if op == _BEQ:
        return a == b
    if op == _BNE:
        return a != b
    if op == _BLT:
        return to_signed(a) < to_signed(b)
    if op == _BGE:
        return to_signed(a) >= to_signed(b)
    if op == _BLTU:
        return a < b
    if op == _BGEU:
        return a >= b
    raise AssertionError(f"not a branch opcode: {op}")


class Cpu:
    """One simulated hardware thread."""

    def __init__(self, memory, caches=None, predictor=None, config=None):
        self.memory = memory
        self.caches = caches or CacheHierarchy()
        self.predictor = predictor or BranchPredictor()
        self.config = config or CpuConfig()
        self.state = CpuState()
        self.dtlb = Tlb()
        self.itlb = Tlb()
        self.pmu = Pmu(self)
        self.cycles = 0.0
        self.shadow_stack = ShadowStack() if self.config.shadow_stack else None
        self.kernel_mode = False
        self.syscall_handler = None
        #: optional instruction-budget guard (duck-typed: needs .charge);
        #: see :class:`repro.core.resilience.watchdog.Watchdog`
        self.watchdog = None
        self._decode_cache = {}
        self._base_cost = 1.0 / self.config.issue_width
        self._l1_latency = self.caches.config.l1_latency
        self._last_iline = -1
        self._last_ipage = -1
        # Engine selection binds once, like the tracer/profiler below:
        # "sb" (default) builds the superblock engine lazily on the
        # first untraced run(); "step" never does.  The mode is
        # ambient and non-architectural — it never enters manifests.
        self._engine = engine_mode()
        self._sb = None
        # Stores into executable segments (self-modifying code) must
        # drop stale decode entries and compiled superblocks before the
        # next fetch.  W^X layouts never trigger this.
        memory.add_code_listener(self._on_code_write)
        # Tracing: channels bind once, here; every emission site below
        # guards with ``is not None`` and all of those sites sit on cold
        # sub-paths (mispredict, violation), so the disabled default
        # adds nothing to the hot step loop.
        tracer = current_tracer()
        if tracer.enabled:
            self._tracer = tracer
            self.trace_clk = tracer.register_clock(self._cycles_now)
            self._tr_cpu = tracer.channel("cpu", self.trace_clk)
            self._tr_kernel = tracer.channel("kernel", self.trace_clk)
            cache_channel = tracer.channel("cache", self.trace_clk)
            if cache_channel is not None:
                self.caches.bind_tracer(cache_channel)
            # A tracer whose filter excludes every CPU-side category
            # binds no channels here; nothing inside the run loop can
            # emit, so run() keeps superblocks on.  Any bound channel
            # forces the step() path instead: closures never emit, and
            # events sample self.cycles live.  This is what keeps
            # fully-filtered tracing within the disabled-overhead budget
            # BENCH_obs.json gates.
            self._step_trace = (self._tr_cpu is not None
                                or self._tr_kernel is not None
                                or cache_channel is not None)
        else:
            self._tracer = None
            self.trace_clk = 0
            self._tr_cpu = None
            self._tr_kernel = None
            self._step_trace = False
        # Profiling binds the same way: resolved once here, and only an
        # enabled *and active* profiler diverts run() into
        # _run_profiled.  The disabled default (and the fully-filtered
        # config) leaves self._prof None, so run() is untouched.
        profiler = current_profiler()
        self._prof = (profiler if profiler.enabled
                      and profiler.config.active else None)

    def _cycles_now(self):
        """This CPU's virtual clock, as read by its trace channels."""
        return int(self.cycles)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def reset_for_exec(self):
        """Flush decode/translation state after ``execve`` remaps memory."""
        self._decode_cache.clear()
        if self._sb is not None:
            self._sb.flush()
        self._last_iline = -1
        self._last_ipage = -1
        self.dtlb.flush()
        self.itlb.flush()
        if self.shadow_stack is not None:
            self.shadow_stack.reset()
        self.predictor.rsb.reset()

    def _on_code_write(self, address, size):
        """Memory store landed in an executable segment (SMC).

        Invalidate everything derived from the old bytes: the decode
        cache wholesale (self-modifying code is rare enough that
        precision is not worth the bookkeeping) and every compiled
        superblock.  A closure that is *currently executing* notices
        the generation bump at its next store and deoptimises.
        """
        self._decode_cache.clear()
        if self._sb is not None:
            self._sb.on_code_write(address, size)

    def _flush_code_line(self, address):
        """``clflush`` hit a line inside an executable segment.

        Architecturally a no-op (decode is a pure function of the
        bytes, which clflush does not change), but the decode entries
        and superblocks covering the line are dropped anyway so the
        translation caches track the modelled I-cache: the refill path
        is exercised, never trusted stale.
        """
        line_size = self.caches.line_size
        base = address - (address % line_size)
        dcache = self._decode_cache
        for pc in range(base, base + line_size, INSTRUCTION_SIZE):
            dcache.pop(pc, None)
        if self._sb is not None:
            self._sb.flush()

    def _decode_entry(self, pc):
        """Decode the instruction at *pc* into a flat dispatch tuple.

        The decode cache stores ``(op, rd, rs1, rs2, imm)`` — *op* as a
        plain int — so the interpreter never touches the Instruction
        dataclass or the Opcode enum on the hot path.
        """
        blob = self.memory.fetch(pc, INSTRUCTION_SIZE)
        try:
            instruction = decode(blob)
        except EncodingError as exc:
            raise CpuFault(f"illegal instruction at {pc:#010x}: {exc}")
        entry = (int(instruction.opcode), instruction.rd,
                 instruction.rs1, instruction.rs2, instruction.imm)
        self._decode_cache[pc] = entry
        return entry

    def _charge_data_access(self, address, is_write):
        self.dtlb.access(address)
        extra = (self.caches.data_access_fast(address, is_write)[0]
                 - self._l1_latency)
        if extra > 0:
            self.cycles += extra
            self.pmu.counters["memory_stall_cycles"] += extra

    def _push_word(self, value):
        state = self.state
        sp = (state.sp - 4) & MASK32
        state.sp = sp
        self.memory.store_word(sp, value)
        self._charge_data_access(sp, True)

    def _pop_word(self):
        state = self.state
        sp = state.sp
        value = self.memory.load_word(sp)
        self._charge_data_access(sp, False)
        state.sp = (sp + 4) & MASK32
        return value

    def _mispredict(self, wrong_path_pc):
        """Charge the penalty and run the wrong path speculatively."""
        trace = self._tr_cpu
        ts0 = trace.now() if trace is not None else 0
        penalty = self.config.mispredict_penalty
        self.cycles += penalty
        self.pmu.counters["mispredict_penalty_cycles"] += int(penalty)
        if wrong_path_pc is not None:
            executed = self._speculate(wrong_path_pc)
            if trace is not None:
                # One span per speculative window: enter at the branch,
                # squash after *executed* wrong-path instructions.
                trace.complete("cpu.speculate", ts0,
                               pc=self.state.pc, target=wrong_path_pc,
                               squashed=executed)
                self._tracer.metrics.observe(
                    "cpu.speculate.squashed", executed
                )
        elif trace is not None:
            trace.event("cpu.mispredict", pc=self.state.pc)

    # ------------------------------------------------------------------
    # wrong-path (speculative) execution
    # ------------------------------------------------------------------
    def _speculate(self, start_pc):
        """Execute the wrong path; only cache/TLB fills persist.

        This walk dominates wall time on mispredict-heavy workloads
        (one window is up to ``spec_window`` instructions), so — like
        the superblock closures — it inlines the L1I/L1D LRU hit paths
        and the TLB MRU shortcut, and batches the commutative integer
        tallies (PMU ``spec_*`` counters, cache/TLB hit statistics)
        into locals flushed once at squash.  Every *stateful* mutation
        (LRU clocks and stamps, dirty bits, miss-path fills,
        replacement) still happens on the live objects in exact program
        order — the cache disturbance *is* the Spectre side channel, so
        only counts that commute may be deferred.
        """
        regs = self.state.copy_regs()
        store_buffer = {}
        counters = self.pmu.counters
        memory = self.memory
        dcache = self._decode_cache
        caches = self.caches
        data_fast = caches.data_access_fast
        icache_fast = caches.instruction_access_fast
        dtlb = self.dtlb
        itlb = self.itlb
        dtlb_access = dtlb.access
        itlb_access = itlb.access
        invisible = self.config.invisible_speculation
        l1i = caches.l1i
        l1d = caches.l1d
        inline_i = l1i._lru and l1i._trace is None
        if inline_i:
            ii_shift = l1i._line_shift
            ii_mask = l1i._set_mask
            ii_ishift = l1i._index_shift
            ii_maps = l1i._maps
            ii_clocks = l1i._clocks
            ii_stamps = l1i._stamps
        inline_d = l1d._lru and l1d._trace is None
        if inline_d:
            dd_shift = l1d._line_shift
            dd_mask = l1d._set_mask
            dd_ishift = l1d._index_shift
            dd_maps = l1d._maps
            dd_clocks = l1d._clocks
            dd_stamps = l1d._stamps
            dd_dirty = l1d._dirty
        itlb_last = itlb._last_page
        dtlb_last = dtlb._last_page
        n_loads = n_fills = 0
        n_ihit = n_itlb = n_dtlb = n_dhit_r = n_dhit_w = 0
        #: last I-line probed with a hit — sequential fetches in the
        #: same line skip the set/tag recompute and the dict probe and
        #: go straight to the (mandatory, per-access) LRU bump.
        ii_last_ln = -1
        ii_last_si = ii_last_way = 0
        pc = start_pc
        executed = 0

        for _ in range(self.config.spec_window):
            entry = dcache.get(pc)
            if entry is None:
                try:
                    blob = memory.fetch(pc, INSTRUCTION_SIZE)
                    instruction = decode(blob)
                except (MemoryFault, EncodingError):
                    break
                entry = (int(instruction.opcode), instruction.rd,
                         instruction.rs1, instruction.rs2,
                         instruction.imm)
                dcache[pc] = entry
            # Wrong-path fetch fills the I-cache / ITLB too.
            if inline_i:
                ln = pc >> ii_shift
                if ln == ii_last_ln:
                    si = ii_last_si
                    clock = ii_clocks[si] + 1
                    ii_clocks[si] = clock
                    ii_stamps[si][ii_last_way] = clock
                    n_ihit += 1
                else:
                    si = ln & ii_mask
                    way = ii_maps[si].get(ln >> ii_ishift)
                    if way is not None:
                        clock = ii_clocks[si] + 1
                        ii_clocks[si] = clock
                        ii_stamps[si][way] = clock
                        n_ihit += 1
                        ii_last_ln = ln
                        ii_last_si = si
                        ii_last_way = way
                    else:
                        icache_fast(pc)
                        ii_last_ln = -1
            else:
                icache_fast(pc)
            page = pc >> 12
            if page == itlb_last:
                n_itlb += 1
            else:
                itlb_access(pc)
                itlb_last = page

            executed += 1
            op, rd, rs1, rs2, imm = entry
            next_pc = (pc + INSTRUCTION_SIZE) & MASK32

            # ALU ranges lead the dispatch (they dominate wrong-path
            # mixes), with the hottest opcodes decoded inline instead
            # of through the _alu_* helpers.
            if _ADD <= op <= _SLTU:
                if rd != 0:
                    if op == _ADD:
                        regs[rd] = (regs[rs1] + regs[rs2]) & MASK32
                    elif op == _SUB:
                        regs[rd] = (regs[rs1] - regs[rs2]) & MASK32
                    elif op == _AND:
                        regs[rd] = regs[rs1] & regs[rs2]
                    elif op == _OR:
                        regs[rd] = regs[rs1] | regs[rs2]
                    elif op == _XOR:
                        regs[rd] = regs[rs1] ^ regs[rs2]
                    else:
                        regs[rd] = _alu_rrr(op, regs[rs1], regs[rs2])
            elif _ADDI <= op <= _SLTI:
                if rd != 0:
                    if op == _ADDI:
                        regs[rd] = (regs[rs1] + imm) & MASK32
                    elif op == _SHLI:
                        regs[rd] = (regs[rs1] << (imm & 31)) & MASK32
                    elif op == _SHRI:
                        regs[rd] = regs[rs1] >> (imm & 31)
                    else:
                        regs[rd] = _alu_rri(op, regs[rs1], imm)
            elif op == _LI:
                if rd != 0:
                    regs[rd] = imm & MASK32
            elif op == _MOV:
                if rd != 0:
                    regs[rd] = regs[rs1]
            elif op == _LW or op == _LB:
                address = (regs[rs1] + imm) & MASK32
                n_loads += 1
                if invisible:
                    # Serviced from the speculative buffer: data flows to
                    # the wrong path, but no cache line is installed.
                    pass
                else:
                    page = address >> 12
                    if page == dtlb_last:
                        n_dtlb += 1
                    else:
                        dtlb_access(address)
                        dtlb_last = page
                    hit = False
                    if inline_d:
                        ln = address >> dd_shift
                        si = ln & dd_mask
                        way = dd_maps[si].get(ln >> dd_ishift)
                        if way is not None:
                            clock = dd_clocks[si] + 1
                            dd_clocks[si] = clock
                            dd_stamps[si][way] = clock
                            n_dhit_r += 1
                            hit = True
                    if not hit and data_fast(address, False)[1] == 3:
                        n_fills += 1
                key = (address, 4 if op == _LW else 1)
                if key in store_buffer:
                    value = store_buffer[key]
                else:
                    try:
                        if op == _LW:
                            value = memory.load_word(address)
                        else:
                            value = memory.load_byte(address)
                    except MemoryFault:
                        # Faulting wrong-path loads are suppressed; the
                        # cache fill above already happened, as on real
                        # hardware with a physically-mapped probe array.
                        break
                if rd != 0:
                    regs[rd] = value & MASK32
            elif op == _SW or op == _SB:
                address = (regs[rs1] + imm) & MASK32
                size = 4 if op == _SW else 1
                store_buffer[(address, size)] = regs[rs2] & (
                    MASK32 if size == 4 else 0xFF
                )
                page = address >> 12
                if page == dtlb_last:
                    n_dtlb += 1
                else:
                    dtlb_access(address)
                    dtlb_last = page
                hit = False
                if inline_d:
                    ln = address >> dd_shift
                    si = ln & dd_mask
                    way = dd_maps[si].get(ln >> dd_ishift)
                    if way is not None:
                        clock = dd_clocks[si] + 1
                        dd_clocks[si] = clock
                        dd_stamps[si][way] = clock
                        dd_dirty[si][way] = True
                        n_dhit_w += 1
                        hit = True
                if not hit:
                    data_fast(address, True)
            elif _BEQ <= op <= _BGEU:
                # Nested branches resolve immediately on the wrong path.
                if _branch_taken(op, regs[rs1], regs[rs2]):
                    next_pc = (pc + imm) & MASK32
            elif op == _JMP:
                next_pc = (pc + imm) & MASK32
            elif op == _JMPR:
                next_pc = (regs[rs1] + imm) & MASK32
            elif op == _CALL or op == _CALLR:
                return_address = next_pc
                sp = (regs[13] - 4) & MASK32
                regs[13] = sp
                store_buffer[(sp, 4)] = return_address
                if op == _CALL:
                    next_pc = (pc + imm) & MASK32
                else:
                    next_pc = (regs[rs1] + imm) & MASK32
            elif op == _RET:
                sp = regs[13]
                key = (sp, 4)
                if key in store_buffer:
                    target = store_buffer[key]
                else:
                    try:
                        target = memory.load_word(sp)
                    except MemoryFault:
                        break
                regs[13] = (sp + 4) & MASK32
                next_pc = target & MASK32
            elif op == _PUSH:
                sp = (regs[13] - 4) & MASK32
                regs[13] = sp
                store_buffer[(sp, 4)] = regs[rs1]
                hit = False
                if inline_d:
                    ln = sp >> dd_shift
                    si = ln & dd_mask
                    way = dd_maps[si].get(ln >> dd_ishift)
                    if way is not None:
                        clock = dd_clocks[si] + 1
                        dd_clocks[si] = clock
                        dd_stamps[si][way] = clock
                        dd_dirty[si][way] = True
                        n_dhit_w += 1
                        hit = True
                if not hit:
                    data_fast(sp, True)
            elif op == _POP:
                sp = regs[13]
                key = (sp, 4)
                if key in store_buffer:
                    value = store_buffer[key]
                else:
                    try:
                        value = memory.load_word(sp)
                    except MemoryFault:
                        break
                hit = False
                if inline_d:
                    ln = sp >> dd_shift
                    si = ln & dd_mask
                    way = dd_maps[si].get(ln >> dd_ishift)
                    if way is not None:
                        clock = dd_clocks[si] + 1
                        dd_clocks[si] = clock
                        dd_stamps[si][way] = clock
                        n_dhit_r += 1
                        hit = True
                if not hit:
                    data_fast(sp, False)
                regs[13] = (sp + 4) & MASK32
                if rd != 0:
                    regs[rd] = value
            elif op == _RDCYCLE:
                if rd != 0:
                    regs[rd] = int(self.cycles) & MASK32
            elif op == _RDINSTRET:
                if rd != 0:
                    regs[rd] = counters["instructions"] & MASK32
            elif op == _NOP:
                pass
            else:
                # HALT, SYSCALL, MFENCE, CLFLUSH: serialising — wrong-path
                # execution stops here (clflush is never speculated).
                break
            pc = next_pc

        # Batched tallies (all plain integer adds, so deferring them
        # to squash time is exact).
        if executed:
            counters["spec_instructions"] += executed
        if n_loads:
            counters["spec_loads"] += n_loads
        if n_fills:
            counters["spec_cache_fills"] += n_fills
        if n_ihit:
            stats = l1i.stats
            stats.accesses += n_ihit
            stats.read_accesses += n_ihit
            stats.hits += n_ihit
        if n_dhit_r or n_dhit_w:
            stats = l1d.stats
            hits = n_dhit_r + n_dhit_w
            stats.accesses += hits
            stats.hits += hits
            if n_dhit_r:
                stats.read_accesses += n_dhit_r
            if n_dhit_w:
                stats.write_accesses += n_dhit_w
        if n_itlb:
            itlb.hits += n_itlb
        if n_dtlb:
            dtlb.hits += n_dtlb
        counters["squashed_instructions"] += executed
        return executed

    # ------------------------------------------------------------------
    # architectural execution
    # ------------------------------------------------------------------
    def step(self):
        """Execute one architectural instruction; returns False on halt.

        This is the single-instruction reference implementation, the
        cold path of :meth:`run` and the deopt target of the superblock
        engine (differential tests: ``tests/cpu/test_run_loop.py``).
        """
        state = self.state
        if state.halted:
            return False
        config = self.config
        counters = self.pmu.counters
        predictor = self.predictor
        pc = state.pc
        entry = self._decode_cache.get(pc)
        if entry is None:
            entry = self._decode_entry(pc)
        # Fetch: I-cache line and I-TLB page charges on crossings only.
        line = pc >> 6
        if line != self._last_iline:
            self._last_iline = line
            extra = (self.caches.instruction_access_fast(pc)[0]
                     - self._l1_latency)
            if extra > 0:
                self.cycles += extra
                counters["memory_stall_cycles"] += extra
        page = pc >> 12
        if page != self._last_ipage:
            self._last_ipage = page
            self.itlb.access(pc)
        op, rd, rs1, rs2, imm = entry
        regs = state.regs
        next_pc = (pc + INSTRUCTION_SIZE) & MASK32
        self.cycles += self._base_cost
        counters["instructions"] += 1

        if _ADD <= op <= _SLTU:
            counters["alu_instructions"] += 1
            if _MUL <= op <= _MOD:
                counters["mul_div_instructions"] += 1
                self.cycles += (
                    config.div_extra if op != _MUL else config.mul_extra
                )
            state.write_reg(rd, _alu_rrr(op, regs[rs1], regs[rs2]))
        elif _ADDI <= op <= _SLTI:
            counters["alu_instructions"] += 1
            if op == _MULI:
                counters["mul_div_instructions"] += 1
                self.cycles += config.mul_extra
            state.write_reg(rd, _alu_rri(op, regs[rs1], imm))
        elif op == _LI:
            counters["alu_instructions"] += 1
            state.write_reg(rd, imm & MASK32)
        elif op == _MOV:
            counters["alu_instructions"] += 1
            state.write_reg(rd, regs[rs1])
        elif op == _LW:
            counters["load_instructions"] += 1
            address = (regs[rs1] + imm) & MASK32
            value = self.memory.load_word(address)
            self._charge_data_access(address, False)
            state.write_reg(rd, value)
        elif op == _LB:
            counters["load_instructions"] += 1
            address = (regs[rs1] + imm) & MASK32
            value = self.memory.load_byte(address)
            self._charge_data_access(address, False)
            state.write_reg(rd, value)
        elif op == _SW:
            counters["store_instructions"] += 1
            address = (regs[rs1] + imm) & MASK32
            self.memory.store_word(address, regs[rs2])
            self._charge_data_access(address, True)
        elif op == _SB:
            counters["store_instructions"] += 1
            address = (regs[rs1] + imm) & MASK32
            self.memory.store_byte(address, regs[rs2])
            self._charge_data_access(address, True)
        elif op == _PUSH:
            counters["stack_instructions"] += 1
            self._push_word(regs[rs1])
        elif op == _POP:
            counters["stack_instructions"] += 1
            state.write_reg(rd, self._pop_word())
        elif _BEQ <= op <= _BGEU:
            counters["branch_instructions"] += 1
            counters["cond_branch_instructions"] += 1
            taken = _branch_taken(op, regs[rs1], regs[rs2])
            predicted = predictor.predict_conditional(pc)
            mispredicted = predictor.resolve_conditional(pc, predicted, taken)
            if taken:
                counters["branches_taken"] += 1
                next_pc = (pc + imm) & MASK32
            if mispredicted:
                wrong_path = (
                    (pc + imm) & MASK32 if predicted
                    else (pc + INSTRUCTION_SIZE) & MASK32
                )
                self._mispredict(wrong_path)
        elif op == _JMP:
            counters["branch_instructions"] += 1
            next_pc = (pc + imm) & MASK32
        elif op == _JMPR:
            counters["branch_instructions"] += 1
            counters["indirect_jump_instructions"] += 1
            target = (regs[rs1] + imm) & MASK32
            predicted = predictor.predict_indirect(pc)
            mispredicted = predictor.resolve_indirect(pc, predicted, target)
            if predicted is None:
                self.cycles += config.btb_miss_penalty
            elif mispredicted:
                self._mispredict(predicted)
            next_pc = target
        elif op == _CALL:
            counters["branch_instructions"] += 1
            counters["call_instructions"] += 1
            return_address = next_pc
            self._push_word(return_address)
            predictor.on_call(return_address)
            if self.shadow_stack is not None:
                self.shadow_stack.on_call(return_address)
            next_pc = (pc + imm) & MASK32
        elif op == _CALLR:
            counters["branch_instructions"] += 1
            counters["call_instructions"] += 1
            counters["indirect_jump_instructions"] += 1
            target = (regs[rs1] + imm) & MASK32
            predicted = predictor.predict_indirect(pc)
            mispredicted = predictor.resolve_indirect(pc, predicted, target)
            return_address = next_pc
            self._push_word(return_address)
            predictor.on_call(return_address)
            if self.shadow_stack is not None:
                self.shadow_stack.on_call(return_address)
            if predicted is None:
                self.cycles += config.btb_miss_penalty
            elif mispredicted:
                self._mispredict(predicted)
            next_pc = target
        elif op == _RET:
            counters["branch_instructions"] += 1
            counters["ret_instructions"] += 1
            target = self._pop_word()
            if self.shadow_stack is not None:
                try:
                    self.shadow_stack.on_return(target)
                except ShadowStackViolation:
                    if self._tr_cpu is not None:
                        self._tr_cpu.event("cpu.shadow_divergence",
                                           pc=pc, target=target)
                    raise
            predicted = predictor.predict_return()
            mispredicted = predictor.resolve_return(predicted, target)
            if mispredicted:
                self._mispredict(predicted)
            next_pc = target
        elif op == _CLFLUSH:
            counters["clflush_instructions"] += 1
            if self.config.clflush_privileged and not self.kernel_mode:
                raise PrivilegeFault(
                    "clflush is disabled for non-privileged code "
                    "(countermeasure active)"
                )
            address = (regs[rs1] + imm) & MASK32
            self.caches.flush_line(address)
            if self.memory.executable_at(address):
                self._flush_code_line(address)
            self.cycles += config.clflush_latency
        elif op == _MFENCE:
            counters["mfence_instructions"] += 1
            self.cycles += config.fence_latency
            counters["fence_stall_cycles"] += int(config.fence_latency)
        elif op == _RDCYCLE:
            counters["alu_instructions"] += 1
            state.write_reg(rd, int(self.cycles) & MASK32)
        elif op == _RDINSTRET:
            counters["alu_instructions"] += 1
            state.write_reg(rd, counters["instructions"] & MASK32)
        elif op == _SYSCALL:
            counters["syscall_instructions"] += 1
            self.cycles += config.syscall_latency
            if self.syscall_handler is None:
                raise CpuFault(f"syscall at {pc:#010x} with no handler")
            state.pc = next_pc  # handlers (execve) may overwrite this
            self.syscall_handler(self)
            return not state.halted
        elif op == _NOP:
            pass
        elif op == _HALT:
            state.halted = True
            return False
        else:  # pragma: no cover - every opcode is handled above
            raise CpuFault(f"unhandled opcode {op:#04x} at {pc:#010x}")

        state.pc = next_pc
        return True

    #: How many instructions retire between watchdog charges; coarse
    #: enough to keep the interpreter loop hot, fine enough that a
    #: runaway chain is caught within one chunk of its budget.
    WATCHDOG_STRIDE = 1024

    def _run_profiled(self, max_instructions=None):
        """The step()-driven run loop with per-instruction attribution.

        Like the step engine's :meth:`run`, this keeps architectural
        state live in the object after every instruction — run ≡ step
        bit-exactness means profiling observes the run without
        perturbing it.  Around
        each step() we snapshot the virtual clock, the memory-stall and
        mispredict-penalty counters, the decode cache and the tracer's
        emission ordinal; the deltas feed the ambient profiler's
        subsystem buckets, opcode table and basic-block runs.
        """
        prof = self._prof
        state = self.state
        counters = self.pmu.counters
        dcache = self._decode_cache
        tracer = self._tracer
        size = INSTRUCTION_SIZE
        stride = self.WATCHDOG_STRIDE
        watchdog = self.watchdog
        # Under the sb engine, translation still happens (and is timed
        # into the ``translate`` bucket) so its cost is attributed
        # honestly — but the compiled closures are never *executed*
        # here: profiling observes the run step by step.  Translation
        # decisions are heat-count driven, hence deterministic.
        sb = sb_blocks = sb_heat = sb_threshold = None
        if self._engine == "sb":
            sb = self._sb
            if sb is None:
                sb = self._sb = SuperblockEngine(self)
            sb_blocks = sb.blocks
            sb_heat = sb.heat
            sb_threshold = sb.HOT_THRESHOLD
        executed = 0
        blk_start = -1
        blk_instr = 0
        blk_cycles = 0.0
        prev_pc = -1
        try:
            while not state.halted:
                if (max_instructions is not None
                        and executed >= max_instructions):
                    break
                pc = state.pc
                entry = dcache.get(pc)
                missed = entry is None
                if sb is not None and sb_blocks.get(pc) is None:
                    heat = sb_heat.get(pc, 0) + 1
                    if heat >= sb_threshold:
                        wall0 = perf_counter()
                        sb.translate(pc)
                        prof.translation(perf_counter() - wall0)
                    else:
                        sb_heat[pc] = heat
                cycles0 = self.cycles
                mem0 = counters["memory_stall_cycles"]
                br0 = counters["mispredict_penalty_cycles"]
                seq0 = tracer._seq if tracer is not None else 0
                wall0 = perf_counter()
                self.step()
                wall = perf_counter() - wall0
                if entry is None:
                    # decoded during the step (and still cached unless
                    # an execve flushed it mid-instruction)
                    entry = dcache.get(pc)
                op = entry[0] if entry is not None else -1
                delta = self.cycles - cycles0
                prof.instruction(
                    op, delta,
                    counters["memory_stall_cycles"] - mem0,
                    counters["mispredict_penalty_cycles"] - br0,
                    missed, wall,
                    (tracer._seq - seq0) if tracer is not None else 0,
                )
                if blk_start < 0:
                    blk_start = pc
                elif pc != (prev_pc + size) & MASK32:
                    prof.block(blk_start, prev_pc, blk_instr, blk_cycles)
                    blk_start = pc
                    blk_instr = 0
                    blk_cycles = 0.0
                blk_instr += 1
                blk_cycles += delta
                prev_pc = pc
                executed += 1
                if watchdog is not None and executed % stride == 0:
                    watchdog.charge(stride)
        finally:
            if blk_start >= 0 and blk_instr:
                prof.block(blk_start, prev_pc, blk_instr, blk_cycles)
        if watchdog is not None and executed % stride:
            watchdog.charge(executed % stride)
        return executed

    def run(self, max_instructions=None):
        """Run until halt (or *max_instructions*); returns retired count.

        When ``self.watchdog`` is set, the retired count is charged to it
        in :data:`WATCHDOG_STRIDE` chunks; an exhausted budget raises
        :class:`~repro.errors.BudgetExceededError` out of the loop — this
        is what turns a never-halting injected chain into a typed error
        instead of a hang.

        One loop serves every engine.  Under ``sb`` (untraced), a
        compiled superblock at ``state.pc`` runs as one closure call on
        the object's live state, and everything else — cold code, block
        terminators, the instruction a block would straddle a pause or
        watchdog boundary with — goes through :meth:`step`.  The ``step``
        engine and traced runs (trace events sample ``self.cycles`` live)
        take the same loop with translation off.
        """
        if self._prof is not None:
            return self._run_profiled(max_instructions)
        state = self.state
        step = self.step
        watchdog = self.watchdog
        stride = self.WATCHDOG_STRIDE
        limit = -1 if max_instructions is None else max_instructions
        sb_blocks = None
        if self._engine == "sb" and not self._step_trace:
            sb = self._sb
            if sb is None:
                sb = self._sb = SuperblockEngine(self)
            # Live references: flush() clears these dicts in place, so
            # an invalidation fired from inside a closure (SMC) is
            # visible to this very loop immediately.
            sb_blocks = sb.blocks
            sb_heat = sb.heat
            sb_translate = sb.translate
            sb_threshold = sb.HOT_THRESHOLD
            sb_wp = sb.wp
            counters = self.pmu.counters
        executed = 0
        while not state.halted and executed != limit:
            if sb_blocks is not None:
                pc = state.pc
                block = sb_blocks.get(pc)
                if block is None:
                    heat = sb_heat.get(pc, 0) + 1
                    if heat >= sb_threshold:
                        block = sb_translate(pc)
                    else:
                        sb_heat[pc] = heat
                # Enter only when the whole block fits before the next
                # pause/watchdog boundary — blocks never straddle a
                # charge stride or a chunked run()'s instruction limit.
                if block:
                    fn, length, _exit = block
                    if ((limit < 0 or executed + length <= limit)
                            and (watchdog is None
                                 or executed % stride + length <= stride)):
                        # A faulting closure syncs the object itself,
                        # so only a normal return is written back here.
                        (state.pc, done, self.cycles, self._last_iline,
                         self._last_ipage) = fn(state.regs, counters,
                                                self.cycles,
                                                self._last_iline,
                                                self._last_ipage)
                        executed += done
                        wp = sb_wp[0]
                        if wp is not None:
                            # A compiled side exit resolved a
                            # mispredicted branch; the closure has fully
                            # committed, so the wrong-path walk sees
                            # exactly the machine step() has when it
                            # calls _mispredict.
                            sb_wp[0] = None
                            self._mispredict(wp)
                        if watchdog is not None and executed % stride == 0:
                            watchdog.charge(stride)
                        continue
            step()
            executed += 1
            if watchdog is not None and executed % stride == 0:
                watchdog.charge(stride)
        if watchdog is not None and executed % stride:
            watchdog.charge(executed % stride)
        return executed
