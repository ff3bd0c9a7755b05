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
The decode cache stores the flat ``(op, rd, rs1, rs2, imm)`` tuples of
:func:`repro.isa.semantics.decode_entry`, with *op* a plain int, so
dispatch compares ints and operand access is index-based — no dataclass
or enum traffic per retired instruction.  Opcode constants and every
ALU result and branch condition come from :mod:`repro.isa.semantics`
(``ALU[op]``, ``TAKEN[op]``).
:func:`execute` is the one architectural executor: registers, memory,
predictor, shadow stack and the instruction-mix PMU events of every
opcode.  Both cores run it and keep only their clocks, which it reaches
through hooks on the core (``_charge_data_access``, ``_mispredict``,
``_btb_miss``, ``_serialize``); this core charges them straight to
``cycles``, the out-of-order core schedules them.
:meth:`Cpu.step` wraps it with fetch and cost accounting and is the
only interpreter: :meth:`Cpu.run` loops over it, except that under the
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
from repro.cpu.state import CpuState
from repro.errors import (
    CpuFault,
    EncodingError,
    MemoryFault,
    PrivilegeFault,
    ShadowStackViolation,
)
from repro.cpu.superblock import SuperblockEngine
from repro.isa.registers import SP
from repro.isa.semantics import (
    ADD, ADDI, ALU, BEQ, BGEU, CALL, CALLR, CLFLUSH, EXTRA_CYCLES, HALT,
    INSTRUCTION_SIZE, JMP, JMPR, LB, LI, LW, MASK32, MFENCE, MOD, MOV,
    MUL, MULI, NOP, POP, PUSH, RDCYCLE, RDINSTRET, RET, SB, SLTI, SLTU,
    SW, SYSCALL, TAKEN, decode_entry,
)
from repro.mem.tlb import Tlb
from repro.obs.prof import current_profiler
from repro.obs.tracer import current_tracer
from time import perf_counter


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


def extra_cycles(config):
    """Opcode-indexed extra execution cycles of long-latency arithmetic
    under *config* (0.0 for every other opcode)."""
    table = [0.0] * (RDINSTRET + 1)
    for op, knob in EXTRA_CYCLES.items():
        table[op] = getattr(config, knob)
    return tuple(table)


def decode_at(core, pc):
    """Decode the instruction at *pc* into *core*'s decode cache.

    Both cores' cold fetch path; an undecodable word is an
    illegal-instruction :class:`CpuFault`.
    """
    blob = core.memory.fetch(pc, INSTRUCTION_SIZE)
    try:
        entry = decode_entry(blob)
    except EncodingError as exc:
        raise CpuFault(f"illegal instruction at {pc:#010x}: {exc}")
    core._decode_cache[pc] = entry
    return entry


def speculate(core, start_pc, window):
    """Execute up to *window* wrong-path instructions on *core* from
    *start_pc*; returns the number executed.

    This is the one wrong-path walker: the in-order core calls it with
    ``spec_window``, the out-of-order core with its free ROB slots.  It
    works on a shadow copy of ``core.state.regs`` and a store buffer,
    so architectural state never changes; only cache/TLB fills and the
    ``spec_*`` counters persist.

    This walk dominates wall time on mispredict-heavy workloads, so —
    like the superblock closures — it inlines the L1I/L1D LRU hit
    paths and the TLB MRU shortcut, and batches the commutative integer
    tallies (PMU ``spec_*`` counters, cache/TLB hit statistics) into
    locals flushed once at squash.  Every *stateful* mutation (LRU
    clocks and stamps, dirty bits, miss-path fills, replacement) still
    happens on the live objects in exact program order — the cache
    disturbance *is* the Spectre side channel, so only counts that
    commute may be deferred.
    """
    regs = core.state.copy_regs()
    store_buffer = {}
    counters = core.pmu.counters
    memory = core.memory
    dcache = core._decode_cache
    caches = core.caches
    data_fast = caches.data_access_fast
    icache_fast = caches.instruction_access_fast
    dtlb = core.dtlb
    itlb = core.itlb
    dtlb_access = dtlb.access
    itlb_access = itlb.access
    invisible = core.config.invisible_speculation
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

    for _ in range(window):
        entry = dcache.get(pc)
        if entry is None:
            try:
                entry = decode_entry(memory.fetch(pc, INSTRUCTION_SIZE))
            except (MemoryFault, EncodingError):
                break
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

        # ALU ranges lead the dispatch (they dominate wrong-path mixes).
        if ADD <= op <= SLTU:
            if rd != 0:
                regs[rd] = ALU[op](regs[rs1], regs[rs2])
        elif ADDI <= op <= SLTI:
            if rd != 0:
                regs[rd] = ALU[op](regs[rs1], imm)
        elif op == LI:
            if rd != 0:
                regs[rd] = imm & MASK32
        elif op == MOV:
            if rd != 0:
                regs[rd] = regs[rs1]
        elif op == LW or op == LB:
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
            key = (address, 4 if op == LW else 1)
            if key in store_buffer:
                value = store_buffer[key]
            else:
                try:
                    if op == LW:
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
        elif op == SW or op == SB:
            address = (regs[rs1] + imm) & MASK32
            size = 4 if op == SW else 1
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
        elif BEQ <= op <= BGEU:
            # Nested branches resolve immediately on the wrong path.
            if TAKEN[op](regs[rs1], regs[rs2]):
                next_pc = (pc + imm) & MASK32
        elif op == JMP:
            next_pc = (pc + imm) & MASK32
        elif op == JMPR:
            next_pc = (regs[rs1] + imm) & MASK32
        elif op == CALL or op == CALLR:
            return_address = next_pc
            sp = (regs[13] - 4) & MASK32
            regs[13] = sp
            store_buffer[(sp, 4)] = return_address
            if op == CALL:
                next_pc = (pc + imm) & MASK32
            else:
                next_pc = (regs[rs1] + imm) & MASK32
        elif op == RET:
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
        elif op == PUSH:
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
        elif op == POP:
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
        elif op == RDCYCLE:
            if rd != 0:
                regs[rd] = int(core.cycles) & MASK32
        elif op == RDINSTRET:
            if rd != 0:
                regs[rd] = counters["instructions"] & MASK32
        elif op == NOP:
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


def execute(core, pc, entry):
    """Retire the decoded instruction *entry* at *pc* on *core*.

    The one architectural executor: register and memory effects, the
    predictor, the shadow stack, ``clflush``, syscalls and the
    instruction-mix PMU events of every opcode.  It leaves ``state.pc``
    at the next instruction (a halt leaves it in place; a syscall
    handler may overwrite it).  Time is the core's business, reached
    through four hooks:

    - ``core._charge_data_access(address, is_write)`` accounts one
      data access and returns its latency;
    - ``core._mispredict(wrong_path_pc)`` for a mispredicted branch
      (the wrong path may be ``None`` when no target was predicted);
    - ``core._btb_miss()`` for an indirect branch the BTB had no
      target for;
    - ``core._serialize(latency)`` for a serialising instruction,
      before its clock read or handler call.

    Returns the latency of the memory read the instruction made, or
    ``None`` when it read no memory.
    """
    state = core.state
    counters = core.pmu.counters
    op, rd, rs1, rs2, imm = entry
    regs = state.regs
    next_pc = (pc + INSTRUCTION_SIZE) & MASK32
    latency = None
    counters["instructions"] += 1

    if ADD <= op <= SLTU:
        counters["alu_instructions"] += 1
        if MUL <= op <= MOD:
            counters["mul_div_instructions"] += 1
        if rd:
            regs[rd] = ALU[op](regs[rs1], regs[rs2])
    elif ADDI <= op <= SLTI:
        counters["alu_instructions"] += 1
        if op == MULI:
            counters["mul_div_instructions"] += 1
        if rd:
            regs[rd] = ALU[op](regs[rs1], imm)
    elif op == LI:
        counters["alu_instructions"] += 1
        if rd:
            regs[rd] = imm & MASK32
    elif op == MOV:
        counters["alu_instructions"] += 1
        if rd:
            regs[rd] = regs[rs1]
    elif op == LW or op == LB:
        counters["load_instructions"] += 1
        address = (regs[rs1] + imm) & MASK32
        if op == LW:
            value = core.memory.load_word(address)
        else:
            value = core.memory.load_byte(address)
        latency = core._charge_data_access(address, False)
        if rd:
            regs[rd] = value
    elif op == SW or op == SB:
        counters["store_instructions"] += 1
        address = (regs[rs1] + imm) & MASK32
        if op == SW:
            core.memory.store_word(address, regs[rs2])
        else:
            core.memory.store_byte(address, regs[rs2])
        core._charge_data_access(address, True)
    elif op == PUSH:
        counters["stack_instructions"] += 1
        _push(core, regs, regs[rs1])
    elif op == POP:
        counters["stack_instructions"] += 1
        sp = regs[SP]
        value = core.memory.load_word(sp)
        latency = core._charge_data_access(sp, False)
        regs[SP] = (sp + 4) & MASK32
        if rd:
            regs[rd] = value
    elif BEQ <= op <= BGEU:
        counters["branch_instructions"] += 1
        counters["cond_branch_instructions"] += 1
        taken = TAKEN[op](regs[rs1], regs[rs2])
        predictor = core.predictor
        predicted = predictor.predict_conditional(pc)
        mispredicted = predictor.resolve_conditional(pc, predicted, taken)
        if taken:
            counters["branches_taken"] += 1
            next_pc = (pc + imm) & MASK32
        if mispredicted:
            core._mispredict(
                (pc + imm) & MASK32 if predicted
                else (pc + INSTRUCTION_SIZE) & MASK32
            )
    elif op == JMP:
        counters["branch_instructions"] += 1
        next_pc = (pc + imm) & MASK32
    elif op == JMPR or op == CALLR:
        counters["branch_instructions"] += 1
        counters["indirect_jump_instructions"] += 1
        target = (regs[rs1] + imm) & MASK32
        predictor = core.predictor
        predicted = predictor.predict_indirect(pc)
        mispredicted = predictor.resolve_indirect(pc, predicted, target)
        if op == CALLR:
            counters["call_instructions"] += 1
            _call(core, regs, next_pc)
        if predicted is None:
            core._btb_miss()
        elif mispredicted:
            core._mispredict(predicted)
        next_pc = target
    elif op == CALL:
        counters["branch_instructions"] += 1
        counters["call_instructions"] += 1
        _call(core, regs, next_pc)
        next_pc = (pc + imm) & MASK32
    elif op == RET:
        counters["branch_instructions"] += 1
        counters["ret_instructions"] += 1
        sp = regs[SP]
        target = core.memory.load_word(sp)
        latency = core._charge_data_access(sp, False)
        regs[SP] = (sp + 4) & MASK32
        if core.shadow_stack is not None:
            try:
                core.shadow_stack.on_return(target)
            except ShadowStackViolation:
                if core._tr_cpu is not None:
                    core._tr_cpu.event("cpu.shadow_divergence",
                                       pc=pc, target=target)
                raise
        predictor = core.predictor
        predicted = predictor.predict_return()
        if predictor.resolve_return(predicted, target):
            core._mispredict(predicted)
        next_pc = target
    elif op == CLFLUSH:
        counters["clflush_instructions"] += 1
        if core.config.clflush_privileged and not core.kernel_mode:
            raise PrivilegeFault(
                "clflush is disabled for non-privileged code "
                "(countermeasure active)"
            )
        address = (regs[rs1] + imm) & MASK32
        core.caches.flush_line(address)
        if core.memory.executable_at(address):
            core._flush_code_line(address)
        core._serialize(core.config.clflush_latency)
    elif op == MFENCE:
        counters["mfence_instructions"] += 1
        fence_latency = core.config.fence_latency
        core._serialize(fence_latency)
        counters["fence_stall_cycles"] += int(fence_latency)
    elif op == RDCYCLE:
        counters["alu_instructions"] += 1
        core._serialize(0.0)
        if rd:
            regs[rd] = int(core.cycles) & MASK32
    elif op == RDINSTRET:
        counters["alu_instructions"] += 1
        if rd:
            regs[rd] = counters["instructions"] & MASK32
    elif op == SYSCALL:
        counters["syscall_instructions"] += 1
        core._serialize(core.config.syscall_latency)
        if core.syscall_handler is None:
            raise CpuFault(f"syscall at {pc:#010x} with no handler")
        state.pc = next_pc  # handlers (execve) may overwrite this
        core.syscall_handler(core)
        return None
    elif op == NOP:
        pass
    elif op == HALT:
        state.halted = True
        return None
    else:  # pragma: no cover - every opcode is handled above
        raise CpuFault(f"unhandled opcode {op:#04x} at {pc:#010x}")

    state.pc = next_pc
    return latency


def _push(core, regs, value):
    """Push *value* onto *core*'s stack."""
    sp = (regs[SP] - 4) & MASK32
    regs[SP] = sp
    core.memory.store_word(sp, value)
    core._charge_data_access(sp, True)


def _call(core, regs, return_address):
    """The stack, return-stack-buffer and shadow-stack half of a call."""
    _push(core, regs, return_address)
    core.predictor.on_call(return_address)
    if core.shadow_stack is not None:
        core.shadow_stack.on_call(return_address)


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
        self._extra_cycles = extra_cycles(self.config)
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

    def _charge_data_access(self, address, is_write):
        """Account one data access; its miss latency stalls the clock."""
        self.dtlb.access(address)
        latency = self.caches.data_access_fast(address, is_write)[0]
        extra = latency - self._l1_latency
        if extra > 0:
            self.cycles += extra
            self.pmu.counters["memory_stall_cycles"] += extra
        return latency

    def _btb_miss(self):
        """No predicted target: fetch waits for the indirect branch."""
        self.cycles += self.config.btb_miss_penalty

    def _serialize(self, latency):
        """An in-order core is always drained: just charge *latency*."""
        self.cycles += latency

    def _mispredict(self, wrong_path_pc):
        """Charge the penalty and run the wrong path speculatively."""
        trace = self._tr_cpu
        ts0 = trace.now() if trace is not None else 0
        penalty = self.config.mispredict_penalty
        self.cycles += penalty
        self.pmu.counters["mispredict_penalty_cycles"] += int(penalty)
        if wrong_path_pc is not None:
            executed = speculate(self, wrong_path_pc,
                                 self.config.spec_window)
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
    # architectural execution
    # ------------------------------------------------------------------
    def step(self):
        """Execute one architectural instruction; returns False on halt.

        Fetch, the issue-width base cost, :func:`execute` and the
        long-latency arithmetic cost: the single-instruction reference,
        the cold path of :meth:`run` and the deopt target of the
        superblock engine (differential tests:
        ``tests/cpu/test_run_loop.py``).
        """
        state = self.state
        if state.halted:
            return False
        pc = state.pc
        entry = self._decode_cache.get(pc)
        if entry is None:
            entry = decode_at(self, pc)
        # Fetch: I-cache line and I-TLB page charges on crossings only.
        line = pc >> 6
        if line != self._last_iline:
            self._last_iline = line
            extra = (self.caches.instruction_access_fast(pc)[0]
                     - self._l1_latency)
            if extra > 0:
                self.cycles += extra
                self.pmu.counters["memory_stall_cycles"] += extra
        page = pc >> 12
        if page != self._last_ipage:
            self._last_ipage = page
            self.itlb.access(pc)
        self.cycles += self._base_cost
        execute(self, pc, entry)
        extra = self._extra_cycles[entry[0]]
        if extra:
            self.cycles += extra
        return not state.halted

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
