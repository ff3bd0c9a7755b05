"""The out-of-order (Tomasulo) core: same ISA contract, OoO timing.

Execution model
---------------
Instructions dispatch in program order into a reorder buffer and
reservation stations, execute as their operands become ready, and
commit strictly in order at ``commit_width`` per cycle.  The functional
(rename-file) state executes eagerly at dispatch — the register file
``state.regs`` always holds the newest speculative values, while
``arch_regs`` tracks the committed view the ROB writes back to — and
takes its decoding and ALU/branch values from :mod:`repro.isa.semantics`
like the in-order core, so the architectural results are
instruction-for-instruction identical to it.  What differs is *time*: per-register ready times, ROB /
reservation-station / LSQ occupancy and the commit stream produce the
cycle counter, so load misses overlap with independent work, long
dividers hide behind ALU chains, and ``rdcycle`` (a serialising read,
as on real hardware) observes the drained machine.

Speculation
-----------
On a branch misprediction the wrong path executes in the ROB's *free
slots* — reorder-buffer depth, not a fixed window, bounds transient
execution, which is the microarchitectural knob Spectre exploits on
real OoO hardware (Kocher et al.).  The walk itself is the in-order
core's: :func:`repro.cpu.cpu.speculate`, called with
``rob.free_slots()`` as its window.  It runs on a shadow register file
and a store buffer (wrong-path stores never reach memory), so nothing
in the ROB, the rename file or ``arch_regs`` changes; its instruction
and data fetches still fill the caches and TLBs — the covert channel —
and it accounts the ``spec_*`` / ``squashed_instructions`` PMU events.
The signature still differs from the in-order core's because the
window breathes with ROB occupancy instead of being a constant.

Serialising instructions (``rdcycle``, ``mfence``, ``clflush``,
``syscall``, ``halt``) drain the ROB and retire immediately; every exit
path of ``run()`` drains it too, so cross-quantum state is always
architectural and a run is bit-deterministic regardless of how
``run()`` calls slice it.
"""

import dataclasses

from repro.branch.predictor import BranchPredictor
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.cpu import CpuConfig, decode_at, speculate
from repro.cpu.pmu import Pmu
from repro.cpu.shadow_stack import ShadowStack
from repro.cpu.state import CpuState
from repro.errors import (
    CpuFault,
    PrivilegeFault,
    ShadowStackViolation,
)
from repro.isa.semantics import (
    ADD, ADDI, ALU, BEQ, BGEU, CALL, CALLR, CLFLUSH, HALT, INSTRUCTION_SIZE,
    JMP, JMPR, LB, LI, LW, MASK32, MFENCE, MOD, MOV, MUL, MULI, NOP, POP,
    PUSH, RDCYCLE, RDINSTRET, RET, SB, SLTI, SLTU, SW, SYSCALL, TAKEN,
)
from repro.mem.tlb import Tlb
from repro.obs.prof import current_profiler
from repro.obs.tracer import current_tracer
from time import perf_counter
from repro.uarch.core import register_uarch
from repro.uarch.structures import (
    LoadStoreQueue,
    ReorderBuffer,
    ReservationStations,
    RobEntry,
)


@dataclasses.dataclass(frozen=True)
class OooParams:
    """Out-of-order core knobs.

    ``rob_depth`` is the speculation budget: free ROB slots bound how
    far a mispredicted branch executes down the wrong path, the way
    ``CpuConfig.spec_window`` does for the in-order core.  The default
    matches that window so the two cores expose comparably-sized covert
    channels out of the box.
    """

    rob_depth: int = 48
    rs_alu: int = 8
    rs_mem: int = 6
    rs_branch: int = 4
    lsq_depth: int = 12
    commit_width: int = 4


class OooCore:
    """One simulated out-of-order hardware thread."""

    #: Same watchdog-charging contract as the in-order core.
    WATCHDOG_STRIDE = 1024

    def __init__(self, memory, caches=None, predictor=None, config=None,
                 params=None):
        self.memory = memory
        self.caches = caches or CacheHierarchy()
        self.predictor = predictor or BranchPredictor()
        self.config = config or CpuConfig()
        self.params = params or OooParams()
        self.state = CpuState()
        self.dtlb = Tlb()
        self.itlb = Tlb()
        self.pmu = Pmu(self)
        self.cycles = 0.0
        self.shadow_stack = (ShadowStack() if self.config.shadow_stack
                             else None)
        self.kernel_mode = False
        self.syscall_handler = None
        self.watchdog = None
        self._decode_cache = {}
        self._base_cost = 1.0 / self.config.issue_width
        self._l1_latency = self.caches.config.l1_latency
        self._last_iline = -1
        self._last_ipage = -1
        # Self-modifying stores must not leave stale decode entries
        # behind; the dispatch loop itself stays untouched (no
        # superblocks on this core).
        memory.add_code_listener(self._on_code_write)

        # Tomasulo structures.
        p = self.params
        num_regs = len(self.state.regs)
        self.rob = ReorderBuffer(p.rob_depth)
        self.rs = ReservationStations(
            {"alu": p.rs_alu, "mem": p.rs_mem, "br": p.rs_branch}
        )
        self.lsq = LoadStoreQueue(p.lsq_depth)
        #: Committed register file (the ROB writes back here); converges
        #: with the rename file ``state.regs`` whenever the ROB drains.
        self.arch_regs = list(self.state.regs)
        #: Per-register result-ready times (values live in
        #: ``state.regs``).
        self._ready = [0.0] * num_regs
        self._fetch_clock = 0.0
        self._last_commit = 0.0
        self._inv_commit = 1.0 / p.commit_width
        self._seq = 0
        #: Tests may set this to a list to record (seq, pc) per commit
        #: and pin the in-order-commit invariant.
        self.commit_log = None

        tracer = current_tracer()
        if tracer.enabled:
            self._tracer = tracer
            self._metrics = tracer.metrics
            self.trace_clk = tracer.register_clock(self._cycles_now)
            self._tr_cpu = tracer.channel("cpu", self.trace_clk)
            self._tr_kernel = tracer.channel("kernel", self.trace_clk)
            self._tr_dispatch = tracer.channel("ooo.dispatch",
                                               self.trace_clk)
            self._tr_commit = tracer.channel("ooo.commit",
                                             self.trace_clk)
            self._tr_squash = tracer.channel("ooo.squash",
                                             self.trace_clk)
            self._tr_lsq = tracer.channel("ooo.lsq", self.trace_clk)
            cache_channel = tracer.channel("cache", self.trace_clk)
            if cache_channel is not None:
                self.caches.bind_tracer(cache_channel)
        else:
            self._tracer = None
            self._metrics = None
            self.trace_clk = 0
            self._tr_cpu = None
            self._tr_kernel = None
            self._tr_dispatch = None
            self._tr_commit = None
            self._tr_squash = None
            self._tr_lsq = None
        # Profiler: bound once, like the tracer.  The OoO loop cannot be
        # single-stepped without serialising the ROB (that would change
        # the timing being measured), so an active profiler attaches a
        # read-only cursor inside run() instead of diverting to step().
        profiler = current_profiler()
        self._prof = (profiler if profiler.enabled
                      and profiler.config.active else None)

    def _cycles_now(self):
        return int(self.cycles)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def reset_for_exec(self):
        """Flush decode/translation + pipeline state after ``execve``."""
        self._decode_cache.clear()
        self._last_iline = -1
        self._last_ipage = -1
        self.dtlb.flush()
        self.itlb.flush()
        if self.shadow_stack is not None:
            self.shadow_stack.reset()
        self.predictor.rsb.reset()
        self.rob.clear()
        self.rs.clear()
        self.lsq.clear()
        self._ready = [self.cycles] * len(self._ready)

    def _on_code_write(self, address, size):
        """A store reached an executable segment: decode cache is stale."""
        self._decode_cache.clear()

    # ------------------------------------------------------------------
    # commit port
    # ------------------------------------------------------------------
    def _commit_head(self):
        """Retire the ROB head; returns its commit time."""
        entry = self.rob.pop_head()
        slot = self._last_commit + self._inv_commit
        if entry.completion > slot:
            slot = entry.completion
        self._last_commit = slot
        if slot > self.cycles:
            self.cycles = slot
        arch = self.arch_regs
        for register, value in entry.writes:
            arch[register] = value
        if entry.kind == "mem":
            self.lsq.release(entry.seq)
        log = self.commit_log
        if log is not None:
            log.append((entry.seq, entry.pc))
        return slot

    def _commit_until(self, now):
        """Retire every head entry whose commit slot is due by *now*."""
        entries = self.rob.entries
        inv_commit = self._inv_commit
        while entries:
            head = entries[0]
            slot = self._last_commit + inv_commit
            if head.completion > slot:
                slot = head.completion
            if slot > now:
                break
            self._commit_head()

    def _drain(self):
        """Retire the whole ROB (quantum boundary, fault, serialise)."""
        while self.rob.entries:
            self._commit_head()

    def _serialize(self, fclock, extra=0.0):
        """Drain, then retire a serialising op; returns the new fetch
        clock (== ``self.cycles``: the machine is momentarily in-order).
        """
        metrics = self._metrics
        if metrics is not None and self.rob.entries:
            # Commit-stall bookkeeping: a serialising op forces the
            # whole ROB to retire before it may even dispatch.
            metrics.inc("ooo.commit_stalls")
            metrics.observe("ooo.rob.occupancy", len(self.rob.entries))
            trace = self._tr_commit
            if trace is not None:
                ts0 = trace.now()
                occupancy = len(self.rob.entries)
                self._drain()
                trace.complete("ooo.commit.drain", ts0, rob=occupancy)
            else:
                self._drain()
        else:
            self._drain()
        t = self.cycles
        if fclock > t:
            t = fclock
        t += extra
        self.cycles = t
        self._last_commit = t
        return t

    # ------------------------------------------------------------------
    # misprediction recovery
    # ------------------------------------------------------------------
    def _recover(self, pc, wrong_path_pc, resolve_time, fclock):
        """Mispredict: run the wrong path in the free ROB slots through
        the shared walker, squash it, and redirect fetch."""
        trace = self._tr_cpu
        ts0 = trace.now() if trace is not None else 0
        metrics = self._metrics
        squash_trace = self._tr_squash
        sq_ts0 = squash_trace.now() if squash_trace is not None else 0
        penalty = self.config.mispredict_penalty
        self.pmu.counters["mispredict_penalty_cycles"] += int(penalty)
        if fclock < resolve_time:
            fclock = resolve_time
        fclock += penalty
        if wrong_path_pc is not None:
            if metrics is not None:
                # Speculation-window depth: how many ROB slots the
                # wrong path may fill before the squash bounds it.
                metrics.observe("ooo.spec.window",
                                self.rob.free_slots())
                metrics.observe("ooo.rob.occupancy",
                                len(self.rob.entries))
            executed = speculate(self, wrong_path_pc,
                                 self.rob.free_slots())
            if metrics is not None:
                metrics.inc("ooo.squashes")
                if executed:
                    metrics.inc("ooo.wrong_path_uops", executed)
            if trace is not None:
                trace.complete("cpu.speculate", ts0, pc=pc,
                               target=wrong_path_pc, squashed=executed)
                self._tracer.metrics.observe(
                    "cpu.speculate.squashed", executed
                )
            if squash_trace is not None:
                squash_trace.complete("ooo.squash", sq_ts0, pc=pc,
                                      target=wrong_path_pc,
                                      uops=executed)
        elif trace is not None:
            trace.event("cpu.mispredict", pc=pc)
        return fclock

    # ------------------------------------------------------------------
    # architectural execution
    # ------------------------------------------------------------------
    def step(self):
        """Retire one architectural instruction; ``False`` on halt."""
        if self.state.halted:
            return False
        self.run(max_instructions=1)
        return not self.state.halted

    def run(self, max_instructions=None):
        """Dispatch/commit until halt (or budget); returns retired count.

        One loop serves traced and untraced runs: ``self.cycles`` only
        moves at commit/serialise points, which is where every trace
        emission happens, so the channels always observe a live clock.
        All observable state is synchronised — and the ROB drained — on
        every exit path, including faults (precise exceptions: older
        work commits, the faulting instruction never allocates).
        """
        state = self.state
        if state.halted:
            return 0
        config = self.config
        counters = self.pmu.counters
        predictor = self.predictor
        memory = self.memory
        caches = self.caches
        rob_entries = self.rob.entries
        rob_depth = self.rob.depth
        rs_acquire = self.rs.acquire
        rs_issue = self.rs.issue
        lsq = self.lsq
        lsq_entries = lsq.entries
        lsq_depth = lsq.depth
        dcache_get = self._decode_cache.get
        load_word = memory.load_word
        load_byte = memory.load_byte
        store_word = memory.store_word
        store_byte = memory.store_byte
        dtlb_access = self.dtlb.access
        itlb_access = self.itlb.access
        icache_fast = caches.instruction_access_fast
        data_fast = caches.data_access_fast
        predict_conditional = predictor.predict_conditional
        resolve_conditional = predictor.resolve_conditional
        predict_indirect = predictor.predict_indirect
        resolve_indirect = predictor.resolve_indirect
        on_call = predictor.on_call
        shadow = self.shadow_stack
        base_cost = self._base_cost
        l1_latency = self._l1_latency
        mul_extra = config.mul_extra
        div_extra = config.div_extra
        btb_miss_penalty = config.btb_miss_penalty
        fence_latency = config.fence_latency
        fence_stall = int(config.fence_latency)
        clflush_latency = config.clflush_latency
        syscall_latency = config.syscall_latency
        clflush_privileged = config.clflush_privileged
        size = INSTRUCTION_SIZE
        watchdog = self.watchdog
        stride = self.WATCHDOG_STRIDE
        limit = -1 if max_instructions is None else max_instructions
        tr_dispatch = self._tr_dispatch
        tr_lsq = self._tr_lsq
        # Pipeline-pressure tallies: plain locals on the hot path,
        # flushed to the metrics registry once per quantum (so a
        # telemetry-off run pays one integer add per stalled dispatch
        # and nothing else).
        dispatch_stalls = 0
        lsq_stalls = 0
        # Profiling cursor: read-only sequential accounting.  One
        # ``is not None`` guard per instruction (the tr_dispatch idiom);
        # cost attribution is by dispatch-clock progression, with the
        # final instruction closed against the committed clock so
        # ROB-drain cycles land where they were caused.
        cursor = self._prof.cursor() if self._prof is not None else None
        run_wall0 = perf_counter() if cursor is not None else 0.0

        # The ROB is empty between run() calls, so the rename file is
        # architectural here: re-seat the committed view on it (spawn
        # and syscall handlers write registers between quanta).
        self.arch_regs = list(state.regs)

        regs = state.regs
        ready = self._ready
        pc = state.pc
        fclock = self._fetch_clock
        last_iline = self._last_iline
        last_ipage = self._last_ipage
        executed = 0

        try:
            while not state.halted:
                if executed == limit:
                    break

                entry = dcache_get(pc)
                if entry is None:
                    entry = decode_at(self, pc)
                    if cursor is not None:
                        cursor.decode_miss()
                line = pc >> 6
                if line != last_iline:
                    last_iline = line
                    extra = icache_fast(pc)[0] - l1_latency
                    if extra > 0:
                        fclock += extra
                        counters["memory_stall_cycles"] += extra
                page = pc >> 12
                if page != last_ipage:
                    last_ipage = page
                    itlb_access(pc)

                op, rd, rs1, rs2, imm = entry
                next_pc = (pc + size) & MASK32
                counters["instructions"] += 1
                seq = self._seq
                self._seq = seq + 1
                if cursor is not None:
                    # Finalises the *previous* instruction with this
                    # one's fetch clock; this one stays pending.
                    cursor.note(pc, op, fclock,
                                counters["memory_stall_cycles"],
                                counters["mispredict_penalty_cycles"])

                # Dispatch: retire whatever is due, then stall on
                # structural hazards (full ROB / stations / LSQ).
                dispatch = fclock
                self._commit_until(dispatch)
                if len(rob_entries) >= rob_depth:
                    if tr_dispatch is not None:
                        stall_ts = tr_dispatch.now()
                        stall_occ = len(rob_entries)
                    while len(rob_entries) >= rob_depth:
                        slot = self._commit_head()
                        dispatch_stalls += 1
                        if slot > dispatch:
                            dispatch = slot
                    if tr_dispatch is not None:
                        tr_dispatch.complete("ooo.dispatch.stall",
                                             stall_ts, pc=pc,
                                             rob=stall_occ)
                if op >= ADD:
                    if op < LW:
                        kind = "alu"
                    elif op < BEQ:
                        kind = "mem"
                    elif op < SYSCALL:
                        kind = "br"
                    elif op == RDINSTRET:
                        kind = "alu"
                    else:
                        kind = None     # serialising
                else:
                    kind = None         # nop / halt
                if kind is not None:
                    stalled = rs_acquire(kind, dispatch)
                    if stalled > dispatch:
                        dispatch = stalled
                    if kind == "mem":
                        if len(lsq_entries) >= lsq_depth:
                            if tr_lsq is not None:
                                stall_ts = tr_lsq.now()
                            while len(lsq_entries) >= lsq_depth:
                                slot = self._commit_head()
                                lsq_stalls += 1
                                if slot > dispatch:
                                    dispatch = slot
                            if tr_lsq is not None:
                                tr_lsq.complete("ooo.lsq.stall",
                                                stall_ts, pc=pc)
                fclock = dispatch + base_cost

                if ADDI <= op <= SLTI:
                    counters["alu_instructions"] += 1
                    latency = 1.0
                    if op == MULI:
                        counters["mul_div_instructions"] += 1
                        latency += mul_extra
                    start = dispatch
                    t = ready[rs1]
                    if t > start:
                        start = t
                    done = start + latency
                    rs_issue("alu", done)
                    writes = ()
                    if rd:
                        value = ALU[op](regs[rs1], imm)
                        regs[rd] = value
                        ready[rd] = done
                        writes = ((rd, value),)
                    rob_entries.append(
                        RobEntry(seq, pc, op, "alu", done, writes)
                    )
                elif ADD <= op <= SLTU:
                    counters["alu_instructions"] += 1
                    latency = 1.0
                    if MUL <= op <= MOD:
                        counters["mul_div_instructions"] += 1
                        latency += (div_extra if op != MUL
                                    else mul_extra)
                    start = dispatch
                    t = ready[rs1]
                    if t > start:
                        start = t
                    t = ready[rs2]
                    if t > start:
                        start = t
                    done = start + latency
                    rs_issue("alu", done)
                    writes = ()
                    if rd:
                        value = ALU[op](regs[rs1], regs[rs2])
                        regs[rd] = value
                        ready[rd] = done
                        writes = ((rd, value),)
                    rob_entries.append(
                        RobEntry(seq, pc, op, "alu", done, writes)
                    )
                elif op == LI:
                    counters["alu_instructions"] += 1
                    done = dispatch + 1.0
                    rs_issue("alu", done)
                    writes = ()
                    if rd:
                        value = imm & MASK32
                        regs[rd] = value
                        ready[rd] = done
                        writes = ((rd, value),)
                    rob_entries.append(
                        RobEntry(seq, pc, op, "alu", done, writes)
                    )
                elif op == MOV:
                    counters["alu_instructions"] += 1
                    start = dispatch
                    t = ready[rs1]
                    if t > start:
                        start = t
                    done = start + 1.0
                    rs_issue("alu", done)
                    writes = ()
                    if rd:
                        value = regs[rs1]
                        regs[rd] = value
                        ready[rd] = done
                        writes = ((rd, value),)
                    rob_entries.append(
                        RobEntry(seq, pc, op, "alu", done, writes)
                    )
                elif op == LW or op == LB:
                    counters["load_instructions"] += 1
                    address = (regs[rs1] + imm) & MASK32
                    value = (load_word(address) if op == LW
                             else load_byte(address))
                    dtlb_access(address)
                    latency = data_fast(address, False)[0]
                    extra = latency - l1_latency
                    if extra > 0:
                        counters["memory_stall_cycles"] += extra
                    start = dispatch
                    t = ready[rs1]
                    if t > start:
                        start = t
                    done = start + latency
                    rs_issue("mem", done)
                    lsq_entries.append((seq, done))
                    writes = ()
                    if rd:
                        value &= MASK32
                        regs[rd] = value
                        ready[rd] = done
                        writes = ((rd, value),)
                    rob_entries.append(
                        RobEntry(seq, pc, op, "mem", done, writes)
                    )
                elif op == SW or op == SB:
                    counters["store_instructions"] += 1
                    address = (regs[rs1] + imm) & MASK32
                    if op == SW:
                        store_word(address, regs[rs2])
                    else:
                        store_byte(address, regs[rs2])
                    dtlb_access(address)
                    extra = data_fast(address, True)[0] - l1_latency
                    if extra > 0:
                        counters["memory_stall_cycles"] += extra
                    start = dispatch
                    t = ready[rs1]
                    if t > start:
                        start = t
                    t = ready[rs2]
                    if t > start:
                        start = t
                    # Stores retire from the store queue off the
                    # critical path: the miss latency is not serialised
                    # into the dependency chain.
                    done = start + 1.0
                    rs_issue("mem", done)
                    lsq_entries.append((seq, done))
                    rob_entries.append(
                        RobEntry(seq, pc, op, "mem", done)
                    )
                elif op == PUSH:
                    counters["stack_instructions"] += 1
                    sp = (regs[13] - 4) & MASK32
                    regs[13] = sp
                    store_word(sp, regs[rs1])
                    dtlb_access(sp)
                    extra = data_fast(sp, True)[0] - l1_latency
                    if extra > 0:
                        counters["memory_stall_cycles"] += extra
                    start = dispatch
                    t = ready[13]
                    if t > start:
                        start = t
                    t = ready[rs1]
                    if t > start:
                        start = t
                    done = start + 1.0
                    ready[13] = done
                    rs_issue("mem", done)
                    lsq_entries.append((seq, done))
                    rob_entries.append(
                        RobEntry(seq, pc, op, "mem", done, ((13, sp),))
                    )
                elif op == POP:
                    counters["stack_instructions"] += 1
                    sp = regs[13]
                    value = load_word(sp)
                    dtlb_access(sp)
                    latency = data_fast(sp, False)[0]
                    extra = latency - l1_latency
                    if extra > 0:
                        counters["memory_stall_cycles"] += extra
                    new_sp = (sp + 4) & MASK32
                    regs[13] = new_sp
                    start = dispatch
                    t = ready[13]
                    if t > start:
                        start = t
                    done = start + latency
                    ready[13] = done
                    rs_issue("mem", done)
                    lsq_entries.append((seq, done))
                    writes = ((13, new_sp),)
                    if rd:
                        value &= MASK32
                        regs[rd] = value
                        ready[rd] = done
                        writes = ((13, new_sp), (rd, value))
                    rob_entries.append(
                        RobEntry(seq, pc, op, "mem", done, writes)
                    )
                elif BEQ <= op <= BGEU:
                    counters["branch_instructions"] += 1
                    counters["cond_branch_instructions"] += 1
                    taken = TAKEN[op](regs[rs1], regs[rs2])
                    predicted = predict_conditional(pc)
                    mispredicted = resolve_conditional(pc, predicted,
                                                       taken)
                    if taken:
                        counters["branches_taken"] += 1
                        next_pc = (pc + imm) & MASK32
                    start = dispatch
                    t = ready[rs1]
                    if t > start:
                        start = t
                    t = ready[rs2]
                    if t > start:
                        start = t
                    done = start + 1.0
                    rs_issue("br", done)
                    rob_entries.append(
                        RobEntry(seq, pc, op, "br", done)
                    )
                    if mispredicted:
                        wrong_path = (
                            (pc + imm) & MASK32 if predicted
                            else (pc + size) & MASK32
                        )
                        fclock = self._recover(pc, wrong_path, done,
                                               fclock)
                elif op == JMP:
                    counters["branch_instructions"] += 1
                    rs_issue("br", dispatch)
                    rob_entries.append(
                        RobEntry(seq, pc, op, "br", dispatch)
                    )
                    next_pc = (pc + imm) & MASK32
                elif op == JMPR:
                    counters["branch_instructions"] += 1
                    counters["indirect_jump_instructions"] += 1
                    target = (regs[rs1] + imm) & MASK32
                    predicted = predict_indirect(pc)
                    mispredicted = resolve_indirect(pc, predicted,
                                                    target)
                    start = dispatch
                    t = ready[rs1]
                    if t > start:
                        start = t
                    done = start + 1.0
                    rs_issue("br", done)
                    rob_entries.append(
                        RobEntry(seq, pc, op, "br", done)
                    )
                    if predicted is None:
                        if fclock < done:
                            fclock = done
                        fclock += btb_miss_penalty
                    elif mispredicted:
                        fclock = self._recover(pc, predicted, done,
                                               fclock)
                    next_pc = target
                elif op == CALL:
                    counters["branch_instructions"] += 1
                    counters["call_instructions"] += 1
                    return_address = next_pc
                    sp = (regs[13] - 4) & MASK32
                    regs[13] = sp
                    store_word(sp, return_address)
                    dtlb_access(sp)
                    extra = data_fast(sp, True)[0] - l1_latency
                    if extra > 0:
                        counters["memory_stall_cycles"] += extra
                    on_call(return_address)
                    if shadow is not None:
                        shadow.on_call(return_address)
                    start = dispatch
                    t = ready[13]
                    if t > start:
                        start = t
                    done = start + 1.0
                    ready[13] = done
                    rs_issue("br", done)
                    rob_entries.append(
                        RobEntry(seq, pc, op, "br", done, ((13, sp),))
                    )
                    next_pc = (pc + imm) & MASK32
                elif op == CALLR:
                    counters["branch_instructions"] += 1
                    counters["call_instructions"] += 1
                    counters["indirect_jump_instructions"] += 1
                    target = (regs[rs1] + imm) & MASK32
                    predicted = predict_indirect(pc)
                    mispredicted = resolve_indirect(pc, predicted,
                                                    target)
                    return_address = next_pc
                    sp = (regs[13] - 4) & MASK32
                    regs[13] = sp
                    store_word(sp, return_address)
                    dtlb_access(sp)
                    extra = data_fast(sp, True)[0] - l1_latency
                    if extra > 0:
                        counters["memory_stall_cycles"] += extra
                    on_call(return_address)
                    if shadow is not None:
                        shadow.on_call(return_address)
                    start = dispatch
                    t = ready[13]
                    if t > start:
                        start = t
                    t = ready[rs1]
                    if t > start:
                        start = t
                    done = start + 1.0
                    ready[13] = done
                    rs_issue("br", done)
                    rob_entries.append(
                        RobEntry(seq, pc, op, "br", done, ((13, sp),))
                    )
                    if predicted is None:
                        if fclock < done:
                            fclock = done
                        fclock += btb_miss_penalty
                    elif mispredicted:
                        fclock = self._recover(pc, predicted, done,
                                               fclock)
                    next_pc = target
                elif op == RET:
                    counters["branch_instructions"] += 1
                    counters["ret_instructions"] += 1
                    sp = regs[13]
                    target = load_word(sp)
                    dtlb_access(sp)
                    latency = data_fast(sp, False)[0]
                    extra = latency - l1_latency
                    if extra > 0:
                        counters["memory_stall_cycles"] += extra
                    new_sp = (sp + 4) & MASK32
                    regs[13] = new_sp
                    if shadow is not None:
                        try:
                            shadow.on_return(target)
                        except ShadowStackViolation:
                            if self._tr_cpu is not None:
                                self._tr_cpu.event(
                                    "cpu.shadow_divergence",
                                    pc=pc, target=target,
                                )
                            raise
                    predicted = predictor.predict_return()
                    mispredicted = predictor.resolve_return(predicted,
                                                            target)
                    start = dispatch
                    t = ready[13]
                    if t > start:
                        start = t
                    done = start + latency
                    ready[13] = done
                    rs_issue("br", done)
                    rob_entries.append(
                        RobEntry(seq, pc, op, "br", done, ((13, new_sp),))
                    )
                    if mispredicted:
                        fclock = self._recover(pc, predicted, done,
                                               fclock)
                    next_pc = target
                elif op == CLFLUSH:
                    counters["clflush_instructions"] += 1
                    if clflush_privileged and not self.kernel_mode:
                        raise PrivilegeFault(
                            "clflush is disabled for non-privileged "
                            "code (countermeasure active)"
                        )
                    address = (regs[rs1] + imm) & MASK32
                    caches.flush_line(address)
                    fclock = self._serialize(fclock, clflush_latency)
                elif op == MFENCE:
                    counters["mfence_instructions"] += 1
                    fclock = self._serialize(fclock, fence_latency)
                    counters["fence_stall_cycles"] += fence_stall
                elif op == RDCYCLE:
                    counters["alu_instructions"] += 1
                    fclock = self._serialize(fclock)
                    if rd:
                        value = int(fclock) & MASK32
                        regs[rd] = value
                        self.arch_regs[rd] = value
                        ready[rd] = fclock
                elif op == RDINSTRET:
                    counters["alu_instructions"] += 1
                    done = dispatch + 1.0
                    rs_issue("alu", done)
                    writes = ()
                    if rd:
                        value = counters["instructions"] & MASK32
                        regs[rd] = value
                        ready[rd] = done
                        writes = ((rd, value),)
                    rob_entries.append(
                        RobEntry(seq, pc, op, "alu", done, writes)
                    )
                elif op == SYSCALL:
                    counters["syscall_instructions"] += 1
                    fclock = self._serialize(fclock, syscall_latency)
                    handler = self.syscall_handler
                    if handler is None:
                        raise CpuFault(
                            f"syscall at {pc:#010x} with no handler"
                        )
                    # Sync the architectural state the handler sees —
                    # then reload everything it may have changed
                    # (``execve`` remaps memory, resets the pipeline
                    # and installs a *new* regs list).
                    pc = next_pc
                    state.pc = pc
                    self._fetch_clock = fclock
                    self._last_iline = last_iline
                    self._last_ipage = last_ipage
                    handler(self)
                    regs = state.regs
                    ready = self._ready
                    pc = state.pc
                    fclock = self._fetch_clock
                    if fclock < self.cycles:
                        fclock = self.cycles
                    last_iline = self._last_iline
                    last_ipage = self._last_ipage
                    self.arch_regs = list(regs)
                    executed += 1
                    if watchdog is not None and executed % stride == 0:
                        watchdog.charge(stride)
                    continue
                elif op == NOP:
                    rob_entries.append(
                        RobEntry(seq, pc, op, "nop", dispatch)
                    )
                elif op == HALT:
                    state.halted = True
                    next_pc = pc
                else:  # pragma: no cover - every opcode handled above
                    raise CpuFault(
                        f"unhandled opcode {op:#04x} at {pc:#010x}"
                    )

                pc = next_pc
                executed += 1
                if watchdog is not None and executed % stride == 0:
                    watchdog.charge(stride)
        finally:
            # Every exit path — normal, halt, budget exhaustion, CPU or
            # memory fault — drains the ROB (older work commits; the
            # faulting instruction never allocated) and leaves every
            # observable in the object.
            state.pc = pc
            self._fetch_clock = fclock
            self._last_iline = last_iline
            self._last_ipage = last_ipage
            metrics = self._metrics
            if metrics is not None:
                # One ROB-occupancy sample per quantum (pre-drain) plus
                # the accumulated stall tallies.
                metrics.observe("ooo.rob.occupancy", len(rob_entries))
                if dispatch_stalls:
                    metrics.inc("ooo.dispatch_stalls", dispatch_stalls)
                if lsq_stalls:
                    metrics.inc("ooo.lsq_stalls", lsq_stalls)
            self._drain()
            if cursor is not None:
                final = self.cycles if self.cycles > fclock else fclock
                cursor.finish(final,
                              counters["memory_stall_cycles"],
                              counters["mispredict_penalty_cycles"])
                self._prof.add_wall("execute",
                                    perf_counter() - run_wall0)

        if watchdog is not None and executed % stride:
            watchdog.charge(executed % stride)
        return executed


register_uarch("ooo", OooCore)
