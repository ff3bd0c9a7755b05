"""The out-of-order (Tomasulo) core: same ISA contract, OoO timing.

Execution model
---------------
Instructions dispatch in program order into a reorder buffer and
reservation stations, execute as their operands become ready, and
commit strictly in order at ``commit_width`` per cycle.  This core is
timing only: every instruction's architectural effects — registers,
memory, predictor, shadow stack, instruction-mix PMU events — come
from the in-order core's executor :func:`repro.cpu.cpu.execute`, run
eagerly at dispatch, so the results are instruction-for-instruction
identical to it.  The register file ``state.regs`` therefore always
holds the newest values (it is the rename file), while ``arch_regs``
tracks the committed view the ROB writes back to.  What differs is
*time*: the executor reports data latencies, mispredicts, BTB misses
and serialising instructions through hooks, and the opcode operand
table :data:`repro.isa.semantics.OPERANDS` gives each instruction's
source and destination registers.  Per-register ready times, ROB /
reservation-station / LSQ occupancy and the commit stream produce the
cycle counter, so load misses overlap with independent work, long
dividers hide behind ALU chains, and ``rdcycle`` (a serialising read,
as on real hardware) observes the drained machine.

Speculation
-----------
On a branch misprediction the wrong path executes in the ROB's *free
slots* — reorder-buffer depth, not a fixed window, bounds transient
execution, which is the microarchitectural knob Spectre exploits on
real OoO hardware (Kocher et al.).  The executor's ``_mispredict``
hook only records the wrong-path pc; ``run()`` recovers once the
branch's completion time is known, fetch restarting a penalty after
it.  The walk itself is the in-order core's:
:func:`repro.cpu.cpu.speculate`, called with ``rob.free_slots()`` as
its window.  It runs on a shadow register file
and a store buffer (wrong-path stores never reach memory), so nothing
in the ROB, the rename file or ``arch_regs`` changes; its instruction
and data fetches still fill the caches and TLBs — the covert channel —
and it accounts the ``spec_*`` / ``squashed_instructions`` PMU events.
The signature still differs from the in-order core's because the
window breathes with ROB occupancy instead of being a constant.

Serialising instructions (``rdcycle``, ``mfence``, ``clflush``,
``syscall``) drain the ROB through the executor's ``_serialize`` hook
before they read the clock or hand state to a syscall handler, and
retire immediately; every exit path of ``run()`` (``halt`` included)
drains it too, so cross-quantum state is always architectural and a
run is bit-deterministic regardless of how ``run()`` calls slice it.
"""

import dataclasses

from repro.branch.predictor import BranchPredictor
from repro.cache.hierarchy import CacheHierarchy
from repro.cpu.cpu import (
    CpuConfig,
    decode_at,
    execute,
    extra_cycles,
    speculate,
)
from repro.cpu.pmu import Pmu
from repro.cpu.shadow_stack import ShadowStack
from repro.cpu.state import CpuState
from repro.isa.registers import SP
from repro.isa.semantics import (
    ADD, BEQ, HALT, JMP, LW, NOP, OPERANDS, RDINSTRET, READS_RS1,
    READS_RS2, SYSCALL, USES_SP, WRITES_RD,
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
)


def _unit(op):
    """Where *op* issues: a reservation-station pool ("alu", "mem",
    "br"), "nop" (a ROB slot only), "serial" (drains the ROB and
    retires alone) or None (halt, which allocates nothing)."""
    if ADD <= op < LW or op == RDINSTRET:
        return "alu"
    if LW <= op < BEQ:
        return "mem"
    if BEQ <= op < SYSCALL:
        return "br"
    if op == NOP:
        return "nop"
    return None if op == HALT else "serial"


#: ``_resteer`` values besides a mispredict's wrong-path pc (or None).
_NO_RESTEER = object()
_BTB_MISS = object()


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
        #: ``_schedule[op]``: (issue unit, operand flags, execution
        #: latency) — loads take their data latency instead, and jumps
        #: and nops complete at dispatch.
        self._schedule = tuple(
            (_unit(op), OPERANDS[op],
             0.0 if op in (JMP, NOP) else 1.0 + extra)
            for op, extra in enumerate(extra_cycles(self.config))
        )
        #: Set by the executor's branch hooks, consumed by run() once
        #: the branch's completion time is known.
        self._resteer = _NO_RESTEER
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

    def _flush_code_line(self, address):
        """``clflush`` hit a code line: refetch it through decode."""
        self._decode_cache.clear()

    # ------------------------------------------------------------------
    # executor hooks
    # ------------------------------------------------------------------
    def _charge_data_access(self, address, is_write):
        """Account one data access; run() schedules its latency."""
        self.dtlb.access(address)
        latency = self.caches.data_access_fast(address, is_write)[0]
        extra = latency - self._l1_latency
        if extra > 0:
            self.pmu.counters["memory_stall_cycles"] += extra
        return latency

    def _mispredict(self, wrong_path_pc):
        """Recover (run the wrong path, charge the penalty) once the
        branch resolves — run() knows when."""
        self._resteer = wrong_path_pc

    def _btb_miss(self):
        """No predicted target: fetch restarts once the branch resolves."""
        self._resteer = _BTB_MISS

    # ------------------------------------------------------------------
    # commit port
    # ------------------------------------------------------------------
    def _commit_head(self):
        """Retire the ROB head; returns its commit time."""
        seq, pc, unit, completion, writes = self.rob.pop_head()
        slot = self._last_commit + self._inv_commit
        if completion > slot:
            slot = completion
        self._last_commit = slot
        if slot > self.cycles:
            self.cycles = slot
        arch = self.arch_regs
        for register, value in writes:
            arch[register] = value
        if unit == "mem":
            self.lsq.release(seq)
        log = self.commit_log
        if log is not None:
            log.append((seq, pc))
        return slot

    def _drain(self):
        """Retire the whole ROB (quantum boundary, fault, serialise)."""
        while self.rob.entries:
            self._commit_head()

    def _serialize(self, latency):
        """Drain, then retire a serialising op after *latency*: the
        fetch clock and ``self.cycles`` meet (the machine is
        momentarily in-order).
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
        if self._fetch_clock > t:
            t = self._fetch_clock
        t += latency
        self.cycles = t
        self._last_commit = t
        self._fetch_clock = t

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

        Each instruction's architectural effects come from the shared
        executor :func:`repro.cpu.cpu.execute`; this loop adds only the
        Tomasulo clock around it — structural stalls before, operand
        ready times, ROB/RS/LSQ allocation and fetch redirects after.
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
        counters = self.pmu.counters
        rob_entries = self.rob.entries
        rob_depth = self.rob.depth
        inv_commit = self._inv_commit
        rs_pools = self.rs.pools
        rs_capacities = self.rs.capacities
        rs_acquire = self.rs.acquire
        lsq_entries = self.lsq.entries
        lsq_depth = self.lsq.depth
        dcache_get = self._decode_cache.get
        itlb_access = self.itlb.access
        icache_fast = self.caches.instruction_access_fast
        base_cost = self._base_cost
        l1_latency = self._l1_latency
        schedule = self._schedule
        btb_miss_penalty = self.config.btb_miss_penalty
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
        fclock = self._fetch_clock
        last_iline = self._last_iline
        last_ipage = self._last_ipage
        executed = 0

        try:
            while not state.halted:
                if executed == limit:
                    break

                pc = state.pc
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

                op, rd, rs1, rs2, _imm = entry
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
                while rob_entries:
                    slot = self._last_commit + inv_commit
                    completion = rob_entries[0][3]
                    if completion > slot:
                        slot = completion
                    if slot > dispatch:
                        break
                    self._commit_head()
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
                unit, operands, latency = schedule[op]
                pool = rs_pools.get(unit)
                if pool is not None:
                    if len(pool) >= rs_capacities[unit]:
                        stalled = rs_acquire(unit, dispatch)
                        if stalled > dispatch:
                            dispatch = stalled
                    if unit == "mem" and len(lsq_entries) >= lsq_depth:
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

                if unit == "serial":
                    # The executor's _serialize hook drains the ROB and
                    # moves the fetch clock, and a syscall handler may
                    # change anything (``execve`` remaps memory, resets
                    # the pipeline and installs a *new* regs list): the
                    # object holds the truth while it runs.
                    self._fetch_clock = fclock
                    self._last_iline = last_iline
                    self._last_ipage = last_ipage
                    try:
                        execute(self, pc, entry)
                    finally:
                        fclock = self._fetch_clock
                    if fclock < self.cycles:
                        fclock = self.cycles
                    regs = state.regs
                    ready = self._ready
                    last_iline = self._last_iline
                    last_ipage = self._last_ipage
                    self.arch_regs = list(regs)
                    if rd and operands & WRITES_RD:
                        ready[rd] = fclock
                elif unit is not None:
                    read_latency = execute(self, pc, entry)
                    if read_latency is not None:
                        latency = read_latency  # a load waits for its data
                    # Issue once every source operand is ready.
                    start = dispatch
                    if operands & READS_RS1:
                        t = ready[rs1]
                        if t > start:
                            start = t
                    if operands & READS_RS2:
                        t = ready[rs2]
                        if t > start:
                            start = t
                    if operands & USES_SP:
                        t = ready[SP]
                        if t > start:
                            start = t
                    done = start + latency
                    writes = ()
                    if operands & USES_SP:
                        ready[SP] = done
                        writes = ((SP, regs[SP]),)
                    if rd and operands & WRITES_RD:
                        ready[rd] = done
                        writes += ((rd, regs[rd]),)
                    if pool is not None:
                        pool.append(done)
                        if unit == "mem":
                            lsq_entries.append(seq)
                    rob_entries.append((seq, pc, unit, done, writes))
                    resteer = self._resteer
                    if resteer is not _NO_RESTEER:
                        # Fetch restarts once the branch resolves.
                        self._resteer = _NO_RESTEER
                        if resteer is _BTB_MISS:
                            if fclock < done:
                                fclock = done
                            fclock += btb_miss_penalty
                        else:
                            fclock = self._recover(pc, resteer, done,
                                                   fclock)
                else:
                    execute(self, pc, entry)    # halt: nothing to schedule

                executed += 1
                if watchdog is not None and executed % stride == 0:
                    watchdog.charge(stride)
        finally:
            # Every exit path — normal, halt, budget exhaustion, CPU or
            # memory fault — drains the ROB (older work commits; the
            # faulting instruction never allocated) and leaves every
            # observable in the object.
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
