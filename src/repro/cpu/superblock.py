"""Superblock translation: hot straight-line runs become closures.

The in-order core's step() pays per-instruction dispatch: one
decode-cache lookup, one opcode compare chain, several dict updates.
This module removes that tax for the straight-line portions of hot
code.  When an entry PC has been dispatched :data:`SuperblockEngine.
HOT_THRESHOLD` times, the run of translatable instructions starting
there is compiled — once — into a single Python closure that executes
the whole region with every piece of hot state (registers, PMU counter
deltas, cycle count, fetch locality, the L1D hit path, the D-TLB MRU
check) held in locals, and the dispatcher thereafter executes the block
as one call.

The region is a *superblock* proper, not just a basic block:
unconditional direct jumps (``JMP``) do not end it — their constant
target is followed at translation time (the jump itself costs exactly
what step() charges: one ``branch_instructions`` bump plus the
base cycle cost), so the short runs that assembly loops fracture into
``…; jmp next`` chains fuse back into one closure.  Collection stops
when a jump target (or sequential fall-through) re-enters a pc already
in the block, so a loop whose final jump returns to the entry becomes
one closure that the dispatcher re-enters through a single dict probe
per iteration.

Bit-exactness contract
----------------------
A block execution must leave the CPU in *exactly* the state the step()
loop would have: identical registers, pc, ``cycles`` float, all PMU
counters, cache/TLB contents and replacement state.  The generated
code therefore:

* performs loads/stores through the real ``Memory`` methods and the
  D-TLB/L1D inline paths replicate ``Tlb.access``'s MRU shortcut and
  ``Cache.access``'s LRU hit path *statement for statement* (anything
  else — TLB miss, L1 miss, non-LRU policy — delegates to the real
  objects, which then do their own accounting);
* batches the *constant* per-instruction cycle costs only when every
  cost sits on a dyadic (2^-20) grid, where float addition is exact and
  therefore order-insensitive; otherwise costs are emitted per
  instruction in program order;
* batches PMU counter increments (plain int adds — commutative and
  exact) into one flush per exit path.

Deoptimisation contract
-----------------------
Blocks contain no indirect jumps, no calls/returns, no syscalls and
no serialising instructions — those *terminate* translation and run
through :meth:`Cpu.step` (direct ``JMP``, whose target is a
compile-time constant, is internalised; a conditional branch becomes
a side exit).  The remaining exits mid-block are:

* **faults** (memory/alignment/protection): the closure's exception
  path flushes the counters retired so far (a compile-time table keyed
  by the faulting instruction's pc), writes back registers, and syncs
  ``state.pc``/``cycles``/fetch locality to the faulting instruction —
  exactly the state the step loop leaves — then re-raises;
* **self-modifying code**: every store is followed by a generation
  check; a store that hits an executable segment bumps the engine
  generation (via the Memory code-write listener), and the closure
  returns early with its partial progress so not a single stale
  instruction executes;
* **pause boundaries** (chunked ``run(max_instructions=…)`` calls and
  watchdog strides) never happen mid-block: the dispatcher only enters
  a block whose full length fits before the next boundary, and calls
  step() otherwise.

Invalidation rules
------------------
``flush()`` empties the block cache *in place* (the dispatcher holds
live references), clears the heat table and bumps the generation.  It
is driven by the decode-cache flush paths: ``Cpu.reset_for_exec`` (the
``execve`` remap), the Memory code-write listener (stores into
executable segments), and ``clflush`` of a line inside an executable
segment.
"""

from repro.errors import CpuFault, EncodingError, MemoryFault
from repro.isa.encoding import INSTRUCTION_SIZE, decode
from repro.isa.opcodes import Opcode

MASK32 = 0xFFFFFFFF

_NOP = int(Opcode.NOP)
_ADD = int(Opcode.ADD)
_SUB = int(Opcode.SUB)
_MUL = int(Opcode.MUL)
_DIV = int(Opcode.DIV)
_MOD = int(Opcode.MOD)
_AND = int(Opcode.AND)
_OR = int(Opcode.OR)
_XOR = int(Opcode.XOR)
_SHL = int(Opcode.SHL)
_SHR = int(Opcode.SHR)
_SRA = int(Opcode.SRA)
_SLT = int(Opcode.SLT)
_SLTU = int(Opcode.SLTU)
_ADDI = int(Opcode.ADDI)
_MULI = int(Opcode.MULI)
_ANDI = int(Opcode.ANDI)
_ORI = int(Opcode.ORI)
_XORI = int(Opcode.XORI)
_SHLI = int(Opcode.SHLI)
_SHRI = int(Opcode.SHRI)
_SRAI = int(Opcode.SRAI)
_SLTI = int(Opcode.SLTI)
_LI = int(Opcode.LI)
_MOV = int(Opcode.MOV)
_LW = int(Opcode.LW)
_LB = int(Opcode.LB)
_SW = int(Opcode.SW)
_SB = int(Opcode.SB)
_PUSH = int(Opcode.PUSH)
_POP = int(Opcode.POP)
_JMP = int(Opcode.JMP)
_BEQ = int(Opcode.BEQ)
_BNE = int(Opcode.BNE)
_BLT = int(Opcode.BLT)
_BGE = int(Opcode.BGE)
_BLTU = int(Opcode.BLTU)
_BGEU = int(Opcode.BGEU)

#: Source-text -> code-object translation cache, shared process-wide.
#: A block's generated source fully determines its code object (every
#: pc, constant and geometry parameter is baked into the text; live
#: state is rebound per-core through the closure's default arguments),
#: so cores running the same binary — fresh System instances, repeated
#: experiment sweeps, a re-run after an SMC flush that restored the
#: original bytes — reuse the compiled code and skip ``compile()``,
#: which otherwise dominates translation cost.
_CODE_CACHE = {}
_CODE_CACHE_MAX = 4096

#: Counter order used by the partial/final flush tables.
_COUNTER_NAMES = (
    "instructions", "alu_instructions", "mul_div_instructions",
    "load_instructions", "store_instructions", "stack_instructions",
    "branch_instructions", "cond_branch_instructions", "branches_taken",
)


def _trace_taken(imm):
    """Which way collection follows a conditional branch.

    Backward branches are loop backedges and overwhelmingly taken, so
    the trace continues at the target; forward branches are usually
    not taken, so it continues at the fall-through.  The rule is a
    pure function of the immediate so :meth:`SuperblockEngine._collect`
    and :class:`_Codegen` agree without passing state around.
    """
    return imm < 0


def _translatable(op):
    """Ops a block body may contain; anything else terminates it."""
    return (
        _ADD <= op <= _SLTU
        or _ADDI <= op <= _MOV
        or _LW <= op <= _POP
        or op == _NOP
    )


def _dyadic(value):
    """Exactly representable on the 2^-20 grid (so float + is exact)."""
    scaled = value * 1048576.0
    return scaled == int(scaled) and abs(value) < 1e6


def _signed_lines(dst, src, indent):
    """Statements computing ``dst`` = *src* reinterpreted as signed."""
    return [
        f"{indent}{dst} = {src} - 4294967296 "
        f"if {src} > 2147483647 else {src}"
    ]


def _flush_exit(counters, regs, exits, j, it, cycles, last_iline,
                last_ipage, vals, n_stall=0, n_tlb=0, n_l1r=0, n_l1w=0,
                n_ihit=0, dtlb=None, l1stats=None, i1stats=None):
    """Out-of-line side-exit commit shared by every compiled block.

    Flushes the exit's retired-so-far counter deltas, the batched
    memory tallies, and the registers written so far, then returns the
    dispatcher tuple.  Side exits are off the hot path (the branch went
    the non-traced way, a mispredict, or an SMC deopt), so a function
    call here is cheap — and keeping the flush out of the generated
    source keeps ``compile()`` fast: an unrolled block would otherwise
    repeat ~30 flush lines for every exit of every copy, and block
    compilation time would swamp the translation win.

    *it* is the unroll iteration the exit fired on (0 for the peeled
    first copy and for non-unrolled blocks): a loop body is compiled
    once and run under ``for _it in range(1, K)``, so the exit's
    absolute retired counts are its within-copy prefix plus *it* full
    copies (``ccounts``/``kstep`` in the exit row).
    """
    counts, next_pc, k, widx, ccounts, kstep = exits[j]
    if it:
        counts = tuple(
            base + it * full for base, full in zip(counts, ccounts)
        )
        k += it * kstep
    for value, name in zip(counts, _COUNTER_NAMES):
        if value:
            counters[name] += value
    if n_stall:
        counters["memory_stall_cycles"] += n_stall
    if n_tlb:
        dtlb.hits += n_tlb
    if n_l1r or n_l1w:
        hits = n_l1r + n_l1w
        l1stats.accesses += hits
        l1stats.hits += hits
        if n_l1r:
            l1stats.read_accesses += n_l1r
        if n_l1w:
            l1stats.write_accesses += n_l1w
    if n_ihit:
        i1stats.accesses += n_ihit
        i1stats.read_accesses += n_ihit
        i1stats.hits += n_ihit
    for index, value in zip(widx, vals):
        regs[index] = value
    return next_pc, k, cycles, last_iline, last_ipage


class _Codegen:
    """Builds the closure source for one run of decoded entries.

    *entries* is a list of ``(pc, decoded)`` pairs — pcs are not
    necessarily sequential because collection follows direct jumps.
    *exit_pc* is where execution continues after the block (the
    sequential successor, or the final jump's target).
    """

    def __init__(self, cpu, engine, entry_pc, entries, copies, exit_pc):
        self.cpu = cpu
        self.engine = engine
        self.entry_pc = entry_pc
        self.entries = entries
        #: unroll factor: *entries* is ONE loop-body copy; the body is
        #: compiled once (peeled) plus a ``for _it in range(1, copies)``
        #: re-running it, so generated source — and ``compile()`` time —
        #: stays proportional to the body, not the unroll.
        self.copies = copies
        self.exit_pc = exit_pc
        config = cpu.config
        self.base_cost = cpu._base_cost
        self.mul_extra = config.mul_extra
        self.div_extra = config.div_extra
        self.l1_latency = cpu._l1_latency
        self.l1d = cpu.caches.l1d
        self.d_state = self.l1d.inline_state()
        self.inline_l1 = self.d_state is not None
        self.l1i = cpu.caches.l1i
        self.i_state = self.l1i.inline_state()
        self.inline_i = self.i_state is not None
        self.batch_cycles = all(_dyadic(cost) for cost in (
            self.base_cost, self.mul_extra, self.div_extra))
        self.lines = []
        self.pending = 0.0
        #: instructions, alu, mul_div, load, store, stack, branch
        self.counts = [0] * len(_COUNTER_NAMES)
        #: per-fault-site counter snapshots, indexed by the ``_pi``
        #: occurrence local (a pc alone is ambiguous once loop bodies
        #: are unrolled: the same pc appears once per copy, each with
        #: different retired-so-far counts).  Slot 0 covers an
        #: asynchronous exception before the first memory op.
        self.partial_list = [(0,) * len(_COUNTER_NAMES)]
        #: per-side-exit ``(counts, next_pc, k, widx, ccounts, kstep)``
        #: rows consumed by :func:`_flush_exit`; generated exits are a
        #: single call indexing into this table.
        self.exits = []
        #: True while re-emitting the body for the unroll loop: memory
        #: syncs replay occurrence indices instead of appending new
        #: partial rows, and exits write back the full write set.
        self.loop_mode = False
        self.mem_occ = 0
        #: one full copy's counter deltas, snapshotted after the peel.
        self.copy_counts = None
        self.touched = set()
        self.writes = set()
        #: registers read before their first in-block write — the only
        #: ones an ALU-only block needs to load in its prologue.
        self.need_load = set()
        #: set when a conditional branch was internalised (binds the
        #: predictor methods and the mispredict hand-off cell).
        self.has_branch = False
        #: fetch-locality state known at compile time: after the entry
        #: instruction's runtime check, ``last_iline``/``last_ipage``
        #: equal the entry's line/page as compile-time constants.
        self.cur_line = None
        self.cur_page = None
        self.has_mem = any(
            _LW <= entry[0] <= _POP for _, entry in entries
        )

    # -- small emission helpers --------------------------------------
    def emit(self, line):
        self.lines.append(line)

    def add_cycles(self, cost):
        if self.batch_cycles:
            self.pending += cost
        elif cost:
            self.emit(f"cycles += {cost!r}")

    def flush_cycles(self):
        if self.batch_cycles and self.pending:
            self.emit(f"cycles += {self.pending!r}")
            self.pending = 0.0

    def reg(self, index):
        self.touched.add(index)
        if index not in self.writes:
            self.need_load.add(index)
        return f"r{index}"

    def wreg(self, index):
        self.touched.add(index)
        self.writes.add(index)
        return f"r{index}"

    def _counter_flush_lines(self, counts, indent):
        lines = []
        for value, name in zip(counts, _COUNTER_NAMES):
            if value:
                lines.append(f'{indent}counters["{name}"] += {value}')
        return lines

    def _dyn_flush_lines(self, indent):
        lines = []
        if self.has_mem:
            lines += [
                f"{indent}if _n_stall:",
                f'{indent}    counters["memory_stall_cycles"] += _n_stall',
                f"{indent}if _n_tlb:",
                f"{indent}    _dtlb.hits += _n_tlb",
            ]
            if self.inline_l1:
                lines += [
                    f"{indent}if _n_l1r or _n_l1w:",
                    f"{indent}    _h = _n_l1r + _n_l1w",
                    f"{indent}    _l1stats.accesses += _h",
                    f"{indent}    _l1stats.hits += _h",
                    f"{indent}    if _n_l1r:",
                    f"{indent}        _l1stats.read_accesses += _n_l1r",
                    f"{indent}    if _n_l1w:",
                    f"{indent}        _l1stats.write_accesses += _n_l1w",
                ]
        if self.inline_i:
            lines += [
                f"{indent}if _n_ihit:",
                f"{indent}    _i1stats.accesses += _n_ihit",
                f"{indent}    _i1stats.read_accesses += _n_ihit",
                f"{indent}    _i1stats.hits += _n_ihit",
            ]
        return lines

    def _writeback_lines(self, indent):
        return [f"{indent}regs[{i}] = r{i}" for i in sorted(self.writes)]

    # -- fetch locality ----------------------------------------------
    def _icharge_lines(self, pc, indent):
        """Statements charging an instruction-fetch line access.

        With an LRU untraced L1I the hit path is probed inline — the
        set index and tag are compile-time constants of *pc*, so a hit
        is one dict probe plus the LRU clock bump, with the stats
        batched into ``_n_ihit``.  A miss falls back to the hierarchy
        (whose own probe repeats the lookup and takes the fill path).
        """
        stall = ("_n_stall += _x" if self.has_mem
                 else 'counters["memory_stall_cycles"] += _x')
        if not self.inline_i:
            return [
                f"{indent}_x = _icache_fast({pc})[0] - {self.l1_latency}",
                f"{indent}if _x > 0:",
                f"{indent}    cycles += _x",
                f"{indent}    {stall}",
            ]
        i_state = self.i_state
        line = pc >> i_state["line_shift"]
        si = line & i_state["set_mask"]
        tag = line >> i_state["index_shift"]
        return [
            f"{indent}_w = _i1maps[{si}].get({tag})",
            f"{indent}if _w is None:",
            f"{indent}    _x = _icache_fast({pc})[0] - {self.l1_latency}",
            f"{indent}    if _x > 0:",
            f"{indent}        cycles += _x",
            f"{indent}        {stall}",
            f"{indent}else:",
            f"{indent}    _ck = _i1clocks[{si}] + 1",
            f"{indent}    _i1clocks[{si}] = _ck",
            f"{indent}    _i1stamps[{si}][_w] = _ck",
            f"{indent}    _n_ihit += 1",
        ]

    def _emit_fetch(self, index, pc):
        """I-cache line / I-TLB page charges, as step() does them.

        The first-ever instruction checks against the live locality
        state; after that check ``last_iline``/``last_ipage`` equal the
        entry's line/page whichever way it went, so every interior
        instruction's locality is a compile-time constant
        (``cur_line``/``cur_page``) even across followed jumps: a
        crossing emits an unconditional charge, a non-crossing emits
        nothing.  The unroll loop's body re-emission starts from the
        peel's end-state, which equals its own end-state (the body is
        a closed cycle), so every iteration's transitions line up.
        """
        line = pc >> 6
        page = pc >> 12
        if self.cur_line is None:
            self.emit(f"if {line} != last_iline:")
            self.emit(f"    last_iline = {line}")
            for stmt in self._icharge_lines(pc, "    "):
                self.emit(stmt)
            self.emit(f"if {page} != last_ipage:")
            self.emit(f"    last_ipage = {page}")
            self.emit(f"    _itlb_access({pc})")
            self.cur_line = line
            self.cur_page = page
            return
        if line != self.cur_line:
            self.emit(f"last_iline = {line}")
            for stmt in self._icharge_lines(pc, ""):
                self.emit(stmt)
            self.cur_line = line
        if page != self.cur_page:
            self.emit(f"last_ipage = {page}")
            self.emit(f"_itlb_access({pc})")
            self.cur_page = page

    # -- data-side inline paths --------------------------------------
    def _emit_dtlb(self, addr):
        self.emit(f"_pg = {addr} >> 12")
        self.emit("if _pg == _tlb_last:")
        self.emit("    _n_tlb += 1")
        self.emit("else:")
        self.emit(f"    _dtlb_access({addr})")
        self.emit("    _tlb_last = _pg")

    def _emit_l1d(self, addr, is_write):
        lat = self.l1_latency
        flag = "True" if is_write else "False"
        if not self.inline_l1:
            self.emit(f"_x = _data_fast({addr}, {flag})[0] - {lat}")
            self.emit("if _x > 0:")
            self.emit("    cycles += _x")
            self.emit("    _n_stall += _x")
            return
        d_state = self.d_state
        mask = d_state["set_mask"]
        ishift = d_state["index_shift"]
        self.emit(f"_ln = {addr} >> {d_state['line_shift']}")
        self.emit(f"_si = _ln & {mask}")
        self.emit(f"_w = _l1maps[_si].get(_ln >> {ishift})")
        self.emit("if _w is None:")
        self.emit(f"    _x = _data_fast({addr}, {flag})[0] - {lat}")
        self.emit("    if _x > 0:")
        self.emit("        cycles += _x")
        self.emit("        _n_stall += _x")
        self.emit("else:")
        self.emit("    _ck = _l1clocks[_si] + 1")
        self.emit("    _l1clocks[_si] = _ck")
        self.emit("    _l1stamps[_si][_w] = _ck")
        if is_write:
            self.emit("    _l1dirty[_si][_w] = True")
            self.emit("    _n_l1w += 1")
        else:
            self.emit("    _n_l1r += 1")

    def _emit_mem_sync(self, pc):
        """Flush batched cycles and mark *pc* as the live fault point.

        ``_pi`` is the mem-op occurrence *within the current copy*; the
        fault handler adds ``_it`` full copies on top (the unroll loop
        replays the same occurrence sequence every iteration).
        """
        self.flush_cycles()
        self.emit(f"pc = {pc}")
        if self.loop_mode:
            self.mem_occ += 1
            self.emit(f"_pi = {self.mem_occ}")
        else:
            self.emit(f"_pi = {len(self.partial_list)}")
            self.partial_list.append(tuple(self.counts))

    def _exit_call(self, counts, next_pc, k):
        """One-line call committing through :func:`_flush_exit`.

        Registers the exit's constant row (within-copy counter deltas,
        resumption pc, retired count, registers written so far, and the
        per-copy scaling constants) in the ``_exits`` table and returns
        the call expression.  A single line per exit keeps generated
        source — and therefore ``compile()`` time — small even when
        loop unrolling repeats the exit every iteration.
        """
        j = len(self.exits)
        widx = tuple(sorted(self.writes))
        self.exits.append((
            tuple(counts), next_pc, k, widx,
            self.copy_counts, len(self.entries),
        ))
        it_expr = "_it" if self.loop_mode else "0"
        vals = "(" + "".join(f"r{i}, " for i in widx) + ")"
        call = (f"_fx(counters, regs, _exits, {j}, {it_expr}, cycles, "
                f"last_iline, last_ipage, {vals}")
        if self.has_mem or self.inline_i:
            call += ", _n_stall, _n_tlb" if self.has_mem else ", 0, 0"
            call += (", _n_l1r, _n_l1w" if self.has_mem and self.inline_l1
                     else ", 0, 0")
            call += ", _n_ihit" if self.inline_i else ", 0"
            call += ", _dtlb" if self.has_mem else ", None"
            call += (", _l1stats" if self.has_mem and self.inline_l1
                     else ", None")
            call += ", _i1stats" if self.inline_i else ""
        return "return " + call + ")"

    def _emit_deopt_check(self, index, pc):
        """Post-store generation check: SMC deoptimises mid-block."""
        if index == len(self.entries) - 1 and self.copies == 1:
            return  # nothing left to run stale; the normal exit syncs
        # A store always falls through sequentially, so the resumption
        # point is the next entry's pc (== pc + 4) — or, for the last
        # entry of an unrolled body, the next copy's re-entry at the
        # block head (the remaining copies are the stale code).
        if index == len(self.entries) - 1:
            next_pc = self.entry_pc
        else:
            next_pc = self.entries[index + 1][0]
        self.emit(f"if _eng.gen != {self.engine.gen}:")
        self.emit("    " + self._exit_call(self.counts, next_pc, index + 1))

    # -- conditional branches (side exits) ----------------------------
    def _emit_side_exit(self, counts, next_pc, k):
        """Indented full flush + return, used by both branch exits."""
        self.emit("    " + self._exit_call(counts, next_pc, k))

    def _emit_branch(self, op, rs1, rs2, imm, index, pc):
        """Conditional branch with compiled side exits.

        The trace continues along the predicted-hot direction (see
        :func:`_trace_taken`); the other direction — and *any*
        mispredict — takes a side exit that flushes every batched
        piece of state and returns.  A mispredict additionally parks
        the wrong-path pc in the engine's hand-off cell so the
        dispatcher runs ``Cpu._mispredict`` *after* the closure has
        committed — at that point the PMU, cache and register state
        are exactly what step() has when it calls
        ``_mispredict`` mid-instruction, so the speculative wrong-path
        walk (the Spectre machinery) observes an identical machine.
        """
        # Branches are cycle sync points: flush pending costs so every
        # exit (and the dispatcher's _mispredict) sees current cycles.
        self.flush_cycles()
        self.counts[6] += 1
        self.counts[7] += 1
        self.has_branch = True
        a = self.reg(rs1)
        b = self.reg(rs2)
        if op == _BEQ:
            cond = f"{a} == {b}"
        elif op == _BNE:
            cond = f"{a} != {b}"
        elif op == _BLTU:
            cond = f"{a} < {b}"
        elif op == _BGEU:
            cond = f"{a} >= {b}"
        else:
            for line in _signed_lines("_sa", a, ""):
                self.emit(line)
            for line in _signed_lines("_sb", b, ""):
                self.emit(line)
            cond = "_sa < _sb" if op == _BLT else "_sa >= _sb"
        taken_pc = (pc + imm) & MASK32
        fall_pc = (pc + INSTRUCTION_SIZE) & MASK32
        k = index + 1
        self.emit(f"_t = {cond}")
        self.emit(f"_p = _predc({pc})")
        self.emit(f"_m = _resc({pc}, _p, _t)")
        taken_counts = list(self.counts)
        taken_counts[8] += 1
        if _trace_taken(imm):
            # Hot path: taken (loop backedge).  Exit on not-taken; a
            # not-taken mispredict means predicted-taken, so the wrong
            # path is the target.
            self.emit("if not _t:")
            self.emit("    if _m:")
            self.emit(f"        _wp[0] = {taken_pc}")
            self._emit_side_exit(self.counts, fall_pc, k)
            # Taken but mispredicted: exit too (the dispatcher must
            # speculate down the fall-through before anything newer
            # retires); re-entry continues at the target.
            self.emit("if _m:")
            self.emit(f"    _wp[0] = {fall_pc}")
            self._emit_side_exit(taken_counts, taken_pc, k)
            self.counts[8] += 1  # the surviving path is taken
        else:
            # Hot path: fall-through (forward branch).
            self.emit("if _t:")
            self.emit("    if _m:")
            self.emit(f"        _wp[0] = {fall_pc}")
            self._emit_side_exit(taken_counts, taken_pc, k)
            self.emit("if _m:")
            self.emit(f"    _wp[0] = {taken_pc}")
            self._emit_side_exit(self.counts, fall_pc, k)

    # -- per-opcode bodies -------------------------------------------
    def _emit_alu(self, op, rd, rs1, rs2, imm):
        self.counts[1] += 1
        if op == _MUL or op == _MULI:
            self.counts[2] += 1
            self.add_cycles(self.mul_extra)
        elif op == _DIV or op == _MOD:
            self.counts[2] += 1
            self.add_cycles(self.div_extra)
        if rd == 0:
            return  # r0 ignores writes, so skip the computation
        if op == _LI:
            self.emit(f"{self.wreg(rd)} = {imm & MASK32}")
            return
        # Sources are recorded (``reg``) before the destination
        # (``wreg``) so the read-before-write analysis sees an
        # instruction like ``add r4, r4, r5`` as needing r4 loaded.
        a = self.reg(rs1)
        if op == _MOV:
            self.emit(f"{self.wreg(rd)} = {a}")
            return
        if _ADDI <= op <= _SLTI:
            dst = self.wreg(rd)
            if op == _ADDI:
                self.emit(f"{dst} = ({a} + {imm}) & 4294967295")
            elif op == _MULI:
                self.emit(f"{dst} = ({a} * {imm}) & 4294967295")
            elif op == _ANDI:
                self.emit(f"{dst} = {a} & {imm & MASK32}")
            elif op == _ORI:
                self.emit(f"{dst} = {a} | {imm & MASK32}")
            elif op == _XORI:
                self.emit(f"{dst} = {a} ^ {imm & MASK32}")
            elif op == _SHLI:
                self.emit(f"{dst} = ({a} << {imm & 31}) & 4294967295")
            elif op == _SHRI:
                self.emit(f"{dst} = {a} >> {imm & 31}")
            elif op == _SRAI:
                for line in _signed_lines("_sa", a, ""):
                    self.emit(line)
                self.emit(f"{dst} = (_sa >> {imm & 31}) & 4294967295")
            else:  # SLTI compares against the raw (signed) immediate
                for line in _signed_lines("_sa", a, ""):
                    self.emit(line)
                self.emit(f"{dst} = 1 if _sa < {imm} else 0")
            return
        b = self.reg(rs2)
        dst = self.wreg(rd)
        if op == _ADD:
            self.emit(f"{dst} = ({a} + {b}) & 4294967295")
        elif op == _SUB:
            self.emit(f"{dst} = ({a} - {b}) & 4294967295")
        elif op == _MUL:
            self.emit(f"{dst} = ({a} * {b}) & 4294967295")
        elif op == _AND:
            self.emit(f"{dst} = {a} & {b}")
        elif op == _OR:
            self.emit(f"{dst} = {a} | {b}")
        elif op == _XOR:
            self.emit(f"{dst} = {a} ^ {b}")
        elif op == _SHL:
            self.emit(f"{dst} = ({a} << ({b} & 31)) & 4294967295")
        elif op == _SHR:
            self.emit(f"{dst} = {a} >> ({b} & 31)")
        elif op == _SRA:
            for line in _signed_lines("_sa", a, ""):
                self.emit(line)
            self.emit(f"{dst} = (_sa >> ({b} & 31)) & 4294967295")
        elif op == _SLT:
            for line in _signed_lines("_sa", a, ""):
                self.emit(line)
            for line in _signed_lines("_sb", b, ""):
                self.emit(line)
            self.emit(f"{dst} = 1 if _sa < _sb else 0")
        elif op == _SLTU:
            self.emit(f"{dst} = 1 if {a} < {b} else 0")
        elif op == _DIV:
            self.emit(f"if {b} == 0:")
            self.emit(f"    {dst} = 4294967295")
            self.emit("else:")
            for line in _signed_lines("_sa", a, "    "):
                self.emit(line)
            for line in _signed_lines("_sb", b, "    "):
                self.emit(line)
            self.emit("    _q = abs(_sa) // abs(_sb)")
            self.emit("    if (_sa < 0) != (_sb < 0):")
            self.emit("        _q = -_q")
            self.emit(f"    {dst} = _q & 4294967295")
        elif op == _MOD:
            self.emit(f"if {b} == 0:")
            self.emit(f"    {dst} = {a}")
            self.emit("else:")
            for line in _signed_lines("_sa", a, "    "):
                self.emit(line)
            for line in _signed_lines("_sb", b, "    "):
                self.emit(line)
            self.emit("    _q = abs(_sa) // abs(_sb)")
            self.emit("    if (_sa < 0) != (_sb < 0):")
            self.emit("        _q = -_q")
            self.emit(f"    {dst} = (_sa - _sb * _q) & 4294967295")
        else:  # pragma: no cover - every RRR opcode is handled above
            raise AssertionError(f"unhandled ALU opcode {op:#04x}")

    def _emit_load(self, op, rd, rs1, imm, pc):
        self.counts[3] += 1
        self._emit_mem_sync(pc)
        a = self.reg(rs1)
        self.emit(f"_a = ({a} + {imm}) & 4294967295")
        self.emit("_v = _lw(_a)" if op == _LW else "_v = _lb(_a)")
        self._emit_dtlb("_a")
        self._emit_l1d("_a", False)
        if rd:
            self.emit(f"{self.wreg(rd)} = _v & 4294967295")

    def _emit_store(self, op, rs1, rs2, imm, index, pc):
        self.counts[4] += 1
        self._emit_mem_sync(pc)
        a = self.reg(rs1)
        value = self.reg(rs2)
        self.emit(f"_a = ({a} + {imm}) & 4294967295")
        self.emit(f"_sw(_a, {value})" if op == _SW
                  else f"_sbyte(_a, {value})")
        self._emit_dtlb("_a")
        self._emit_l1d("_a", True)
        self._emit_deopt_check(index, pc)

    def _emit_push(self, rs1, index, pc):
        self.counts[5] += 1
        self._emit_mem_sync(pc)
        value = self.reg(rs1)
        self.reg(13)  # sp is read (decremented) before being written
        sp = self.wreg(13)
        # sp moves *before* the store, as in step() — a
        # faulting push leaves the decremented sp behind.
        self.emit(f"{sp} = ({sp} - 4) & 4294967295")
        self.emit(f"_sw({sp}, {value})")
        self._emit_dtlb(sp)
        self._emit_l1d(sp, True)
        self._emit_deopt_check(index, pc)

    def _emit_pop(self, rd, index, pc):
        self.counts[5] += 1
        self._emit_mem_sync(pc)
        self.reg(13)  # sp is read (load + increment) before the write
        sp = self.wreg(13)
        self.emit(f"_v = _lw({sp})")
        self._emit_dtlb(sp)
        self._emit_l1d(sp, False)
        self.emit(f"{sp} = ({sp} + 4) & 4294967295")
        if rd:
            self.emit(f"{self.wreg(rd)} = _v & 4294967295")

    # -- assembly ------------------------------------------------------
    def _emit_body(self):
        """Emit one copy of the body (the peel, or the loop's body)."""
        for index, (pc, entry) in enumerate(self.entries):
            op, rd, rs1, rs2, imm = entry
            self._emit_fetch(index, pc)
            self.counts[0] += 1
            self.add_cycles(self.base_cost)
            if op == _NOP:
                continue
            if op == _JMP:
                # Followed at translation time; the runtime cost is the
                # counter bump (the next instruction's fetch emission
                # handles the target's line/page locality).
                self.counts[6] += 1
            elif _BEQ <= op <= _BGEU:
                self._emit_branch(op, rs1, rs2, imm, index, pc)
            elif op == _LW or op == _LB:
                self._emit_load(op, rd, rs1, imm, pc)
            elif op == _SW or op == _SB:
                self._emit_store(op, rs1, rs2, imm, index, pc)
            elif op == _PUSH:
                self._emit_push(rs1, index, pc)
            elif op == _POP:
                self._emit_pop(rd, index, pc)
            else:
                self._emit_alu(op, rd, rs1, rs2, imm)
        self.flush_cycles()

    def build(self):
        """Emit the peel (+ unroll loop), then assemble the source."""
        self._emit_body()
        self.copy_counts = tuple(self.counts)
        if self.copies > 1:
            # The body closed a cycle back to the entry pc, so the
            # peel's end locality state equals its start state and the
            # body can simply re-run: one compiled copy under a Python
            # loop.  Retired-count bookkeeping is within-copy plus
            # ``_it`` full copies (exits and the fault path scale by
            # the per-copy constants).
            self.loop_mode = True
            self.counts = [0] * len(_COUNTER_NAMES)
            self.mem_occ = 0
            self.emit(f"for _it in range(1, {self.copies}):")
            start = len(self.lines)
            self._emit_body()
            if self.copy_counts != tuple(self.counts):  # pragma: no cover
                raise AssertionError("unroll body diverged from peel")
            self.lines[start:] = [
                "    " + stmt for stmt in self.lines[start:]
            ]
        return self._assemble()

    def _bindings(self):
        """Name -> object defaults the closure binds at definition."""
        cpu = self.cpu
        bound = {
            "_state": cpu.state,
            "_cpu": cpu,
            "_eng": self.engine,
        }
        if self.has_mem:
            memory = cpu.memory
            bound.update({
                "_lw": memory.load_word,
                "_lb": memory.load_byte,
                "_sw": memory.store_word,
                "_sbyte": memory.store_byte,
                "_dtlb": cpu.dtlb,
                "_dtlb_access": cpu.dtlb.access,
                "_data_fast": cpu.caches.data_access_fast,
            })
            if self.inline_l1:
                d_state = self.d_state
                bound.update({
                    "_l1maps": d_state["maps"],
                    "_l1clocks": d_state["clocks"],
                    "_l1stamps": d_state["stamps"],
                    "_l1dirty": d_state["dirty"],
                    "_l1stats": d_state["stats"],
                })
        if self.has_mem:
            bound["_partials"] = tuple(self.partial_list)
            if self.copies > 1:
                bound["_fullc"] = self.copy_counts
        if self.exits:
            bound["_fx"] = _flush_exit
            bound["_exits"] = tuple(self.exits)
        if self.inline_i:
            i_state = self.i_state
            bound.update({
                "_i1maps": i_state["maps"],
                "_i1clocks": i_state["clocks"],
                "_i1stamps": i_state["stamps"],
                "_i1stats": i_state["stats"],
            })
        if self.has_branch:
            predictor = cpu.predictor
            bound.update({
                "_predc": predictor.predict_conditional,
                "_resc": predictor.resolve_conditional,
                "_wp": self.engine.wp,
            })
        bound.update({
            "_icache_fast": cpu.caches.instruction_access_fast,
            "_itlb_access": cpu.itlb.access,
        })
        return bound

    def _assemble(self):
        n = len(self.entries) * self.copies
        exit_pc = self.exit_pc
        bound = self._bindings()
        params = ["regs", "counters", "cycles", "last_iline", "last_ipage"]
        params += [f"{name}={name}" for name in bound]
        src = [f"def _blk({', '.join(params)}):"]
        if self.has_mem:
            # The fault path writes back every written register, so all
            # of them must be bound, even write-only ones.
            prologue_regs = self.touched
        else:
            # No fault/deopt exits: write-only registers never need
            # their stale values, and ``pc`` is never consulted.
            prologue_regs = self.need_load
        for i in sorted(prologue_regs):
            src.append(f"    r{i} = regs[{i}]")
        if self.inline_i:
            src.append("    _n_ihit = 0")
        if self.has_mem:
            src.append(f"    pc = {self.entry_pc}")
            src.append("    _pi = 0")
            if self.copies > 1:
                src.append("    _it = 0")
            src.append("    _n_stall = 0")
            src.append("    _n_tlb = 0")
            src.append("    _tlb_last = _dtlb._last_page")
            if self.inline_l1:
                src.append("    _n_l1r = 0")
                src.append("    _n_l1w = 0")
            # Fault path: flush partial progress keyed by the live pc,
            # sync the object, re-raise.  run() writes the returned
            # tuple back only on a normal return, so the synced object
            # is what the caller sees.
            src.append("    try:")
            src += [f"        {line}" for line in self.lines]
            src.append("    except BaseException:")
            src.append("        _t = _partials[_pi]")
            if self.copies > 1:
                # Absolute retired counts = the within-copy prefix at
                # the live mem-op occurrence plus ``_it`` full copies.
                src.append("        if _it:")
                src.append("            _t = tuple(_p + _it * _f for "
                           "_p, _f in zip(_t, _fullc))")
            for i, name in enumerate(_COUNTER_NAMES):
                src.append(f"        if _t[{i}]:")
                src.append(f'            counters["{name}"] += _t[{i}]')
            src += self._dyn_flush_lines("        ")
            src += self._writeback_lines("        ")
            src.append("        _state.pc = pc")
            src.append("        _cpu.cycles = cycles")
            src.append("        _cpu._last_iline = last_iline")
            src.append("        _cpu._last_ipage = last_ipage")
            src.append("        raise")
        else:
            # ALU-only blocks cannot fault; with no writeback having
            # happened, an asynchronous exception rolls the whole block
            # back (the dispatcher's pc still points at the entry).
            src += [f"    {line}" for line in self.lines]
        totals = [value * self.copies for value in self.copy_counts]
        src += self._counter_flush_lines(totals, "    ")
        src += self._dyn_flush_lines("    ")
        src += self._writeback_lines("    ")
        src.append(f"    return {exit_pc}, {n}, cycles, "
                   "last_iline, last_ipage")
        return "\n".join(src) + "\n", bound, exit_pc


class SuperblockEngine:
    """Per-core block cache + heat table + translator.

    ``blocks`` maps an entry pc to either a ``(closure, length,
    exit_pc)`` tuple or ``0`` for entries that translation rejected
    (terminator first, or a run shorter than :data:`MIN_LENGTH`) — the
    0 sentinel keeps rejected pcs to a single dict probe per dispatch.
    """

    #: Entry-pc executions before translation triggers.  Deterministic
    #: (a pure visit count — no wall clock), so translation decisions
    #: are identical across hosts and backends.
    HOT_THRESHOLD = 16
    #: Runs shorter than this are not worth a call's overhead.
    MIN_LENGTH = 3
    #: Longest block; far below the watchdog stride (1024) so a block
    #: always fits inside one charge window.
    MAX_LENGTH = 64

    def __init__(self, cpu):
        self.cpu = cpu
        self.blocks = {}
        self.heat = {}
        #: mispredict hand-off: a closure's side exit parks the
        #: wrong-path pc here and the dispatcher calls
        #: ``Cpu._mispredict`` after the block commits.
        self.wp = [None]
        #: bumped by every flush; closures bake the value they were
        #: compiled under and compare after each store (SMC deopt).
        self.gen = 0
        self.stats = {
            "translated": 0,
            "rejected": 0,
            "instructions_translated": 0,
            "invalidations": 0,
            "code_writes": 0,
        }

    # -- invalidation --------------------------------------------------
    def flush(self):
        """Drop every block (in place — the dispatcher holds live refs)."""
        self.blocks.clear()
        self.heat.clear()
        self.gen += 1
        self.stats["invalidations"] += 1

    def on_code_write(self, address, size):
        """Memory reported a store into an executable segment."""
        self.stats["code_writes"] += 1
        self.flush()

    # -- translation ---------------------------------------------------
    def _collect(self, pc):
        """The translatable superblock at *pc*: body, unroll, exit pc.

        Returns ``(entries, copies, exit_pc)`` where entries are
        ``(pc, decoded)`` pairs for ONE body copy.  Collection walks
        sequentially, follows direct ``JMP``s to their constant
        targets, traces through conditional branches along the
        predicted direction, and stops at the first terminator or at
        :data:`MAX_LENGTH`.  A trace that returns to its entry pc is a
        loop: *copies* says how many complete bodies fit under
        :data:`MAX_LENGTH` — the translator compiles the body once and
        unrolls it with a counted loop, amortising the closure's
        call/flush overhead over more retired instructions (side exits
        keep every copy's branches architecturally exact).
        Decode-cache misses are decoded fresh but *not* cached:
        translation observes the code, the dispatcher owns the cache.
        """
        dcache = self.cpu._decode_cache
        memory = self.cpu.memory
        entries = []
        p = pc
        while len(entries) < self.MAX_LENGTH:
            if p == pc and entries:
                # The trace closed back on its entry: a loop.
                return entries, self.MAX_LENGTH // len(entries), p
            entry = dcache.get(p)
            if entry is None:
                try:
                    instruction = decode(memory.fetch(p, INSTRUCTION_SIZE))
                except (MemoryFault, CpuFault, EncodingError):
                    break
                entry = (int(instruction.opcode), instruction.rd,
                         instruction.rs1, instruction.rs2,
                         instruction.imm)
            op = entry[0]
            if op == _JMP:
                entries.append((p, entry))
                p = (p + entry[4]) & MASK32
                continue
            if _BEQ <= op <= _BGEU:
                entries.append((p, entry))
                if _trace_taken(entry[4]):
                    p = (p + entry[4]) & MASK32
                else:
                    p = (p + INSTRUCTION_SIZE) & MASK32
                continue
            if not _translatable(op):
                break
            entries.append((p, entry))
            nxt = p + INSTRUCTION_SIZE
            if nxt > MASK32:
                p = nxt & MASK32
                break
            p = nxt
        return entries, 1, p

    def translate(self, pc):
        """Translate the run at *pc*; returns the new ``blocks`` value."""
        entries, copies, exit_pc = self._collect(pc)
        length = len(entries) * copies
        if length < self.MIN_LENGTH:
            self.heat.pop(pc, None)
            self.blocks[pc] = 0
            self.stats["rejected"] += 1
            return 0
        source, bound, exit_pc = _Codegen(
            self.cpu, self, pc, entries, copies, exit_pc
        ).build()
        namespace = dict(bound)
        code = _CODE_CACHE.get(source)
        if code is None:
            if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
                _CODE_CACHE.clear()
            code = compile(source, f"<superblock {pc:#x}>", "exec")
            _CODE_CACHE[source] = code
        exec(code, namespace)
        block = (namespace["_blk"], length, exit_pc)
        self.blocks[pc] = block
        # Interior pcs are no longer dispatched on the fall-through
        # path; drop their warmup heat so only real (branch-target)
        # entries re-accumulate it.
        for interior_pc, _ in entries:
            self.heat.pop(interior_pc, None)
        self.stats["translated"] += 1
        self.stats["instructions_translated"] += length
        return block
