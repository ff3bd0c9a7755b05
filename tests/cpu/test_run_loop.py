"""The run() loop vs a bare step() loop, bit for bit.

``Cpu.run`` under the ambient engine (``sb`` by default) runs hot code
as compiled superblock closures and everything else through
``Cpu.step``, the single-instruction reference.  These tests pin that
a run() and a hand-driven step() loop leave the machine in *identical*
observable state — registers, virtual cycles, all 56 PMU events,
process output — across branchy code, full Spectre attacks
(mispredicts + wrong-path speculation), pauses, watchdog budgets,
syscalls, and the ``execve`` image swap that replaces the register
file and flushes the decode cache mid-run.
"""

import pytest

from repro.attack import SpectreConfig, build_spectre
from repro.cpu import engine_override
from repro.core.resilience.watchdog import Watchdog
from repro.errors import BudgetExceededError
from repro.kernel import System, build_binary

SECRET = b"HW!"

_BRANCHY = """
main:
    li   t0, 0          ; i
    li   s0, 7          ; lcg state
    li   s1, 0          ; acc
loop:
    slti t1, t0, 300
    beq  t1, zero, done
    muli s0, s0, 1103515245
    addi s0, s0, 12345
    andi t2, s0, 7
    beq  t2, zero, skip  ; data-dependent branch: mispredicts
    add  s1, s1, t2
    jmp  next
skip:
    addi s1, s1, 1
next:
    addi t0, t0, 1
    jmp  loop
done:
    andi a0, s1, 0xFF
    call libc_exit
"""


def _spawn(source=None, program=None, seed=9, target_data=None):
    system = System(seed=seed, target_data=target_data)
    program = program or build_binary("testprog", source)
    system.install_binary("/bin/testprog", program)
    return system.spawn("/bin/testprog")


def _run_stepwise(cpu, max_instructions=5_000_000):
    executed = 0
    while not cpu.state.halted and executed < max_instructions:
        cpu.step()
        executed += 1
    return executed


def _snapshot(process):
    cpu = process.cpu
    return {
        "regs": list(cpu.state.regs),
        "pc": cpu.state.pc,
        "halted": cpu.state.halted,
        "exit_code": cpu.state.exit_code,
        "cycles": cpu.cycles,
        "events": cpu.pmu.read(),
        "stdout": bytes(process.stdout),
    }


class TestRunLoopEquivalence:
    def test_branchy_program_identical_state(self):
        looped = _spawn(_BRANCHY)
        reference = _spawn(_BRANCHY)
        looped.cpu.run()
        _run_stepwise(reference.cpu)
        assert _snapshot(looped) == _snapshot(reference)

    def test_spectre_attack_identical_state(self):
        # Mispredicts, wrong-path speculation, clflush, rdcycle, fences:
        # every cold path of the dispatch, under one real attack.
        program = build_spectre(
            "v1", SpectreConfig(secret_length=len(SECRET), repeats=1)
        )
        looped = _spawn(program=program, target_data=SECRET)
        reference = _spawn(program=program, target_data=SECRET)
        looped.cpu.run()
        _run_stepwise(reference.cpu)
        assert _snapshot(looped) == _snapshot(reference)

    def test_max_instructions_pauses_at_same_point(self):
        looped = _spawn(_BRANCHY)
        reference = _spawn(_BRANCHY)
        # Pause/resume in odd chunk sizes; the paused states must agree
        # chunk for chunk (this is what quantum scheduling does).
        for chunk in (1, 7, 193, 1000, 50_000):
            looped.cpu.run(max_instructions=chunk)
            _run_stepwise(reference.cpu, max_instructions=chunk)
            assert _snapshot(looped) == _snapshot(reference)

    def test_budget_exhaustion_leaves_synced_state(self):
        # The reference is run() under the step engine: the same
        # watchdog charging, with every instruction through step().
        looped = _spawn(_BRANCHY)
        with engine_override("step"):
            reference = _spawn(_BRANCHY)
        looped.cpu.watchdog = Watchdog(2048, label="looped")
        reference.cpu.watchdog = Watchdog(2048, label="ref")
        with pytest.raises(BudgetExceededError):
            looped.cpu.run()
        with pytest.raises(BudgetExceededError):
            reference.cpu.run()
        assert _snapshot(looped) == _snapshot(reference)


class TestDecodeCacheAcrossExecve:
    """Decode entries are hit, flushed at execve, and refilled.

    Both images map at the same virtual addresses, so the swap rewrites
    the bytes *under* cached pcs — a stale decode entry, superblock or
    register-file alias (execve installs a fresh regs list) shows up as
    the old image's behaviour leaking through.
    """

    def _system(self):
        system = System(seed=3)
        caller = build_binary("caller", """
        main:
            li   t0, 50         ; hot loop: decode entries hit repeatedly
        warm:
            addi t0, t0, -1
            bne  t0, zero, warm
            la   a0, path
            li   a1, 0
            call libc_execve
            li   a0, 1          ; only reached if execve failed
            call libc_exit
        .data
        path: .asciiz "/bin/other"
        """)
        other = build_binary("other", """
        main:
            li a0, 42
            call libc_exit
        """)
        system.install_binary("/bin/caller", caller)
        system.install_binary("/bin/other", other)
        return system

    def test_hit_flush_refill(self):
        process = self._system().spawn("/bin/caller")
        process.run_to_completion()
        assert process.exit_code == 42
        assert process.image_name == "other"
        # The refilled cache holds the new image's flat dispatch tuples.
        cache = process.cpu._decode_cache
        assert cache
        assert all(
            isinstance(entry, tuple) and len(entry) == 5
            and isinstance(entry[0], int)
            for entry in cache.values()
        )

    def test_execve_state_matches_stepwise_reference(self):
        looped = self._system().spawn("/bin/caller")
        reference = self._system().spawn("/bin/caller")
        looped.cpu.run()
        _run_stepwise(reference.cpu)
        assert _snapshot(looped) == _snapshot(reference)
