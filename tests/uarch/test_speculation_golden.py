"""Cross-commit golden: mispredict-heavy programs on both cores.

Every other golden in the suite compares two runs of the *same* code
(engine vs engine, serial vs pool, traced vs untraced).  This one pins
literal values, so a refactor of the wrong-path walker, the OoO
pipeline or the caches that shifts a single cycle, PMU event, cache
access or TLB lookup fails here even when it is self-consistent.

The programs are the Spectre variants and the covert-channel probe:
their wrong paths run loads that fill the probe array, nested branches,
calls and returns, and (``LONG_WRONG_PATH``) non-serialising runs longer
than the speculation window, so each window is cut by its bound rather
than by a serialising instruction.

The literals below were captured from a run of this file's programs
and must only change with a deliberate, documented change to simulated
behaviour.
"""

import dataclasses

import pytest

from repro.attack import SpectreConfig, build_spectre
from repro.kernel import System, build_binary
from tests.conftest import SECRET
from tests.cpu import test_speculation

#: Nested loops whose every mispredict runs into 80 independent ALU
#: ops: an inner-loop exit falls through, re-enters the loop, resolves
#: the nested branch and lands in the first run; the outer branch's
#: wrong path is either the second run or a whole fresh inner loop.  No
#: wrong path reaches a serialising instruction or a fault within 48
#: slots, so every window is cut by its bound (``spec_window``, or the
#: OoO core's free ROB slots).
_RUN = "    addi t2, t2, 1\n" * 80
LONG_WRONG_PATH = """
main:
    li   t3, 3
outer:
    li   t0, 0
loop:
    slti t1, t0, 6
    beq  t1, zero, done
    addi t0, t0, 1
    jmp  loop
done:
""" + _RUN + """
    addi t3, t3, -1
    bne  t3, zero, outer
""" + _RUN + "    halt\n"


def _program(name):
    if name == "probe":
        source = test_speculation.TestPersistentCacheFills.SOURCE
        return build_binary("probe", source.replace("TRAIN_VALUE", "1"))
    if name == "long":
        return build_binary("long", LONG_WRONG_PATH)
    config = SpectreConfig(secret_length=len(SECRET), repeats=1)
    return build_spectre(name, config)


def _observe(name, uarch):
    """Run *name* to completion on *uarch*; every pinned observable."""
    system = System(seed=21, target_data=SECRET, uarch=uarch)
    system.install_binary("/bin/a", _program(name))
    process = system.spawn("/bin/a")
    process.run_to_completion(max_instructions=5_000_000)
    cpu = process.cpu
    caches = cpu.caches
    return {
        "cycles": cpu.cycles,
        "pmu": cpu.pmu.read(),
        "l1i": dataclasses.asdict(caches.l1i.stats),
        "l1d": dataclasses.asdict(caches.l1d.stats),
        "l2": dataclasses.asdict(caches.l2.stats),
        "itlb": (cpu.itlb.hits, cpu.itlb.misses),
        "dtlb": (cpu.dtlb.hits, cpu.dtlb.misses),
    }


GOLDEN = {
    ("long", "inorder"): {
        "cycles": 2092.25,
        "pmu": {
            "instructions": 409, "alu_instructions": 366,
            "mul_div_instructions": 0, "load_instructions": 0,
            "store_instructions": 0, "branch_instructions": 42,
            "cond_branch_instructions": 24, "branches_taken": 5,
            "call_instructions": 0, "ret_instructions": 0,
            "indirect_jump_instructions": 0, "syscall_instructions": 0,
            "clflush_instructions": 0, "mfence_instructions": 0,
            "stack_instructions": 0, "memory_stall_cycles": 1920,
            "mispredict_penalty_cycles": 70, "fence_stall_cycles": 0,
            "spec_instructions": 240, "spec_loads": 0,
            "spec_cache_fills": 0, "squashed_instructions": 240,
            "cycles": 2092, "branch_mispredictions": 5,
            "cond_branch_mispredictions": 5,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 0, "l1d_hits": 0, "l1d_misses": 0,
            "l1d_read_accesses": 0, "l1d_read_misses": 0,
            "l1d_write_accesses": 0, "l1d_write_misses": 0,
            "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 284, "l1i_hits": 262, "l1i_misses": 22,
            "l2_accesses": 22, "l2_hits": 0, "l2_misses": 22,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 284, "total_cache_hits": 262,
            "total_cache_misses": 22, "dtlb_accesses": 0,
            "dtlb_hits": 0, "dtlb_misses": 0, "itlb_accesses": 241,
            "itlb_hits": 240, "itlb_misses": 1,
        },
        "l1i": {
            "accesses": 284, "hits": 262, "misses": 22,
            "read_accesses": 284, "read_misses": 22,
            "write_accesses": 0, "write_misses": 0, "evictions": 0,
            "writebacks": 0, "flushes": 0,
        },
        "l1d": {
            "accesses": 0, "hits": 0, "misses": 0, "read_accesses": 0,
            "read_misses": 0, "write_accesses": 0, "write_misses": 0,
            "evictions": 0, "writebacks": 0, "flushes": 0,
        },
        "l2": {
            "accesses": 22, "hits": 0, "misses": 22,
            "read_accesses": 22, "read_misses": 22,
            "write_accesses": 0, "write_misses": 0, "evictions": 0,
            "writebacks": 0, "flushes": 0,
        },
        "itlb": (240, 1),
        "dtlb": (0, 0),
    },
    ("long", "ooo"): {
        "cycles": 2452.25,
        "pmu": {
            "instructions": 409, "alu_instructions": 366,
            "mul_div_instructions": 0, "load_instructions": 0,
            "store_instructions": 0, "branch_instructions": 42,
            "cond_branch_instructions": 24, "branches_taken": 5,
            "call_instructions": 0, "ret_instructions": 0,
            "indirect_jump_instructions": 0, "syscall_instructions": 0,
            "clflush_instructions": 0, "mfence_instructions": 0,
            "stack_instructions": 0, "memory_stall_cycles": 2304,
            "mispredict_penalty_cycles": 70, "fence_stall_cycles": 0,
            "spec_instructions": 178, "spec_loads": 0,
            "spec_cache_fills": 0, "squashed_instructions": 178,
            "cycles": 2452, "branch_mispredictions": 5,
            "cond_branch_mispredictions": 5,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 0, "l1d_hits": 0, "l1d_misses": 0,
            "l1d_read_accesses": 0, "l1d_read_misses": 0,
            "l1d_write_accesses": 0, "l1d_write_misses": 0,
            "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 222, "l1i_hits": 200, "l1i_misses": 22,
            "l2_accesses": 22, "l2_hits": 0, "l2_misses": 22,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 222, "total_cache_hits": 200,
            "total_cache_misses": 22, "dtlb_accesses": 0,
            "dtlb_hits": 0, "dtlb_misses": 0, "itlb_accesses": 179,
            "itlb_hits": 178, "itlb_misses": 1,
        },
        "l1i": {
            "accesses": 222, "hits": 200, "misses": 22,
            "read_accesses": 222, "read_misses": 22,
            "write_accesses": 0, "write_misses": 0, "evictions": 0,
            "writebacks": 0, "flushes": 0,
        },
        "l1d": {
            "accesses": 0, "hits": 0, "misses": 0, "read_accesses": 0,
            "read_misses": 0, "write_accesses": 0, "write_misses": 0,
            "evictions": 0, "writebacks": 0, "flushes": 0,
        },
        "l2": {
            "accesses": 22, "hits": 0, "misses": 22,
            "read_accesses": 22, "read_misses": 22,
            "write_accesses": 0, "write_misses": 0, "evictions": 0,
            "writebacks": 0, "flushes": 0,
        },
        "itlb": (178, 1),
        "dtlb": (0, 0),
    },
    ("probe", "inorder"): {
        "cycles": 1647.75,
        "pmu": {
            "instructions": 87, "alu_instructions": 34,
            "mul_div_instructions": 0, "load_instructions": 14,
            "store_instructions": 0, "branch_instructions": 35,
            "cond_branch_instructions": 14, "branches_taken": 2,
            "call_instructions": 8, "ret_instructions": 7,
            "indirect_jump_instructions": 0, "syscall_instructions": 1,
            "clflush_instructions": 1, "mfence_instructions": 2,
            "stack_instructions": 0, "memory_stall_cycles": 1536,
            "mispredict_penalty_cycles": 28, "fence_stall_cycles": 16,
            "spec_instructions": 53, "spec_loads": 10,
            "spec_cache_fills": 1, "squashed_instructions": 53,
            "cycles": 1647, "branch_mispredictions": 2,
            "cond_branch_mispredictions": 2,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 39, "l1d_hits": 35, "l1d_misses": 4,
            "l1d_read_accesses": 31, "l1d_read_misses": 3,
            "l1d_write_accesses": 8, "l1d_write_misses": 1,
            "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 72, "l1i_hits": 67, "l1i_misses": 5,
            "l2_accesses": 9, "l2_hits": 0, "l2_misses": 9,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 111, "total_cache_hits": 102,
            "total_cache_misses": 9, "dtlb_accesses": 39,
            "dtlb_hits": 37, "dtlb_misses": 2, "itlb_accesses": 54,
            "itlb_hits": 53, "itlb_misses": 1,
        },
        "l1i": {
            "accesses": 72, "hits": 67, "misses": 5,
            "read_accesses": 72, "read_misses": 5, "write_accesses": 0,
            "write_misses": 0, "evictions": 0, "writebacks": 0,
            "flushes": 1,
        },
        "l1d": {
            "accesses": 39, "hits": 35, "misses": 4,
            "read_accesses": 31, "read_misses": 3, "write_accesses": 8,
            "write_misses": 1, "evictions": 0, "writebacks": 0,
            "flushes": 1,
        },
        "l2": {
            "accesses": 9, "hits": 0, "misses": 9, "read_accesses": 8,
            "read_misses": 8, "write_accesses": 1, "write_misses": 1,
            "evictions": 0, "writebacks": 0, "flushes": 1,
        },
        "itlb": (53, 1),
        "dtlb": (37, 2),
    },
    ("probe", "ooo"): {
        "cycles": 1263.75,
        "pmu": {
            "instructions": 87, "alu_instructions": 34,
            "mul_div_instructions": 0, "load_instructions": 14,
            "store_instructions": 0, "branch_instructions": 35,
            "cond_branch_instructions": 14, "branches_taken": 2,
            "call_instructions": 8, "ret_instructions": 7,
            "indirect_jump_instructions": 0, "syscall_instructions": 1,
            "clflush_instructions": 1, "mfence_instructions": 2,
            "stack_instructions": 0, "memory_stall_cycles": 1536,
            "mispredict_penalty_cycles": 28, "fence_stall_cycles": 16,
            "spec_instructions": 5, "spec_loads": 1,
            "spec_cache_fills": 1, "squashed_instructions": 5,
            "cycles": 1263, "branch_mispredictions": 2,
            "cond_branch_mispredictions": 2,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 30, "l1d_hits": 26, "l1d_misses": 4,
            "l1d_read_accesses": 22, "l1d_read_misses": 3,
            "l1d_write_accesses": 8, "l1d_write_misses": 1,
            "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 24, "l1i_hits": 19, "l1i_misses": 5,
            "l2_accesses": 9, "l2_hits": 0, "l2_misses": 9,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 54, "total_cache_hits": 45,
            "total_cache_misses": 9, "dtlb_accesses": 30,
            "dtlb_hits": 28, "dtlb_misses": 2, "itlb_accesses": 6,
            "itlb_hits": 5, "itlb_misses": 1,
        },
        "l1i": {
            "accesses": 24, "hits": 19, "misses": 5,
            "read_accesses": 24, "read_misses": 5, "write_accesses": 0,
            "write_misses": 0, "evictions": 0, "writebacks": 0,
            "flushes": 1,
        },
        "l1d": {
            "accesses": 30, "hits": 26, "misses": 4,
            "read_accesses": 22, "read_misses": 3, "write_accesses": 8,
            "write_misses": 1, "evictions": 0, "writebacks": 0,
            "flushes": 1,
        },
        "l2": {
            "accesses": 9, "hits": 0, "misses": 9, "read_accesses": 8,
            "read_misses": 8, "write_accesses": 1, "write_misses": 1,
            "evictions": 0, "writebacks": 0, "flushes": 1,
        },
        "itlb": (5, 1),
        "dtlb": (28, 2),
    },
    ("btb", "inorder"): {
        "cycles": 868315.25,
        "pmu": {
            "instructions": 75605, "alu_instructions": 41868,
            "mul_div_instructions": 4192, "load_instructions": 4288,
            "store_instructions": 16, "branch_instructions": 21207,
            "cond_branch_instructions": 12451, "branches_taken": 4099,
            "call_instructions": 226, "ret_instructions": 225,
            "indirect_jump_instructions": 112,
            "syscall_instructions": 2, "clflush_instructions": 4096,
            "mfence_instructions": 4112, "stack_instructions": 0,
            "memory_stall_cycles": 785856,
            "mispredict_penalty_cycles": 1806,
            "fence_stall_cycles": 32896, "spec_instructions": 2308,
            "spec_loads": 246, "spec_cache_fills": 17,
            "squashed_instructions": 2308, "cycles": 868315,
            "branch_mispredictions": 130,
            "cond_branch_mispredictions": 98,
            "return_mispredictions": 0, "indirect_mispredictions": 32,
            "btb_hits": 111, "btb_misses": 1, "rsb_overflows": 0,
            "l1d_accesses": 5001, "l1d_hits": 900, "l1d_misses": 4101,
            "l1d_read_accesses": 4759, "l1d_read_misses": 4099,
            "l1d_write_accesses": 242, "l1d_write_misses": 2,
            "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 23581, "l1i_hits": 23570, "l1i_misses": 11,
            "l2_accesses": 4112, "l2_hits": 0, "l2_misses": 4112,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 28582, "total_cache_hits": 24470,
            "total_cache_misses": 4112, "dtlb_accesses": 5001,
            "dtlb_hits": 4994, "dtlb_misses": 7, "itlb_accesses": 2309,
            "itlb_hits": 2308, "itlb_misses": 1,
        },
        "l1i": {
            "accesses": 23581, "hits": 23570, "misses": 11,
            "read_accesses": 23581, "read_misses": 11,
            "write_accesses": 0, "write_misses": 0, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "l1d": {
            "accesses": 5001, "hits": 900, "misses": 4101,
            "read_accesses": 4759, "read_misses": 4099,
            "write_accesses": 242, "write_misses": 2, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "l2": {
            "accesses": 4112, "hits": 0, "misses": 4112,
            "read_accesses": 4110, "read_misses": 4110,
            "write_accesses": 2, "write_misses": 2, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "itlb": (2308, 1),
        "dtlb": (4994, 7),
    },
    ("btb", "ooo"): {
        "cycles": 883127.0,
        "pmu": {
            "instructions": 75575, "alu_instructions": 41838,
            "mul_div_instructions": 4192, "load_instructions": 4288,
            "store_instructions": 16, "branch_instructions": 21207,
            "cond_branch_instructions": 12451, "branches_taken": 4114,
            "call_instructions": 226, "ret_instructions": 225,
            "indirect_jump_instructions": 112,
            "syscall_instructions": 2, "clflush_instructions": 4096,
            "mfence_instructions": 4112, "stack_instructions": 0,
            "memory_stall_cycles": 785856,
            "mispredict_penalty_cycles": 1596,
            "fence_stall_cycles": 32896, "spec_instructions": 1804,
            "spec_loads": 179, "spec_cache_fills": 17,
            "squashed_instructions": 1804, "cycles": 883127,
            "branch_mispredictions": 115,
            "cond_branch_mispredictions": 83,
            "return_mispredictions": 0, "indirect_mispredictions": 32,
            "btb_hits": 111, "btb_misses": 1, "rsb_overflows": 0,
            "l1d_accesses": 4934, "l1d_hits": 833, "l1d_misses": 4101,
            "l1d_read_accesses": 4692, "l1d_read_misses": 4099,
            "l1d_write_accesses": 242, "l1d_write_misses": 2,
            "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 23077, "l1i_hits": 23066, "l1i_misses": 11,
            "l2_accesses": 4112, "l2_hits": 0, "l2_misses": 4112,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 28011, "total_cache_hits": 23899,
            "total_cache_misses": 4112, "dtlb_accesses": 4934,
            "dtlb_hits": 4927, "dtlb_misses": 7, "itlb_accesses": 1805,
            "itlb_hits": 1804, "itlb_misses": 1,
        },
        "l1i": {
            "accesses": 23077, "hits": 23066, "misses": 11,
            "read_accesses": 23077, "read_misses": 11,
            "write_accesses": 0, "write_misses": 0, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "l1d": {
            "accesses": 4934, "hits": 833, "misses": 4101,
            "read_accesses": 4692, "read_misses": 4099,
            "write_accesses": 242, "write_misses": 2, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "l2": {
            "accesses": 4112, "hits": 0, "misses": 4112,
            "read_accesses": 4110, "read_misses": 4110,
            "write_accesses": 2, "write_misses": 2, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "itlb": (1804, 1),
        "dtlb": (4927, 7),
    },
    ("rsb", "inorder"): {
        "cycles": 866447.25,
        "pmu": {
            "instructions": 74141, "alu_instructions": 41220,
            "mul_div_instructions": 4096, "load_instructions": 4096,
            "store_instructions": 32, "branch_instructions": 20583,
            "cond_branch_instructions": 12339, "branches_taken": 4095,
            "call_instructions": 18, "ret_instructions": 17,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4096, "mfence_instructions": 4112,
            "stack_instructions": 0, "memory_stall_cycles": 785088,
            "mispredict_penalty_cycles": 1176,
            "fence_stall_cycles": 32896, "spec_instructions": 623,
            "spec_loads": 32, "spec_cache_fills": 17,
            "squashed_instructions": 623, "cycles": 866447,
            "branch_mispredictions": 84,
            "cond_branch_mispredictions": 68,
            "return_mispredictions": 16, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 4195, "l1d_hits": 96, "l1d_misses": 4099,
            "l1d_read_accesses": 4145, "l1d_read_misses": 4097,
            "l1d_write_accesses": 50, "l1d_write_misses": 2,
            "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 17127, "l1i_hits": 17118, "l1i_misses": 9,
            "l2_accesses": 4108, "l2_hits": 0, "l2_misses": 4108,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 21322, "total_cache_hits": 17214,
            "total_cache_misses": 4108, "dtlb_accesses": 4195,
            "dtlb_hits": 4188, "dtlb_misses": 7, "itlb_accesses": 624,
            "itlb_hits": 623, "itlb_misses": 1,
        },
        "l1i": {
            "accesses": 17127, "hits": 17118, "misses": 9,
            "read_accesses": 17127, "read_misses": 9,
            "write_accesses": 0, "write_misses": 0, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "l1d": {
            "accesses": 4195, "hits": 96, "misses": 4099,
            "read_accesses": 4145, "read_misses": 4097,
            "write_accesses": 50, "write_misses": 2, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "l2": {
            "accesses": 4108, "hits": 0, "misses": 4108,
            "read_accesses": 4106, "read_misses": 4106,
            "write_accesses": 2, "write_misses": 2, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "itlb": (623, 1),
        "dtlb": (4188, 7),
    },
    ("rsb", "ooo"): {
        "cycles": 881367.0,
        "pmu": {
            "instructions": 74135, "alu_instructions": 41214,
            "mul_div_instructions": 4096, "load_instructions": 4096,
            "store_instructions": 32, "branch_instructions": 20583,
            "cond_branch_instructions": 12339, "branches_taken": 4098,
            "call_instructions": 18, "ret_instructions": 17,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4096, "mfence_instructions": 4112,
            "stack_instructions": 0, "memory_stall_cycles": 785088,
            "mispredict_penalty_cycles": 1162,
            "fence_stall_cycles": 32896, "spec_instructions": 615,
            "spec_loads": 32, "spec_cache_fills": 17,
            "squashed_instructions": 615, "cycles": 881367,
            "branch_mispredictions": 83,
            "cond_branch_mispredictions": 67,
            "return_mispredictions": 16, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 4195, "l1d_hits": 96, "l1d_misses": 4099,
            "l1d_read_accesses": 4145, "l1d_read_misses": 4097,
            "l1d_write_accesses": 50, "l1d_write_misses": 2,
            "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 17119, "l1i_hits": 17110, "l1i_misses": 9,
            "l2_accesses": 4108, "l2_hits": 0, "l2_misses": 4108,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 21314, "total_cache_hits": 17206,
            "total_cache_misses": 4108, "dtlb_accesses": 4195,
            "dtlb_hits": 4188, "dtlb_misses": 7, "itlb_accesses": 616,
            "itlb_hits": 615, "itlb_misses": 1,
        },
        "l1i": {
            "accesses": 17119, "hits": 17110, "misses": 9,
            "read_accesses": 17119, "read_misses": 9,
            "write_accesses": 0, "write_misses": 0, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "l1d": {
            "accesses": 4195, "hits": 96, "misses": 4099,
            "read_accesses": 4145, "read_misses": 4097,
            "write_accesses": 50, "write_misses": 2, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "l2": {
            "accesses": 4108, "hits": 0, "misses": 4108,
            "read_accesses": 4106, "read_misses": 4106,
            "write_accesses": 2, "write_misses": 2, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "itlb": (615, 1),
        "dtlb": (4188, 7),
    },
    ("sbo", "inorder"): {
        "cycles": 868011.25,
        "pmu": {
            "instructions": 75701, "alu_instructions": 42076,
            "mul_div_instructions": 4096, "load_instructions": 4208,
            "store_instructions": 112, "branch_instructions": 21095,
            "cond_branch_instructions": 12563, "branches_taken": 4123,
            "call_instructions": 114, "ret_instructions": 113,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4096, "mfence_instructions": 4112,
            "stack_instructions": 0, "memory_stall_cycles": 785856,
            "mispredict_penalty_cycles": 1582,
            "fence_stall_cycles": 32896, "spec_instructions": 1530,
            "spec_loads": 86, "spec_cache_fills": 17,
            "squashed_instructions": 1530, "cycles": 868011,
            "branch_mispredictions": 113,
            "cond_branch_mispredictions": 113,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 4703, "l1d_hits": 602, "l1d_misses": 4101,
            "l1d_read_accesses": 4407, "l1d_read_misses": 4098,
            "l1d_write_accesses": 296, "l1d_write_misses": 3,
            "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 22611, "l1i_hits": 22600, "l1i_misses": 11,
            "l2_accesses": 4112, "l2_hits": 0, "l2_misses": 4112,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 27314, "total_cache_hits": 23202,
            "total_cache_misses": 4112, "dtlb_accesses": 4703,
            "dtlb_hits": 4696, "dtlb_misses": 7, "itlb_accesses": 1531,
            "itlb_hits": 1530, "itlb_misses": 1,
        },
        "l1i": {
            "accesses": 22611, "hits": 22600, "misses": 11,
            "read_accesses": 22611, "read_misses": 11,
            "write_accesses": 0, "write_misses": 0, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "l1d": {
            "accesses": 4703, "hits": 602, "misses": 4101,
            "read_accesses": 4407, "read_misses": 4098,
            "write_accesses": 296, "write_misses": 3, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "l2": {
            "accesses": 4112, "hits": 0, "misses": 4112,
            "read_accesses": 4109, "read_misses": 4109,
            "write_accesses": 3, "write_misses": 3, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "itlb": (1530, 1),
        "dtlb": (4696, 7),
    },
    ("sbo", "ooo"): {
        "cycles": 883006.25,
        "pmu": {
            "instructions": 75687, "alu_instructions": 42062,
            "mul_div_instructions": 4096, "load_instructions": 4208,
            "store_instructions": 112, "branch_instructions": 21095,
            "cond_branch_instructions": 12563, "branches_taken": 4130,
            "call_instructions": 114, "ret_instructions": 113,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4096, "mfence_instructions": 4112,
            "stack_instructions": 0, "memory_stall_cycles": 785856,
            "mispredict_penalty_cycles": 1386,
            "fence_stall_cycles": 32896, "spec_instructions": 1091,
            "spec_loads": 68, "spec_cache_fills": 17,
            "squashed_instructions": 1091, "cycles": 883006,
            "branch_mispredictions": 99,
            "cond_branch_mispredictions": 99,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 4666, "l1d_hits": 565, "l1d_misses": 4101,
            "l1d_read_accesses": 4389, "l1d_read_misses": 4098,
            "l1d_write_accesses": 277, "l1d_write_misses": 3,
            "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 22172, "l1i_hits": 22161, "l1i_misses": 11,
            "l2_accesses": 4112, "l2_hits": 0, "l2_misses": 4112,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 26838, "total_cache_hits": 22726,
            "total_cache_misses": 4112, "dtlb_accesses": 4666,
            "dtlb_hits": 4659, "dtlb_misses": 7, "itlb_accesses": 1092,
            "itlb_hits": 1091, "itlb_misses": 1,
        },
        "l1i": {
            "accesses": 22172, "hits": 22161, "misses": 11,
            "read_accesses": 22172, "read_misses": 11,
            "write_accesses": 0, "write_misses": 0, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "l1d": {
            "accesses": 4666, "hits": 565, "misses": 4101,
            "read_accesses": 4389, "read_misses": 4098,
            "write_accesses": 277, "write_misses": 3, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "l2": {
            "accesses": 4112, "hits": 0, "misses": 4112,
            "read_accesses": 4109, "read_misses": 4109,
            "write_accesses": 3, "write_misses": 3, "evictions": 0,
            "writebacks": 0, "flushes": 4096,
        },
        "itlb": (1091, 1),
        "dtlb": (4659, 7),
    },
    ("v1", "inorder"): {
        "cycles": 872609.25,
        "pmu": {
            "instructions": 75861, "alu_instructions": 42108,
            "mul_div_instructions": 4192, "load_instructions": 4400,
            "store_instructions": 16, "branch_instructions": 21095,
            "cond_branch_instructions": 12563, "branches_taken": 4115,
            "call_instructions": 114, "ret_instructions": 113,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4112, "mfence_instructions": 4128,
            "stack_instructions": 0, "memory_stall_cycles": 790080,
            "mispredict_penalty_cycles": 1596,
            "fence_stall_cycles": 33024, "spec_instructions": 1604,
            "spec_loads": 193, "spec_cache_fills": 19,
            "squashed_instructions": 1604, "cycles": 872609,
            "branch_mispredictions": 114,
            "cond_branch_mispredictions": 114,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 4836, "l1d_hits": 712, "l1d_misses": 4124,
            "l1d_read_accesses": 4706, "l1d_read_misses": 4122,
            "l1d_write_accesses": 130, "l1d_write_misses": 2,
            "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 22715, "l1i_hits": 22704, "l1i_misses": 11,
            "l2_accesses": 4135, "l2_hits": 0, "l2_misses": 4135,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 27551, "total_cache_hits": 23416,
            "total_cache_misses": 4135, "dtlb_accesses": 4836,
            "dtlb_hits": 4829, "dtlb_misses": 7, "itlb_accesses": 1605,
            "itlb_hits": 1604, "itlb_misses": 1,
        },
        "l1i": {
            "accesses": 22715, "hits": 22704, "misses": 11,
            "read_accesses": 22715, "read_misses": 11,
            "write_accesses": 0, "write_misses": 0, "evictions": 0,
            "writebacks": 0, "flushes": 4112,
        },
        "l1d": {
            "accesses": 4836, "hits": 712, "misses": 4124,
            "read_accesses": 4706, "read_misses": 4122,
            "write_accesses": 130, "write_misses": 2, "evictions": 0,
            "writebacks": 0, "flushes": 4112,
        },
        "l2": {
            "accesses": 4135, "hits": 0, "misses": 4135,
            "read_accesses": 4133, "read_misses": 4133,
            "write_accesses": 2, "write_misses": 2, "evictions": 0,
            "writebacks": 0, "flushes": 4112,
        },
        "itlb": (1604, 1),
        "dtlb": (4829, 7),
    },
    ("v1", "ooo"): {
        "cycles": 886487.5,
        "pmu": {
            "instructions": 75831, "alu_instructions": 42078,
            "mul_div_instructions": 4192, "load_instructions": 4400,
            "store_instructions": 16, "branch_instructions": 21095,
            "cond_branch_instructions": 12563, "branches_taken": 4130,
            "call_instructions": 114, "ret_instructions": 113,
            "indirect_jump_instructions": 0, "syscall_instructions": 2,
            "clflush_instructions": 4112, "mfence_instructions": 4128,
            "stack_instructions": 0, "memory_stall_cycles": 790080,
            "mispredict_penalty_cycles": 1386,
            "fence_stall_cycles": 33024, "spec_instructions": 976,
            "spec_loads": 92, "spec_cache_fills": 17,
            "squashed_instructions": 976, "cycles": 886487,
            "branch_mispredictions": 99,
            "cond_branch_mispredictions": 99,
            "return_mispredictions": 0, "indirect_mispredictions": 0,
            "btb_hits": 0, "btb_misses": 0, "rsb_overflows": 0,
            "l1d_accesses": 4735, "l1d_hits": 613, "l1d_misses": 4122,
            "l1d_read_accesses": 4605, "l1d_read_misses": 4120,
            "l1d_write_accesses": 130, "l1d_write_misses": 2,
            "l1d_evictions": 0, "l1d_writebacks": 0,
            "l1i_accesses": 22087, "l1i_hits": 22076, "l1i_misses": 11,
            "l2_accesses": 4133, "l2_hits": 0, "l2_misses": 4133,
            "l2_evictions": 0, "l2_writebacks": 0,
            "total_cache_accesses": 26822, "total_cache_hits": 22689,
            "total_cache_misses": 4133, "dtlb_accesses": 4735,
            "dtlb_hits": 4728, "dtlb_misses": 7, "itlb_accesses": 977,
            "itlb_hits": 976, "itlb_misses": 1,
        },
        "l1i": {
            "accesses": 22087, "hits": 22076, "misses": 11,
            "read_accesses": 22087, "read_misses": 11,
            "write_accesses": 0, "write_misses": 0, "evictions": 0,
            "writebacks": 0, "flushes": 4112,
        },
        "l1d": {
            "accesses": 4735, "hits": 613, "misses": 4122,
            "read_accesses": 4605, "read_misses": 4120,
            "write_accesses": 130, "write_misses": 2, "evictions": 0,
            "writebacks": 0, "flushes": 4112,
        },
        "l2": {
            "accesses": 4133, "hits": 0, "misses": 4133,
            "read_accesses": 4131, "read_misses": 4131,
            "write_accesses": 2, "write_misses": 2, "evictions": 0,
            "writebacks": 0, "flushes": 4112,
        },
        "itlb": (976, 1),
        "dtlb": (4728, 7),
    },
}


@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_matches_golden(case):
    assert _observe(*case) == GOLDEN[case]
