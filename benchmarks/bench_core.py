"""Benchmark the simulation core: single-core interpreter throughput.

Times ``Cpu.run`` on two MiBench kernels (basicmath: ALU/branch heavy;
sha: load/store heavy) under both engines — ``step`` (every
instruction through ``Cpu.step``) and ``sb`` (hot code as compiled
superblocks, the rest through step()) — and records instructions/second
and cache accesses/second to ``BENCH_core.json`` at the repo root.
``sb_vs_step`` is the translator's speedup over step(), both measured
in this process, so host speed cancels out of the ratio.

Two regression gates:

* every in-order row must stay at least :data:`MIN_SPEEDUP` above the
  seed interpreter's committed throughput (``pre_change``), and
* the superblock rows (``sb/*``) must hold the absolute
  :data:`SB_FLOOR` instructions/s.

``identical_output`` is not taken on faith: this bench re-runs a
reduced kernel through the superblock engine and a bare step() loop
and diffs the full architectural state (all 56 PMU events, registers,
exit code) before publishing any number.  The sb verification pass
doubles as the translator warm-up: the source→code cache is hot when
measurement starts, so the ``sb/*`` rows report steady-state
throughput rather than first-compile cost.

The host has one CPU and real scheduler noise, so every gated row is
the best of :data:`REPEATS` fresh runs — min-of-N is the standard
estimator for "what the code can do" under interference.
"""

import time

import pytest

from benchmarks.conftest import publish
from benchmarks.schema import write_bench_json
from repro.cpu import engine_override
from repro.kernel import System
from repro.workloads import get_workload

#: The seed interpreter's throughput on the reference 1-core host (see
#: docs/PARALLELISM.md).
PRE_CHANGE = {
    "instructions_per_s": 65_593,
    "cache_accesses_per_s": 172_555,
}

#: The regression bar: every in-order row must hold at least this
#: multiple of the pre-change throughput.
MIN_SPEEDUP = 2.0

#: Absolute sb/* floors, instructions/s: twice the interpreter rows
#: committed on the reference host just before the superblock engine
#: landed (543,857 and 768,026).  Fixed numbers, not a same-run ratio,
#: so a globally slow host cannot flatter them.
SB_FLOOR = {
    "basicmath": 1_087_714,
    "sha": 1_536_052,
}

#: The engines measured, each as ``<engine>/<kernel>`` rows.
ENGINES = ("step", "sb")

#: Best-of-N runs per gated row (1-core host, noisy neighbours; the
#: observed spread between a quiet and a contended run exceeds 30%,
#: so the estimator needs several draws to land near the true cost).
REPEATS = 5

KERNELS = (("basicmath", 2000), ("sha", 60))

#: Reduced iteration counts for the engine-vs-step equivalence diff
#: (step() is the slow reference; the diff only needs coverage).
VERIFY_KERNELS = (("basicmath", 20), ("sha", 2))

#: The out-of-order core's interpreter carries Tomasulo bookkeeping per
#: instruction, so it is measured at reduced counts and reported for
#: visibility only — the throughput gates stay on the in-order core.
OOO_KERNELS = (("basicmath", 500), ("sha", 15))


def _spawn(name, iterations, uarch="inorder"):
    system = System(seed=7, uarch=uarch)
    workload = get_workload(name)
    system.install_binary("/bin/bench", workload.build(iterations=iterations))
    return system, system.spawn("/bin/bench")


def _measure(name, iterations, uarch="inorder", engine="sb",
             repeats=REPEATS):
    best = None
    with engine_override(engine):
        for _ in range(repeats):
            system, process = _spawn(name, iterations, uarch=uarch)
            started = time.perf_counter()
            system.run()
            elapsed = time.perf_counter() - started
            if best is None or elapsed < best[0]:
                best = (elapsed, process.cpu.pmu.read())
    elapsed, counters = best
    return {
        "wall_s": round(elapsed, 3),
        "instructions": counters["instructions"],
        "instructions_per_s": round(counters["instructions"] / elapsed),
        "cache_accesses_per_s": round(
            counters["total_cache_accesses"] / elapsed
        ),
    }


def _snapshot(process):
    cpu = process.cpu
    return {
        "regs": list(cpu.state.regs),
        "pc": cpu.state.pc,
        "exit_code": cpu.state.exit_code,
        "cycles": cpu.cycles,
        "events": cpu.pmu.read(),
        "stdout": bytes(process.stdout),
    }


def _identical_output():
    for name, iterations in VERIFY_KERNELS:
        _, reference = _spawn(name, iterations)
        while not reference.cpu.state.halted:
            reference.cpu.step()
        expected = _snapshot(reference)
        with engine_override("sb"):
            system, run = _spawn(name, iterations)
            system.run()
        if _snapshot(run) != expected:
            return False
    return True


@pytest.fixture(scope="module")
def core_runs():
    assert _identical_output(), "the sb engine diverged from step()"
    runs = {
        f"{engine}/{name}": _measure(name, iterations, engine=engine)
        for engine in ENGINES
        for name, iterations in KERNELS
    }
    runs.update({
        f"ooo/{name}": _measure(name, iterations, uarch="ooo",
                                engine="sb", repeats=1)
        for name, iterations in OOO_KERNELS
    })
    return runs


def test_core_throughput_baseline(benchmark, core_runs):
    runs = benchmark.pedantic(lambda: core_runs, rounds=1, iterations=1)

    sb_vs_step = {
        name: round(
            runs[f"sb/{name}"]["instructions_per_s"]
            / runs[f"step/{name}"]["instructions_per_s"], 2
        )
        for name, _ in KERNELS
    }
    ooo_vs_inorder = {
        name: round(
            runs[f"ooo/{name}"]["instructions_per_s"]
            / runs[f"sb/{name}"]["instructions_per_s"], 2
        )
        for name, _ in OOO_KERNELS
    }
    write_bench_json(
        "core",
        knobs={**{f"{engine}/{name}": iterations
                  for engine in ENGINES
                  for name, iterations in KERNELS},
               **{f"ooo/{name}": iterations
                  for name, iterations in OOO_KERNELS}},
        runs=runs,
        pre_change=PRE_CHANGE,
        sb_floor=SB_FLOOR,
        sb_vs_step=sb_vs_step,
        ooo_vs_inorder_instr_per_s=ooo_vs_inorder,
        identical_output=True,  # asserted in the core_runs fixture
    )

    lines = ["core baseline — run() under each engine"]
    for name, run in runs.items():
        engine, kernel = name.split("/", 1)
        if engine == "sb":
            note = f"({sb_vs_step[kernel]:.2f}x of step)"
        elif engine == "ooo":
            note = f"({ooo_vs_inorder[kernel]:.2f}x of sb)"
        else:
            note = ""
        lines.append(
            f"  {name:14s}: {run['instructions_per_s']:>9,} instr/s, "
            f"{run['cache_accesses_per_s']:>9,} cache acc/s {note}"
        )
    publish("core", "\n".join(lines))

    for name, run in runs.items():
        benchmark.extra_info[f"{name}_instructions_per_s"] = \
            run["instructions_per_s"]

    # Regression gates.  No in-order row may decay back toward the
    # seed interpreter, and the superblock engine must hold its
    # absolute floor — both bars sit below the measured rows so host
    # jitter cannot flake them, while still catching any real
    # regression.  The ooo/* runs are reported but not gated — the
    # Tomasulo interpreter is a different machine.
    for engine in ENGINES:
        for name, _ in KERNELS:
            assert runs[f"{engine}/{name}"]["instructions_per_s"] >= \
                MIN_SPEEDUP * PRE_CHANGE["instructions_per_s"], \
                f"{engine}/{name}"
    for name, floor in SB_FLOOR.items():
        assert runs[f"sb/{name}"]["instructions_per_s"] >= floor, \
            f"sb/{name}"
