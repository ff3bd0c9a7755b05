"""Experiment-run benchmark for the CR-Spectre reproduction.

Usage::

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all      # every workload in turn

Every measured run is one fresh ``python -m repro <experiment> --quick``
process (launched through ``child.py``) with its own temporary ledger
root, which is what a user of the reproduction pays for one experiment.
A run opens with one traced set-up run that is not timed: it fills the
cell cache for the warm workload, gives the manifest digest every later
run must reproduce, and counts the simulated instructions.  Untraced
runs then repeat until ``--seconds`` is spent.

``--trace 0`` reports the end-to-end metrics, medians over the untraced
runs: ``setup_s`` from launch to CLI entry (interpreter start and
imports), ``wall_s`` from CLI entry to process exit, ``cpu_s`` and
``peak_rss_mb`` from the child's ``wait4`` usage (which includes the
pool workers it reaped), and ``sim_minstr_per_s``, the set-up run's
simulated instructions over ``wall_s`` (on the warm workload the
instructions its cached cells stand for).  ``--trace 1`` alternates
untraced and traced runs and reports the per-layer metrics from the
traced ones (see :mod:`spans`), plus the tracing overhead against the
untraced median.

Every run passes the output check or counts as failed: exit code 0,
every cell ``ok``, headlines inside ``expectations.json``'s ``quick``
band for the workload's microarchitecture, the non-volatile manifest
bytes identical to the set-up run's, and the cell cache missed on every
cell (cold workloads) or hit on every cell (warm workload).  The last
line of standard output is one JSON object; the exit code is 1 when any
run failed the check.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTATIONS = os.path.join(ROOT, "expectations.json")
#: Metric names and units, workloads and their reasons.
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
#: Temporary ledgers, reports and span files; removed after each run.
WORK_ROOT = os.path.join(ROOT, ".perfbench")

#: name -> (experiment, uarch, extra CLI args, warm cell cache).  Why
#: each exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "fig5-inorder": ("fig5", "inorder", (), False),
    "table1-ooo": ("table1", "ooo", (), False),
    "fig6-inorder-pool2": ("fig6", "inorder", ("--jobs", "2"), False),
    "fig5-inorder-warm": ("fig5", "inorder", (), True),
}

#: The repro engine every run must use; REPRO_ENGINE is removed from
#: the child environment so a stray setting cannot change it unseen.
ENGINE = "sb"

#: A child running longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150.0

#: Untraced runs per ``--trace 0`` run, at least, whatever --seconds says.
MIN_RUNS = 3

#: Simulated statistics: a simulator-speed change must leave them
#: identical, so every traced run of one seed must agree on them.
SIM_COUNTS = ("cpu.instructions", "cpu.cycles", "uarch.instructions",
              "uarch.cycles", "cache.l1d_misses", "cache.l1d_accesses",
              "branch.branch_mispredictions")


def _median(values):
    return statistics.median(values) if values else 0.0


def _child_env(spans_dir):
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    if spans_dir is not None:
        env[spans.SPANS_DIR_ENV] = spans_dir
    return env


class Runner:
    """Launches and checks the repro processes of one benchmark run."""

    def __init__(self, workload, seed, workdir):
        self.name = workload
        self.experiment, self.uarch, self.extra, self.warm = \
            WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.count = 0
        self.reference = None
        self.reference_cells = 1
        self.warm_ledger = os.path.join(workdir, "warm-ledger")
        from repro.obs.gate import bands_for, load_expectations

        self.bands = bands_for(load_expectations(EXPECTATIONS),
                               self.experiment, "quick", self.uarch)

    def launch(self, traced, ledger=None):
        """Run one child process; returns its measurements and checks."""
        self.count += 1
        tag = os.path.join(self.workdir, f"run-{self.count}")
        os.makedirs(tag)
        ledger = ledger or os.path.join(tag, "ledger")
        spans_dir = os.path.join(tag, "spans") if traced else None
        if spans_dir:
            os.makedirs(spans_dir)
        report_path = os.path.join(tag, "report.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), report_path,
               "1" if traced else "0", self.experiment, "--quick",
               "--uarch", self.uarch, *self.extra, "--seed", str(self.seed),
               "--ledger", ledger]
        with open(os.path.join(tag, "stdout"), "wb") as out, \
                open(os.path.join(tag, "stderr"), "wb") as err:
            launched = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(spans_dir),
                                    stdout=out, stderr=err,
                                    start_new_session=True)
            timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                    (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                # wait4: the usage of the child *and* every descendant
                # it reaped, i.e. the pool workers.
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            ended = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        run = {"traced": traced, "code": proc.returncode,
               "duration_s": ended - launched,
               "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0}
        try:
            with open(report_path, encoding="utf-8") as handle:
                report = json.load(handle)
        except (OSError, ValueError):
            report = None
        if report is not None:
            run["setup_s"] = report["entered"] - launched
            run["wall_s"] = ended - report["entered"]
            run["engine"] = report["engine"]
            run["numpy"] = report["numpy"]
        manifests = glob.glob(os.path.join(ledger, "*", "manifest.json"))
        run["manifest"] = None
        if len(manifests) == 1:
            with open(manifests[0], encoding="utf-8") as handle:
                run["manifest"] = json.load(handle)
        if traced:
            run["spans"] = []
            for path in sorted(glob.glob(os.path.join(spans_dir, "*.json"))):
                with open(path, encoding="utf-8") as handle:
                    run["spans"].append(json.load(handle))
        run["problems"] = self.check(run, report, tag)
        shutil.rmtree(tag, ignore_errors=True)
        return run

    def check(self, run, report, tag):
        """The output check; returns the list of problems found."""
        from repro.obs.gate import check_headlines, gate_passed
        from repro.obs.ledger import manifest_bytes

        problems = []
        if run["code"] != 0:
            problems.append(f"exit code {run['code']}")
        if report is None:
            problems.append("no run report")
        elif report["engine"] != ENGINE:
            problems.append(f"engine {report['engine']!r}, not {ENGINE!r}")
        manifest = run["manifest"]
        if manifest is None:
            problems.append("no single manifest in the ledger")
        else:
            bad = [cell["key"] for cell in manifest["cells"]
                   if cell["status"] != "ok"]
            if bad or manifest["partial"] or not manifest["cells"]:
                problems.append(f"partial run: cells not ok {bad} of "
                                f"{len(manifest['cells'])}")
            checks = check_headlines(manifest["headlines"], self.bands)
            if not gate_passed(checks):
                problems.append("headlines outside the quick band: "
                                + "; ".join(c.get("reason", "")
                                            for c in checks if not c["ok"]))
            digest = hashlib.sha256(manifest_bytes(manifest)).hexdigest()
            if self.reference is None:
                self.reference = digest
                self.reference_cells = len(manifest["cells"])
            elif digest != self.reference:
                problems.append("manifest bytes differ from the set-up run")
            cache = manifest["timing"]["cell_cache"]
            warm_run = self.warm and self.count > 1
            if warm_run and cache.get("misses") != 0:
                problems.append(f"warm run missed the cell cache: {cache}")
            if not warm_run and cache.get("hits") != 0:
                problems.append(f"cold run hit the cell cache: {cache}")
        if problems:
            try:
                with open(os.path.join(tag, "stderr"), "rb") as handle:
                    tail = handle.read()[-2000:].decode("utf-8", "replace")
            except OSError:
                tail = ""
            print(f"perfbench: {self.name} run {self.count} failed: "
                  f"{problems}\n{tail}", file=sys.stderr)
        return problems

    def cells(self, run):
        manifest = run["manifest"]
        return len(manifest["cells"]) if manifest else self.reference_cells


def layer_metrics(run):
    """Per-layer numbers from one traced run's spans and manifest."""
    calls, busy, self_s, keys = {}, {}, {}, {}
    counts = dict.fromkeys(SIM_COUNTS, 0)
    root_s = 0.0
    for records in run["spans"]:
        child_s = [0.0] * len(records)
        for name, start, end, parent, _key, _delta in records:
            if parent >= 0:
                child_s[parent] += end - start
        for index, (name, start, end, parent, key, delta) in \
                enumerate(records):
            calls[name] = calls.get(name, 0) + 1
            keys.setdefault(name, set()).add(key)
            ancestor = parent
            while ancestor >= 0 and records[ancestor][0] != name:
                ancestor = records[ancestor][3]
            if ancestor >= 0:
                continue  # nested in a span of its own name
            busy[name] = busy.get(name, 0.0) + end - start
            self_s[name] = (self_s.get(name, 0.0) + end - start
                            - child_s[index])
            if parent < 0:
                root_s += end - start
            if delta is not None:
                layer = "cpu" if name == "cpu.run" else "uarch"
                for field, value in zip(spans.CORE_FIELDS, delta):
                    if field in ("instructions", "cycles"):
                        field = f"{layer}.{field}"
                    counts[field] += value

    manifest = run["manifest"]
    timing = manifest["timing"]
    cells = sorted(timing.get("cells", {}).values())
    deciles = (statistics.quantiles(cells, n=10, method="inclusive")
               if len(cells) > 1 else cells * 9 or [0.0] * 9)
    out = dict(counts)
    for name, count in calls.items():
        out[f"{name}.calls"] = count
        out[f"{name}.busy_s"] = busy[name]
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.unique_ratio"] = len(keys[name]) / count
    for phase, seconds in timing.get("phases", {}).items():
        out[f"exec.{phase}_s"] = seconds
    out["exec.cell.p50_s"], out["exec.cell.p90_s"] = deciles[4], deciles[8]
    out["exec.cellcache.hits"] = timing["cell_cache"].get("hits", 0)
    out["exec.cellcache.misses"] = timing["cell_cache"].get("misses", 0)
    out["exec.cellcache.lookup_s"] = out.get("exec.cellcache.lookup.busy_s", 0)
    out["exec.cellcache.store_s"] = out.get("exec.cellcache.store.busy_s", 0)
    out["obs.ledger.write_s"] = out.get("obs.ledger.write.busy_s", 0)
    out["trace.coverage_ratio"] = root_s / run["wall_s"]
    return out


def measure(workload, seed, seconds, traced_mode):
    """One benchmark run of *workload*; returns the result dict.

    The result's metrics are BENCHMARK.json's ``per_layer`` list when
    *traced_mode* is set, its ``end_to_end`` list otherwise.
    """
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        with open(BENCHMARK, encoding="utf-8") as handle:
            units = {metric["name"]: metric["unit"] for metric in
                     json.load(handle)["per_layer" if traced_mode
                                       else "end_to_end"]}
        return _measure(Runner(workload, seed, workdir), seconds,
                        traced_mode, units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another benchmark run is still using it


def _measure(runner, seconds, traced_mode, units):
    # Set-up, untimed: the reference digest, the simulated instruction
    # count and (warm workload) a full cell cache.
    ledger = runner.warm_ledger if runner.warm else None
    setup = runner.launch(traced=True, ledger=ledger)
    runs = [setup]
    started = time.perf_counter()
    while True:
        traced = bool(traced_mode) and len(runs) % 2 == 0
        same_kind = [r["duration_s"] for r in runs[1:]
                     if r["traced"] == traced] or [setup["duration_s"]]
        # Trace mode: at least one untraced and one traced run.
        enough = len(runs) > (2 if traced_mode else MIN_RUNS)
        if enough and (time.perf_counter() - started
                       + _median(same_kind)) > seconds:
            break
        runs.append(runner.launch(traced=traced, ledger=ledger))

    failed_runs = [r for r in runs if r["problems"]]
    attempted = sum(runner.cells(r) for r in runs)
    failed = sum(runner.cells(r) for r in failed_runs)
    good = [r for r in runs[1:] if not r["problems"]]
    plain = [r for r in good if not r["traced"]]
    traced_runs = [r for r in good if r["traced"]]
    correct = not failed_runs and bool(plain)

    simulated = layer_metrics(setup) if not setup["problems"] else {}
    layers = [layer_metrics(r) for r in traced_runs]
    # Simulated statistics repeat exactly between runs of one seed; a
    # warm run serves every cell from the cache and simulates nothing.
    reference = dict.fromkeys(SIM_COUNTS, 0) if runner.warm else simulated
    for layer in layers:
        if any(layer[name] != reference.get(name) for name in SIM_COUNTS):
            correct = False
            print(f"perfbench: {runner.name}: simulated counts differ "
                  "between traced runs", file=sys.stderr)

    walls = [r["wall_s"] for r in plain]
    wall_s = _median(walls)
    instructions = (simulated.get("cpu.instructions", 0)
                    + simulated.get("uarch.instructions", 0))
    info = {
        "workload": runner.name, "seed": runner.seed,
        "runs": len(plain), "traced_runs": len(traced_runs),
        "wall_s_quartiles": (statistics.quantiles(walls, n=4)
                             if len(walls) > 1 else walls),
        "simulated_instructions": instructions,
        "engine": setup.get("engine"), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": setup.get("numpy"),
    }
    if traced_mode:
        metrics = {name: _median([layer.get(name, 0) for layer in layers])
                   for name in units}
        traced_wall = _median([r["wall_s"] for r in traced_runs])
        metrics["trace.overhead_ratio"] = (traced_wall / wall_s
                                           if wall_s else 0.0)
    else:
        metrics = {
            "wall_s": wall_s,
            "setup_s": _median([r["setup_s"] for r in plain]),
            "cpu_s": _median([r["cpu_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
            "sim_minstr_per_s": (instructions / 1e6 / wall_s
                                 if wall_s else 0.0),
            "output_ok_ratio": (len(runs) - len(failed_runs)) / len(runs),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "info": info,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def _print_table(result):
    info = result["info"]
    print(f"perfbench-env {json.dumps(info, sort_keys=True)}")
    for name, metric in result["metrics"].items():
        print(f"  {info['workload']:<20} {name:<30} "
              f"{metric['value']:>14.6g} {metric['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C: the running child group is killed
    # and reaped, and the temporary directories are removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for required in (os.path.join(SRC, "repro", "cli.py"), EXPECTATIONS,
                     BENCHMARK):
        if not os.path.isfile(required):
            print(f"perfbench: missing {os.path.relpath(required, ROOT)}; "
                  "run from a checkout of the repository", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, args.seed, args.seconds, args.trace)
        _print_table(results[name])
    # With --workload all, metric names are prefixed "<workload>/".
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{name}/{metric}" if len(names) > 1 else metric): value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
