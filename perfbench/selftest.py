"""Self-test of the benchmark: ``python3 perfbench/selftest.py``.

First feeds the output check doctored manifests, each breaking one rule,
and requires every one to be refused.  Then runs one short traced pass
of every workload at seed 1 (not the default seed) and requires: the
output check passes, the cell cache missed on every cell of the cold
workloads and hit on every cell of the warm one, the simulated counts
of the traced runs repeat exactly (``run.measure`` compares them
against the set-up run, and against zero on the warm workload), and
every per-layer metric is non-zero on at least one workload.
Exits 1 on the first failure.
"""

import contextlib
import copy
import io
import os
import sys

import run

SEED = 1


def _check_refuses_bad_output():
    # check() only reads the run directory to quote a failing child's
    # stderr, so a directory that does not exist will do.
    workdir = os.path.join(run.WORK_ROOT, "no-such-run")
    runner = run.Runner("fig5-inorder", SEED, workdir)
    headlines = {name: band.get("min", band.get("max"))
                 for name, band in runner.bands.items()}
    good = {"code": 0, "manifest": {
        "cells": [{"key": "training", "status": "ok"}], "partial": False,
        "headlines": headlines,
        "timing": {"cell_cache": {"hits": 0, "misses": 1}}}}
    report = {"engine": run.ENGINE}
    assert runner.check(copy.deepcopy(good), report, workdir) == []

    def refused(edit, report=report):
        bad = copy.deepcopy(good)
        edit(bad)
        with contextlib.redirect_stderr(io.StringIO()):
            return runner.check(bad, report, workdir) != []

    assert refused(lambda r: r.update(code=4)), "exit code"
    assert refused(lambda r: r.update(manifest=None)), "missing manifest"
    assert refused(lambda r: r["manifest"]["cells"][0].update(
        status="err")), "failed cell"
    assert refused(lambda r: r["manifest"].update(partial=True)), "partial"
    assert refused(lambda r: r["manifest"].update(headlines={})), "bands"
    assert refused(lambda r: r["manifest"]["timing"]["cell_cache"].update(
        hits=1)), "cache hit on a cold run"
    assert refused(lambda r: r["manifest"]["cells"].append(
        {"key": "extra", "status": "ok"})), "manifest digest"
    assert refused(lambda r: None, report={"engine": "step"}), "engine"
    assert refused(lambda r: None, report=None), "missing run report"


def main():
    sys.path.insert(0, run.SRC)
    _check_refuses_bad_output()
    print("output check refuses every doctored manifest")
    reported = set()
    for name, (_, _, _, warm) in run.WORKLOADS.items():
        result = run.measure(name, SEED, 0, 1)
        metrics = {key: value["value"]
                   for key, value in result["metrics"].items()}
        assert result["correct"] and result["failed"] == 0, name
        hits = metrics["exec.cellcache.hits"]
        misses = metrics["exec.cellcache.misses"]
        if warm:
            assert misses == 0 and hits > 0, (name, hits, misses)
        else:
            assert hits == 0 and misses > 0, (name, hits, misses)
            simulated = (metrics["cpu.instructions"]
                         + metrics["uarch.instructions"])
            assert simulated > 0, name
        reported.update(key for key, value in metrics.items() if value)
        print(f"{name}: ok ({result['attempted']} cells, "
              f"{hits} cache hits, {misses} misses)")
    # A per-layer name that no workload measures is a typo or a span
    # that no longer fires.
    never = set(metrics) - reported
    assert not never, f"per-layer metrics never measured: {sorted(never)}"
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
