"""In-memory span recorder wrapped around each layer's public entry point.

Installed only in traced benchmark runs: :func:`install` replaces the
entry points listed in :data:`LAYERS` with wrappers that record
``(name, start, end, parent)`` spans, plus simulated-counter deltas
around each core ``run`` and a content key for the calls whose
``unique_ratio`` the benchmark reports.  Spans stay in memory and are
written to one JSON file per process when the process ends, so the
recorder costs two ``perf_counter`` reads and a list append per call.

Spawned pool workers install the same wrappers through
:func:`worker_preload`, which replaces the pool's initializer, so a
``--jobs 2`` run reports every layer from every process.
"""

import atexit
import functools
import hashlib
import json
import os
import sys
import time

#: Directory the per-process span files go to (set by the benchmark).
SPANS_DIR_ENV = "PERFBENCH_SPANS_DIR"

#: (span name, module, attribute path).  Module-level functions are
#: also replaced in every ``repro`` module that imported them by name.
LAYERS = (
    ("isa.assemble", "repro.kernel.loader", "assemble"),
    ("cpu.run", "repro.cpu.cpu", "Cpu.run"),
    ("cpu.sb.translate", "repro.cpu.superblock", "SuperblockEngine.translate"),
    ("uarch.ooo.run", "repro.uarch.ooo", "OooCore.run"),
    ("kernel.execve", "repro.kernel.system", "System.do_execve"),
    ("hid.fit", "repro.hid.detector", "HidDetector.fit"),
    ("hid.observe", "repro.hid.detector", "OnlineHidDetector.observe"),
    ("hid.predict", "repro.hid.detector", "HidDetector.predict"),
    ("hid.profile", "repro.hid.profiler", "Profiler.profile"),
    ("attack.search", "repro.core.experiments.common",
     "search_evading_params"),
    ("exec.cellcache.lookup", "repro.exec.cellcache", "CellCache.lookup"),
    ("exec.cellcache.store", "repro.exec.cellcache", "CellCache.store"),
    ("obs.ledger.write", "repro.obs.ledger", "write_manifest"),
)

#: Span names whose calls also read simulated-counter deltas.
CORE_RUNS = ("cpu.run", "uarch.ooo.run")

_spans = []
_stack = []


def _digest(*parts):
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part if isinstance(part, bytes) else
                      repr(part).encode("utf-8"))
    return hasher.hexdigest()[:16]


def _content_key(name, args):
    """What makes two calls interchangeable, for ``unique_ratio``."""
    if name == "isa.assemble":
        return _digest(args[0])
    if name == "hid.fit":
        detector, dataset = args[0], args[1]
        return _digest(dataset.X.tobytes(), dataset.y.tobytes(),
                       dataset.feature_names, detector.name,
                       detector.features, detector.seed)
    return None


#: What :func:`_core_counters` reads, in order.
CORE_FIELDS = ("instructions", "cycles", "cache.l1d_misses",
               "cache.l1d_accesses", "branch.branch_mispredictions")


def _core_counters(core):
    """The simulated counts the benchmark checks repeat exactly."""
    l1d = core.caches.l1d.stats
    return (core.pmu.counters["instructions"], int(core.cycles),
            l1d.misses, l1d.accesses, core.predictor.total_mispredictions)


def _wrap(name, fn):
    core = name in CORE_RUNS

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent = _stack[-1] if _stack else -1
        index = len(_spans)
        span = [name, 0.0, 0.0, parent, _content_key(name, args), None]
        _spans.append(span)
        _stack.append(index)
        before = _core_counters(args[0]) if core else None
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            _stack.pop()
            if core:
                after = _core_counters(args[0])
                span[5] = [b - a for a, b in zip(before, after)]

    return wrapper


def install():
    """Wrap every entry point in :data:`LAYERS` in this process."""
    import importlib

    importlib.import_module("repro.core.experiments")
    importlib.import_module("repro.cli")
    for name, module_name, path in LAYERS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, attr)
        wrapper = _wrap(name, original)
        setattr(owner, attr, wrapper)
        if owner is module:
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") \
                        and getattr(other, attr, None) is original:
                    setattr(other, attr, wrapper)
    # shared_pool() reads the initializer by name when it creates the
    # pool, so every spawned worker runs worker_preload first.
    import repro.exec.pool as pool

    pool._preload = worker_preload
    atexit.register(dump)


def worker_preload():
    """Pool initializer for traced runs: wrap, then run the real one."""
    import repro.exec.pool as pool

    original = pool._preload
    install()
    original()


def dump():
    """Write this process's spans to the benchmark's spans directory."""
    path = os.path.join(os.environ[SPANS_DIR_ENV],
                        f"spans-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_spans, handle)
