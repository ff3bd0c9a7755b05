"""Golden determinism across executors, with the cell cache armed.

The tentpole's end-to-end acceptance: the same experiment produces the
same artefacts whether it runs serially, on the warm worker pool, or is
killed mid-sweep and resumed — under the default superblock engine
and with cell memoization on.  Reports and checkpoints must be byte-identical,
and ``repro compare`` between the cold ledger run and a warm (memoized,
parallel) ledger run must exit 0.
"""

import json

import pytest

from repro.cli import EXIT_OK, main
from repro.core.experiments import run_fig5
from repro.core.experiments.fig5 import fig5_meta, plan_fig5
from repro.exec import CellCache, ProcessPoolBackend, execute_plan, open_store

#: Same cross-wave shape the parity tests use: 6 cells, 3 waves.
FIG5_KNOBS = dict(
    seed=8, attempts=2, detector_names=("lr", "nn"), training_benign=40,
    training_attack=40, attempt_samples=12, attempt_benign=6,
)

FIG5_CLI = ["fig5", "--quick", "--seed", "8"]


def _run_dir(ledger):
    [run_dir] = [path for path in ledger.iterdir()
                 if (path / "manifest.json").is_file()]
    return run_dir


class TestColdVsWarmLedgerRuns:
    def test_compare_exits_zero_and_cache_hits(self, tmp_path, capsys):
        cold_ledger = tmp_path / "cold"
        warm_ledger = tmp_path / "warm"
        cold_ckpt = tmp_path / "ckpt-cold"
        warm_ckpt = tmp_path / "ckpt-warm"

        assert main(FIG5_CLI + ["--ledger", str(cold_ledger),
                                "--resume", str(cold_ckpt)]) == EXIT_OK
        cold_out = capsys.readouterr().out

        # Warm run: parallel, fed from the cold run's cell cache.
        assert main(FIG5_CLI + ["--jobs", "2",
                                "--ledger", str(warm_ledger),
                                "--cell-cache",
                                str(cold_ledger / "cellcache"),
                                "--resume", str(warm_ckpt)]) == EXIT_OK
        warm_out = capsys.readouterr().out

        # Same stdout artefact, same checkpoint bytes.
        assert warm_out == cold_out
        assert (warm_ckpt / "fig5.json").read_bytes() == \
            (cold_ckpt / "fig5.json").read_bytes()

        # The warm run really was served from the cache ...
        manifest = json.loads(
            (_run_dir(warm_ledger) / "manifest.json").read_text()
        )
        cache_stats = manifest["timing"]["cell_cache"]
        assert cache_stats["enabled"]
        lookups = cache_stats["hits"] + cache_stats["misses"]
        assert lookups > 0
        assert cache_stats["hits"] / lookups >= 0.9

        # ... and the ledger diff is clean: memoization and parallelism
        # are invisible to everything compare checks.
        assert main(["compare", str(_run_dir(cold_ledger)),
                     str(_run_dir(warm_ledger))]) == EXIT_OK


class TestKillResumeWithCacheAndPool:
    def test_resumed_warm_parallel_run_matches_reference(self, tmp_path):
        cache_root = tmp_path / "cellcache"

        # Reference: uninterrupted serial run, cold cache.
        reference_dir = tmp_path / "reference"
        reference_dir.mkdir()
        reference = run_fig5(checkpoint=reference_dir,
                             cell_cache=CellCache(cache_root),
                             **FIG5_KNOBS)

        # Run 1: warm pool, killed while the attempt wave runs.
        killed_dir = tmp_path / "killed"
        killed_dir.mkdir()
        plan = plan_fig5(**FIG5_KNOBS)
        for cell in plan:
            if cell.key.startswith("spectre/"):
                cell.fn = _interrupt
        store = open_store(killed_dir, "fig5", fig5_meta(
            FIG5_KNOBS["seed"], "basicmath", FIG5_KNOBS["attempts"],
            FIG5_KNOBS["detector_names"], FIG5_KNOBS["training_benign"],
            FIG5_KNOBS["training_attack"], FIG5_KNOBS["attempt_samples"],
            FIG5_KNOBS["attempt_benign"],
        ))
        with pytest.raises(KeyboardInterrupt):
            execute_plan(plan, store=store,
                         backend=ProcessPoolBackend(2),
                         cell_cache=CellCache(cache_root))

        # Run 2: resume on the pool with the (now hot) cache; the
        # surviving checkpoint shard and the memoized cells must fuse
        # into the byte-identical reference artefact.
        resumed_cache = CellCache(cache_root)
        resumed = run_fig5(checkpoint=killed_dir, jobs=2,
                           cell_cache=resumed_cache, **FIG5_KNOBS)
        assert resumed.format() == reference.format()
        assert (killed_dir / "fig5.json").read_bytes() == \
            (reference_dir / "fig5.json").read_bytes()
        assert resumed_cache.hits > 0


def _interrupt(**kwargs):
    raise KeyboardInterrupt


class TestDistGoldenDeterminism:
    """Serial ≡ dist, including under lease-expiry chaos, twice.

    The dist cluster runs in-process (a real ``DistServer`` on an
    asyncio thread, real ``run_worker`` loops over real sockets) with
    one deliberately sick worker whose heartbeats arrive far past the
    lease timeout: its leases expire while it computes, the work
    requeues onto the healthy worker, and its late results race the
    retries.  None of that may be visible in the manifest — and a
    second run with the same seed and the same chaos must produce the
    same bytes again.
    """

    def test_requeue_chaos_is_invisible_and_repeatable(self):
        import io
        import time as _time

        from repro.exec.dist import DistBackend
        from repro.obs.ledger import manifest_bytes
        from repro.exec.chaos import _fig5_manifest

        from tests.exec.test_dist import _Cluster

        knobs = {"host": "basicmath",
                 **{k: v for k, v in FIG5_KNOBS.items() if k != "seed"}}
        reference = manifest_bytes(_fig5_manifest(knobs, 8, backend=None))

        requeues = []
        for attempt in range(2):
            cluster = _Cluster(lease_timeout=0.3, attempt_budget=6)
            # The sick worker joins first and alone, so the opening
            # wave lands on it and its expiring leases have victims.
            cluster.start_worker("w-slow", chaos={
                "seed": 8, "heartbeat_delay_s": 2.0,
            })
            _time.sleep(0.25)
            cluster.start_worker("w-ok")
            backend = DistBackend(cluster.address, seed=8,
                                  stream=io.StringIO())
            try:
                chaotic = _fig5_manifest(knobs, 8, backend=backend)
            finally:
                backend.close()
                cluster.stop()
            requeues.append(cluster.server.stats["requeues"])
            assert manifest_bytes(chaotic) == reference
        # The chaos was real: leases actually expired and requeued.
        assert sum(requeues) >= 1, requeues


class TestOooGoldenDeterminism:
    """The out-of-order core's sweeps are as deterministic as the
    in-order core's: the same ``--uarch ooo`` fig5 run is byte-identical
    whether it executes serially, on the warm worker pool, or across a
    real dist cluster."""

    KNOBS = {"host": "basicmath", "uarch": "ooo",
             **{k: v for k, v in FIG5_KNOBS.items() if k != "seed"}}

    def test_serial_pool_dist_byte_identical(self):
        import io

        from repro.exec.chaos import _fig5_manifest
        from repro.exec.dist import DistBackend
        from repro.obs.ledger import manifest_bytes

        from tests.exec.test_dist import _Cluster

        reference = manifest_bytes(
            _fig5_manifest(self.KNOBS, 8, backend=None)
        )

        pooled = _fig5_manifest(self.KNOBS, 8,
                                backend=ProcessPoolBackend(2))
        assert manifest_bytes(pooled) == reference

        cluster = _Cluster()
        cluster.start_worker("w-1")
        cluster.start_worker("w-2")
        backend = DistBackend(cluster.address, seed=8,
                              stream=io.StringIO())
        try:
            dist = _fig5_manifest(self.KNOBS, 8, backend=backend)
        finally:
            backend.close()
            cluster.stop()
        assert manifest_bytes(dist) == reference

    def test_uarch_is_part_of_the_run_identity(self):
        """inorder and ooo runs of the same knobs land under different
        run_ids (and genuinely different headline numbers may follow)."""
        from repro.exec.chaos import _fig5_manifest

        inorder_knobs = dict(self.KNOBS, uarch="inorder")
        ooo = _fig5_manifest(self.KNOBS, 8, backend=None)
        inorder = _fig5_manifest(inorder_knobs, 8, backend=None)
        assert ooo["run_id"] != inorder["run_id"]
        assert ooo["config"]["uarch"] == "ooo"
        assert inorder["config"]["uarch"] == "inorder"
