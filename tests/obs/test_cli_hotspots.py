"""CLI tests for ``repro hotspots`` and ``repro bench``.

Suite *runs* are bench-scale and live in ``benchmarks/``; these tests
exercise the command surfaces — argument validation, output modes,
the ledger integration of ``--hotspots``, and the ``--trend``
regression verdict's exit code — against small workloads and
synthetic history rows.
"""

import json

from repro.cli import EXIT_GATE, EXIT_OK, EXIT_USAGE, main
from repro.obs.bench import append_history, build_row


class TestHotspotsCommand:
    def test_tables_mode(self, capsys):
        assert main(["hotspots", "--workload", "basicmath",
                     "--iterations", "40", "--top", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "hotspots:" in out
        assert "subsystem" in out
        assert "opcode" in out
        assert "basic block" in out

    def test_collapsed_mode(self, capsys):
        assert main(["hotspots", "--workload", "bitcount",
                     "--iterations", "40", "--collapsed",
                     "--by", "opcode"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            frame, count = line.rsplit(" ", 1)
            assert frame.startswith("bitcount;")
            assert int(count) > 0

    def test_json_mode(self, capsys):
        assert main(["hotspots", "--workload", "basicmath",
                     "--iterations", "40", "--json"]) == EXIT_OK
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["instructions"] > 0
        assert snapshot["subsystems"]

    def test_bad_filter_is_usage_error(self, capsys):
        assert main(["hotspots", "--filter", "bogus"]) == EXIT_USAGE
        assert "bogus" in capsys.readouterr().err

    def test_ooo_uarch(self, capsys):
        assert main(["hotspots", "--workload", "basicmath",
                     "--iterations", "40", "--uarch", "ooo"]) == EXIT_OK
        assert "hotspots:" in capsys.readouterr().out


class TestExperimentHotspotsFlag:
    def test_profiled_fig4_records_manifest_profile(self, tmp_path,
                                                    capsys):
        ledger = tmp_path / "runs"
        assert main(["fig4", "--quick", "--hotspots",
                     "--ledger", str(ledger)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "hotspots:" in captured.out
        manifest_path = next(ledger.glob("fig4-*/manifest.json"))
        manifest = json.loads(manifest_path.read_text())
        profile = manifest["profile"]
        assert profile["instructions"] > 0
        assert profile["subsystems"]["execute"]["cycles"] > 0
        assert "wall" not in profile            # volatile, stripped
        phases = manifest["timing"]["phases"]
        assert set(phases) == {"schedule", "cache_lookup", "compute",
                               "ipc", "merge"}


class TestBenchTrend:
    def _seed_history(self, path, instructions_per_s):
        # The core suite emits step/* and sb/* rows; the sb floors are
        # exact-keyed, so the synthetic row carries both (sb comfortably
        # over its absolute floor).
        row = build_row(
            "core", {"kernels": {"basicmath": 400}},
            {
                "step/basicmath.instructions_per_s": instructions_per_s,
                "sb/basicmath.instructions_per_s": 3 * instructions_per_s,
                "sb/sha.instructions_per_s": 3 * instructions_per_s,
            },
            quick=True,
        )
        append_history(path, row)

    def test_green_verdict(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        # Comfortably above the committed core floor (2x ~65.6k).
        self._seed_history(history, 1_000_000.0)
        assert main(["bench", "--trend",
                     "--history", str(history)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "core: 1 run(s)" in out
        assert "no regressions" in out

    def test_regression_exits_gate(self, tmp_path, capsys):
        history = tmp_path / "history.jsonl"
        self._seed_history(history, 1_000.0)
        assert main(["bench", "--trend",
                     "--history", str(history)]) == EXIT_GATE
        out = capsys.readouterr().out
        assert "regression:" in out
        assert "instructions_per_s" in out

    def test_empty_history_is_green(self, tmp_path, capsys):
        assert main(["bench", "--trend", "--history",
                     str(tmp_path / "none.jsonl")]) == EXIT_OK
        assert "empty" in capsys.readouterr().out
