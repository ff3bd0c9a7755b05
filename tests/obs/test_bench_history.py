"""The perf-trend ledger: history rows, sparklines, the verdict.

The suite drivers themselves are bench-scale (they run real kernels
and sweeps); what these tests pin down is the ledger around them —
row schema, append-only durability, trend rendering, and the
regression verdict's exact failure semantics.
"""

import pytest

from repro.obs.bench import (
    HISTORY_FORMAT,
    append_history,
    build_row,
    check_regression,
    read_history,
    regression_floors,
    render_trend,
    sparkline,
    validate_row,
)


def _row(bench="core", ts="2026-08-01T00:00:00Z", cpu=1, **metrics):
    return {
        "format": HISTORY_FORMAT, "ts": ts, "bench": bench,
        "quick": True, "git_sha": "cafe" * 10, "cpu_count": cpu,
        "knobs": {}, "metrics": metrics,
    }


class TestRows:
    def test_build_row_validates(self):
        row = build_row("core", {"k": 1}, {"m": 2.0}, quick=True)
        assert validate_row(row)
        assert row["format"] == HISTORY_FORMAT
        assert row["quick"] is True
        assert row["cpu_count"] >= 1

    def test_append_and_read(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, _row(m=1.0))
        append_history(path, _row(bench="obs", n=2.0))
        assert len(read_history(path)) == 2
        assert read_history(path, bench="obs")[0]["metrics"] == \
            {"n": 2.0}

    def test_malformed_row_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="malformed"):
            append_history(tmp_path / "h.jsonl", {"bench": "core"})

    def test_torn_and_foreign_lines_skipped(self, tmp_path):
        path = tmp_path / "history.jsonl"
        append_history(path, _row(m=1.0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"foreign": true}\n{"torn')
        assert len(read_history(path)) == 1

    def test_missing_file_reads_empty(self, tmp_path):
        assert read_history(tmp_path / "none.jsonl") == []


class TestTrend:
    def test_sparkline_ramp(self):
        assert sparkline([]) == ""
        assert sparkline([5, 5]) == "▁▁"
        ramp = sparkline([0, 1, 2, 3])
        assert ramp[0] == "▁"
        assert ramp[-1] == "█"

    def test_render_lists_metrics_and_flags_mixed_hosts(self):
        rows = [
            _row(m=1.0, cpu=1),
            _row(m=2.0, cpu=4, ts="2026-08-02T00:00:00Z"),
        ]
        out = render_trend(rows)
        assert "core: 2 run(s)" in out
        assert "  m " in out
        assert "mixed hosts" in out

    def test_render_empty_history(self):
        assert "empty" in render_trend([])


class TestRegressionVerdict:
    FLOORS = {("core", "instructions_per_s"): 500.0}

    def test_green_when_above_floor(self):
        rows = [_row(**{"basicmath.instructions_per_s": 1000.0})]
        assert check_regression(rows, floors=self.FLOORS) == []

    def test_names_first_regressed_metric(self):
        rows = [_row(**{"basicmath.instructions_per_s": 100.0})]
        failures = check_regression(rows, floors=self.FLOORS)
        assert len(failures) == 1
        assert "instructions_per_s" in failures[0]
        assert "regressed" in failures[0]

    def test_only_latest_row_judged(self):
        rows = [
            _row(**{"basicmath.instructions_per_s": 100.0}),
            _row(ts="2026-08-02T00:00:00Z",
                 **{"basicmath.instructions_per_s": 1000.0}),
        ]
        assert check_regression(rows, floors=self.FLOORS) == []

    def test_worst_kernel_is_the_one_floored(self):
        rows = [_row(**{"basicmath.instructions_per_s": 1000.0,
                        "sha.instructions_per_s": 100.0})]
        failures = check_regression(rows, floors=self.FLOORS)
        assert len(failures) == 1  # min() across kernels is judged

    def test_missing_floored_metric_fails(self):
        rows = [_row(**{"unrelated.wall_s": 1.0})]
        failures = check_regression(rows, floors=self.FLOORS)
        assert failures
        assert "missing" in failures[0]

    def test_no_history_for_floored_bench_is_green(self):
        rows = [_row(bench="obs", **{"inorder.off_s": 1.0})]
        assert check_regression(rows, floors=self.FLOORS) == []

    def test_committed_floors_cover_core_and_exempt_obs(self):
        floors = regression_floors()
        assert ("core", "instructions_per_s") in floors
        assert all(bench != "obs" for bench, _ in floors)

    def test_committed_floors_include_superblock_bars(self):
        # The sb/* floors are exact-keyed per kernel (never the bare
        # suffix fallback) and keep their committed absolute values.
        floors = regression_floors()
        assert floors[("core", "sb/basicmath.instructions_per_s")] \
            == 1_087_714
        assert floors[("core", "sb/sha.instructions_per_s")] == 1_536_052
