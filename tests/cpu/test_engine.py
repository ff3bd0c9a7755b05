"""Engine selection: two engines, and unknown names fail loudly."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.cpu import ENGINE_MODES, engine_mode, set_engine_mode
from repro.cpu.engine import DEFAULT_ENGINE

_SRC = str(pathlib.Path(repro.__file__).resolve().parent.parent)


def _python(*args, engine=None):
    """A fresh interpreter with ``REPRO_ENGINE`` set to *engine* (or unset)."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("REPRO_ENGINE", None)
    if engine is not None:
        env["REPRO_ENGINE"] = engine
    return subprocess.run(
        [sys.executable, *args], env=env,
        capture_output=True, text=True, timeout=120,
    )


class TestEngineModes:
    def test_step_and_sb_only_sb_default(self):
        assert ENGINE_MODES == ("step", "sb")
        assert DEFAULT_ENGINE == "sb"
        result = _python("-c", "from repro.cpu import engine_mode; "
                               "print(engine_mode())")
        assert result.stdout.strip() == "sb"

    def test_set_engine_mode_rejects_unknown(self):
        previous = engine_mode()
        with pytest.raises(ValueError, match="choose from step, sb"):
            set_engine_mode("fast")
        assert engine_mode() == previous

    def test_unknown_repro_engine_exits_nonzero(self):
        result = _python("-m", "repro", "workloads", engine="fast")
        assert result.returncode != 0
        assert "unknown engine 'fast'; choose from step, sb" in result.stderr

    def test_known_repro_engine_runs(self):
        result = _python("-m", "repro", "workloads", engine="step")
        assert result.returncode == 0
        assert "basicmath" in result.stdout

    def test_engine_flag_refuses_fast(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--engine", "fast", "workloads"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'fast'" in capsys.readouterr().err
