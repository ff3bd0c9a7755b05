"""Ambient execution-engine selection for the interpreter cores.

Two engines execute the same ISA behind the same ``CpuCore``
contract, and both are bit-exact with :meth:`Cpu.step` (the
differential suites in ``tests/cpu/`` pin this):

``step``
    The readable reference: one :meth:`Cpu.step` call per retired
    instruction.  Used for differential testing; traced runs take
    it under either engine.
``sb``
    The superblock translation engine (the default): hot code runs as
    compiled closures from a per-PC block cache
    (:mod:`repro.cpu.superblock`); cold code, block terminators and
    deopts go through :meth:`Cpu.step`.

The mode is *ambient*, resolved once per ``Cpu`` at construction like
the tracer and profiler, and is deliberately **not** part of the
experiment configuration: it never enters manifests, run ids or cell
cache keys, so ``repro compare`` between a superblock run and a
step-loop run of the same experiment exits 0 — that byte-parity *is*
the engine's acceptance test.

:func:`set_engine_mode` mirrors the choice into ``REPRO_ENGINE`` so
spawn-based pool and dist workers (which import this module fresh)
inherit the driver's engine.
"""

import contextlib
import os

#: Recognised engine names, in deopt order (sb deopts to step()).
ENGINE_MODES = ("step", "sb")

#: Environment variable consulted at import; how the driver's choice
#: propagates to spawn-based pool/dist workers.
ENGINE_ENV_VAR = "REPRO_ENGINE"

DEFAULT_ENGINE = "sb"


def _check(mode):
    if mode not in ENGINE_MODES:
        raise ValueError(
            f"unknown engine {mode!r}; choose from {', '.join(ENGINE_MODES)}"
        )


def _from_env():
    """The engine ``REPRO_ENGINE`` names (unset or empty: the default).

    An unknown value raises, like :func:`set_engine_mode`, so a stale
    setting cannot run a process unseen under another engine.
    """
    value = os.environ.get(ENGINE_ENV_VAR, "").strip().lower()
    if not value:
        return DEFAULT_ENGINE
    _check(value)
    return value


_mode = _from_env()


def engine_mode():
    """The ambient engine for cores constructed from now on."""
    return _mode


def set_engine_mode(mode):
    """Select the ambient engine; propagates to spawned workers.

    Returns the previous mode.  Raises ``ValueError`` on unknown names
    so a CLI typo fails loudly instead of silently running the default.
    """
    global _mode
    _check(mode)
    previous = _mode
    _mode = mode
    os.environ[ENGINE_ENV_VAR] = mode
    return previous


@contextlib.contextmanager
def engine_override(mode):
    """Run a ``with`` block under *mode*, then restore the previous one."""
    previous = set_engine_mode(mode)
    try:
        yield
    finally:
        set_engine_mode(previous)
