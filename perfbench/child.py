"""One benchmarked ``python -m repro`` process.

Usage: ``python perfbench/child.py REPORT TRACED [repro arguments...]``

Runs the repro CLI exactly as ``python -m repro`` would, and writes to
REPORT the ``time.perf_counter()`` reading at CLI entry (the end of
interpreter start-up and imports), the exit code and the engine that
ran.  With TRACED set to 1 the layer wrappers of :mod:`spans` are
installed first.
"""

import json
import sys
import time


def main():
    report_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    if traced:
        import spans

        spans.install()
    from repro.cli import main as repro_main

    entered = time.perf_counter()
    code = repro_main(argv)
    from repro.cpu.engine import engine_mode

    numpy = sys.modules.get("numpy")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump({"entered": entered, "code": code, "engine": engine_mode(),
                   "numpy": getattr(numpy, "__version__", None)}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
