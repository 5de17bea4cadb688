"""Run ``repro serve`` as the process under test.

Usage::

    python3 perfbench/serve_launch.py OUT.json [--trace] serve --rules ...

Starts the host-speed calibration thread (``common.Calibrator``), with
``--trace`` installs the serving-layer timing wrappers from ``tracer.py``,
then runs the program's own CLI entry point with the remaining arguments.
When the server has shut down it writes the calibration samples (and the
wrapper tallies) to ``OUT.json``.
"""

from __future__ import annotations

import json
import sys

from common import Calibrator, use_program_sources


def main() -> int:
    out_path, arguments = sys.argv[1], sys.argv[2:]
    traced = arguments[:1] == ["--trace"]
    if traced:
        arguments = arguments[1:]
    use_program_sources()
    from repro.cli import main as repro_main

    tracer = None
    if traced:
        import tracer as tracing_wrappers

        tracer = tracing_wrappers.Tracer()
        tracing_wrappers.install_serving(tracer)
    calibrator = Calibrator().start()
    try:
        return repro_main(arguments)
    finally:
        outcome = {"calibration": calibrator.stop()}
        if tracer is not None:
            outcome["tally"] = tracer.snapshot()
        with open(out_path, "w") as handle:
            json.dump(outcome, handle)


if __name__ == "__main__":
    sys.exit(main())
