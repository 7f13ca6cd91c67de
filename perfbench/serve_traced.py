"""Run ``python -m repro.service`` with the benchmark's span wrappers.

Usage: ``python perfbench/serve_traced.py SPANS.json serve [serve args]``.
The wrappers are installed inside the server process (its compute
executor and store I/O threads included); spans are written to
``SPANS.json`` when the server shuts down on SIGINT.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.trace import Recorder  # noqa: E402
from repro.experiments import engine  # noqa: E402
from repro.service import __main__ as service_cli  # noqa: E402
from repro.service import compute, server  # noqa: E402,F401


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    engine.load_registry()
    recorder = Recorder()
    recorder.install()
    try:
        return service_cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
