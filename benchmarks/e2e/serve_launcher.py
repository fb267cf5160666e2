"""Run ``python -m repro.serve`` for the serve workload.

Usage::

    python benchmarks/e2e/serve_launcher.py [--trace-out FILE] serve ...

Without ``--trace-out`` this is exactly the ``repro.serve`` CLI.  With
it, the benchmark's wrappers are installed and a telemetry session is
open for the daemon's lifetime; when the daemon drains on SIGTERM, its
spans, counts and telemetry counters are written to FILE.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro import telemetry  # noqa: E402
from repro.serve.__main__ import main as serve_main  # noqa: E402

import tracer  # noqa: E402


def main(argv) -> int:
    if argv[:1] != ["--trace-out"]:
        return serve_main(argv)
    out, argv = argv[1], argv[2:]
    traced = tracer.install()
    with telemetry.session():
        with traced.span("bench:daemon"):
            code = serve_main(argv)
        counters = telemetry.metrics().snapshot()["counters"]
    traced.dump(out, telemetry=counters)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
