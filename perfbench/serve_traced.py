"""Run ``repro serve`` with the benchmark's layer probes installed.

    python3 perfbench/serve_traced.py REPORT.json serve --port 0 ...

Everything after the report path is passed to the ``repro`` CLI.  When the
daemon has shut down (SIGTERM drains it), the per-layer rollups are written
to ``REPORT.json`` and the spans to ``REPORT.ndjson``, for the traced
``service_mixed`` run to merge with its client-side spans.
"""

from __future__ import annotations

import sys

import probes


def main(argv: list) -> int:
    report, cli_args = argv[0], argv[1:]
    from repro import cli

    recorder = probes.Recorder()
    handle = probes.install(recorder)
    try:
        return cli.main(cli_args)
    finally:
        handle.uninstall()
        probes.save_report(recorder, report)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
