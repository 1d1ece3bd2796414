"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_fresh --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the run reports the end-to-end metrics, with
``--trace 1`` the per-layer ones (see ``perfbench/README.md``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits with 2, printing no
result, when the source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sweep_fresh", "derive_scale", "service_mixed")


def _terminate(signum, frame):
    # Unwind through every ``finally`` so daemons, pools and stores are
    # torn down when the run is stopped from outside.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    signal.signal(signal.SIGTERM, _terminate)
    workspace = workloads.Workspace(ROOT)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            workspace, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        workspace.close()

    kind = "per-layer" if args.trace else "end-to-end"
    print(f"{args.workload} (seed {args.seed}, {kind}):")
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for line in outcome.notes:
        print(line)
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
