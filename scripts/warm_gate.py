#!/usr/bin/env python
"""CI gate for the artifact-backed warm campaign path.

Runs an 8-job family sweep (2 registers, issue widths 1 and 2, depths 3
and 4, bypass and blocking scoreboards) three times against one result
store and enforces the stage-replay contract end to end:

1. **cold** — empty store, persistent workers started fresh: every job
   verifies from scratch and populates the store (job results, per-stage
   results, binary derivation artifacts);
2. **warm** — same campaign again: every job must answer from the
   content-hashed store, at least ``--speedup`` times faster than cold,
   with nonzero cache hits;
3. **reseeded** — the same sweep with a different workload seed: every
   job key changes, yet the structural stages
   (properties/derive/maximality/obligations) must replay from the store
   and the derivations must load from binary artifacts (nonzero artifact
   hits), re-executing only the workload-dependent stages.

Exits non-zero when any phase fails its contract and writes a JSON stats
summary (``--out``) for the CI artifact upload.
"""

import argparse
import json
import sys
import tempfile
import time


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument(
        "--speedup",
        type=float,
        default=5.0,
        help="minimum cold/warm wall-clock ratio (default: 5.0)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, help="worker processes (default: 2)"
    )
    parser.add_argument(
        "--out", default="store-stats.json", help="write the phase stats here"
    )
    args = parser.parse_args()

    from repro.campaign import ResultStore, family_sweep, run_campaign, shutdown_warm_pool

    spec = family_sweep(
        name="warm-gate",
        registers=(2,),
        widths=(1, 2),
        depths=(3, 4),
        styles=("bypass", "blocking"),
        workers=2,
        workload_length=24,
        max_faults=2,
    )
    seeded = type(spec)(
        name=spec.name + "-reseeded",
        jobs=tuple(
            type(job)(**dict(job.to_dict(), workload_seed=job.workload_seed + 1))
            for job in spec.jobs
        ),
        workers=spec.workers,
    )

    failures = []
    phases = {}
    with tempfile.TemporaryDirectory(prefix="warm-gate-") as root:
        store = ResultStore(root)

        def phase(name, campaign):
            start = time.perf_counter()
            report = run_campaign(campaign, store=store, workers=args.workers)
            wall = time.perf_counter() - start
            phases[name] = {
                "wall_seconds": round(wall, 6),
                "total": report.total(),
                "cached": len(report.cached()),
                "all_ok": report.all_ok(),
                "stats": report.cache,
            }
            print(
                f"[{name}] {report.total()} jobs, {len(report.cached())} cached, "
                f"wall {wall:.3f}s, stats {report.cache}"
            )
            if not report.all_ok():
                failures.append(f"{name}: campaign did not verify every job")
            return report, wall

        cold_report, cold_wall = phase("cold", spec)
        if cold_report.cached():
            failures.append("cold: expected an empty store, found cached jobs")

        warm_report, warm_wall = phase("warm", spec)
        if len(warm_report.cached()) != warm_report.total():
            failures.append(
                f"warm: only {len(warm_report.cached())}/{warm_report.total()} "
                "jobs answered from the store"
            )
        if warm_report.cache_hits() == 0:
            failures.append("warm: zero cache hits")
        ratio = cold_wall / warm_wall if warm_wall > 0 else float("inf")
        phases["warm"]["speedup_vs_cold"] = round(ratio, 2)
        if ratio < args.speedup:
            failures.append(
                f"warm: only {ratio:.1f}x faster than cold "
                f"(required {args.speedup:.1f}x)"
            )

        # New seed -> new job keys; fresh worker state so the artifact
        # files (not pool warmth) must carry the structural stages.
        shutdown_warm_pool()
        inc_report, _ = phase("reseeded", seeded)
        if inc_report.cached():
            failures.append("reseeded: job keys should have changed with the seed")
        inc_cache = inc_report.cache
        if inc_cache["artifact_hits"] == 0:
            failures.append("reseeded: zero artifact hits (derivations re-derived)")
        if inc_cache["stage_hits"] == 0:
            failures.append("reseeded: zero stage hits (nothing replayed)")
        if inc_cache["corrupt"]:
            failures.append(f"reseeded: {inc_cache['corrupt']} corrupt store entries")

        phases["store"] = {
            "artifacts": len(store.artifact_keys()),
            "stages": len(store.stage_keys()),
            "jobs": len(store),
        }
    shutdown_warm_pool()

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"phases": phases, "failures": failures}, handle, indent=2)
        handle.write("\n")
    print(f"stats written to {args.out}")

    if failures:
        for failure in failures:
            print(f"GATE FAILURE: {failure}")
        return 1
    print(
        f"warm gate passed: warm {phases['warm']['speedup_vs_cold']}x faster, "
        f"{phases['store']['artifacts']} artifacts, "
        f"{phases['store']['stages']} stage results"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
