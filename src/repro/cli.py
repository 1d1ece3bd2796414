"""Command-line front end: the Section 5 tool.

The paper closes with: "We are now working on a tool which, given a
functional specification that has the properties mentioned in Section 3.1,
generates the corresponding performance specification and also
Verilog/VHDL assertions."  This module is that tool (plus the further-work
items: property checking, simulation with the generated assertions, and
interlock RTL synthesis), exposed as ``python -m repro``.

Sub-commands
------------

========================  =====================================================
``list-archs``            list the bundled example architectures
``show-arch``             describe an architecture and draw its pipeline diagram
``spec``                  print the functional / performance / combined spec,
                          or export it in the text interchange format
``derive``                print the closed-form most liberal moe assignment
``check-properties``      verify the Section 3.1 preconditions
``assertions``            emit testbench assertions as SVA or PSL
``synth``                 synthesise interlock RTL (Verilog or VHDL)
``check``                 exhaustively property-check an interlock variant
``simulate``              run the cycle-accurate simulator with the generated
                          assertions armed, report stalls / coverage, dump VCD
``campaign``              shard end-to-end verification jobs over many
                          architectures (a parametric family sweep and/or
                          named designs) across persistent worker processes,
                          with content-hashed result, stage and BDD-artifact
                          caching (stored stage results replay by default)
``artifact``              inspect the binary BDD artifacts in a result store
                          (variable order, node counts, payload metadata)
``serve``                 run the verification service daemon: a persistent
                          job queue over the campaign engine with an HTTP API,
                          shared result store and warm worker pool
                          (see ``docs/api.md`` / ``docs/operations.md``)
``submit``                submit a job to a running daemon and (by default)
                          follow its event stream to completion
``jobs``                  list/inspect/cancel the daemon's jobs, or show the
                          shared store's telemetry
``trace``                 render a stored campaign trace (NDJSON spans) as a
                          process waterfall or a per-span rollup table
========================  =====================================================

Every sub-command accepts either ``--arch <name>`` (a bundled architecture
or a parametric family member such as ``fam-r4w2d5s1-bypass``) or
``--spec-file <path>`` (a functional specification in the
:mod:`repro.spec.textio` format); simulation requires an architecture.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional, Sequence, TextIO

from .analysis import classify_stalls, coverage_of
from .archs import available_architectures, load_architecture
from .assertions import (
    monitor_trace,
    psl_vunit,
    sva_module,
    testbench_assertions,
)
from .checking import PropertyChecker
from .pipeline import ClosedFormInterlock, simulate, write_vcd_file
from .spec import (
    build_functional_spec,
    check_all_properties,
    conservative_variant,
    derive_combined_spec,
    derive_performance_spec,
    dumps_spec,
    load_spec_file,
    symbolic_most_liberal,
)
from .synth import (
    behavioural_verilog,
    behavioural_vhdl,
    synthesis_to_verilog,
    synthesis_to_vhdl,
    synthesize_interlock,
)
from .workloads import (
    BALANCED,
    CONTENTION_HEAVY,
    HAZARD_HEAVY,
    WAIT_HEAVY,
    WorkloadGenerator,
)

__all__ = ["main", "build_parser"]

_PROFILES = {
    "balanced": BALANCED,
    "hazard-heavy": HAZARD_HEAVY,
    "contention-heavy": CONTENTION_HEAVY,
    "wait-heavy": WAIT_HEAVY,
}


class CliError(RuntimeError):
    """Raised for user-facing command-line errors."""


_ARCH_HELP = (
    "use a registered architecture (see 'repro list-archs') or a parametric "
    "family name like 'fam-r4w2d5s1-bypass'"
)


def _add_source_arguments(parser: argparse.ArgumentParser, require_arch: bool = False) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--arch", help=_ARCH_HELP)
    if not require_arch:
        group.add_argument(
            "--spec-file",
            help="load a functional specification from a text file instead",
        )


def _resolve(args: argparse.Namespace):
    """Return (architecture-or-None, functional spec) for the selected source."""
    if getattr(args, "arch", None):
        architecture = load_architecture(args.arch)
        return architecture, build_functional_spec(architecture)
    spec = load_spec_file(args.spec_file)
    return None, spec


def build_parser() -> argparse.ArgumentParser:
    """The argparse command-line interface."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Maximum-performance verification of interlocked pipeline control logic "
                    "(Eder & Barrett, DAC 2002).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list-archs", help="list the bundled example architectures")

    show = subparsers.add_parser("show-arch", help="describe a bundled architecture")
    show.add_argument("--arch", required=True, help=_ARCH_HELP)

    spec = subparsers.add_parser("spec", help="print or export the specification")
    _add_source_arguments(spec)
    spec.add_argument(
        "--kind",
        choices=["functional", "performance", "combined"],
        default="functional",
        help="which specification to print (default: functional)",
    )
    spec.add_argument(
        "--format",
        choices=["text", "unicode", "specfile"],
        default="text",
        help="output format; 'specfile' writes the text interchange format "
             "(functional specification only)",
    )

    derive = subparsers.add_parser("derive", help="print the most liberal moe closed forms")
    _add_source_arguments(derive)
    derive.add_argument(
        "--verbose",
        action="store_true",
        help="also print BDD kernel statistics (node counts, cache hit rates, "
             "GC activity) after the closed forms",
    )

    props = subparsers.add_parser(
        "check-properties", help="verify the Section 3.1 preconditions of the method"
    )
    _add_source_arguments(props)

    assertions = subparsers.add_parser("assertions", help="emit testbench assertions")
    _add_source_arguments(assertions)
    assertions.add_argument(
        "--language", choices=["sva", "psl"], default="sva", help="assertion language"
    )
    assertions.add_argument(
        "--module-name", default="pipeline_spec_checker", help="generated checker module name"
    )

    synth = subparsers.add_parser("synth", help="synthesise interlock RTL")
    _add_source_arguments(synth)
    synth.add_argument("--language", choices=["verilog", "vhdl"], default="verilog")
    synth.add_argument(
        "--style",
        choices=["netlist", "behavioural"],
        default="behavioural",
        help="gate-level netlist or one continuous assignment per moe flag",
    )

    check = subparsers.add_parser("check", help="property-check an interlock variant")
    _add_source_arguments(check)
    check.add_argument(
        "--implementation",
        choices=["derived", "conservative"],
        default="derived",
        help="which interlock to check: the derived maximum-performance one or the "
             "conservative (stall-on-any-outstanding-register) variant",
    )
    check.add_argument("--backend", choices=["bdd", "sat"], default="bdd")

    sim = subparsers.add_parser(
        "simulate", help="simulate with the generated assertions armed"
    )
    sim.add_argument("--arch", required=True, help=_ARCH_HELP)
    sim.add_argument("--profile", choices=sorted(_PROFILES), default="balanced")
    sim.add_argument("--length", type=int, default=64, help="instructions per pipe")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--vcd", help="write the control-signal waveform to this VCD file")
    sim.add_argument(
        "--coverage", action="store_true", help="also print specification coverage"
    )

    campaign = subparsers.add_parser(
        "campaign",
        help="run a parallel verification campaign over many architectures",
        description="Shard end-to-end verification jobs (properties, derivation, "
        "maximality, obligations, fault campaign, stall/coverage analysis) over "
        "a parametric architecture family and/or named designs across worker "
        "processes, with content-hashed result caching.",
    )
    campaign.add_argument(
        "--campaign-file",
        help="load a declarative campaign spec (JSON) instead of building one "
        "from the grid options below",
    )
    campaign.add_argument(
        "--arch",
        action="append",
        dest="extra_archs",
        metavar="NAME",
        help="also verify this architecture (repeatable); with "
        "--no-family the campaign is only these",
    )
    campaign.add_argument(
        "--registers", default="2,4", help="family axis: register counts (CSV)"
    )
    campaign.add_argument(
        "--widths", default="1,2", help="family axis: issue widths (CSV)"
    )
    campaign.add_argument(
        "--depths", default="3,4,5", help="family axis: deep-pipe depths (CSV)"
    )
    campaign.add_argument(
        "--latency-steps", default="1", help="family axis: latency steps (CSV)"
    )
    campaign.add_argument(
        "--styles",
        default="bypass,blocking",
        help="family axis: scoreboard styles (CSV of bypass/blocking)",
    )
    campaign.add_argument(
        "--no-family",
        action="store_true",
        help="skip the family grid and verify only the --arch names",
    )
    campaign.add_argument(
        "--stages",
        help="comma-separated subset of verification stages "
        "(default: all — properties,derive,maximality,obligations,faults,analysis)",
    )
    campaign.add_argument(
        "--length", type=int, default=48, help="workload length per job (default: 48)"
    )
    campaign.add_argument("--seed", type=int, default=0, help="workload seed")
    campaign.add_argument(
        "--max-faults",
        type=int,
        default=4,
        help="faults injected per job, 0 disables (default: 4)",
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: the campaign spec's value; 2 for sweeps)",
    )
    campaign.add_argument(
        "--store",
        default=".campaign-results",
        help="result-store directory for content-hashed caching "
        "(default: .campaign-results)",
    )
    campaign.add_argument(
        "--no-cache",
        action="store_true",
        help="re-execute every stage even when the store holds a result for "
        "the job or for the stage (by default a job answers from its stored "
        "result, and a stage whose dependency hash is unchanged replays; "
        "e.g. after changing only the workload seed, the structural stages "
        "answer from the store and only faults/analysis re-run)",
    )
    campaign.add_argument(
        "--report", help="write the aggregate report (JSON) to this file"
    )
    campaign.add_argument(
        "--save-campaign",
        help="write the declarative campaign spec (JSON) to this file",
    )
    campaign.add_argument(
        "--list",
        action="store_true",
        help="list the campaign's jobs and exit without verifying",
    )
    campaign.add_argument(
        "--trace",
        action="store_true",
        help="record a structured span trace of the run (equivalent to "
        "REPRO_TRACE=1): per-job NDJSON traces land in the result store "
        "and the report gains per-span rollups; view with 'repro trace'",
    )

    artifact = subparsers.add_parser(
        "artifact",
        help="inspect binary BDD artifacts in a campaign result store",
        description="Summarize serialized derivation artifacts: variable "
        "order, node counts, roots, payload metadata and stored covers.",
    )
    artifact_source = artifact.add_mutually_exclusive_group(required=True)
    artifact_source.add_argument(
        "--store",
        help="result-store directory; lists every artifact-*.bdd it holds",
    )
    artifact_source.add_argument(
        "--file", help="inspect one artifact file in detail"
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the verification service daemon (HTTP API over the campaign engine)",
        description="Long-running asyncio daemon: accepts derivation/verification "
        "jobs over HTTP, streams per-job progress, shares one result store and "
        "warm worker pool across all clients, and drains in-flight jobs on "
        "SIGINT/SIGTERM.  API reference: docs/api.md; operations: docs/operations.md.",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="TCP port (default: 8765; 0 picks an ephemeral port and prints it)",
    )
    serve.add_argument(
        "--store",
        default=".campaign-results",
        help="shared result-store directory; empty string disables caching "
        "(default: .campaign-results)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes per campaign run (default: 2)",
    )
    serve.add_argument(
        "--trace",
        action="store_true",
        help="trace every campaign the daemon runs (equivalent to starting "
        "it with REPRO_TRACE=1); traces land in the shared result store",
    )

    _SERVICE_ADDRESS = "address of a running 'repro serve' daemon"
    submit = subparsers.add_parser(
        "submit",
        help="submit a verification job to a running service daemon",
        description="Submit one architecture (or a declarative campaign file) to "
        "a 'repro serve' daemon, then follow the job's event stream and exit "
        "with its verdict.",
    )
    submit_source = submit.add_mutually_exclusive_group(required=True)
    submit_source.add_argument("--arch", help=_ARCH_HELP)
    submit_source.add_argument(
        "--campaign-file", help="submit a declarative campaign spec (JSON) instead"
    )
    submit.add_argument("--host", default="127.0.0.1", help=_SERVICE_ADDRESS)
    submit.add_argument("--port", type=int, default=8765, help=_SERVICE_ADDRESS)
    submit.add_argument(
        "--stages",
        help="comma-separated subset of verification stages (with --arch; "
        "default: all)",
    )
    submit.add_argument(
        "--length", type=int, default=None, help="workload length (with --arch)"
    )
    submit.add_argument(
        "--seed", type=int, default=None, help="workload seed (with --arch)"
    )
    submit.add_argument(
        "--max-faults", type=int, default=None, help="fault budget (with --arch)"
    )
    submit.add_argument(
        "--priority",
        type=int,
        default=0,
        help="queue priority; larger runs sooner (default: 0)",
    )
    submit.add_argument(
        "--no-follow",
        action="store_true",
        help="print the job id and return immediately instead of streaming "
        "events until the job finishes",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up following after this many seconds (default: wait forever)",
    )

    jobs = subparsers.add_parser(
        "jobs",
        help="list, inspect or cancel jobs on a running service daemon",
        description="Query a 'repro serve' daemon: the job table, one job's "
        "full record (including its report), the shared store's telemetry, "
        "or cancel a job.",
    )
    jobs.add_argument("--host", default="127.0.0.1", help=_SERVICE_ADDRESS)
    jobs.add_argument("--port", type=int, default=8765, help=_SERVICE_ADDRESS)
    jobs.add_argument(
        "--state",
        choices=["queued", "running", "done", "failed", "cancelled"],
        help="only list jobs in this state",
    )
    jobs.add_argument("--id", dest="job_id", help="print one job's full record as JSON")
    jobs.add_argument("--cancel", metavar="JOB_ID", help="cancel this job")
    jobs.add_argument(
        "--store-stats",
        dest="store_summary",
        action="store_true",
        help="print the shared result store's telemetry as JSON",
    )

    trace = subparsers.add_parser(
        "trace",
        help="render a recorded span trace as a waterfall or rollup table",
        description="Render the NDJSON span trace of a traced campaign run "
        "(REPRO_TRACE=1 / --trace): a cross-process waterfall of nested "
        "spans by default, or a hottest-first rollup with --summary.  The "
        "target is either a trace file path or a job-key prefix resolved "
        "against the result store.",
    )
    trace.add_argument(
        "target",
        help="an NDJSON trace file, or a job-key (prefix) of a traced job "
        "in the result store",
    )
    trace.add_argument(
        "--store",
        default=".campaign-results",
        help="result store to resolve job keys against "
        "(default: .campaign-results)",
    )
    trace.add_argument(
        "--summary",
        action="store_true",
        help="print the per-span rollup table instead of the waterfall",
    )

    lint = subparsers.add_parser(
        "lint",
        help="contract lint: enforce the kernel/campaign/service invariants "
        "the type system can't see",
        description="AST-based contract lint (rules RPL001-RPL010, see "
        "docs/contracts.md): raw node ids stored without protect(), "
        "cross-manager node mixing, STAGE_DEPENDENCIES drift, blocking calls in "
        "coroutines, off-thread service mutation, raw stage timing instead "
        "of the repro.obs span API.  Exits 1 when findings remain after "
        "'# repro: noqa[RPLnnn]' suppressions.",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: ./src and ./scripts "
        "when present, else the current directory)",
    )
    lint.add_argument(
        "--json",
        action="store_true",
        dest="json_output",
        help="machine-readable output for CI and editors",
    )
    lint.add_argument(
        "--rules",
        help="comma-separated rule codes to run (e.g. RPL001,RPL002); "
        "default: all",
    )

    return parser


# -- command implementations -------------------------------------------------------------


def _cmd_list_archs(args: argparse.Namespace, out: TextIO) -> int:
    for name in available_architectures():
        out.write(f"{name}\n")
    return 0


def _cmd_show_arch(args: argparse.Namespace, out: TextIO) -> int:
    architecture = load_architecture(args.arch)
    out.write(architecture.describe() + "\n\n")
    out.write(architecture.ascii_diagram() + "\n")
    return 0


def _cmd_spec(args: argparse.Namespace, out: TextIO) -> int:
    _, functional = _resolve(args)
    if args.format == "specfile":
        if args.kind != "functional":
            raise CliError("--format specfile only applies to the functional specification")
        out.write(dumps_spec(functional))
        return 0
    unicode_symbols = args.format == "unicode"
    if args.kind == "functional":
        out.write(functional.describe(unicode_symbols=unicode_symbols) + "\n")
    elif args.kind == "performance":
        out.write(
            derive_performance_spec(functional).describe(unicode_symbols=unicode_symbols) + "\n"
        )
    else:
        out.write(
            derive_combined_spec(functional).describe(unicode_symbols=unicode_symbols) + "\n"
        )
    return 0


def _cmd_derive(args: argparse.Namespace, out: TextIO) -> int:
    _, functional = _resolve(args)
    derivation = symbolic_most_liberal(functional)
    out.write(derivation.describe() + "\n")
    if getattr(args, "verbose", False):
        out.write("kernel statistics:\n")
        out.write(derivation.context.manager.stats().describe() + "\n")
    return 0


def _cmd_check_properties(args: argparse.Namespace, out: TextIO) -> int:
    _, functional = _resolve(args)
    report = check_all_properties(functional)
    out.write(report.describe() + "\n")
    return 0 if report.all_hold() else 1


def _cmd_assertions(args: argparse.Namespace, out: TextIO) -> int:
    _, functional = _resolve(args)
    assertions = testbench_assertions(functional)
    if args.language == "sva":
        out.write(sva_module(assertions, module_name=args.module_name) + "\n")
    else:
        out.write(psl_vunit(assertions, unit_name=args.module_name) + "\n")
    return 0


def _cmd_synth(args: argparse.Namespace, out: TextIO) -> int:
    _, functional = _resolve(args)
    derivation = symbolic_most_liberal(functional)
    if args.style == "behavioural":
        if args.language == "verilog":
            out.write(behavioural_verilog(functional, derivation) + "\n")
        else:
            out.write(behavioural_vhdl(functional, derivation) + "\n")
        return 0
    synthesis = synthesize_interlock(functional, derivation=derivation)
    if args.language == "verilog":
        out.write(synthesis_to_verilog(synthesis) + "\n")
    else:
        out.write(synthesis_to_vhdl(synthesis) + "\n")
    return 0


def _cmd_check(args: argparse.Namespace, out: TextIO) -> int:
    architecture, functional = _resolve(args)
    if args.implementation == "derived":
        interlock = ClosedFormInterlock.from_derivation(symbolic_most_liberal(functional))
    else:
        if architecture is None:
            raise CliError("--implementation conservative requires --arch")
        interlock = ClosedFormInterlock.from_spec(
            conservative_variant(architecture), name="conservative-variant"
        )
    checker = PropertyChecker(functional, architecture, backend=args.backend)
    functional_report = checker.check_functional(interlock)
    performance_report = checker.check_performance(interlock)
    equivalence_report = checker.check_equivalence_with_derived(interlock)
    out.write(functional_report.describe() + "\n")
    out.write(performance_report.describe() + "\n")
    out.write(equivalence_report.describe() + "\n")
    ok = (
        functional_report.all_hold()
        and performance_report.all_hold()
        and equivalence_report.all_hold()
    )
    return 0 if ok else 1


def _cmd_simulate(args: argparse.Namespace, out: TextIO) -> int:
    architecture = load_architecture(args.arch)
    functional = build_functional_spec(architecture)
    derivation = symbolic_most_liberal(functional)
    interlock = ClosedFormInterlock.from_derivation(derivation)
    profile = dataclasses.replace(_PROFILES[args.profile], length=args.length)
    program = WorkloadGenerator(architecture, seed=args.seed).generate(profile)
    trace = simulate(architecture, interlock, program)
    report = monitor_trace(trace, testbench_assertions(functional))

    out.write(trace.describe() + "\n")
    out.write(report.describe() + "\n")
    breakdown = classify_stalls(trace, functional, derivation=derivation)
    out.write(breakdown.describe() + "\n")
    if args.coverage:
        out.write(coverage_of(functional, [trace]).describe() + "\n")
    if args.vcd:
        write_vcd_file(trace, args.vcd)
        out.write(f"VCD written to {args.vcd}\n")
    return 0 if report.clean() else 1


def _csv_strs(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _csv_ints(text: str, option: str) -> List[int]:
    try:
        return [int(part) for part in _csv_strs(text)]
    except ValueError as exc:
        raise CliError(f"{option} expects comma-separated integers, got {text!r}") from exc


def _cmd_campaign(args: argparse.Namespace, out: TextIO) -> int:
    import json

    from .campaign import (
        CampaignSpec,
        CampaignSpecError,
        JobSpec,
        ResultStore,
        family_sweep,
        run_campaign,
    )
    from .campaign.spec import CANONICAL_STAGES

    stages = tuple(_csv_strs(args.stages or "")) or CANONICAL_STAGES
    extra_archs = tuple(args.extra_archs or ())
    try:
        if args.campaign_file:
            spec = CampaignSpec.load(args.campaign_file)
        elif args.no_family:
            if not extra_archs:
                raise CliError("--no-family needs at least one --arch")
            spec = CampaignSpec(
                name="named-archs",
                jobs=tuple(
                    JobSpec(
                        arch=arch,
                        stages=stages,
                        workload_length=args.length,
                        workload_seed=args.seed,
                        max_faults=args.max_faults,
                    )
                    for arch in extra_archs
                ),
                workers=args.workers or 2,
            )
        else:
            spec = family_sweep(
                registers=_csv_ints(args.registers, "--registers"),
                widths=_csv_ints(args.widths, "--widths"),
                depths=_csv_ints(args.depths, "--depths"),
                latency_steps=_csv_ints(args.latency_steps, "--latency-steps"),
                styles=tuple(_csv_strs(args.styles)),
                extra_archs=extra_archs,
                workers=args.workers or 2,
                stages=stages,
                workload_length=args.length,
                workload_seed=args.seed,
                max_faults=args.max_faults,
            )
    except CampaignSpecError as exc:
        raise CliError(str(exc)) from exc
    if args.save_campaign:
        spec.save(args.save_campaign)
        out.write(f"campaign spec written to {args.save_campaign}\n")
    if args.list:
        out.write(f"campaign {spec.name!r}: {len(spec.jobs)} jobs\n")
        for job in spec.jobs:
            out.write(f"  {job.arch}  stages={','.join(job.stages)}\n")
        return 0
    store = ResultStore(args.store) if args.store else None
    report = run_campaign(
        spec,
        store=store,
        use_cache=not args.no_cache,
        progress=lambda line: out.write(line + "\n"),
        workers=args.workers,
        trace=True if args.trace else None,
    )
    out.write(report.describe() + "\n")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(report.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        out.write(f"aggregate report written to {args.report}\n")
    return 0 if report.all_ok() else 1


def _cmd_artifact(args: argparse.Namespace, out: TextIO) -> int:
    import json
    from pathlib import Path

    from .bdd import ArtifactError, inspect_artifact
    from .campaign import ResultStore

    def summarize(path: Path) -> None:
        try:
            summary = inspect_artifact(path.read_bytes())
        except (OSError, ArtifactError) as exc:
            out.write(f"{path.name}: CORRUPT ({exc})\n")
            return
        payload = summary.get("payload") or {}
        label = payload.get("spec") or payload.get("kind") or "-"
        out.write(
            f"{path.name}: {label}  nodes={summary['num_nodes']} "
            f"vars={summary['num_variables']} scopes={summary['num_scopes']} "
            f"covers={summary['num_covers']} bytes={summary['bytes']} "
            f"roots={','.join(summary['roots'])}\n"
        )

    if args.file:
        path = Path(args.file)
        try:
            summary = inspect_artifact(path.read_bytes())
        except OSError as exc:
            raise CliError(f"cannot read {args.file}: {exc}") from exc
        except ArtifactError as exc:
            raise CliError(f"{args.file} is not a valid artifact: {exc}") from exc
        json.dump(summary, out, indent=2, sort_keys=True)
        out.write("\n")
        return 0
    # ResultStore creates its root, so check first that the store exists.
    if not Path(args.store).is_dir():
        raise CliError(f"store directory {args.store!r} does not exist")
    store = ResultStore(args.store)
    keys = store.artifact_keys()
    if not keys:
        out.write(f"no artifacts in {args.store}\n")
        return 0
    for key in keys:
        summarize(store.artifact_path(key))
    return 0


def _cmd_serve(args: argparse.Namespace, out: TextIO) -> int:
    from .service import serve_blocking

    return serve_blocking(
        host=args.host,
        port=args.port,
        store_root=args.store or None,
        workers=args.workers,
        trace=args.trace,
        out=out,
    )


def _format_event(event: dict) -> Optional[str]:
    kind = event.get("kind")
    if kind == "state":
        extras = ""
        if event.get("state") == "done":
            extras = f"  ({event.get('passed')}/{event.get('total')} passed)"
        return f"state: {event.get('state')}{extras}"
    if kind == "progress":
        # The orchestrator's free-text lines repeat what the structured
        # "result" events already carry; skip them in CLI output.
        return None
    if kind == "result":
        status = "ok" if event.get("ok") else "FAIL"
        cached = " (cached)" if event.get("cached") else ""
        return f"[{event.get('arch')}] {status} in {event.get('seconds'):.3f}s{cached}"
    return str(event)


def _cmd_submit(args: argparse.Namespace, out: TextIO) -> int:
    import json

    from .service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    try:
        if args.campaign_file:
            with open(args.campaign_file, "r", encoding="utf-8") as handle:
                campaign = json.load(handle)
            submitted = client.submit(campaign=campaign, priority=args.priority)
        else:
            knobs = {
                name: value
                for name, value in (
                    ("workload_length", args.length),
                    ("workload_seed", args.seed),
                    ("max_faults", args.max_faults),
                )
                if value is not None
            }
            submitted = client.submit(
                arch=args.arch,
                stages=args.stages or None,
                priority=args.priority,
                **knobs,
            )
    except ServiceError as exc:
        raise CliError(str(exc)) from exc
    job = submitted["job"]
    coalesced = " (coalesced onto an identical in-flight job)" if submitted[
        "coalesced"
    ] else ""
    out.write(f"{job['id']}  state={job['state']}{coalesced}\n")
    if args.no_follow:
        return 0
    try:
        def show(event: dict) -> None:
            line = _format_event(event)
            if line is not None:
                out.write(line + "\n")

        final = client.wait(job["id"], timeout=args.timeout, on_event=show)
    except (ServiceError, TimeoutError) as exc:
        raise CliError(str(exc)) from exc
    if final["state"] == "done":
        return 0 if final["ok"] else 1
    out.write(f"job ended {final['state']}\n")
    if final.get("error"):
        out.write(final["error"] + "\n")
    return 1


def _cmd_jobs(args: argparse.Namespace, out: TextIO) -> int:
    import json

    from .analysis import render_table
    from .service import ServiceClient, ServiceError

    client = ServiceClient(host=args.host, port=args.port)
    try:
        if args.cancel:
            outcome = client.cancel(args.cancel)
            verdict = "cancelled" if outcome["cancelled"] else "already finished"
            out.write(f"{outcome['job']['id']}: {verdict}\n")
            return 0
        if args.job_id:
            json.dump(client.job(args.job_id), out, indent=2, sort_keys=True)
            out.write("\n")
            return 0
        if args.store_summary:
            json.dump(client.store(), out, indent=2, sort_keys=True)
            out.write("\n")
            return 0
        records = client.jobs(state=args.state)
    except ServiceError as exc:
        raise CliError(str(exc)) from exc
    if not records:
        out.write("no jobs\n")
        return 0
    rows = [
        {
            "id": record["id"],
            "state": record["state"],
            "ok": "-" if record["ok"] is None else ("yes" if record["ok"] else "NO"),
            "campaign": record["campaign"],
            "jobs": str(record["jobs"]),
            "prio": str(record["priority"]),
            "cached": "yes" if record["from_cache"] else "-",
        }
        for record in records
    ]
    out.write(render_table(rows) + "\n")
    return 0


def _cmd_trace(args: argparse.Namespace, out: TextIO) -> int:
    import os

    from .campaign import ResultStore
    from .obs import load_ndjson, render_rollup, render_waterfall

    spans = None
    if os.path.isfile(args.target):
        try:
            with open(args.target, "r", encoding="utf-8") as handle:
                spans = load_ndjson(handle.read())
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read trace {args.target}: {exc}") from exc
    else:
        if not os.path.isdir(args.store):
            raise CliError(
                f"{args.target!r} is not a file and store directory "
                f"{args.store!r} does not exist"
            )
        store = ResultStore(args.store)
        matches = [
            key for key in store.trace_keys() if key.startswith(args.target)
        ]
        if not matches:
            raise CliError(
                f"no trace matches {args.target!r} in {args.store} "
                f"({len(store.trace_keys())} stored traces; run a campaign "
                "with --trace or REPRO_TRACE=1 first)"
            )
        if len(matches) > 1:
            listing = "\n  ".join(sorted(matches))
            raise CliError(
                f"{args.target!r} is ambiguous; matching traces:\n  {listing}"
            )
        spans = store.get_trace(matches[0])
        if spans is None:
            raise CliError(f"trace {matches[0]} is unreadable or corrupt")
    if not spans:
        out.write("empty trace\n")
        return 0
    render = render_rollup if args.summary else render_waterfall
    out.write(render(spans) + "\n")
    return 0


def _cmd_lint(args: argparse.Namespace, out: TextIO) -> int:
    import os

    from .devtools.lint import LintError, lint_paths, render_json, render_text, resolve_codes

    paths = list(args.paths)
    if not paths:
        paths = [path for path in ("src", "scripts") if os.path.isdir(path)] or ["."]
    try:
        codes = resolve_codes(args.rules)
        findings = lint_paths(paths, codes)
    except LintError as exc:
        raise CliError(str(exc)) from exc
    if args.json_output:
        out.write(render_json(findings) + "\n")
    else:
        out.write(render_text(findings) + "\n")
    return 1 if findings else 0


_COMMANDS = {
    "list-archs": _cmd_list_archs,
    "show-arch": _cmd_show_arch,
    "spec": _cmd_spec,
    "derive": _cmd_derive,
    "check-properties": _cmd_check_properties,
    "assertions": _cmd_assertions,
    "synth": _cmd_synth,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "campaign": _cmd_campaign,
    "artifact": _cmd_artifact,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "trace": _cmd_trace,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None, out: Optional[TextIO] = None) -> int:
    """Entry point for ``python -m repro`` (returns the process exit code)."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except (CliError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
