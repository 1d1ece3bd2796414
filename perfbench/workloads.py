"""The benchmark's three workloads, driven through public entry points only.

Each workload function takes a :class:`Workspace`, the workload seed, the
run length in seconds and whether this is the traced run, and returns an
:class:`Outcome`: operations attempted and failed, the metrics with their
units, and human-readable lines for the report.  All load comes from this
one process, closed loop: the next operation starts when the previous one
has returned.

Timings are reported at a reference host speed.  A shared host changes
speed by tens of percent within a minute, which no run length averages
away, so every timed operation is paired with calibration units (a fixed
dict- and integer-heavy loop that does not touch the program) timed
around it, and its wall time is scaled by ``REFERENCE_UNIT_S`` over their
time: between operations for the in-process and service workloads
(:class:`Bracket`), from a side process during campaigns, whose pool
keeps the processors busy (:class:`_Sampler`).  The raw wall-clock
figures are printed beside the scaled ones.

The functions take their input sizes as keyword arguments so the smoke
tests (``smoke.py``) can run them at a tiny size; ``run.py`` always uses
the defaults.
"""

from __future__ import annotations

import ctypes
import gc
import multiprocessing
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import probes

HERE = Path(__file__).resolve().parent

#: How many times each run repeats its set-up; ``setup_s`` is the median.
#: Set-ups that only start an interpreter are cheap and noisy, so they
#: are repeated more often than the service's.
SETUP_REPEATS = 5
CHILD_SETUP_REPEATS = 9

#: Wall time of one calibration unit at the reference host speed (about
#: the median on the 2-vCPU VM the benchmark was tuned on).
REFERENCE_UNIT_S = 0.012


@dataclass
class Outcome:
    """What one benchmark run measured."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def record(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1


class Workspace:
    """Scratch space inside the checkout, removed by :meth:`close`.

    Stores, daemon logs and temporary files all live under
    ``.perfbench/`` at the checkout root; child interpreters get the
    source tree on ``PYTHONPATH`` and tracing switched off.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        base = root / ".perfbench"
        base.mkdir(exist_ok=True)
        self.traces = base / "traces"
        self.traces.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(self.dir))
        self.env.pop("REPRO_TRACE", None)
        os.environ.pop("REPRO_TRACE", None)
        self._saved_tempdir = tempfile.tempdir
        tempfile.tempdir = str(self.dir)
        self._made = 0

    def fresh_dir(self, name: str) -> Path:
        self._made += 1
        path = self.dir / f"{name}-{self._made}"
        path.mkdir()
        return path

    def close(self) -> None:
        tempfile.tempdir = self._saved_tempdir
        shutil.rmtree(self.dir, ignore_errors=True)


# -- measurement helpers -------------------------------------------------------


def calibration_unit() -> float:
    """Wall time of a fixed loop of dict inserts, lookups and integer work."""
    start = time.perf_counter()
    table = {}
    key = 1
    for i in range(60000):
        key = (key * 1103515245 + 12345) & 0xFFFFFFF
        table[key] = i
        table.get(key ^ 0x5555)
    return time.perf_counter() - start


class Bracket:
    """Calibration units timed between operations.

    An operation timed between two calls of :meth:`close` is scaled by the
    reference time over the mean of the unit before it and the unit after
    it, which follows the host's speed across the operation.
    """

    def __init__(self) -> None:
        self.before = calibration_unit()

    def close(self) -> float:
        """Time the next unit; returns the factor for what ran since the last."""
        after = calibration_unit()
        factor = 2 * REFERENCE_UNIT_S / (self.before + after)
        self.before = after
        return factor


def _die_with_parent() -> None:
    """Child-side hook: SIGTERM this process if the benchmark dies first."""
    libc = ctypes.CDLL(None, use_errno=True)
    prctl = libc.prctl
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(1, signal.SIGTERM, 0, 0, 0)  # PR_SET_PDEATHSIG


def time_child(ws: Workspace, code: str, *args: str) -> float:
    """Seconds a fresh interpreter takes to import and run ``code``.

    The child times itself from before its first import, which leaves out
    process creation, the noisiest and least program-dependent part.
    """
    timed = f"import time\n_start = time.perf_counter()\n{code}print(time.perf_counter() - _start)\n"
    done = subprocess.run(
        [sys.executable, "-c", timed, *args],
        cwd=ws.root,
        env=ws.env,
        stdout=subprocess.PIPE,
        check=True,
        timeout=120,
    )
    return float(done.stdout.decode().split()[-1])


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set (``VmHWM``) of a process in MiB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def percentile(values: Sequence[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Samples:
    """Operation latencies, raw and at the reference host speed."""

    def __init__(self) -> None:
        self.raw: List[float] = []
        self.scaled: List[float] = []

    def add(self, seconds: float, factor: float) -> None:
        self.raw.append(seconds)
        self.scaled.append(seconds * factor)

    def note(self, name: str, scale: float, unit: str, pct: int = 50) -> str:
        def at(values: List[float]) -> float:
            return percentile(values, pct) * scale if values else 0.0

        return (
            f"  {name} = {at(self.scaled):.6g} {unit} "
            f"(raw {at(self.raw):.6g} {unit}, {len(self.raw)} samples)"
        )


def _measure_setups(measure: Callable[[], float], repeats: int = SETUP_REPEATS) -> Samples:
    setups = Samples()
    bracket = Bracket()
    for _ in range(repeats):
        elapsed = measure()
        setups.add(elapsed, bracket.close())
    return setups


def _finish(outcome: Outcome, setups: Samples, peak_mb: float, ops: Samples,
            light: Samples, heavy: Samples) -> None:
    """The five end-to-end metrics, plus their raw counterparts as notes.

    ``ops`` are the time each operation held the caller (their count over
    their sum is the throughput); ``light`` and ``heavy`` are the latencies
    of the workload's two operation classes, reported as means, which
    vary less from run to run than medians here because the host noise
    is mostly multiplicative and the calibration removes most of it.
    """
    outcome.metrics = {
        "setup_s": (statistics.median(setups.scaled), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ops_per_s": (len(ops.scaled) / sum(ops.scaled), "1/s"),
        "light_ms": (statistics.fmean(light.scaled) * 1e3, "ms"),
        "heavy_s": (statistics.fmean(heavy.scaled), "s"),
    }
    outcome.notes += [
        setups.note("setup_s", 1.0, "s"),
        f"  ops_per_s raw = {len(ops.raw) / sum(ops.raw):.6g} 1/s",
        f"  light_ms raw = {statistics.fmean(light.raw) * 1e3:.6g} ms "
        f"({len(light.raw)} samples)",
        f"  heavy_s raw = {statistics.fmean(heavy.raw):.6g} s ({len(heavy.raw)} samples)",
        f"  host speed = {sum(ops.raw) / sum(ops.scaled):.4g} x the reference time",
    ]


def _failed_share_note(outcome: Outcome) -> str:
    share = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    return (
        f"  failed_share = {share:.6g} ratio "
        f"({outcome.failed} of {outcome.attempted} operations failed)"
    )


# -- sweep_fresh ---------------------------------------------------------------

SWEEP_SETUP = (
    "import sys\n"
    "from repro.campaign import ResultStore, family_sweep, run_campaign\n"
    "family_sweep(workload_seed=int(sys.argv[1]), workers=2)\n"
    "ResultStore(sys.argv[2])\n"
)

_FAMILY_NAME = re.compile(r"r(\d+)w(\d+)d(\d+)")

#: A separate process times a calibration unit every this many seconds
#: while a campaign runs (the pool keeps the processors busy, so units
#: cannot run between jobs as in the other workloads).
SAMPLER_INTERVAL_S = 0.1

SAMPLER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[3])\n"
    "from workloads import calibration_unit\n"
    "out = open(sys.argv[1], 'w')\n"
    "while True:\n"
    "    start = time.perf_counter()\n"
    "    out.write(f'{start} {calibration_unit()}\\n')\n"
    "    out.flush()\n"
    "    time.sleep(float(sys.argv[2]))\n"
)


class _Sampler:
    """Calibration units timed by a side process, stamped on the shared
    monotonic clock (``perf_counter`` is CLOCK_MONOTONIC on Linux)."""

    def __init__(self, ws: Workspace) -> None:
        self.path = ws.fresh_dir("sampler") / "units.txt"
        self.proc = subprocess.Popen(
            [sys.executable, "-c", SAMPLER, str(self.path), str(SAMPLER_INTERVAL_S), str(HERE)],
            cwd=ws.root,
            env=ws.env,
            preexec_fn=_die_with_parent,
        )
        self.units: List[Tuple[float, float]] = []

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()
        if self.path.exists():
            lines = self.path.read_text().splitlines()
            self.units = [tuple(map(float, line.split())) for line in lines if len(line.split()) == 2]
        if not self.units:  # a campaign shorter than the sampler's start-up
            self.units = [(time.perf_counter(), calibration_unit())]

    def factor(self, begin: float, end: float) -> float:
        """The speed factor over ``[begin, end]`` (nearest unit if none fell in it)."""
        inside = [d for t, d in self.units if begin <= t <= end]
        if not inside:
            middle = (begin + end) / 2
            inside = [min(self.units, key=lambda unit: abs(unit[0] - middle))[1]]
        return REFERENCE_UNIT_S / statistics.median(inside)


def _job_ok(result) -> bool:
    """A passing job with no hazard, no unnecessary stall, no missed fault."""
    if not result.ok:
        return False
    try:
        analysis = result.stage("analysis").details
        faults = result.stage("faults").details
    except KeyError:
        return False
    return (
        analysis.get("hazards") == 0
        and analysis.get("unnecessary_stalls") == 0
        and faults.get("missed") == 0
    )


@dataclass
class _Campaign:
    """One fresh campaign as the benchmark saw it."""

    report: object
    start: float
    wall: float
    #: ``(finish time, job seconds, arch)`` per result, as ``on_result`` saw it.
    finished: List[Tuple[float, float, str]]
    rss_mb: float
    sampler: _Sampler

    def wall_factor(self) -> float:
        return self.sampler.factor(self.start, self.start + self.wall)

    def job_factor(self, arch: str) -> float:
        end, seconds = next((at, s) for at, s, name in self.finished if name == arch)
        return self.sampler.factor(end - seconds, end)


def _fresh_campaign(ws: Workspace, spec, workers: int) -> _Campaign:
    """One campaign on a cold pool and an empty store.

    ``workers=1`` runs every job in this process.  The pool workers' peak
    RSS is read before the pool is shut down.
    """
    from repro.campaign import ResultStore, run_campaign
    from repro.campaign.orchestrator import shutdown_warm_pool

    shutdown_warm_pool()
    store = ResultStore(ws.fresh_dir("store"))
    finished: List[Tuple[float, float, str]] = []
    sampler = _Sampler(ws)
    start = time.perf_counter()
    try:
        report = run_campaign(
            spec,
            store=store,
            workers=workers,
            on_result=lambda r: finished.append((time.perf_counter(), r.seconds, r.job.arch)),
        )
        wall = time.perf_counter() - start
        rss = max((vm_hwm_mb(p.pid) for p in multiprocessing.active_children()), default=0.0)
    finally:
        sampler.stop()
        shutdown_warm_pool()
        shutil.rmtree(store.root, ignore_errors=True)
    return _Campaign(report, start, wall, finished, rss, sampler)


def _orchestration(campaign: _Campaign, workers: int) -> Dict[str, float]:
    """Job max, pool utilisation and tail idle time from ``on_result`` stamps.

    Once the queue is empty each worker idles from its last result until
    the final one lands, so the tail idle time sums, over the ``workers
    - 1`` results before the last, the gap to the last.
    """
    tail = sorted(at for at, _, _ in campaign.finished)[-workers:]
    job_seconds = [seconds for _, seconds, _ in campaign.finished]
    return {
        "campaign.runner.job_max_s": max(job_seconds),
        "campaign.orchestrator.utilisation": sum(job_seconds) / (workers * campaign.wall),
        "campaign.orchestrator.tail_idle_s": sum(tail[-1] - at for at in tail[:-1]),
    }


def _family_key(arch: str) -> Tuple[int, ...]:
    match = _FAMILY_NAME.search(arch)
    return tuple(map(int, match.groups())) if match else ()


def sweep_fresh(
    ws: Workspace, seed: int, seconds: float, trace: bool, **grid
) -> Outcome:
    """Fresh 24-job family campaigns on a cold 2-worker pool.

    ``grid`` overrides :func:`repro.campaign.family_sweep`'s axes (the
    smoke tests shrink it).
    """
    from repro.campaign import family_sweep
    from repro.campaign.runner import clear_warm_state

    outcome = Outcome()
    setups = _measure_setups(
        lambda: time_child(ws, SWEEP_SETUP, str(seed), str(ws.fresh_dir("setup"))),
        CHILD_SETUP_REPEATS,
    )
    spec = family_sweep(
        workload_seed=seed, workload_length=48, max_faults=4, workers=2, **grid
    )

    def campaign(workers: int) -> _Campaign:
        done = _fresh_campaign(ws, spec, workers)
        for result in done.report.results:
            outcome.record(_job_ok(result))
        return done

    if trace:
        # The pool hides the jobs from the probes, so the orchestration
        # figures come from an untraced pool campaign and the layer figures
        # from an in-process one, timed against an untraced in-process
        # reference for the tracing overhead.
        external = _orchestration(campaign(workers=2), workers=2)
        clear_warm_state()
        reference = campaign(workers=1)
        clear_warm_state()
        recorder = probes.Recorder()
        handle = probes.install(recorder)
        try:
            traced = campaign(workers=1)
        finally:
            handle.uninstall()
            clear_warm_state()
        external["bench.trace_overhead"] = (
            traced.wall * traced.wall_factor() / (reference.wall * reference.wall_factor()) - 1.0
        )
        outcome.metrics = recorder.metrics(external)
        recorder.dump(str(ws.traces / f"sweep_fresh-seed{seed}.ndjson"))
        outcome.notes.append(
            f"  in-process campaign {reference.wall:.3f} s untraced, "
            f"{traced.wall:.3f} s traced (raw)"
        )
        outcome.notes.append(_failed_share_note(outcome))
        return outcome

    light, heavy, walls = Samples(), Samples(), Samples()
    peak = 0.0
    heavy_key = max(_family_key(job.arch) for job in spec.jobs)
    deadline = time.perf_counter() + seconds
    while not walls.raw or time.perf_counter() < deadline:
        done = campaign(workers=2)
        wall_factor = done.wall_factor()
        # One "operation" per job: the campaign's wall time spread evenly
        # over its jobs, so ops_per_s is jobs per second of campaign.
        for result in done.report.results:
            walls.add(done.wall / len(done.report.results), wall_factor)
            is_heavy = _family_key(result.job.arch) == heavy_key
            (heavy if is_heavy else light).add(
                result.seconds, done.job_factor(result.job.arch)
            )
        peak = max(peak, done.rss_mb)
    _finish(outcome, setups, peak, walls, light, heavy)
    outcome.notes += [
        f"  jobs_per_s = {outcome.metrics['ops_per_s'][0]:.6g} 1/s "
        f"({len(walls.raw)} jobs in {sum(walls.raw):.3f} s of campaigns)",
        light.note("job_p50_ms (all but the largest member)", 1e3, "ms"),
        heavy.note("heavy_job_p50_s (largest family member)", 1.0, "s"),
        _failed_share_note(outcome),
    ]
    return outcome


# -- derive_scale --------------------------------------------------------------

DERIVE_SIZES = (16, 64, 256)

DERIVE_SETUP = (
    "import sys\n"
    "from repro.archs.firepath_like import firepath_like_architecture\n"
    "from repro.spec import build_functional_spec, check_most_liberal_satisfies\n"
    "from repro.spec.derivation import DerivationResult\n"
    "for registers in sys.argv[1:]:\n"
    "    build_functional_spec(firepath_like_architecture(num_registers=int(registers)))\n"
)

#: Rounds (one design of every size each) in the traced derive run.
DERIVE_TRACE_ROUNDS = 2


def _derive_op(spec, rng: random.Random) -> Tuple[float, bool]:
    """Derive, materialise covers, round-trip the artifact, check Property 3.

    Returns the wall time of the program's calls and whether every check
    held; the benchmark's own comparisons are not timed.
    """
    from repro.spec import check_most_liberal_satisfies, symbolic_most_liberal
    from repro.spec.derivation import DerivationResult

    start = time.perf_counter()
    derivation = symbolic_most_liberal(spec)
    covers = derivation.moe_expressions
    stalls = derivation.stall_expressions()
    data = derivation.to_artifact_bytes(include_covers=True)
    loaded = DerivationResult.from_artifact_bytes(spec, data)
    holds = check_most_liberal_satisfies(spec, derivation).holds
    elapsed = time.perf_counter() - start
    inputs = spec.input_signals()
    valuations = [{name: rng.random() < 0.5 for name in inputs} for _ in range(4)]
    ok = (
        holds
        and set(stalls) == set(covers)
        and loaded.moe_expressions == covers
        and all(derivation.evaluate(v) == loaded.evaluate(v) for v in valuations)
    )
    return elapsed, ok


def derive_scale(
    ws: Workspace,
    seed: int,
    seconds: float,
    trace: bool,
    sizes: Sequence[int] = DERIVE_SIZES,
) -> Outcome:
    """FirePath-like derivations at several scoreboard sizes, in process."""
    from repro.archs.firepath_like import firepath_like_architecture
    from repro.spec import build_functional_spec

    outcome = Outcome()
    setups = _measure_setups(
        lambda: time_child(ws, DERIVE_SETUP, *map(str, sizes)), CHILD_SETUP_REPEATS
    )
    specs = {
        registers: build_functional_spec(firepath_like_architecture(num_registers=registers))
        for registers in sizes
    }
    order_rng = random.Random(seed)
    check_rng = random.Random(seed + 1)

    def one_round() -> List[int]:
        order = list(sizes)
        order_rng.shuffle(order)
        return order

    bracket = Bracket()

    def run(registers: int) -> Tuple[float, float]:
        elapsed, ok = _derive_op(specs[registers], check_rng)
        outcome.record(ok)
        # Contexts hold reference cycles; reclaim them outside the timed
        # region so the peak RSS does not depend on collector timing.
        gc.collect()
        return elapsed, bracket.close()

    if trace:
        rounds = [one_round() for _ in range(DERIVE_TRACE_ROUNDS)]
        reference = sum(e * f for e, f in (run(r) for order in rounds for r in order))
        recorder = probes.Recorder()
        handle = probes.install(recorder)
        traced = 0.0
        try:
            for order in rounds:
                for registers in order:
                    frame = recorder.open("bench.op")
                    try:
                        elapsed, factor = run(registers)
                    finally:
                        recorder.close(frame)
                    traced += elapsed * factor
        finally:
            handle.uninstall()
        outcome.metrics = recorder.metrics({"bench.trace_overhead": traced / reference - 1.0})
        recorder.dump(str(ws.traces / f"derive_scale-seed{seed}.ndjson"))
        outcome.notes.append(
            f"  {len(rounds)} rounds: {reference:.3f} s untraced, {traced:.3f} s traced"
        )
        outcome.notes.append(_failed_share_note(outcome))
        return outcome

    every, light = Samples(), Samples()
    by_size = {registers: Samples() for registers in sizes}
    deadline = time.perf_counter() + seconds
    while not every.raw or time.perf_counter() < deadline:
        for registers in one_round():
            elapsed, factor = run(registers)
            every.add(elapsed, factor)
            by_size[registers].add(elapsed, factor)
            if registers != max(sizes):
                light.add(elapsed, factor)
    _finish(outcome, setups, vm_hwm_mb(), every, light, by_size[max(sizes)])
    outcome.notes.append(
        f"  designs_per_s = {outcome.metrics['ops_per_s'][0]:.6g} 1/s ({len(every.raw)} designs)"
    )
    for registers in sizes:
        outcome.notes.append(by_size[registers].note(f"derive_{registers}r_s", 1.0, "s"))
    outcome.notes.append(_failed_share_note(outcome))
    return outcome


# -- service_mixed -------------------------------------------------------------

SERVICE_MEMBERS = tuple(
    f"fam-r{registers}w1d{depth}s1-{style}"
    for registers in (2, 4)
    for depth in (3, 4)
    for style in ("bypass", "blocking")
)

#: Operations in the traced service run (every fourth one fresh).
SERVICE_TRACE_OPS = 40

_LISTENING = re.compile(r"listening on http://[^:\s]+:(\d+)")


class Daemon:
    """A ``repro serve --port 0 --workers 2`` subprocess over a fresh store.

    :meth:`close` always stops it: SIGTERM for the graceful drain, then
    SIGKILL if it has not exited within a minute.
    """

    def __init__(self, ws: Workspace, report: Optional[Path] = None) -> None:
        from repro.service import ServiceClient

        store = ws.fresh_dir("store")
        self.log_path = store.with_name(store.name + ".log")
        serve = ["serve", "--port", "0", "--workers", "2", "--store", str(store)]
        if report is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(report), *serve]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(
            command,
            cwd=ws.root,
            env=ws.env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
            preexec_fn=_die_with_parent,
        )
        try:
            self.client = ServiceClient(port=self._await_port(60.0), timeout=120.0)
            self.client.health()
        except BaseException:
            self.close()
            raise

    def _await_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while True:
            text = self.log_path.read_text(errors="replace")
            match = _LISTENING.search(text)
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited during start-up:\n{text}")
            if time.monotonic() > deadline:
                raise TimeoutError(f"repro serve did not listen within {timeout} s")
            time.sleep(0.01)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _warm(daemon: Daemon, members: Sequence[str], workload_seed: int) -> None:
    """Verify each member once (set-up), so the timed phase can resubmit it."""
    for arch in members:
        job = daemon.client.submit(arch=arch, workload_seed=workload_seed)["job"]
        final = daemon.client.wait(job["id"], timeout=120)
        if not (final["state"] == "done" and final["ok"] is True):
            raise RuntimeError(f"warm-up job for {arch} did not pass: {final.get('error')}")


class _Traffic:
    """The closed-loop mix: 3 in 4 cached resubmissions, 1 in 4 fresh jobs.

    A calibration unit is timed at the start of every group of four
    operations, while the daemon is idle.
    """

    def __init__(self, daemon: Daemon, members: Sequence[str], seed: int, outcome: Outcome):
        from repro.service import ServiceError

        self.client = daemon.client
        self.members = list(members)
        self.rng = random.Random(seed)
        self.stored: List[Tuple[str, int]] = [(arch, seed * 100_000) for arch in members]
        self.next_seed = seed * 100_000 + 1
        self.outcome = outcome
        self.errors = (ServiceError, TimeoutError, OSError, KeyError)
        self.every, self.cached, self.fresh = Samples(), Samples(), Samples()
        self.fresh_job_seconds: List[float] = []
        self.bracket = Bracket()
        self.group: List[Tuple[Samples, float]] = []
        self.ops = 0

    def flush(self) -> None:
        """Scale the pending group by the calibration units around it."""
        factor = self.bracket.close()
        for samples, elapsed in self.group:
            samples.add(elapsed, factor)
        self.group.clear()

    def step(self) -> None:
        if self.ops % 4 == 0 and self.ops:
            self.flush()
        fresh = self.ops % 4 == 3
        self.ops += 1
        if fresh:
            arch = self.rng.choice(self.members)
            workload_seed = self.next_seed
            self.next_seed += 1
        else:
            arch, workload_seed = self.rng.choice(self.stored)
        start = time.perf_counter()
        try:
            job = self.client.submit(arch=arch, workload_seed=workload_seed)["job"]
            if fresh:
                job = self.client.wait(job["id"], timeout=120)
            elapsed = time.perf_counter() - start
        except self.errors:
            self.outcome.record(False)
            return
        ok = job["state"] == "done" and job["ok"] is True and job["from_cache"] == (not fresh)
        self.outcome.record(ok)
        if not ok:
            return
        self.group.append((self.every, elapsed))
        if fresh:
            self.group.append((self.fresh, elapsed))
            self.stored.append((arch, workload_seed))
            self.fresh_job_seconds += [r["seconds"] for r in job["report"]["jobs"]]
        else:
            self.group.append((self.cached, elapsed))


def _daemon_metrics(daemon: Daemon) -> Dict[str, float]:
    """Queue wait and cache answers as the daemon's ``/v1/metrics`` reports them."""
    samples = daemon.client.metrics(fmt="json")
    waits = [s for s in samples if s["name"] == "repro_service_queue_wait_seconds"]
    count = sum(s["count"] for s in waits)
    return {
        "service.queue_wait_ms": sum(s["sum"] for s in waits) * 1e3 / count if count else 0.0,
        "service.cache_answers": sum(
            s["value"] for s in samples if s["name"] == "repro_service_cache_answers_total"
        ),
    }


def service_mixed(
    ws: Workspace,
    seed: int,
    seconds: float,
    trace: bool,
    members: Sequence[str] = SERVICE_MEMBERS,
    trace_ops: int = SERVICE_TRACE_OPS,
) -> Outcome:
    """Closed-loop HTTP traffic against ``repro serve`` over a fresh store."""
    outcome = Outcome()
    if trace:
        report = ws.traces / f"service_mixed-seed{seed}-daemon.json"
        recorder = probes.Recorder()
        handle = probes.install(recorder)
        daemon: Optional[Daemon] = None
        try:
            daemon = Daemon(ws, report=report)
            _warm(daemon, members, seed * 100_000)
            traffic = _Traffic(daemon, members, seed, outcome)
            for _ in range(trace_ops):
                traffic.step()
            external = _daemon_metrics(daemon)
        finally:
            handle.uninstall()
            if daemon is not None:
                daemon.close()
        recorder.merge(probes.load_report(report))
        if traffic.fresh_job_seconds:
            external["campaign.runner.job_max_s"] = max(traffic.fresh_job_seconds)
        outcome.metrics = recorder.metrics(external)
        recorder.dump(str(ws.traces / f"service_mixed-seed{seed}.ndjson"))
        outcome.notes.append(_failed_share_note(outcome))
        return outcome

    daemons: List[Daemon] = []

    def set_up() -> float:
        for daemon in daemons:
            daemon.close()
        start = time.perf_counter()
        daemons.append(Daemon(ws))
        _warm(daemons[-1], members, seed * 100_000)
        return time.perf_counter() - start

    try:
        setups = _measure_setups(set_up)
        daemon = daemons[-1]
        traffic = _Traffic(daemon, members, seed, outcome)
        deadline = time.perf_counter() + seconds
        while outcome.attempted < 4 or time.perf_counter() < deadline:
            traffic.step()
        traffic.flush()
        peak = vm_hwm_mb(daemon.proc.pid)
    finally:
        for daemon in daemons:
            daemon.close()
    _finish(outcome, setups, peak, traffic.every, traffic.cached, traffic.fresh)
    outcome.notes += [
        f"  ops_per_s = {outcome.metrics['ops_per_s'][0]:.6g} 1/s "
        f"({outcome.attempted} operations)",
        traffic.cached.note("cached_p50_ms", 1e3, "ms"),
        traffic.cached.note("cached_p90_ms", 1e3, "ms", pct=90),
        traffic.fresh.note("fresh_p50_s", 1.0, "s"),
        traffic.fresh.note("fresh_p75_s", 1.0, "s", pct=75),
        _failed_share_note(outcome),
    ]
    return outcome


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "sweep_fresh": sweep_fresh,
    "derive_scale": derive_scale,
    "service_mixed": service_mixed,
}
