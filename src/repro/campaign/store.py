"""Content-hashed result and artifact store for verification campaigns.

Each verified configuration lands in one file named by the SHA-256 of
its canonical job specification (:meth:`JobSpec.job_key`), so a re-run
of the same campaign finds every unchanged job by pure content address —
no database, no index to corrupt, safe to merge across machines by
copying files.  Only passing results are cached by default: a failure
should be re-examined, not remembered.

Beyond whole-job JSON verdicts the store also holds *derived artifacts*:

``artifact-<stage_key>.bdd``
    binary BDD artifacts (:mod:`repro.bdd.serialize`) — today the
    closed-form derivation per architecture, keyed by the ``derive``
    stage's dependency hash so every job sharing the architecture shares
    the artifact;
``stage-<stage_key>.json``
    individual stage results keyed by the hash of only the job fields
    that stage reads (:data:`~repro.campaign.spec.STAGE_DEPENDENCIES`),
    which is what makes campaigns *incremental*: edit one workload knob
    and only the stages that depend on it lose their cache entries;
``trace-<job_key>.ndjson``
    one span per line for jobs executed under tracing
    (``REPRO_TRACE=1`` / ``--trace``; see :mod:`repro.obs`) — telemetry
    sitting next to the result it explains, rendered by ``repro trace``.

Every lookup is counted in the process metrics registry
(``repro_store_reads_total{kind,outcome}``, ``repro_store_corrupt_total``)
so campaign reports can surface exactly how much work the cache absorbed,
including corrupt entries (checksum or schema mismatches), which are
counted and then treated as plain misses.  Worker processes count into
their own registry and ship the delta home with each result
(:meth:`~repro.obs.MetricsRegistry.fold`), so the parent's registry is
the one source of store traffic; :func:`store_tally` reads it back as the
seven-key cache tally.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, TypeVar

from ..bdd.serialize import ArtifactError
from ..obs import dump_ndjson, get_registry, load_ndjson
from .runner import JobResult, StageResult
from .spec import JobSpec

_ARTIFACT_PREFIX = "artifact-"
_STAGE_PREFIX = "stage-"
_TRACE_PREFIX = "trace-"

T = TypeVar("T")

#: Tally key for each (kind, outcome) label pair of ``repro_store_reads_total``.
_READ_KEYS = {
    ("job", "hit"): "hits",
    ("job", "miss"): "misses",
    ("artifact", "hit"): "artifact_hits",
    ("artifact", "miss"): "artifact_misses",
    ("stage", "hit"): "stage_hits",
    ("stage", "miss"): "stage_misses",
}


def store_tally(counters: Dict[str, List[Any]]) -> Dict[str, int]:
    """The seven-key cache tally in a registry snapshot's or delta's counters.

    ``corrupt`` counts entries of any kind that existed but failed
    validation (bad JSON, checksum mismatch, schema drift, key
    collision); every corrupt read is *also* a miss for its kind, so
    hits + misses always equals the number of lookups.
    """
    tally = dict.fromkeys(
        ("hits", "misses", "corrupt", "artifact_hits", "artifact_misses",
         "stage_hits", "stage_misses"),
        0,
    )
    for name, labels, value in counters.values():
        if name == "repro_store_reads_total":
            tally[_READ_KEYS[labels["kind"], labels["outcome"]]] += int(value)
        elif name == "repro_store_corrupt_total":
            tally["corrupt"] += int(value)
    return tally


def _count_read(kind: str, hit: bool, corrupt: bool = False) -> None:
    registry = get_registry()
    registry.inc("repro_store_reads_total", kind=kind, outcome="hit" if hit else "miss")
    if corrupt:
        registry.inc("repro_store_corrupt_total")


class ResultStore:
    """Directory of content-addressed results, stages and BDD artifacts.

    Concurrency: writes are atomic (``mkstemp`` + ``os.replace``) and
    entries are immutable once written, so any number of processes and
    threads may read while others write — a reader sees either the
    complete entry or a miss, never a torn file.  A handle holds no
    mutable state, so one handle can be shared across threads (the
    service daemon's probe/runner threads do exactly that); lookups are
    counted in the thread-safe process metrics registry.

    Example — the cache as seen by a campaign::

        from repro.campaign import JobSpec, ResultStore, run_verification_job

        store = ResultStore(".campaign-results")
        job = JobSpec(arch="fam-r2w1d3s1-bypass")
        if store.get(job) is None:            # miss: verify and persist
            store.put(job, run_verification_job(job, store=store))
        assert store.get(job).ok              # hit: served from disk
        print(store.summary())                # entry counts + hit/miss tally
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # -- whole-job results -------------------------------------------------------

    def path_for(self, job: JobSpec) -> Path:
        """Where this job's result lives (whether or not it exists yet)."""
        return self.root / f"{job.job_key()}.json"

    def get(self, job: JobSpec) -> Optional[JobResult]:
        """The stored result for a job, or None when absent or unreadable.

        A corrupt or schema-incompatible file is counted and treated as
        a miss — the job simply re-runs and overwrites it.
        """
        path = self.path_for(job)
        if not path.exists():
            _count_read("job", hit=False)
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            result = JobResult.from_dict(payload)
        except (OSError, ValueError, KeyError, TypeError):
            _count_read("job", hit=False, corrupt=True)
            return None
        # Hash collisions aside, the stored job must equal the requested
        # one; a mismatch means the file was tampered with or the hashing
        # scheme changed, and either way the cache must not answer.
        if result.job.to_dict() != job.to_dict():
            _count_read("job", hit=False, corrupt=True)
            return None
        _count_read("job", hit=True)
        return result

    def put(self, job: JobSpec, result: JobResult) -> Path:
        """Persist a job result atomically; returns the file path."""
        path = self.path_for(job)
        _write_json(path, result.as_dict())
        return path

    # -- binary BDD artifacts ----------------------------------------------------

    def artifact_path(self, key: str) -> Path:
        """Where the artifact for a stage key lives."""
        return self.root / f"{_ARTIFACT_PREFIX}{key}.bdd"

    def get_artifact(self, key: str, load: Callable[[bytes], T]) -> Optional[T]:
        """The artifact for a stage key parsed by ``load``, or None when
        absent or corrupt.

        Integrity is the *artifact format's* job (its trailing SHA-256):
        when ``load`` raises :class:`~repro.bdd.serialize.ArtifactError`
        the entry is counted as a corrupt miss and deleted, so the next
        run rebuilds it cleanly.
        """
        path = self.artifact_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            _count_read("artifact", hit=False)
            return None
        try:
            value = load(data)
        except ArtifactError:
            _count_read("artifact", hit=False, corrupt=True)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        _count_read("artifact", hit=True)
        return value

    def put_artifact(self, key: str, data: bytes) -> Path:
        """Persist artifact bytes atomically; returns the file path."""
        path = self.artifact_path(key)
        _write_atomic(path, data)
        return path

    def artifact_keys(self) -> List[str]:
        """Stage keys of every stored binary artifact."""
        return sorted(
            path.stem[len(_ARTIFACT_PREFIX):]
            for path in self.root.glob(f"{_ARTIFACT_PREFIX}*.bdd")
        )

    # -- per-stage results -------------------------------------------------------

    def stage_path(self, key: str) -> Path:
        """Where the stage result for a dependency hash lives."""
        return self.root / f"{_STAGE_PREFIX}{key}.json"

    def get_stage(self, stage: str, key: str) -> Optional[StageResult]:
        """A cached stage result, or None when absent/corrupt/mismatched."""
        path = self.stage_path(key)
        if not path.exists():
            _count_read("stage", hit=False)
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            result = StageResult.from_dict(payload)
        except (OSError, ValueError, KeyError, TypeError):
            _count_read("stage", hit=False, corrupt=True)
            return None
        if result.name != stage:
            _count_read("stage", hit=False, corrupt=True)
            return None
        _count_read("stage", hit=True)
        return result

    def put_stage(self, key: str, result: StageResult) -> Path:
        """Persist one stage's result atomically; returns the file path."""
        path = self.stage_path(key)
        _write_json(path, result.as_dict())
        return path

    def stage_keys(self) -> List[str]:
        """Dependency hashes of every stored per-stage result."""
        return sorted(
            path.stem[len(_STAGE_PREFIX):]
            for path in self.root.glob(f"{_STAGE_PREFIX}*.json")
        )

    # -- NDJSON job traces -------------------------------------------------------

    def trace_path(self, key: str) -> Path:
        """Where the span trace for a job key lives."""
        return self.root / f"{_TRACE_PREFIX}{key}.ndjson"

    def put_trace(self, key: str, spans: List[Dict[str, Any]]) -> Path:
        """Persist a job's finished spans atomically as NDJSON.

        Traces are telemetry, not cache entries: they are not consulted
        when answering jobs and do not participate in the hit/miss tally.
        """
        path = self.trace_path(key)
        _write_atomic(path, dump_ndjson(spans).encode("utf-8"))
        return path

    def get_trace(self, key: str) -> Optional[List[Dict[str, Any]]]:
        """A job's stored spans, or None when absent or unparseable."""
        path = self.trace_path(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        try:
            return load_ndjson(text)
        except ValueError:
            return None

    def trace_keys(self) -> List[str]:
        """Job keys of every stored span trace."""
        return sorted(
            path.stem[len(_TRACE_PREFIX):]
            for path in self.root.glob(f"{_TRACE_PREFIX}*.ndjson")
        )

    # -- store-wide --------------------------------------------------------------

    def keys(self) -> List[str]:
        """Content hashes of whole-job results currently present."""
        return sorted(
            path.stem
            for path in self.root.glob("*.json")
            if not path.name.startswith(_STAGE_PREFIX)
        )

    def __len__(self) -> int:
        return len(self.keys())

    def disk_usage(self) -> Dict[str, int]:
        """On-disk byte totals per entry kind (plus the grand ``total``).

        One ``scandir`` pass over the store directory; files that vanish
        mid-scan (another process replacing a temp file) are skipped.
        ``total`` counts every regular file in the directory — including
        leaked ``.part`` temp files — so it matches what ``du`` reports
        and what an operator has to budget for.
        """
        usage = {"jobs": 0, "artifacts": 0, "stages": 0, "traces": 0, "total": 0}
        with os.scandir(self.root) as entries:
            for entry in entries:
                try:
                    if not entry.is_file(follow_symlinks=False):
                        continue
                    size = entry.stat(follow_symlinks=False).st_size
                except OSError:
                    continue
                usage["total"] += size
                name = entry.name
                if name.startswith(_ARTIFACT_PREFIX) and name.endswith(".bdd"):
                    usage["artifacts"] += size
                elif name.startswith(_STAGE_PREFIX) and name.endswith(".json"):
                    usage["stages"] += size
                elif name.startswith(_TRACE_PREFIX) and name.endswith(".ndjson"):
                    usage["traces"] += size
                elif name.endswith(".json"):
                    usage["jobs"] += size
        return usage

    def summary(self) -> Dict[str, Any]:
        """JSON-ready telemetry: entry counts, byte totals, traffic tally.

        This is what the service daemon's ``GET /v1/store`` endpoint
        returns; entry counts and byte totals are re-scanned on every
        call so they reflect writes made by worker processes too.  The
        ``stats`` tally is read from the process metrics registry, so it
        covers every store lookup this process made or folded in from
        its campaign workers, on any handle.
        """
        return {
            "root": str(self.root),
            "entries": {
                "jobs": len(self.keys()),
                "artifacts": len(self.artifact_keys()),
                "stages": len(self.stage_keys()),
                "traces": len(self.trace_keys()),
            },
            "bytes": self.disk_usage(),
            "stats": store_tally(get_registry().snapshot()["counters"]),
        }

    def clear(self) -> int:
        """Delete every stored entry of any kind; returns how many."""
        removed = 0
        patterns = (
            "*.json",
            f"{_ARTIFACT_PREFIX}*.bdd",
            f"{_TRACE_PREFIX}*.ndjson",
        )
        for pattern in patterns:
            for path in self.root.glob(pattern):
                path.unlink()
                removed += 1
        return removed


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_atomic(path, text.encode("utf-8"))


def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` via a temp file in the same directory.

    The ".part" suffix keeps a leaked temp file (worker SIGKILLed between
    mkstemp and replace) out of keys()/len()'s "*.json" glob.
    """
    handle, temp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=".tmp-", suffix=".part"
    )
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
