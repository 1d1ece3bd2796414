"""Declarative campaign specifications with a JSON round trip.

A campaign is a plain value: a named list of :class:`JobSpec` entries
plus a worker count.  Jobs reference architectures by library name (the
parametric family's canonical names make a whole grid addressable this
way), so a spec serializes to a small JSON document that can be saved,
diffed, shipped to CI and re-run bit-identically — the content hash of a
job's dictionary is also its result-store key.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Dict, List, Sequence, Tuple

from ..archs.family import FamilyConfig, generate_family

#: Bump when the result schema or the job semantics change incompatibly;
#: part of the content hash, so stale cached results are never reused.
SPEC_SCHEMA = 1

#: Verification stages in execution order (see :mod:`repro.campaign.runner`).
CANONICAL_STAGES: Tuple[str, ...] = (
    "properties",
    "derive",
    "maximality",
    "obligations",
    "faults",
    "analysis",
)


#: Which :class:`JobSpec` fields each verification stage actually reads.
#:
#: This is the incremental-campaign contract: a stage's store key hashes
#: only these fields, so editing a workload knob (seed, length, fault
#: budget) leaves the structural stages' keys — and their cached results
#: and derivation artifacts — intact.  Structural stages depend only on
#: ``arch`` because canonical family names (``fam-r2w1d3s1-bypass``)
#: encode the full structural configuration; hashing the name is hashing
#: the structure.
#:
#: Example — reseeding shares every structural stage key::
#:
#:     a = JobSpec(arch="fam-r2w1d3s1-bypass", workload_seed=0)
#:     b = JobSpec(arch="fam-r2w1d3s1-bypass", workload_seed=1)
#:     assert a.stage_key("derive") == b.stage_key("derive")    # reused
#:     assert a.stage_key("analysis") != b.stage_key("analysis")  # re-run
#:
#: Adding a stage means adding its field tuple here *and* bumping
#: ``SPEC_SCHEMA`` if the semantics of existing stages changed.
STAGE_DEPENDENCIES: Dict[str, Tuple[str, ...]] = {
    "properties": ("arch",),
    "derive": ("arch",),
    "maximality": ("arch",),
    "obligations": ("arch",),
    "faults": (
        "arch",
        "workload_length",
        "workload_seed",
        "num_programs",
        "max_faults",
    ),
    "analysis": ("arch", "workload_length", "workload_seed"),
}


class CampaignSpecError(ValueError):
    """Raised for malformed campaign or job specifications."""


def _check_types(spec: Any, integers: Tuple[str, ...], names: Tuple[str, ...]) -> None:
    """Reject a wrongly typed field before any comparison can raise TypeError."""
    for name in integers:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise CampaignSpecError(f"{name} must be an integer, got {value!r}")
    for name in names:
        value = getattr(spec, name)
        if not isinstance(value, str) or not value:
            raise CampaignSpecError(f"{name} must be a non-empty string, got {value!r}")


def _require_object(payload: Any, what: str) -> None:
    if not isinstance(payload, dict):
        raise CampaignSpecError(f"a {what} must be a JSON object, got {type(payload).__name__}")


@dataclass(frozen=True)
class JobSpec:
    """One end-to-end verification job: an architecture plus its knobs.

    Attributes:
        arch: architecture library name (bundled or ``fam-...``).
        stages: which verification stages to run, any subset of
            :data:`CANONICAL_STAGES`; execution always follows canonical
            order regardless of the order given here.
        workload_length: instructions per pipe for the simulation-based
            stages (fault campaign, stall/coverage analysis).
        workload_seed: base seed of the workload generator.
        num_programs: random programs simulated per injected fault.
        max_faults: cap on the standard fault set (0 disables injection).
    """

    arch: str
    stages: Tuple[str, ...] = CANONICAL_STAGES
    workload_length: int = 48
    workload_seed: int = 0
    num_programs: int = 1
    max_faults: int = 4

    def __post_init__(self):
        _check_types(
            self, ("workload_length", "workload_seed", "num_programs", "max_faults"), ("arch",)
        )
        if not isinstance(self.stages, (list, tuple)) or not all(
            isinstance(stage, str) for stage in self.stages
        ):
            raise CampaignSpecError(f"stages must be a list of stage names, got {self.stages!r}")
        unknown = set(self.stages) - set(CANONICAL_STAGES)
        if unknown:
            raise CampaignSpecError(
                f"unknown stages {sorted(unknown)}; expected a subset of "
                f"{list(CANONICAL_STAGES)}"
            )
        if not self.stages:
            raise CampaignSpecError("job needs at least one stage")
        if self.workload_length < 1:
            raise CampaignSpecError("workload_length must be positive")
        if self.num_programs < 1:
            raise CampaignSpecError("num_programs must be positive")
        if self.max_faults < 0:
            raise CampaignSpecError("max_faults must be non-negative")
        # Normalize to canonical execution order so equivalent jobs hash
        # identically no matter how the stage list was written.
        object.__setattr__(
            self,
            "stages",
            tuple(s for s in CANONICAL_STAGES if s in set(self.stages)),
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["stages"] = list(self.stages)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "JobSpec":
        """Rebuild a job from :meth:`to_dict` output."""
        _require_object(payload, "job")
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise CampaignSpecError(f"unknown job fields: {sorted(unknown)}")
        return cls(**payload)

    def job_key(self) -> str:
        """Content hash identifying this job in the result store.

        The hash covers every job parameter plus the spec schema version:
        any change to what the job would compute yields a new key, so the
        cache can only ever return results for the exact configuration.
        """
        canonical = json.dumps(
            {"schema": SPEC_SCHEMA, "job": self.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def stage_key(self, stage: str) -> str:
        """Content hash of one stage's *inputs* (see STAGE_DEPENDENCIES).

        Unlike :meth:`job_key` this only covers the fields the stage
        reads, so two jobs differing only in (say) the workload seed
        share the structural stages' keys — the basis for incremental
        re-verification and artifact reuse across sweeps.
        """
        try:
            dependencies = STAGE_DEPENDENCIES[stage]
        except KeyError:
            raise CampaignSpecError(
                f"unknown stage {stage!r}; expected one of {list(CANONICAL_STAGES)}"
            ) from None
        canonical = json.dumps(
            {
                "schema": SPEC_SCHEMA,
                "stage": stage,
                "deps": {name: getattr(self, name) for name in dependencies},
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CampaignSpec:
    """A named batch of verification jobs and how to shard them."""

    name: str
    jobs: Tuple[JobSpec, ...]
    workers: int = 2

    def __post_init__(self):
        _check_types(self, ("workers",), ("name",))
        if not self.jobs:
            raise CampaignSpecError("campaign needs at least one job")
        if self.workers < 1:
            raise CampaignSpecError("workers must be at least 1")
        object.__setattr__(self, "jobs", tuple(self.jobs))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (inverse of :meth:`from_dict`)."""
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "workers": self.workers,
            "jobs": [job.to_dict() for job in self.jobs],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a campaign from :meth:`to_dict` output."""
        _require_object(payload, "campaign")
        schema = payload.get("schema", SPEC_SCHEMA)
        if schema != SPEC_SCHEMA:
            raise CampaignSpecError(
                f"campaign spec schema {schema} not supported (expected {SPEC_SCHEMA})"
            )
        try:
            jobs = payload["jobs"]
            name = payload["name"]
        except KeyError as exc:
            raise CampaignSpecError(f"campaign spec missing field {exc}") from exc
        if not isinstance(jobs, list):
            raise CampaignSpecError("campaign jobs must be a list of job objects")
        return cls(
            name=name,
            jobs=tuple(JobSpec.from_dict(job) for job in jobs),
            workers=payload.get("workers", 2),
        )

    def campaign_key(self) -> str:
        """Content hash identifying this campaign's *work*, not its sharding.

        Covers the schema version and every job (in order) but not the
        worker count or campaign name, so two submissions asking for the
        same verification work coalesce to one key even if they disagree
        about parallelism or labelling.  The service daemon uses this to
        deduplicate concurrent identical submissions onto one running job.
        """
        canonical = json.dumps(
            {"schema": SPEC_SCHEMA, "jobs": [job.to_dict() for job in self.jobs]},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def dumps(self) -> str:
        """Serialize to pretty-printed JSON."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "CampaignSpec":
        """Parse a campaign from JSON text."""
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignSpecError(f"campaign spec is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise CampaignSpecError("campaign spec must be a JSON object")
        return cls.from_dict(payload)

    def save(self, path: str) -> None:
        """Write the campaign spec to a JSON file."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())

    @classmethod
    def load(cls, path: str) -> "CampaignSpec":
        """Read a campaign spec from a JSON file."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())


def family_sweep(
    name: str = "family-sweep",
    registers: Sequence[int] = (2, 4),
    widths: Sequence[int] = (1, 2),
    depths: Sequence[int] = (3, 4, 5),
    latency_steps: Sequence[int] = (1,),
    styles: Sequence[str] = ("bypass", "blocking"),
    loadstore: Sequence[bool] = (False,),
    waits: Sequence[bool] = (False,),
    extra_archs: Sequence[str] = (),
    workers: int = 2,
    stages: Sequence[str] = CANONICAL_STAGES,
    workload_length: int = 48,
    workload_seed: int = 0,
    num_programs: int = 1,
    max_faults: int = 4,
) -> CampaignSpec:
    """A campaign over the parametric family grid (plus named extras).

    The default grid spans 24 configurations — every combination of
    register count, issue width, depth and scoreboard style — which is the
    acceptance-size sweep; widening any axis scales the campaign without
    further code.
    """
    configs: List[FamilyConfig] = generate_family(
        registers=registers,
        widths=widths,
        depths=depths,
        latency_steps=latency_steps,
        styles=styles,
        loadstore=loadstore,
        waits=waits,
    )
    arch_names = [config.name for config in configs] + list(extra_archs)
    jobs = tuple(
        JobSpec(
            arch=arch,
            stages=tuple(stages),
            workload_length=workload_length,
            workload_seed=workload_seed,
            num_programs=num_programs,
            max_faults=max_faults,
        )
        for arch in arch_names
    )
    return CampaignSpec(name=name, jobs=jobs, workers=workers)
