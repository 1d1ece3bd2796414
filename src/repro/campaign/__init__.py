"""Parallel verification campaigns over many architectures.

The paper verifies one design; this package turns the whole flow —
Section 3.1 precondition checks, the symbolic fixed-point derivation,
the maximality theorem, per-stage proof obligations, fault-injection
campaigns and stall/coverage analysis — into a batch engine:

* :mod:`repro.campaign.spec` — declarative job/campaign specifications
  (dataclasses with a JSON round trip), including one-line family sweeps;
* :mod:`repro.campaign.runner` — the end-to-end verification job a single
  worker executes for one architecture;
* :mod:`repro.campaign.store` — a content-hashed store of per-job JSON
  results, binary BDD derivation artifacts and per-stage results keyed
  by dependency hashes, so re-running a campaign skips already-verified
  configurations and replays every unchanged *stage*;
* :mod:`repro.campaign.orchestrator` — shards pending jobs across a
  persistent warm process pool (live symbolic state per worker) and
  streams the results into an aggregate report;
* :mod:`repro.campaign.report` — pass/fail/timing aggregation rendered
  through :mod:`repro.analysis`.

Exposed on the command line as ``python -m repro campaign``, and as a
long-running HTTP service by :mod:`repro.service` (``python -m repro
serve``), which shares one :class:`ResultStore` and the warm worker pool
across all clients.

Quickstart::

    from repro.campaign import ResultStore, family_sweep, run_campaign

    spec = family_sweep(registers=(2,), widths=(1,), depths=(3,))
    report = run_campaign(spec, store=ResultStore(".campaign-results"))
    print(report.describe())      # per-stage pass rates, cache tally

The stage-replay contract lives in
:data:`~repro.campaign.spec.STAGE_DEPENDENCIES`: each stage's store key
hashes only the :class:`JobSpec` fields that stage reads, so editing a
workload knob re-runs only the stages that depend on it.  Any campaign
with a store replays them; ``use_cache=False`` re-executes every stage.
See ``docs/architecture.md`` for the layer map and ``help(run_campaign)``
for the orchestration knobs (streaming ``on_result``, cooperative
``should_stop`` cancellation).
"""

from .orchestrator import CampaignCancelled, run_campaign, shutdown_warm_pool
from .report import CampaignReport
from .runner import (
    CANONICAL_STAGES,
    JobResult,
    StageResult,
    clear_warm_state,
    run_verification_job,
)
from .spec import (
    STAGE_DEPENDENCIES,
    CampaignSpec,
    CampaignSpecError,
    JobSpec,
    family_sweep,
)
from .store import ResultStore

__all__ = [
    "CampaignCancelled",
    "CampaignReport",
    "CampaignSpec",
    "CampaignSpecError",
    "CANONICAL_STAGES",
    "JobResult",
    "JobSpec",
    "ResultStore",
    "STAGE_DEPENDENCIES",
    "StageResult",
    "clear_warm_state",
    "family_sweep",
    "run_campaign",
    "run_verification_job",
    "shutdown_warm_pool",
]
