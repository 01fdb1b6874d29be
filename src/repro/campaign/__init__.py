"""Campaign engine: declarative scenario sweeps with parallel execution
and a persistent, content-addressed result store.

The pieces:

* :mod:`repro.campaign.spec` — ``Scenario``/``CampaignSpec``: declarative
  cross-products over architecture and workload knobs; a scenario knows
  its own content key, leaf evaluator and record class.
* :mod:`repro.campaign.executor` — ``run_campaign``/``run_scenarios``, the
  one sweep runner for architecture and serving scenarios alike: serial or
  multi-process, cache-first, with structured progress events.
* :mod:`repro.campaign.store` — SHA-256 content-addressed JSON records
  under ``.repro_cache/`` (repeat sweeps are near-instant cache hits).
* :mod:`repro.campaign.results` — flat records + JSON/CSV export.
* :mod:`repro.campaign.presets` — named sweeps for ``python -m repro sweep``.
* :mod:`repro.campaign.analysis` — Pareto fronts and summary tables over
  campaign records.
"""

from repro.campaign.analysis import pareto_front
from repro.campaign.executor import ProgressEvent, run_campaign, run_scenarios
from repro.campaign.presets import PRESETS, get_preset, preset_names
from repro.campaign.results import CampaignResult, ScenarioRecord
from repro.campaign.spec import SCHEMA_VERSION, CampaignSpec, Scenario
from repro.campaign.store import ResultStore

__all__ = [
    "Scenario",
    "CampaignSpec",
    "SCHEMA_VERSION",
    "ScenarioRecord",
    "CampaignResult",
    "ResultStore",
    "ProgressEvent",
    "run_scenarios",
    "run_campaign",
    "pareto_front",
    "PRESETS",
    "get_preset",
    "preset_names",
]
