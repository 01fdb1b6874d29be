"""Result records for campaign runs, with JSON/CSV export.

A :class:`ScenarioRecord` is the flat, JSON-serializable outcome of one
architecture scenario evaluation — exactly what the content-addressed
store persists, so a cached record and a freshly evaluated one are
indistinguishable (apart from the runtime-only ``cached`` flag).

:class:`CampaignResult` holds the records of one run, whatever their
kind: the serving layer's ``ServingRecord`` follows the same record
contract (``to_dict``/``from_dict``/``metrics``/``csv_row``/
``table_row`` plus ``TABLE_COLUMNS``), so export and summary code here
never branches on the record type.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, ClassVar, Mapping, Sequence


def flat_row(record: Any, **extra: Any) -> dict[str, Any]:
    """One CSV row: label, key, the scenario knobs, metrics, ``extra``."""
    row: dict[str, Any] = {"label": record.label, "key": record.key}
    row.update((k, v) for k, v in record.scenario.items() if k != "label")
    row.update(record.metrics())
    row.update(extra)
    row["cached"] = record.cached
    return row


@dataclass(frozen=True)
class ScenarioRecord:
    """Evaluation outcome of one scenario (see ``Scenario.describe``)."""

    TABLE_COLUMNS: ClassVar[tuple[str, ...]] = (
        "scenario", "epoch (s)", "energy (J)", "EDP", "peak (C)", "ok", "cached",
    )

    label: str
    key: str
    scenario: dict[str, Any]
    epoch_seconds: float
    epoch_energy_joules: float
    peak_celsius: float
    thermally_feasible: bool
    worst_compute_seconds: float
    worst_communication_seconds: float
    energy_per_input_joules: float
    num_inputs: int
    eval_seconds: float
    cached: bool = False

    @property
    def edp(self) -> float:
        return self.epoch_seconds * self.epoch_energy_joules

    def metrics(self) -> dict[str, float]:
        """The physical outcome alone — invariant under caching/timing."""
        return {
            "epoch_seconds": self.epoch_seconds,
            "epoch_energy_joules": self.epoch_energy_joules,
            "peak_celsius": self.peak_celsius,
            "thermally_feasible": self.thermally_feasible,
            "worst_compute_seconds": self.worst_compute_seconds,
            "worst_communication_seconds": self.worst_communication_seconds,
            "energy_per_input_joules": self.energy_per_input_joules,
            "num_inputs": self.num_inputs,
        }

    def csv_row(self) -> dict[str, Any]:
        return flat_row(self, edp=self.edp)

    def table_row(self) -> list[Any]:
        return [
            self.label,
            self.epoch_seconds,
            self.epoch_energy_joules,
            self.edp,
            self.peak_celsius,
            "yes" if self.thermally_feasible else "NO",
            "hit" if self.cached else "-",
        ]

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], cached: bool = False) -> "ScenarioRecord":
        """Revive a stored record written under the current schema."""
        return cls(**{**data, "cached": cached})


@dataclass
class CampaignResult:
    """Everything one campaign run produced, in scenario order."""

    name: str
    records: Sequence[Any]
    hits: int = 0
    misses: int = 0
    elapsed_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.records)

    def to_json(self, path: str | Path) -> Path:
        """Write the full campaign (records + cache stats) as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "campaign": self.name,
            "num_scenarios": len(self.records),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "elapsed_seconds": self.elapsed_seconds,
            "records": [r.to_dict() for r in self.records],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        return path

    def to_csv(self, path: str | Path) -> Path:
        """Write one flat row per scenario (knobs + metrics)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [r.csv_row() for r in self.records]
        columns = list(dict.fromkeys(name for row in rows for name in row))
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
        return path

    def table(self):
        from repro.campaign.analysis import campaign_table

        return campaign_table(self)
