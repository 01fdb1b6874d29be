"""Analysis over campaign results: Pareto fronts and summary tables.

Both work on stored records directly, so a campaign revived from the
result store is analysed exactly like a freshly computed one.
"""

from __future__ import annotations

from typing import Sequence

from repro.campaign.results import CampaignResult, ScenarioRecord


def _objectives(record: ScenarioRecord) -> tuple[float, float, float]:
    return (record.epoch_seconds, record.epoch_energy_joules, record.peak_celsius)


def pareto_front(records: Sequence[ScenarioRecord]) -> list[ScenarioRecord]:
    """Pareto-efficient records on (epoch time, energy, peak temperature).

    A record is dominated if another is no worse on all three axes and
    strictly better on at least one.  Duplicate points never dominate
    each other, so exact ties all survive.  Input order is kept.
    """
    points = [_objectives(r) for r in records]
    return [
        record
        for record, p in zip(records, points)
        if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in points)
    ]


def campaign_table(result: CampaignResult):
    """Fixed-width summary of a campaign run (what the CLI prints).

    Columns and cells come from the record class, so architecture and
    serving campaigns share this one table.
    """
    from repro.experiments.common import ExperimentTable

    columns = type(result.records[0]).TABLE_COLUMNS if result.records else ("scenario",)
    table = ExperimentTable(
        f"Campaign {result.name!r}: {len(result)} scenarios, "
        f"{result.hits} cached / {result.misses} evaluated "
        f"in {result.elapsed_seconds:.1f}s",
        list(columns),
    )
    for record in result.records:
        table.add_row(*record.table_row())
    return table
