"""Metric definitions: the end-to-end set and the traced per-layer set.

Per-layer values are per timed operation (totals over the traced
operations divided by their count), so a run's length does not move them.
``moves`` names the end-to-end metric a change to that layer should move,
and on which workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from spans import LayerTotals

#: (name, unit, better)
END_TO_END: tuple[tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("point_s_p50", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    value: Callable[[LayerTotals], float]
    moves: str
    #: Divide the run's total by its operation count (ratios are not).
    per_op: bool = True
    better: str = "lower"


def _calls(span: str) -> Callable[[LayerTotals], float]:
    return lambda t: t.calls.get(span, 0)


def _self(span: str) -> Callable[[LayerTotals], float]:
    return lambda t: t.self_s.get(span, 0.0)


def _count(key: str) -> Callable[[LayerTotals], float]:
    return lambda t: t.counts.get(key, 0)


def _us_per_req(t: LayerTotals) -> float:
    offered = t.counts.get("engine.offered", 0)
    return 1e6 * t.self_s.get("engine", 0.0) / offered if offered else 0.0


_GRAPH = "point_s_p50 on train-reddit; about flat on sweep-reddit"
_BOTH = "point_s_p50 on sweep-reddit and train-reddit"
_NOC = "point_s_p50 on sweep-reddit; not train-reddit"
_STORE = "wall_s on sweep-reddit"
_ENGINE = "items_per_s on serve-plain and serve-chaos"

#: Layer metrics computed from the spans below the timed operations.
PER_OP: tuple[LayerMetric, ...] = (
    LayerMetric("graph.calls", "count", _calls("graph"), _GRAPH),
    LayerMetric("graph.s", "s", _self("graph"), _GRAPH),
    LayerMetric("graph.edges", "count", _count("graph.edges"), _GRAPH),
    LayerMetric("partition.calls", "count", _calls("partition"),
                "3 per campaign on sweep-reddit under a workload cache"),
    LayerMetric("partition.s", "s", _self("partition"), _BOTH),
    LayerMetric("partition.edge_cut", "count", _count("partition.edge_cut"), _BOTH),
    LayerMetric("batching.s", "s", _self("batching"), _BOTH),
    LayerMetric("batching.blocks", "count", _count("batching.blocks"), _BOTH),
    LayerMetric("mapping.calls", "count", _calls("mapping"), _NOC),
    LayerMetric("mapping.s", "s", _self("mapping"), _NOC),
    LayerMetric("traffic.calls", "count", _calls("traffic"), _NOC),
    LayerMetric("traffic.s", "s", _self("traffic"), _NOC),
    LayerMetric("traffic.messages", "count", _count("traffic.messages"), _NOC),
    LayerMetric("noc.calls", "count", _calls("noc"), _NOC),
    LayerMetric("noc.s", "s", _self("noc"), _NOC),
    LayerMetric("noc.flit_hops", "count", _count("noc.flit_hops"), _NOC),
    LayerMetric("evaluate.self_s", "s", _self("evaluate"), _BOTH),
    LayerMetric("thermal.s", "s", _self("thermal"), _BOTH),
    LayerMetric("store.gets", "count", _calls("store.get"), _STORE),
    LayerMetric("store.hits", "count", _count("store.hits"), _STORE, better="higher"),
    LayerMetric("store.puts", "count", _calls("store.put"), _STORE),
    LayerMetric("store.get_s", "s", _self("store.get"), _STORE),
    LayerMetric("store.put_s", "s", _self("store.put"), _STORE),
    LayerMetric("arrivals.s", "s", _self("arrivals"), "items_per_s on serve-plain most"),
    LayerMetric("arrivals.requests", "count", _count("arrivals.requests"),
                "items_per_s on serve-plain most"),
    LayerMetric("engine.s", "s", _self("engine"), _ENGINE),
    LayerMetric("engine.us_per_req", "us", _us_per_req, _ENGINE, per_op=False),
    *(
        LayerMetric(f"engine.{kind}", "count", _count(f"engine.{kind}"), _ENGINE,
                    better="higher" if kind == "completed" else "lower")
        for kind in ("batches", "completed", "shed", "failed", "retries",
                     "crashes", "hedges_fired", "hedges_cancelled",
                     "scale_events")
    ),
    LayerMetric("trace.residual_s", "s", lambda t: t.residual_s,
                "host time of an operation outside every wrapped layer"),
)

#: Metrics of the traced run as a whole: (name, unit, meaning).
RUN_LEVEL: tuple[tuple[str, str, str], ...] = (
    ("service.calibrate_s", "s", "setup_s on serve-plain and serve-chaos"),
    ("trace.wall_s", "s", "traced seconds per operation (normalised)"),
    ("trace.untraced_wall_s", "s", "untraced seconds per operation, same inputs"),
    ("trace.overhead", "ratio", "traced over untraced seconds per operation"),
)

PER_LAYER_NAMES: tuple[str, ...] = tuple(m.name for m in PER_OP) + tuple(
    name for name, _, _ in RUN_LEVEL
)
#: Every layer metric is better lower except these.
HIGHER_IS_BETTER = frozenset(m.name for m in PER_OP if m.better == "higher")
UNITS: dict[str, str] = {
    **{name: unit for name, unit, _ in END_TO_END},
    **{m.name: m.unit for m in PER_OP},
    **{name: unit for name, unit, _ in RUN_LEVEL},
}
