"""Tests of the benchmark's own code.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _workloads():
    from workloads import WORKLOADS

    return WORKLOADS


def test_benchmark_json_metric_names_match_the_code():
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]] == [
        tuple(m) for m in metrics.END_TO_END
    ]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(metrics.PER_LAYER_NAMES)
    for m in BENCHMARK["per_layer"]:
        assert metrics.UNITS[m["name"]] == m["unit"]
        better = "higher" if m["name"] in metrics.HIGHER_IS_BETTER else "lower"
        assert m["better"] == better, m["name"]


def test_benchmark_json_workloads_match_the_code():
    listed = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert listed == {name: cls.why for name, cls in _workloads().items()}


def test_names_and_units_use_the_allowed_characters():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    names += [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    units = [m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(UNIT.match(u) for u in units)
    assert all(m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])


def _current(module: str, cls: str | None, attr: str):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    return vars(owner)[attr]


def test_tracer_wraps_and_restores_every_entry_point():
    originals = [_current(m, c, a) for _, m, c, a, _ in spans.ENTRY_POINTS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [_current(m, c, a) for _, m, c, a, _ in spans.ENTRY_POINTS]
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
    finally:
        tracer.remove()
    assert not tracer.installed
    assert [_current(m, c, a) for _, m, c, a, _ in spans.ENTRY_POINTS] == originals


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    with tracer.span("op"):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    outer, inner = tracer.spans[1], tracer.spans[2]
    own = tracer.self_seconds()
    assert own[1] == pytest.approx(outer.seconds - inner.seconds)
    totals = spans.LayerTotals.of(tracer, [0])
    assert totals.calls == {"outer": 1, "inner": 1}
    assert totals.residual_s == pytest.approx(own[0])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_workload_runs_at_tiny_size(workload, trace, capsys):
    originals = [_current(m, c, a) for _, m, c, a, _ in spans.ENTRY_POINTS]
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    # The traced run leaves the library exactly as it found it.
    assert [_current(m, c, a) for _, m, c, a, _ in spans.ENTRY_POINTS] == originals


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-plain",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_traced_run_fails_loudly_when_a_layer_records_no_calls(monkeypatch, capsys):
    serve = _workloads()["serve-plain"]
    monkeypatch.setattr(serve, "reaches", serve.reaches + ("partition",))
    code = run.main(["--workload", "serve-plain", "--seed", "3", "--seconds", "0.5",
                     "--trace", "1", "--size", "tiny"])
    captured = capsys.readouterr()
    assert code != 0
    assert "zero calls into partition" in captured.err
    assert captured.out == ""
