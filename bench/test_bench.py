"""Tests of the benchmark harness itself; run with `python3 -m pytest bench`.

Each workload runs at a tiny duration. Nothing here asserts on a timing.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_DURATION = {"baseline": "2", "growth": "20", "swarm": "2"}


def tiny(name: str, **changes) -> run.Workload:
    workload = run.WORKLOADS[name]
    argv = list(workload.argv)
    argv[argv.index("--duration") + 1] = TINY_DURATION[name]
    return dataclasses.replace(workload, argv=tuple(argv), **changes)


def run_tiny(name: str, trace: bool, **changes) -> dict:
    return run.run_workload(
        name, tiny(name, **changes), seed=3, seconds=0, trace=trace, setup_samples=1
    )["summary"]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"][1:] == ["bench/run.py"]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_every_metric_is_emitted(name, trace):
    summary = run_tiny(name, trace)
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] == (2 if trace else 1)
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        key: metric["unit"] for key, metric in summary["metrics"].items()
    }


def test_traced_counts_follow_the_workload():
    metrics = run_tiny("growth", trace=True)["metrics"]
    for name in ("seeding.obs_draw", "engine.Trace.save", "cascade.tv_rows"):
        assert metrics[f"{name}.calls"]["value"] == 0
    assert metrics["hebbian.hebbian_tick.calls"]["value"] == 1000
    assert metrics["engine.ticks"]["value"] == 1000
    assert metrics["error_rate"]["value"] == 0


def test_wrong_expected_exit_is_counted_as_an_error():
    summary = run_tiny("growth", trace=True, expected_exit=0)
    assert summary["correct"] is False
    assert summary["failed"] == summary["attempted"] == 2
    assert summary["metrics"]["error_rate"]["value"] == 1.0


def test_without_sources_it_fails_and_prints_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "growth", "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""
