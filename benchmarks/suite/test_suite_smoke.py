"""Smoke test of the repo benchmark: every workload on TOY for about a second.

Checks ``BENCHMARK.json`` against the benchmark contract, that a run
emits every declared metric with its unit, and that a wrong expected
value makes a run fail.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

import pytest

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path.insert(0, str(SUITE))

import harness  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(autouse=True)
def _toy_group(monkeypatch):
    """Runs here use the TOY group and one trial."""
    monkeypatch.setattr(harness, "GROUP", "TOY")
    monkeypatch.setattr(harness, "TRIALS", 1)


def _run(tmp_path, capsys, *args: str) -> tuple[int, dict]:
    code = run.main([*args, "--out", str(tmp_path)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _assert_emits(result: dict, declared: list[dict]) -> None:
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float) and math.isfinite(emitted["value"])


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["paths"] == ["benchmarks/suite"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert 2 <= len(BENCHMARK["workloads"]) <= 8
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in BENCHMARK[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(harness.WORKLOADS)
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25 and UNIT.fullmatch(metric["unit"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"} and UNIT.fullmatch(metric["unit"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("workload", ["hot-read", "cold-read", "batch-read"])
def test_workload_emits_every_end_to_end_metric(workload, tmp_path, capsys):
    code, result = _run(tmp_path, capsys, "--workload", workload, "--seed", "smoke",
                        "--seconds", "1")
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    _assert_emits(result, BENCHMARK["end_to_end"])


def test_traced_round_emits_every_per_layer_metric(tmp_path, capsys):
    code, result = _run(tmp_path, capsys, "--workload", "grant-churn", "--seed", "smoke",
                        "--seconds", "3", "--trace", "1")
    assert code == 0 and result["correct"]
    _assert_emits(result, BENCHMARK["per_layer"])


def test_wrong_expected_value_fails_the_run(tmp_path, capsys, monkeypatch):
    prepare = harness.Universe.prepare

    def corrupted(universe, pairs):
        prepare(universe, pairs)
        first, second = list(universe.expected)[:2]
        universe.expected[first] = universe.expected[second]
        message, ciphertext = universe.records[first[:3]]
        universe.records[first[:3]] = (universe.records[second[:3]][0], ciphertext)

    monkeypatch.setattr(harness.Universe, "prepare", corrupted)
    code, result = _run(tmp_path, capsys, "--workload", "hot-read", "--seed", "smoke",
                        "--seconds", "0.5")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
