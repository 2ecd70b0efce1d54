"""Tests for the bench instrumentation helpers (timing, tables, snapshots)."""

import importlib.util
import json
import os
import platform
from pathlib import Path

import pytest

from repro.bench.report import RECORD_ENV, print_table, record_bench_snapshot, render_table
from repro.bench.timing import measure
from repro.math import backend as int_backend


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table("title", ["col-a", "b"], [["1", "22"], ["333", "4"]])
        lines = text.strip().splitlines()
        assert lines[0] == "== title =="
        assert "col-a" in lines[1]
        assert set(lines[2]) == {"-"}
        assert "333" in text

    def test_row_width_validated(self):
        with pytest.raises(ValueError):
            render_table("t", ["a", "b"], [["only-one"]])

    def test_empty_rows_ok(self):
        text = render_table("t", ["a"], [])
        assert "== t ==" in text

    def test_print_table_goes_to_stdout(self, capsys):
        print_table("hello", ["x"], [["y"]])
        captured = capsys.readouterr().out
        assert "hello" in captured and "y" in captured

    def test_wide_cells_set_column_width(self):
        text = render_table("t", ["h"], [["a-very-long-cell-value"]])
        header_line = text.strip().splitlines()[1]
        assert header_line == "h"


class TestMeasure:
    def test_basic_measurement(self):
        result = measure("noop", lambda: None, repeats=5)
        assert result.label == "noop"
        assert result.repeats == 5
        assert result.min_ms <= result.median_ms
        assert result.median_ms < 50  # a no-op cannot take 50ms

    def test_counts_operations_once(self, group):
        result = measure("mul", lambda: group.g1_mul(group.generator, 7), repeats=3)
        assert result.operations.get("g1_mul") == 1

    def test_operations_summary(self, group):
        result = measure("pair", lambda: group.pair(group.generator, group.generator), repeats=1)
        assert "pairing=1" in result.operations_summary()

    def test_empty_summary(self):
        result = measure("noop", lambda: None, repeats=1)
        assert result.operations_summary() == "-"

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            measure("x", lambda: None, repeats=0)

    def test_function_actually_runs(self):
        calls = []
        measure("count", lambda: calls.append(1), repeats=4)
        assert len(calls) == 4


class TestSnapshots:
    def test_every_snapshot_is_stamped_with_its_host(self, tmp_path, monkeypatch):
        monkeypatch.delenv(RECORD_ENV, raising=False)
        document = {"experiment": "stamp", "median_ms": {"x": 1.5}}
        path = record_bench_snapshot("stamp", document, root=tmp_path)
        written = json.loads(path.read_text())
        assert written == dict(
            document,
            host={
                "cores": os.cpu_count(),
                "python": platform.python_version(),
                "int_backend": int_backend.backend_name(),
            },
        )
        assert "host" not in document
        # An existing snapshot is left alone unless re-recording is asked for.
        assert record_bench_snapshot("stamp", {"experiment": "other"}, root=tmp_path) is None

    def test_re_recording_appends_to_the_history(self, tmp_path, monkeypatch):
        tool = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"
        spec = importlib.util.spec_from_file_location("record_bench", tool)
        record_bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(record_bench)
        monkeypatch.setattr(record_bench, "HISTORY", tmp_path / "BENCH_HISTORY.jsonl")
        monkeypatch.setenv(RECORD_ENV, "1")
        readings = []
        for overhead in (0.12, 0.04):
            path = record_bench_snapshot("E99", {"overhead": overhead}, root=tmp_path)
            record_bench.append_history([path])
            readings.append(json.loads(path.read_text()))
        lines = [json.loads(line) for line in record_bench.HISTORY.read_text().splitlines()]
        assert [line["document"] for line in lines] == readings
        assert [line["document"]["overhead"] for line in lines] == [0.12, 0.04]
        assert {line["name"] for line in lines} == {"E99"}
        assert all("commit" in line and "host" in line["document"] for line in lines)
