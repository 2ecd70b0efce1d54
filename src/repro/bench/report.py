"""Plain-text table rendering and JSON snapshots for the experiment harness.

Every bench prints its results as an aligned table (the "same rows the
paper would report"); EXPERIMENTS.md embeds the captured output.
:func:`record_bench_snapshot` additionally checks a ``BENCH_<name>.json``
document into the repo root so numeric results are diffable across PRs
(``tools/record_bench.py`` re-records them on demand), stamped with the
host it was measured on.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

from repro.math.backend import backend_name

__all__ = ["render_table", "print_table", "record_bench_snapshot"]

# Set (to anything non-empty) to overwrite existing BENCH_*.json files;
# tools/record_bench.py exports it around a pytest run.
RECORD_ENV = "REPRO_RECORD_BENCH"


def render_table(title: str, headers: list[str], rows: list[list[str]]) -> str:
    """Render an aligned monospace table with a title rule."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must match the header width")
    columns = [headers] + rows
    widths = [max(len(str(row[i])) for row in columns) for i in range(len(headers))]
    def fmt(row):
        return "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()
    rule = "-" * min(96, sum(widths) + 2 * (len(widths) - 1))
    lines = ["", "== %s ==" % title, fmt(headers), rule]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def print_table(title: str, headers: list[str], rows: list[list[str]]) -> None:
    """Print a table to stdout (captured by ``pytest -s`` / tee)."""
    print(render_table(title, headers, rows))


def record_bench_snapshot(name: str, document: dict, root: str | None = None) -> Path | None:
    """Write ``BENCH_<name>.json`` at the repo root; returns the path or None.

    The snapshot is written when the file does not exist yet (first
    recording) or when :data:`RECORD_ENV` is set (deliberate re-record);
    otherwise an existing snapshot is left untouched so ordinary bench
    runs never churn checked-in numbers.  The document gains a ``host``
    entry saying where it was measured (core count, Python version, int
    backend) and is serialized deterministically (sorted keys, trailing
    newline) to keep diffs clean.
    """
    if root is None:
        # src/repro/bench/report.py -> repo root is four levels up.
        root = Path(__file__).resolve().parents[3]
    path = Path(root) / ("BENCH_%s.json" % name.upper())
    if path.exists() and not os.environ.get(RECORD_ENV):
        return None
    host = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "int_backend": backend_name(),
    }
    document = dict(document, host=host)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
