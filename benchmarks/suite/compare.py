"""Compare two sets of benchmark result documents, workload by workload.

    python3 benchmarks/suite/compare.py --base PARENT_DIR --change CHANGE_DIR

Each side is a list of result documents (``--trace 0`` JSON files written
by ``run.py``) or directories holding them.  For every workload, every
end-to-end metric of ``BENCHMARK.json`` and every recorded timing number
(``RECORDED``: measured, but too noisy on the reference host to gate),
the table shows each side's median and quartiles, the share of
(base, change) run pairs the change wins, and a verdict:

* ``improved``: the change wins at least nine tenths of all pairs (ties
  count for neither) and the medians differ by more than the distance
  between the base runs' quartiles;
* ``regressed``: the change's median is worse than the base median by
  more than the metric's bound (a share of the base median).  A recorded
  number has no bound: it regresses when the base wins nine tenths of the
  pairs and the medians differ by more than the base quartile distance;
* ``unresolved``: otherwise, when the base runs spread (quartile distance
  over median) wider than the bound, unless every change run beats every
  base run; and always for a recorded number, which has no bound to call
  it unchanged within;
* ``unchanged``: otherwise.

Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RECORDED = (
    ("latency_p50_ms", "lower"),
    ("latency_p90_ms", "lower"),
    ("throughput_ops_s", "higher"),
    ("server_cpu_ms_per_op", "lower"),
)


def load(paths: list[str]) -> dict[str, list[dict]]:
    """Untraced result documents by workload."""
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    documents = defaultdict(list)
    for file in files:
        document = json.loads(file.read_text())
        if document.get("trace") == 0:
            documents[document["workload"]].append(document)
    return documents


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


def verdict(base: list[float], change: list[float], better: str, bound: float | None):
    """(win fraction, verdict) for one workload and metric; ``bound`` None if ungated."""
    sign = 1 if better == "higher" else -1
    pairs = len(base) * len(change)
    wins = sum(1 for b in base for c in change if sign * (c - b) > 0)
    losses = sum(1 for b in base for c in change if sign * (c - b) < 0)
    b_low, b_median, b_high = quartiles(base)
    gain = sign * (statistics.median(change) - b_median)
    if wins >= 0.9 * pairs and gain > b_high - b_low:
        return wins / pairs, "improved"
    if bound is None:
        worse = losses >= 0.9 * pairs and -gain > b_high - b_low
        return wins / pairs, "regressed" if worse else "unresolved"
    if -gain > bound * abs(b_median):
        return wins / pairs, "regressed"
    if (b_high - b_low) > bound * abs(b_median) and wins < pairs:
        return wins / pairs, "unresolved"
    return wins / pairs, "unchanged"


def value(document: dict, name: str) -> float:
    if name in document["metrics"]:
        return document["metrics"][name]["value"]
    return document["recorded"][name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    rows = [
        (metric["name"], metric["better"], metric["bound"])
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    ] + [(name, better, None) for name, better in RECORDED]
    base, change = load(args.base), load(args.change)
    regressed = False
    print("%-12s %-24s %-30s %-30s %5s  %s" % (
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "verdict"))
    for workload in sorted(set(base) | set(change)):
        if not base.get(workload) or not change.get(workload):
            print("%-12s missing on one side" % workload)
            continue
        for name, better, bound in rows:
            sides = [[value(doc, name) for doc in docs[workload]] for docs in (base, change)]
            wins, outcome = verdict(*sides, better, bound)
            regressed |= outcome == "regressed"
            cells = [
                "%.4g [%.4g, %.4g]" % (median, low, high)
                for low, median, high in map(quartiles, sides)
            ]
            label = name if bound is not None else name + " (rec.)"
            print("%-12s %-24s %-30s %-30s %4.0f%%  %s"
                  % (workload, label, cells[0], cells[1], 100 * wins, outcome))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
