"""Re-record the checked-in BENCH_*.json snapshots.

Benchmarks write their numeric results through
``repro.bench.report.record_bench_snapshot``, which refuses to overwrite
an existing snapshot unless ``REPRO_RECORD_BENCH`` is set — ordinary test
runs must never churn checked-in numbers.  This helper is the deliberate
path: it exports the flag, runs the selected benchmark files under
pytest, and reports which snapshots changed.

Every snapshot it writes is also appended to ``BENCH_HISTORY.jsonl`` as
one JSON line, ``{"name", "commit", "document"}``: the snapshot's name
(``E14``), the commit the checkout was on when it was measured, and the
document with its host stamp.  A re-recording replaces the snapshot but
not its history.

Usage:
    python tools/record_bench.py                 # every benchmarks/bench_*.py
    python tools/record_bench.py e14 e9          # just those experiments
"""

import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, "src")

from repro.bench.report import RECORD_ENV

REPO_ROOT = Path(__file__).resolve().parents[1]
HISTORY = REPO_ROOT / "BENCH_HISTORY.jsonl"


def select_benches(names: list[str]) -> list[Path]:
    bench_dir = REPO_ROOT / "benchmarks"
    all_benches = sorted(bench_dir.glob("bench_*.py"))
    if not names:
        return all_benches
    selected = []
    for name in names:
        token = name.lower()
        matches = [path for path in all_benches if token in path.stem.lower()]
        if not matches:
            raise SystemExit(
                "no benchmark matches %r (have: %s)"
                % (name, ", ".join(path.stem for path in all_benches))
            )
        selected.extend(matches)
    return sorted(set(selected))


def snapshot_states() -> dict[Path, float]:
    return {
        path: path.stat().st_mtime for path in sorted(REPO_ROOT.glob("BENCH_*.json"))
    }


def append_history(paths: list[Path]) -> None:
    """Append one line per written snapshot to ``BENCH_HISTORY.jsonl``."""
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True
    ).stdout.strip() or None
    with HISTORY.open("a", encoding="utf-8") as history:
        for path in paths:
            line = {
                "name": path.stem[len("BENCH_"):],
                "commit": commit,
                "document": json.loads(path.read_text(encoding="utf-8")),
            }
            history.write(json.dumps(line, sort_keys=True) + "\n")


def main(argv: list[str]) -> int:
    benches = select_benches(argv)
    before = snapshot_states()

    env = dict(os.environ)
    env[RECORD_ENV] = "1"
    env["PYTHONPATH"] = (
        "src" + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "src"
    )
    command = [sys.executable, "-m", "pytest", "-q"] + [str(b) for b in benches]
    print("running:", " ".join(command))
    result = subprocess.run(command, cwd=REPO_ROOT, env=env)

    after = snapshot_states()
    written = [
        path
        for path, mtime in after.items()
        if path not in before or mtime != before[path]
    ]
    if written:
        append_history(written)
        print("recorded (and appended to %s):" % HISTORY.name)
        for path in written:
            print("  %s" % path.relative_to(REPO_ROOT))
    else:
        print("no snapshots written")
    return result.returncode


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
