"""Record the golden binary containers, ``tests/data/containers.json``.

The canonical bytes of every container, as built by
``tests/test_containers.py``: the paper's eight (``tipre/v1``) and each
baseline scheme's three wrapped envelopes, on TOY from seeded RNGs.
Re-record only for a deliberate format change: durable key logs and
result-cache keys are these bytes.

Usage:
    PYTHONPATH=src python tools/record_containers.py
    PYTHONPATH=src python tools/record_containers.py --out fresh.json
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tests"))

from test_containers import CONTAINERS_PATH, record_containers  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=CONTAINERS_PATH)
    args = parser.parse_args(argv)
    entries = record_containers()
    args.out.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print("recorded %d containers to %s" % (len(entries), args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
