"""Record the golden wire transcript, ``tests/data/wire_transcript.json``.

The transcript is recorded from the gateway server's HTTP transport.
The cross-stack conformance test in ``tests/test_wire_aio.py`` only
reads that file.  Re-record it only for a deliberate wire change, and check
that two fresh recordings are byte-identical before committing one.

Usage:
    PYTHONPATH=src python tools/record_wire_transcript.py
    PYTHONPATH=src python tools/record_wire_transcript.py --out fresh.json
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tests"))

from test_wire_aio import TRANSCRIPT_PATH, record_transcript  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=TRANSCRIPT_PATH)
    args = parser.parse_args(argv)
    entries = record_transcript("aio-http")
    args.out.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print("recorded %d exchanges to %s" % (len(entries), args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
