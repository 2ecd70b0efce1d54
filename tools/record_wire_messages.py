"""Record the golden wire messages, ``tests/data/wire_messages.json``.

Every message type's :func:`to_wire` bytes, as built by
``tests/test_wire_messages.py``.  Entries marked ``decode_only`` in the
existing file (older spellings decoders must keep reading) are carried
over unchanged.  Re-record only for a deliberate wire change.

Usage:
    PYTHONPATH=src python tools/record_wire_messages.py
    PYTHONPATH=src python tools/record_wire_messages.py --out fresh.json
"""

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tests"))

from test_wire_messages import MESSAGES_PATH, record_messages  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=MESSAGES_PATH)
    args = parser.parse_args(argv)
    previous = (
        json.loads(MESSAGES_PATH.read_text(encoding="utf-8"))
        if MESSAGES_PATH.exists()
        else []
    )
    entries = record_messages(previous)
    args.out.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print("recorded %d messages to %s" % (len(entries), args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
