"""Record the per-shard durable layout, ``tests/data/legacy_state/``.

Gateways used to keep one append log per shard (``shard-00.log`` ...
``shard-03.log``) instead of one ``keys.log``.  Opening such a directory
folds those logs into ``keys.log``; ``tests/test_service_rebalance.py``
pins that fold against this recording.

The script builds the TOY ``build_setting`` universe behind a 4-shard
gateway with a durable state dir and a seeded DRBG, then revokes one
delegation and re-grants another, so the logs hold both record kinds.
It writes the shard logs and ``expected.json`` (the seed and the live
key indices) into the output directory.

It records the old layout only when run from a checkout whose gateway
still writes per-shard logs (commit 59ab566 or earlier), and refuses
otherwise.  The files pin what such gateways wrote, so they are
recorded once.

Usage:
    PYTHONPATH=src python tools/record_legacy_state.py
    PYTHONPATH=src python tools/record_legacy_state.py --out fresh/
"""

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

from repro.core.proxy import ProxyKeyTable
from repro.service.driver import build_setting
from repro.service.gateway import GrantRequest, RevokeRequest

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "tests" / "data" / "legacy_state"
SEED = "legacy-state"
GROUP = "TOY"
SHARDS = 4


def record(out: Path) -> dict:
    with tempfile.TemporaryDirectory() as scratch:
        state_dir = Path(scratch) / "state"
        setting = build_setting(
            group_name=GROUP, shard_count=SHARDS, seed=SEED, state_dir=str(state_dir)
        )
        gateway = setting.gateway
        keys = {ProxyKeyTable.index_of(key): key for key in gateway.list_keys()}
        revoked, regranted = sorted(keys)[0], sorted(keys)[-1]
        gateway.revoke(RevokeRequest("recorder", *revoked))
        gateway.grant(GrantRequest("recorder", keys[regranted]))
        live = sorted(ProxyKeyTable.index_of(key) for key in gateway.list_keys())
        gateway.close()
        logs = sorted(path.name for path in state_dir.iterdir())
        expected_logs = ["shard-%02d.log" % i for i in range(SHARDS)]
        if logs != expected_logs:
            raise SystemExit(
                "this checkout's gateway wrote %s, not the per-shard layout %s"
                % (logs, expected_logs)
            )
        out.mkdir(parents=True, exist_ok=True)
        for stale in out.glob("*.log"):
            stale.unlink()
        for name in logs:
            shutil.copyfile(state_dir / name, out / name)
    expected = {
        "seed": SEED,
        "group": GROUP,
        "shard_count": SHARDS,
        "revoked": list(revoked),
        "regranted": list(regranted),
        "keys": [list(index) for index in live],
    }
    write_expected(out, expected)
    return expected


def write_expected(out: Path, expected: dict) -> None:
    """``out/expected.json``, its ``keys`` list last, one key index per line
    so a re-recording diffs legibly."""
    lines = ['  "%s": %s' % (name, json.dumps(value)) for name, value in expected.items()]
    lines[-1] = '  "keys": [\n%s\n  ]' % ",\n".join(
        "    " + json.dumps(index) for index in expected["keys"]
    )
    (out / "expected.json").write_text("{\n%s\n}\n" % ",\n".join(lines), encoding="utf-8")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    expected = record(args.out)
    print(
        "recorded %d shard logs holding %d keys to %s"
        % (expected["shard_count"], len(expected["keys"]), args.out)
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
