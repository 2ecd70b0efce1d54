"""Record the per-worker fleet layout, ``tests/data/legacy_fleet_state/``.

``serve --fleet N --state-dir S`` used to give every worker process a
durable key log of its own, ``S/shard-NN/keys.log``, instead of one
``S/keys.log`` at the router.  Opening such a state dir under ``--fleet``
folds those logs into ``S/keys.log``; ``tests/test_service_fleet.py``
pins that fold against this recording.

The script starts ``serve --http 0 --fleet 3 --state-dir S`` on TOY,
grants the seeded ``build_setting`` universe over the wire, then revokes
one delegation and re-grants another, so the logs hold both record
kinds.  It stops the router with SIGTERM and writes the worker logs
(``shard-NN/keys.log``) and ``expected.json`` (the seed and the live key
indices) into the output directory.

It records the old layout only when run from a checkout whose fleet
workers still keep their own logs (commit d5630fc or earlier), and
refuses otherwise.  The files pin what such fleets wrote, so they are
recorded once.

Usage:
    PYTHONPATH=src python tools/record_legacy_fleet_state.py
    PYTHONPATH=src python tools/record_legacy_fleet_state.py --out fresh/
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from record_legacy_state import write_expected

from repro.core.proxy import ProxyKeyTable
from repro.service.driver import build_setting
from repro.service.gateway import GrantRequest, RevokeRequest
from repro.service.wire import connect_gateway

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_OUT = REPO_ROOT / "tests" / "data" / "legacy_fleet_state"
SEED = "legacy-fleet-state"
GROUP = "TOY"
WORKERS = 3


def record(out: Path) -> dict:
    setting = build_setting(group_name=GROUP, shard_count=1, seed=SEED)
    keys = {ProxyKeyTable.index_of(key): key for key in setting.gateway.list_keys()}
    setting.gateway.close()
    revoked, regranted = sorted(keys)[0], sorted(keys)[-1]
    with tempfile.TemporaryDirectory() as scratch:
        state_dir = Path(scratch) / "state"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        router = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--http", "0",
             "--fleet", str(WORKERS), "--group", GROUP, "--state-dir", str(state_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
        )
        try:
            banner = router.stdout.readline()
            if "fleet gateway listening on" not in banner:
                raise SystemExit("the fleet did not start: %r" % banner)
            client = connect_gateway(banner.split()[4], setting.group)
            for index in sorted(keys):
                client.grant(GrantRequest("recorder", keys[index]))
            client.revoke(RevokeRequest("recorder", *revoked))
            client.grant(GrantRequest("recorder", keys[regranted]))
            live = sorted(ProxyKeyTable.index_of(key) for key in client.list_keys())
            client.close()
        finally:
            router.send_signal(signal.SIGTERM)
            router.wait(timeout=30)
            router.stdout.close()
        logs = sorted(str(path.relative_to(state_dir)) for path in state_dir.rglob("*.log"))
        expected_logs = ["shard-%02d/keys.log" % i for i in range(WORKERS)]
        if logs != expected_logs:
            raise SystemExit(
                "this checkout's fleet wrote %s, not the per-worker layout %s"
                % (logs, expected_logs)
            )
        shutil.rmtree(out, ignore_errors=True)
        for name in logs:
            (out / name).parent.mkdir(parents=True)
            shutil.copyfile(state_dir / name, out / name)
    expected = {
        "seed": SEED,
        "group": GROUP,
        "workers": WORKERS,
        "revoked": list(revoked),
        "regranted": list(regranted),
        "keys": [list(index) for index in live],
    }
    write_expected(out, expected)
    return expected


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    expected = record(args.out)
    print(
        "recorded %d worker logs holding %d keys to %s"
        % (expected["workers"], len(expected["keys"]), args.out)
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
