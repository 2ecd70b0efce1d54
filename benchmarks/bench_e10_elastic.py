"""E10 — the elastic gateway: resize cost and crash durability.

Two deployment questions:

1. **Resize cost** — how long does a live rebalance take, how many keys
   change owning shard (none is copied: every shard shares one key
   table), and how close is that fraction to the consistent-hashing
   ideal?

2. **Durability** — kill the gateway (no clean shutdown beyond the
   per-append flush), reload the state dir, and check that *every*
   installed delegation re-encrypts — asserted, not just reported.

TOY parameters: like E5/E9 this measures workload structure, not key size.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from repro.bench.report import print_table
from repro.core.proxy import ProxyKeyTable
from repro.service.driver import DELEGATEE_DOMAIN, build_setting
from repro.service.gateway import ReEncryptionGateway, ReEncryptRequest
from repro.service.router import ShardRouter

SHARDS = 4


def _setting():
    """4 patients x 3 types x 2 delegatees: 24 delegations over 4 shards."""
    return build_setting(
        group_name="TOY",
        shard_count=SHARDS,
        n_patients=4,
        n_types=3,
        n_delegatees=2,
        ciphertexts_per_pair=1,
        seed="e10-elastic",
    )


def test_e10_resize_cost_and_minimal_migration():
    setting = _setting()
    gateway = setting.gateway
    total_keys = gateway.key_count()
    route_keys = {
        (k.delegator_domain, k.delegator, k.type_label)
        for k in gateway.list_keys()
    }
    rows = []
    for new_count in (8, 3):
        old_count = len(gateway.shard_names)
        old_router = ShardRouter(gateway.shard_names)
        report = gateway.resize(new_count)
        new_router = ShardRouter(gateway.shard_names)
        moved_fraction = old_router.moved_fraction(new_router, route_keys)
        rows.append(
            [
                "%d -> %d" % (old_count, new_count),
                "%.2f" % report.elapsed_ms,
                str(report.keys_moved),
                "%.0f%%" % (100 * moved_fraction),
            ]
        )
        assert gateway.key_count() == total_keys  # zero lost delegations
    print_table(
        "E10: live resize (%d keys installed)" % total_keys,
        ["resize", "ms", "keys moved", "route keys moved"],
        rows,
    )


def test_e10_kill_and_reload_restores_every_delegation():
    state_dir = tempfile.mkdtemp(prefix="e10-state-")
    try:
        setting = build_setting(
            group_name="TOY",
            shard_count=SHARDS,
            n_patients=3,
            n_types=2,
            n_delegatees=2,
            ciphertexts_per_pair=1,
            seed="e10-durable",
            state_dir=state_dir,
        )
        gateway = setting.gateway
        installed = {
            ProxyKeyTable.index_of(key) for key in gateway.list_keys()
        }
        # "Kill": drop the gateway without close(); appends are already
        # flushed, which is exactly the durability being measured.
        del gateway

        start = time.perf_counter()
        reloaded = ReEncryptionGateway(
            setting.backend, shard_count=SHARDS, state_dir=state_dir
        )
        reload_ms = (time.perf_counter() - start) * 1000

        recovered = {ProxyKeyTable.index_of(key) for key in reloaded.list_keys()}
        assert recovered == installed, "reload lost or invented delegations"

        verified = 0
        for (patient, type_label), entries in sorted(setting.pool.items()):
            ciphertext, message = entries[0]
            delegatee = setting.delegatees[0]
            response = reloaded.reencrypt(
                ReEncryptRequest(
                    tenant=patient,
                    ciphertext=ciphertext,
                    delegatee_domain=DELEGATEE_DOMAIN,
                    delegatee=delegatee,
                )
            )
            recovered_message = setting.backend.decrypt_reencrypted(
                response.ciphertext, setting.delegatee_domain, delegatee
            )
            assert recovered_message == message
            verified += 1
        reloaded.close()

        print_table(
            "E10: kill/reload durability (%d delegations)" % len(installed),
            ["metric", "value"],
            [
                ["delegations installed", str(len(installed))],
                ["delegations recovered", str(len(recovered))],
                ["plaintexts verified post-reload", str(verified)],
                ["reload time ms", "%.1f" % reload_ms],
            ],
        )
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
