"""E10 — the elastic gateway: concurrency, resize cost, crash durability.

Three deployment questions raised by the PR-1 follow-ups:

1. **Concurrent shard execution** — when shards model *remote* proxy
   nodes (each transformation pays a service round-trip), does the
   shard-pool overlap those waits?  Sequential execution pays the RTT
   once per item; concurrent execution pays it once per longest shard
   queue.  The pure single-host CPU case is also reported for honesty:
   under the GIL, threading cannot beat sequential on pairing math, and
   the table says so rather than hiding it.

2. **Resize cost** — how long does a live rebalance take, how many keys
   move, and how close is the moved fraction to the consistent-hashing
   ideal?

3. **Durability** — kill the gateway (no clean shutdown beyond the
   per-append flush), reload the state dir, and check that *every*
   installed delegation re-encrypts — asserted, not just reported.

TOY parameters: like E5/E9 this measures workload structure, not key size.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass

from repro.bench.report import print_table
from repro.core.proxy import ProxyKeyTable, ProxyService
from repro.service.driver import DELEGATEE_DOMAIN, build_setting
from repro.service.gateway import GrantRequest, ReEncryptionGateway, ReEncryptRequest
from repro.service.router import ShardRouter

SHARDS = 4
WORKERS = 4
REMOTE_RTT_S = 0.005  # modelled service latency of one remote shard call


@dataclass
class RemoteShardStub(ProxyService):
    """A proxy shard that charges a service round-trip per transformation."""

    latency_s: float = 0.0

    def reencrypt_with_key(self, ciphertext, key):
        if self.latency_s:
            time.sleep(self.latency_s)
        return super().reencrypt_with_key(ciphertext, key)


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


def _installed_keys(gateway):
    keys = []
    for name in gateway.shard_names:
        keys.extend(gateway.shard_named(name).table)
    return keys


def _spread_requests(setting):
    """One request per delegation — every group is distinct, no cache hits."""
    requests = []
    for (patient, type_label), entries in sorted(setting.pool.items()):
        ciphertext, _ = entries[0]
        for delegatee in setting.delegatees:
            requests.append(
                ReEncryptRequest(
                    tenant=patient,
                    ciphertext=ciphertext,
                    delegatee_domain=DELEGATEE_DOMAIN,
                    delegatee=delegatee,
                )
            )
    return requests


def _gateway(scheme, keys, workers, latency_s):
    def factory(name, table):
        return RemoteShardStub(
            scheme,
            name=name,
            table=table if table is not None else ProxyKeyTable(),
            latency_s=latency_s,
        )

    gateway = ReEncryptionGateway(
        scheme, shard_count=SHARDS, workers=workers, shard_factory=factory
    )
    for key in keys:
        gateway.grant(GrantRequest(tenant="bench", proxy_key=key))
    return gateway


def _timed_batch(gateway, requests):
    start = time.perf_counter()
    responses = gateway.reencrypt_batch(requests)
    return time.perf_counter() - start, responses


def test_e10_concurrent_beats_sequential_on_remote_shards():
    setting = _setting()
    keys = _installed_keys(setting.gateway)
    requests = _spread_requests(setting)
    rows = []

    # Remote-shard model: the wait dominates, concurrency overlaps it.
    sequential = _gateway(setting.backend, keys, workers=0, latency_s=REMOTE_RTT_S)
    concurrent = _gateway(setting.backend, keys, workers=WORKERS, latency_s=REMOTE_RTT_S)
    seq_remote, seq_out = _timed_batch(sequential, requests)
    con_remote, con_out = _timed_batch(concurrent, requests)
    assert [r.ciphertext for r in con_out] == [r.ciphertext for r in seq_out]
    sequential.close()
    concurrent.close()
    rows.append(
        [
            "remote shards (%.0fms RTT)" % (REMOTE_RTT_S * 1000),
            "%.1f" % (seq_remote * 1000),
            "%.1f" % (con_remote * 1000),
            "%.2fx" % (seq_remote / con_remote),
        ]
    )

    # Single-host CPU model: the GIL serializes pairing math; report it.
    sequential = _gateway(setting.backend, keys, workers=0, latency_s=0.0)
    concurrent = _gateway(setting.backend, keys, workers=WORKERS, latency_s=0.0)
    seq_cpu, _ = _timed_batch(sequential, requests)
    con_cpu, _ = _timed_batch(concurrent, requests)
    sequential.close()
    concurrent.close()
    rows.append(
        [
            "local shards (pure CPU, GIL)",
            "%.1f" % (seq_cpu * 1000),
            "%.1f" % (con_cpu * 1000),
            "%.2fx" % (seq_cpu / con_cpu),
        ]
    )

    print_table(
        "E10: %d-delegation batch, %d shards, %d workers" % (len(requests), SHARDS, WORKERS),
        ["fleet model", "sequential ms", "concurrent ms", "speedup"],
        rows,
    )

    # The acceptance anchor: on multi-delegation remote-shard workloads
    # the shard pool must genuinely overlap the service round-trips.
    assert con_remote < seq_remote * 0.9, (
        "concurrent execution (%.1fms) did not beat sequential (%.1fms)"
        % (con_remote * 1000, seq_remote * 1000)
    )


def test_e10_resize_cost_and_minimal_migration():
    setting = _setting()
    gateway = setting.gateway
    total_keys = gateway.key_count()
    route_keys = {
        (k.delegator_domain, k.delegator, k.type_label)
        for k in _installed_keys(gateway)
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
            ProxyKeyTable.index_of(key) for key in _installed_keys(gateway)
        }
        # "Kill": drop the gateway without close(); appends are already
        # flushed, which is exactly the durability being measured.
        del gateway

        start = time.perf_counter()
        reloaded = ReEncryptionGateway(
            setting.backend, shard_count=SHARDS, state_dir=state_dir
        )
        reload_ms = (time.perf_counter() - start) * 1000

        recovered = {ProxyKeyTable.index_of(key) for key in _installed_keys(reloaded)}
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
