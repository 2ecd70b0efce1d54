"""E9 — the re-encryption gateway under a repeated-delegatee workload.

The deployment question behind :mod:`repro.service`: what does the
sharded, cached gateway buy over calling one ``ProxyService`` directly?
The workload repeats (delegator, delegatee, type) triples the way a
clinical day does — the same doctor opening the same patient's history —
so the KEM-result cache converts repeat transformations into lookups.

Measured: direct-proxy baseline throughput, gateway throughput across
shard counts (unbatched and batched), cache hit rates and shard balance;
plus the correctness anchor that batched and unbatched execution produce
identical plaintexts after delegatee decryption.

TOY parameters: like E5 this measures workload structure, not key size.
"""

from __future__ import annotations

import time

from repro.bench.report import print_table
from repro.core.proxy import ProxyService
from repro.math.drbg import HmacDrbg
from repro.service.driver import (
    DELEGATEE_DOMAIN,
    build_setting,
    drive_requests,
)
from repro.service.gateway import ReEncryptRequest

N_REQUESTS = 120
SHARD_COUNTS = (1, 4)


def _request_stream(setting, n_requests, seed):
    """The same seeded stream the driver replays, materialized as tuples."""
    rng = HmacDrbg(seed)
    for _ in range(n_requests):
        patient = rng.choice(setting.patients)
        type_label = rng.choice(setting.types)
        delegatee = rng.choice(setting.delegatees)
        ciphertext, message = rng.choice(setting.pool[(patient, type_label)])
        yield ciphertext, delegatee, message


def _direct_baseline(setting, seed):
    """One monolithic ProxyService holding every key — the seed's design."""
    proxy = ProxyService(setting.backend)
    for key in setting.gateway.list_keys():
        proxy.install_key(key)
    start = time.perf_counter()
    for ciphertext, delegatee, _ in _request_stream(setting, N_REQUESTS, seed):
        proxy.reencrypt(ciphertext, DELEGATEE_DOMAIN, delegatee)
    elapsed = time.perf_counter() - start
    return N_REQUESTS / elapsed


def test_e9_gateway_throughput(benchmark):
    rows = []
    baseline_setting = build_setting(group_name="TOY", shard_count=1, seed="e9-baseline")
    rows.append(
        ["direct ProxyService", "-", "%.0f" % _direct_baseline(baseline_setting, "e9-stream"), "-", "-"]
    )

    last_setting = None
    for shard_count in SHARD_COUNTS:
        for batch_size, label in ((0, "gateway"), (8, "gateway batch=8")):
            setting = build_setting(
                group_name="TOY", shard_count=shard_count, seed="e9-run"
            )
            # Time the request stream alone: grants and the per-sample
            # verification decrypts stay out of the throughput number.
            start = time.perf_counter()
            drive_requests(
                setting,
                N_REQUESTS,
                seed="e9-stream",
                batch_size=batch_size,
                verify_every=N_REQUESTS + 1,
            )
            elapsed = time.perf_counter() - start
            snapshot = setting.gateway.snapshot()
            hit_rate = snapshot.caches["result_cache"].hit_rate
            rows.append(
                [
                    label,
                    str(shard_count),
                    "%.0f" % (N_REQUESTS / elapsed),
                    "%.0f%%" % (100 * hit_rate),
                    "%.2f" % snapshot.shard_imbalance,
                ]
            )
            # The repeated-delegatee workload must actually hit the cache.
            assert hit_rate > 0
            last_setting = setting

    print_table(
        "E9: gateway vs direct proxy (%d requests, TOY)" % N_REQUESTS,
        ["configuration", "shards", "req/s", "result-cache hits", "imbalance"],
        rows,
    )

    # Benchmark anchor: one gateway request on a warm cache.
    ciphertext, delegatee, _ = next(_request_stream(last_setting, 1, "e9-anchor"))
    request = ReEncryptRequest(
        tenant="bench",
        ciphertext=ciphertext,
        delegatee_domain=DELEGATEE_DOMAIN,
        delegatee=delegatee,
    )
    benchmark.pedantic(lambda: last_setting.gateway.reencrypt(request), rounds=5, iterations=1)


def test_e9_batching_equivalence():
    """Batched and sequential paths recover identical plaintexts."""
    sequential = build_setting(group_name="TOY", shard_count=2, seed="e9-eq")
    batched = build_setting(group_name="TOY", shard_count=2, seed="e9-eq")

    checked = 0
    batch_requests, batch_messages = [], []
    for ciphertext, delegatee, message in _request_stream(sequential, 24, "e9-eq-stream"):
        request = ReEncryptRequest(
            tenant="eq",
            ciphertext=ciphertext,
            delegatee_domain=DELEGATEE_DOMAIN,
            delegatee=delegatee,
        )
        response = sequential.gateway.reencrypt(request)
        recovered = sequential.backend.decrypt_reencrypted(
            response.ciphertext, sequential.delegatee_domain, delegatee
        )
        assert recovered == message
        batch_requests.append((request, delegatee))
        batch_messages.append(message)

    responses = batched.gateway.reencrypt_batch([r for r, _ in batch_requests])
    for response, (_, delegatee), message in zip(responses, batch_requests, batch_messages):
        recovered = batched.backend.decrypt_reencrypted(
            response.ciphertext, batched.delegatee_domain, delegatee
        )
        assert recovered == message
        checked += 1
    assert checked == 24

    print_table(
        "E9: batching equivalence",
        ["property", "value"],
        [
            ["requests cross-checked", str(checked)],
            ["batched == sequential plaintexts", "True"],
        ],
    )
