"""E12 — one gateway, many schemes: the PRE platform measured.

PR 4 promoted the bench-only adapter lifecycle into the backend API the
whole service stack runs on; this experiment is the payoff measured: the
E9-style gateway workload (sharded fleet, key + result caches, grouped
batching, decrypt-and-compare verification) swept across the registered
scheme backends.  Three readings per scheme:

1. **Gateway throughput** — the same seeded request stream, so the
   differences are the schemes' transformation costs, not workload
   shape.
2. **Cache efficacy** — hit rates of the proxy-key and KEM-result
   caches.  Every current backend declares ``deterministic_reencrypt``,
   so the result cache is live for all of them; the sweep shows how much
   of each scheme's pairing cost the cache actually absorbs.
3. **Batching gain** — batched vs unbatched wall clock, per scheme.

TOY parameters: like E9/E10/E11 this measures workload structure, not
key size.
"""

from __future__ import annotations

import time

from repro.bench.report import print_table
from repro.core.api import REGISTRY, available_schemes
from repro.service.driver import build_setting, drive_requests

REQUESTS = 72
BATCH = 6
SHARDS = 3


def _run_one(scheme_id: str, batch_size: int):
    setting = build_setting(
        scheme_id=scheme_id,
        group_name="TOY",
        shard_count=SHARDS,
        n_patients=3,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=2,
        seed="e12-" + scheme_id,
    )
    try:
        start = time.perf_counter()
        verified = drive_requests(
            setting,
            REQUESTS,
            seed="e12-requests",
            batch_size=batch_size,
            verify_every=8,
        )
        elapsed_s = time.perf_counter() - start
        snapshot = setting.gateway.snapshot()
        return elapsed_s, verified, snapshot
    finally:
        setting.gateway.close()


def test_e12_multischeme_gateway_sweep():
    """Every registered backend serves the identical gateway workload."""
    scheme_ids = available_schemes()
    assert len(scheme_ids) >= 3, "the platform claim needs at least 3 schemes"

    rows = []
    for scheme_id in scheme_ids:
        unbatched_s, verified_u, _snap = _run_one(scheme_id, batch_size=0)
        batched_s, verified_b, snapshot = _run_one(scheme_id, batch_size=BATCH)
        assert verified_u > 0 and verified_b > 0, (
            "end-to-end verification failed for %s" % scheme_id
        )
        key_cache = snapshot.caches["key_cache"]
        result_cache = snapshot.caches["result_cache"]
        rows.append(
            [
                scheme_id,
                REGISTRY.backend_class(scheme_id).display_name,
                "%.0f" % (REQUESTS / unbatched_s),
                "%.0f" % (REQUESTS / batched_s),
                "%.2fx" % (unbatched_s / batched_s),
                "%.0f%%" % (100 * key_cache.hit_rate),
                "%.0f%%" % (100 * result_cache.hit_rate),
                str(verified_u + verified_b),
            ]
        )

    print_table(
        "E12: one gateway, %d schemes — %d requests, %d shards, batch=%d"
        % (len(scheme_ids), REQUESTS, SHARDS, BATCH),
        [
            "scheme",
            "name",
            "req/s",
            "req/s batched",
            "batch gain",
            "key-cache hits",
            "result-cache hits",
            "verified",
        ],
        rows,
    )


def test_e12_result_cache_absorbs_repeat_traffic():
    """A repeated-delegatee stream must hit the result cache for every
    deterministic backend — the cache works identically across schemes."""
    for scheme_id in available_schemes():
        if not REGISTRY.backend_class(scheme_id).capabilities.deterministic_reencrypt:
            continue
        _elapsed, _verified, snapshot = _run_one(scheme_id, batch_size=0)
        result_cache = snapshot.caches["result_cache"]
        assert result_cache.hits > 0, (
            "%s served %d repeat requests without one result-cache hit"
            % (scheme_id, REQUESTS)
        )
