"""Tests for gateway metrics: throughput, shard balance, rendering."""

from repro.service.cache import LruCache
from repro.service.metrics import GatewayMetrics


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSnapshot:
    def test_throughput_uses_injected_clock(self):
        clock = ManualClock()
        metrics = GatewayMetrics(clock=clock)
        for _ in range(10):
            metrics.observe("reencrypt", 1.0, "shard-00")
        clock.now = 2.0
        snapshot = metrics.snapshot()
        assert snapshot.throughput_rps == 5.0
        assert snapshot.elapsed_s == 2.0

    def test_zero_elapsed_throughput_is_zero(self):
        metrics = GatewayMetrics(clock=ManualClock())
        metrics.observe("reencrypt", 1.0, "shard-00")
        assert metrics.snapshot().throughput_rps == 0.0

    def test_shard_imbalance(self):
        metrics = GatewayMetrics(clock=ManualClock())
        for _ in range(30):
            metrics.observe("reencrypt", 1.0, "shard-00")
        for _ in range(10):
            metrics.observe("reencrypt", 1.0, "shard-01")
        # max/mean = 30 / 20
        assert metrics.snapshot().shard_imbalance == 1.5

    def test_perfect_balance_and_empty_are_one(self):
        metrics = GatewayMetrics(clock=ManualClock())
        assert metrics.snapshot().shard_imbalance == 1.0
        metrics.observe("reencrypt", 1.0, "a")
        metrics.observe("reencrypt", 1.0, "b")
        assert metrics.snapshot().shard_imbalance == 1.0

    def test_rejections_split_by_cause(self):
        metrics = GatewayMetrics(clock=ManualClock())
        metrics.observe_rejection(rate_limited=True)
        metrics.observe_rejection()
        snapshot = metrics.snapshot()
        assert snapshot.rate_limited == 1
        assert snapshot.rejected == 1
        assert snapshot.requests_total == 2
        assert snapshot.served == 0

    def test_rows_render_for_the_report_table(self):
        clock = ManualClock()
        metrics = GatewayMetrics(clock=clock)
        metrics.observe("reencrypt", 2.0, "shard-00")
        clock.now = 1.0
        cache = LruCache(4, name="result_cache")
        cache.put("k", 1)
        cache.get("k")
        rows = metrics.snapshot(caches={"result_cache": cache.stats()}).rows()
        labels = [row[0] for row in rows]
        assert "throughput req/s" in labels
        assert "reencrypt p50/p90 ms" in labels
        assert "result_cache hit rate" in labels
        assert all(len(row) == 2 for row in rows)
