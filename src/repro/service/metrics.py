"""Gateway observability: latency, throughput and shard balance.

Everything is snapshot-based: the live :class:`GatewayMetrics` object
accumulates counters and latency histograms, and :meth:`GatewayMetrics.snapshot`
freezes them into plain dataclasses the CLI and benchmarks render.  The
clock is injectable so tests assert on exact numbers instead of sleeping.

Latency lives in fixed-bucket :class:`~repro.service.telemetry.Histogram`
accumulators rather than sample lists: every observation always counts
(the old lists kept the first 50k samples and silently dropped the rest,
freezing long-run percentiles on startup traffic), and memory stays
bounded by the bucket count rather than the traffic volume.  Count, sum
and max are exact; only the percentiles are bucket-resolution estimates.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.service.cache import CacheStats
from repro.service.telemetry import Histogram, HistogramSnapshot

__all__ = [
    "LatencySummary",
    "MetricsSnapshot",
    "GatewayMetrics",
    "WireServerStats",
    "WireStatsSnapshot",
]

# Distinct tenants tracked in the per-tenant outcome counters; traffic
# from tenants past the cap is folded into one overflow label so a churn
# of one-shot tenants cannot grow the metrics without bound.
_MAX_TENANT_LABELS = 1024
_TENANT_OVERFLOW = "_other"


@dataclass(frozen=True)
class LatencySummary:
    """Percentiles over the observations of one operation kind."""

    count: int
    p50_ms: float
    p90_ms: float
    p99_ms: float
    max_ms: float

    @staticmethod
    def from_histogram(histogram: HistogramSnapshot) -> "LatencySummary":
        """Summary view of a histogram: exact count/max, estimated quantiles."""
        if histogram.count == 0:
            return LatencySummary(count=0, p50_ms=0.0, p90_ms=0.0, p99_ms=0.0, max_ms=0.0)
        return LatencySummary(
            count=histogram.count,
            p50_ms=histogram.percentile(0.50),
            p90_ms=histogram.percentile(0.90),
            p99_ms=histogram.percentile(0.99),
            max_ms=histogram.max_value,
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """A frozen view of the gateway since construction (or last reset)."""

    requests_total: int
    served: int
    rejected: int
    rate_limited: int
    elapsed_s: float
    shard_requests: dict[str, int]
    caches: dict[str, CacheStats]
    resizes: int = 0
    keys_migrated: int = 0
    histograms: dict[str, HistogramSnapshot] = field(default_factory=dict)
    outcomes: dict[tuple[str, str], int] = field(default_factory=dict)
    tenant_outcomes: dict[tuple[str, str], int] = field(default_factory=dict)
    # Fairness signals (PR 9): per-tenant shard-lock queue time, and
    # authentication failures by taxonomy code.
    tenant_queue_ms: dict[str, HistogramSnapshot] = field(default_factory=dict)
    auth_failures: dict[str, int] = field(default_factory=dict)

    @property
    def latency(self) -> dict[str, LatencySummary]:
        """Per-operation percentile summaries, derived from ``histograms``."""
        return {
            kind: LatencySummary.from_histogram(histogram)
            for kind, histogram in self.histograms.items()
        }

    @property
    def throughput_rps(self) -> float:
        return self.served / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def shard_imbalance(self) -> float:
        """max/mean of per-shard request counts; 1.0 is perfect balance."""
        counts = [c for c in self.shard_requests.values()]
        if not counts or sum(counts) == 0:
            return 1.0
        mean = sum(counts) / len(counts)
        return max(counts) / mean

    def rows(self) -> list[list[str]]:
        """Render-ready (metric, value) rows for ``repro.bench.report``."""
        rows = [
            ["requests total", str(self.requests_total)],
            ["served", str(self.served)],
            ["rejected (policy)", str(self.rejected)],
            ["rate limited", str(self.rate_limited)],
            ["throughput req/s", "%.1f" % self.throughput_rps],
            ["shard imbalance (max/mean)", "%.2f" % self.shard_imbalance],
        ]
        if self.resizes:
            rows.append(["resizes", str(self.resizes)])
            rows.append(["keys migrated", str(self.keys_migrated)])
        for kind, summary in sorted(self.latency.items()):
            if summary.count:
                rows.append(
                    ["%s p50/p90 ms" % kind, "%.2f / %.2f" % (summary.p50_ms, summary.p90_ms)]
                )
        for name in sorted(self.caches):
            stats = self.caches[name]
            rows.append(
                [
                    "%s hit rate" % name,
                    "%.1f%% (%d/%d)" % (100 * stats.hit_rate, stats.hits, stats.hits + stats.misses),
                ]
            )
        return rows


@dataclass
class GatewayMetrics:
    """Mutable accumulator the gateway writes into on every request.

    Counter updates take an internal lock: the wire servers run gateway
    calls on many threads at once, and the stress tests assert that
    ``requests_total == served + rejected + rate_limited`` exactly.
    """

    clock: Callable[[], float] = time.monotonic
    requests_total: int = 0
    served: int = 0
    rejected: int = 0
    rate_limited: int = 0
    resizes: int = 0
    keys_migrated: int = 0
    shard_requests: Counter = field(default_factory=Counter)
    _histograms: dict[str, Histogram] = field(default_factory=dict)
    _outcomes: Counter = field(default_factory=Counter)
    _tenant_outcomes: Counter = field(default_factory=Counter)
    _tenant_queue: dict[str, Histogram] = field(default_factory=dict)
    _auth_failures: Counter = field(default_factory=Counter)
    _tenant_labels: set = field(default_factory=set)
    _started_at: float = field(init=False)
    _lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._started_at = self.clock()
        self._lock = threading.Lock()

    def _tenant_label(self, tenant: str) -> str:
        # Caller holds the lock.
        if tenant in self._tenant_labels:
            return tenant
        if len(self._tenant_labels) < _MAX_TENANT_LABELS:
            self._tenant_labels.add(tenant)
            return tenant
        return _TENANT_OVERFLOW

    def observe(
        self,
        kind: str,
        latency_ms: float,
        shard: str | None = None,
        tenant: str | None = None,
    ) -> None:
        """Record one served operation of ``kind``."""
        with self._lock:
            self.requests_total += 1
            self.served += 1
            if shard is not None:
                self.shard_requests[shard] += 1
            histogram = self._histograms.get(kind)
            if histogram is None:
                histogram = self._histograms[kind] = Histogram()
            self._outcomes[(kind, "ok")] += 1
            if tenant is not None:
                self._tenant_outcomes[(self._tenant_label(tenant), "ok")] += 1
            # Inside our lock so a snapshot never sees served ahead of the
            # histogram count; the nested histogram lock is uncontended.
            histogram.observe(latency_ms)

    def observe_rejection(
        self,
        rate_limited: bool = False,
        op: str | None = None,
        tenant: str | None = None,
        code: str | None = None,
    ) -> None:
        outcome = code or ("rate-limited" if rate_limited else "rejected")
        with self._lock:
            self.requests_total += 1
            if rate_limited:
                self.rate_limited += 1
            else:
                self.rejected += 1
            if op is not None:
                self._outcomes[(op, outcome)] += 1
            if tenant is not None:
                self._tenant_outcomes[(self._tenant_label(tenant), outcome)] += 1

    def observe_queue(self, tenant: str, wait_ms: float) -> None:
        """Record how long one request waited for its shard lock.

        The fairness histogram: a hot tenant monopolising a shard shows
        up as queue-time growth in *other* tenants' distributions.
        """
        with self._lock:
            label = self._tenant_label(tenant)
            histogram = self._tenant_queue.get(label)
            if histogram is None:
                histogram = self._tenant_queue[label] = Histogram()
            histogram.observe(wait_ms)

    def observe_auth_failure(
        self,
        code: str,
        op: str | None = None,
        tenant: str | None = None,
    ) -> None:
        """Record one authentication/authorization rejection.

        Counts into the ordinary rejection totals (the invariant
        ``requests_total == served + rejected + rate_limited`` holds)
        plus a by-code counter for the Prometheus exposition.
        """
        with self._lock:
            self.requests_total += 1
            self.rejected += 1
            self._auth_failures[code] += 1
            if op is not None:
                self._outcomes[(op, code)] += 1
            if tenant is not None:
                self._tenant_outcomes[(self._tenant_label(tenant), code)] += 1

    def observe_resize(self, keys_migrated: int) -> None:
        """Record one fleet resize and how many keys it moved."""
        with self._lock:
            self.resizes += 1
            self.keys_migrated += keys_migrated

    def snapshot(self, caches: dict[str, CacheStats] | None = None) -> MetricsSnapshot:
        with self._lock:
            histograms = {
                kind: histogram.snapshot()
                for kind, histogram in self._histograms.items()
            }
            return MetricsSnapshot(
                requests_total=self.requests_total,
                served=self.served,
                rejected=self.rejected,
                rate_limited=self.rate_limited,
                elapsed_s=self.clock() - self._started_at,
                shard_requests=dict(self.shard_requests),
                caches=dict(caches or {}),
                resizes=self.resizes,
                keys_migrated=self.keys_migrated,
                histograms=histograms,
                outcomes=dict(self._outcomes),
                tenant_outcomes=dict(self._tenant_outcomes),
                tenant_queue_ms={
                    tenant: histogram.snapshot()
                    for tenant, histogram in self._tenant_queue.items()
                },
                auth_failures=dict(self._auth_failures),
            )


@dataclass(frozen=True)
class WireStatsSnapshot:
    """A wire server's connection/stream population at one instant."""

    connections_open: int
    connections_total: int
    streams_in_flight: int
    streams_total: int
    streams_peak: int


class WireServerStats:
    """Thread-safe connection and in-flight-stream gauges for a wire server.

    A *connection* is one accepted socket (HTTP keep-alive or mux); a
    *stream* is one request in flight on any connection — on a mux link
    many streams share a socket, which is exactly what these gauges make
    visible (``streams_in_flight`` far above ``connections_open`` means
    multiplexing is doing its job).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.connections_open = 0
        self.connections_total = 0
        self.streams_in_flight = 0
        self.streams_total = 0
        self.streams_peak = 0

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_open += 1
            self.connections_total += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.connections_open -= 1

    def stream_started(self) -> None:
        with self._lock:
            self.streams_in_flight += 1
            self.streams_total += 1
            if self.streams_in_flight > self.streams_peak:
                self.streams_peak = self.streams_in_flight

    def stream_finished(self) -> None:
        with self._lock:
            self.streams_in_flight -= 1

    def snapshot(self) -> WireStatsSnapshot:
        with self._lock:
            return WireStatsSnapshot(
                connections_open=self.connections_open,
                connections_total=self.connections_total,
                streams_in_flight=self.streams_in_flight,
                streams_total=self.streams_total,
                streams_peak=self.streams_peak,
            )
