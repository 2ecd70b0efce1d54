"""A sharded, cached re-encryption gateway over :class:`~repro.core.proxy.ProxyService`.

The paper's deployment is a semi-trusted proxy serving many patients and
delegatees.  This package turns the single-object proxy into a
request-serving system:

* :mod:`repro.service.router` — consistent-hash sharding of
  (delegator domain, delegator, type) onto N proxy shards;
* :mod:`repro.service.cache` — LRU caches for proxy keys and KEM
  transformation results, with hit/miss accounting;
* :mod:`repro.service.batch` — grouping of same-delegation requests so
  key lookups are amortized;
* :mod:`repro.service.gateway` — the typed request/response front door
  with per-tenant rate limiting, bounded audit and an error taxonomy;
* :mod:`repro.service.metrics` — latency / throughput / shard-balance
  snapshots, including resize/migration counters;
* :mod:`repro.service.telemetry` — distributed trace contexts and spans,
  fixed-bucket latency histograms with Prometheus text exposition, and
  the bounded structured event log;
* :mod:`repro.service.persistence` — the durable append-log key table
  that lets shards survive restarts and fleet resizes;
* :mod:`repro.service.pool` — per-shard locks plus an optional thread
  pool for concurrent shard execution;
* :mod:`repro.service.driver` — a self-contained synthetic workload used
  by ``repro-pre serve`` and the E9/E10/E11 benchmarks;
* :mod:`repro.service.wire` — the HTTP/JSON wire protocol
  (:class:`~repro.service.wire.server.GatewayHttpServer` and
  :class:`~repro.service.wire.client.RemoteGateway`) that makes the
  gateway a real remote process;
* :mod:`repro.service.fleet` — the wire protocol at the shard boundary:
  a :class:`~repro.service.fleet.FleetSupervisor` of independent shard
  *processes* behind a :class:`~repro.service.fleet.FleetGateway`
  routing tier, with health-checked failover and traffic-continuing
  resize migration.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "batch": ("BatchGroup", "BatchItemError", "ReEncryptBatcher"),
        "cache": ("CacheStats", "LruCache"),
        "driver": (
            "DemoReport",
            "DemoSetting",
            "build_setting",
            "drive_requests",
            "resolve_remote_group",
            "run_demo",
            "run_remote_demo",
        ),
        "fleet": ("FleetGateway", "FleetSupervisor", "StaticFleet"),
        "gateway": (
            "AuditEvent",
            "DelegationNotFoundError",
            "EntryMissingError",
            "FetchRequest",
            "FetchResponse",
            "GatewayError",
            "GrantRequest",
            "GrantResponse",
            "InvalidRequestError",
            "RateLimitedError",
            "ReEncryptionGateway",
            "ReEncryptRequest",
            "ReEncryptResponse",
            "ResizeReport",
            "RevokeRequest",
            "RevokeResponse",
            "StoreUnavailableError",
            "TokenBucket",
        ),
        "metrics": ("GatewayMetrics", "LatencySummary", "MetricsSnapshot"),
        "persistence": (
            "AppendLogKeyStore",
            "DurableProxyKeyTable",
            "LogFormatError",
            "scheme_state_subdir",
        ),
        "pool": ("ShardPool",),
        "router": ("ShardRouter",),
        "telemetry": (
            "TRACE_HEADER",
            "EventLog",
            "Histogram",
            "HistogramSnapshot",
            "Span",
            "TraceContext",
            "Tracer",
            "jsonl_sink",
            "render_prometheus",
        ),
        "wire": (
            "GatewayHttpServer",
            "RemoteGateway",
            "SchemeMismatchError",
            "WireTransportError",
        ),
    },
)

__all__ = [
    "AppendLogKeyStore",
    "AuditEvent",
    "BatchGroup",
    "BatchItemError",
    "CacheStats",
    "DurableProxyKeyTable",
    "DelegationNotFoundError",
    "DemoReport",
    "DemoSetting",
    "EntryMissingError",
    "EventLog",
    "FetchRequest",
    "FetchResponse",
    "FleetGateway",
    "FleetSupervisor",
    "GatewayError",
    "GatewayHttpServer",
    "GatewayMetrics",
    "GrantRequest",
    "GrantResponse",
    "Histogram",
    "HistogramSnapshot",
    "InvalidRequestError",
    "LatencySummary",
    "LogFormatError",
    "LruCache",
    "MetricsSnapshot",
    "RateLimitedError",
    "ReEncryptBatcher",
    "ReEncryptRequest",
    "ReEncryptResponse",
    "ReEncryptionGateway",
    "RemoteGateway",
    "ResizeReport",
    "RevokeRequest",
    "RevokeResponse",
    "SchemeMismatchError",
    "ShardPool",
    "StaticFleet",
    "ShardRouter",
    "Span",
    "StoreUnavailableError",
    "TokenBucket",
    "TraceContext",
    "Tracer",
    "TRACE_HEADER",
    "WireTransportError",
    "build_setting",
    "drive_requests",
    "jsonl_sink",
    "render_prometheus",
    "resolve_remote_group",
    "run_demo",
    "run_remote_demo",
    "scheme_state_subdir",
]
