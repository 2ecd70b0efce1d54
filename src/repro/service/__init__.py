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
  snapshots, including resize counters;
* :mod:`repro.service.telemetry` — distributed trace contexts and spans,
  fixed-bucket latency histograms with Prometheus text exposition, and
  the bounded structured event log;
* :mod:`repro.service.persistence` — the durable append-log key table
  that lets a gateway's delegations survive restarts;
* :mod:`repro.service.pool` — the per-shard locks;
* :mod:`repro.service.driver` — a self-contained synthetic workload used
  by ``repro-pre serve`` and the E9/E10/E11 benchmarks;
* :mod:`repro.service.wire` — the wire protocol
  (:class:`~repro.service.wire.aio_server.AsyncGatewayServer`, which
  answers HTTP/JSON and mux frames on one port, and the
  :class:`~repro.service.wire.client.RemoteGateway` client) that makes
  the gateway a real remote process;
* :mod:`repro.service.fleet` — the multi-process fleet: a router that
  is a plain :class:`~repro.service.gateway.ReEncryptionGateway`
  (:func:`~repro.service.fleet.fleet_gateway`) whose
  :class:`~repro.service.fleet.RemoteShard` shards write transformations
  to worker processes on pipes (:mod:`repro.service.fleet_worker`),
  which a :class:`~repro.service.fleet.FleetSupervisor` spawns and
  restarts; workers hold no keys, so a restart or a resize moves none.
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
        "fleet": ("FleetSupervisor", "RemoteShard", "fleet_gateway"),
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
            "AsyncGatewayServer",
            "RemoteGateway",
            "SchemeMismatchError",
            "WireTransportError",
        ),
    },
)

__all__ = [
    "AppendLogKeyStore",
    "AsyncGatewayServer",
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
    "FleetSupervisor",
    "GatewayError",
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
    "RemoteShard",
    "ResizeReport",
    "RevokeRequest",
    "RevokeResponse",
    "SchemeMismatchError",
    "ShardPool",
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
    "fleet_gateway",
    "jsonl_sink",
    "render_prometheus",
    "resolve_remote_group",
    "run_demo",
    "run_remote_demo",
    "scheme_state_subdir",
]
