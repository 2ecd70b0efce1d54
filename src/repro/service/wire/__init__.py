"""HTTP/JSON wire protocol for the re-encryption gateway.

The paper's proxy is a *server* patients and clinicians reach over a
network; this package makes that literal.  Six layers:

* :mod:`repro.service.wire.codec` — versioned JSON messages for every
  gateway request/response dataclass, reusing the canonical container
  serialization for group elements; malformed input is rejected with
  the stable ``invalid-request`` code — plus the length-prefixed mux
  framing the async transport multiplexes those messages inside;
* :mod:`repro.service.wire.engine` — :class:`WireRequestExecutor`, the
  one request engine every transport calls: scheme-id-prefixed routes
  (``GET /v1/schemes`` enumeration), auth, idempotency, op dispatch and
  the error taxonomy mapped to HTTP statuses;
* :mod:`repro.service.wire.server` — :class:`GatewayHttpServer`, one or
  several scheme fleets behind stdlib ``ThreadingHTTPServer``, a thin
  HTTP adapter over the engine;
* :mod:`repro.service.wire.client` — :class:`RemoteGateway`, the same
  typed API as the in-process gateway, so drivers and benchmarks run
  unchanged against either;
* :mod:`repro.service.wire.aio_server` — :class:`AsyncGatewayServer`,
  the asyncio escape from thread-per-connection: one event loop, both
  mux framing and HTTP/1.1 on one port, engine calls on a bounded
  worker pool;
* :mod:`repro.service.wire.aio_client` — :class:`MuxRemoteGateway`
  (many in-flight requests over ONE socket) and the URL-dispatching
  :func:`connect_gateway` factory.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "aio_client": ("MuxRemoteGateway", "connect_gateway"),
        "aio_server": ("AsyncGatewayServer",),
        "client": ("RemoteGateway", "SchemeMismatchError", "WireTransportError"),
        "codec": (
            "ERROR_TYPES",
            "MUX_PROTOCOL",
            "WIRE_FORMAT",
            "FrameProtocolError",
            "GrantBatchRequest",
            "GrantBatchResponse",
            "ReEncryptBatchRequest",
            "ReEncryptBatchResponse",
            "ResizeRequest",
            "decode_frame_payload",
            "encode_frame",
            "from_wire",
            "neutral_error_to_wire",
            "scheme_document",
            "to_wire",
        ),
        "engine": ("STATUS_BY_CODE",),
        "server": ("GatewayHttpServer",),
    },
)

__all__ = [
    "ERROR_TYPES",
    "AsyncGatewayServer",
    "FrameProtocolError",
    "GatewayHttpServer",
    "GrantBatchRequest",
    "GrantBatchResponse",
    "MUX_PROTOCOL",
    "MuxRemoteGateway",
    "ReEncryptBatchRequest",
    "ReEncryptBatchResponse",
    "RemoteGateway",
    "SchemeMismatchError",
    "ResizeRequest",
    "STATUS_BY_CODE",
    "WIRE_FORMAT",
    "WireTransportError",
    "connect_gateway",
    "decode_frame_payload",
    "encode_frame",
    "from_wire",
    "neutral_error_to_wire",
    "scheme_document",
    "to_wire",
]
