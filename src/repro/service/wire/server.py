"""The gateway behind HTTP: a stdlib threading server over the wire engine.

:class:`GatewayHttpServer` puts one or *several*
:class:`~repro.service.gateway.ReEncryptionGateway` fleets (or anything
with the same typed API) behind ``http.server.ThreadingHTTPServer`` —
the paper's semi-trusted proxy answers over a socket instead of a method
call, and one process can host a fleet per scheme backend.

The handler here is only a transport: it reads one request's body,
hands it to :class:`~repro.service.wire.engine.WireRequestExecutor`
(routes, auth, idempotency, dispatch and the error taxonomy all live
there, shared with the asyncio server) and writes the answer back.
Requests the stdlib rejects before the engine sees them — a malformed
request line, too many headers, an unsupported method — get the same
taxonomy JSON bodies as everything else.

Thread-safety comes for free: every gateway already serializes on its
shard locks, so the threading server can hand every connection its own
handler thread.
"""

from __future__ import annotations

import threading
import traceback
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Sequence

from repro.core.api import PreBackend
from repro.pairing.group import PairingGroup
from repro.service.gateway import InvalidRequestError
from repro.service.telemetry import TRACE_HEADER, EventLog
from repro.service.wire.engine import (
    HostingServer,
    WireRequestExecutor,
    WireResponse,
    add_header,
    body_length,
)

__all__ = ["GatewayHttpServer"]


class _GatewayRequestHandler(BaseHTTPRequestHandler):
    """One HTTP exchange: read the body, ask the engine, write its answer."""

    server_version = "repro-gateway/1.0"
    # HTTP/1.1 + explicit Content-Length on every response enables client
    # keep-alive without chunked encoding.
    protocol_version = "HTTP/1.1"
    # Persistent connections interleave small writes both ways; leaving
    # Nagle on stalls every keep-alive round trip behind a delayed ACK.
    disable_nagle_algorithm = True

    def log_request(self, code="-", size="-") -> None:  # noqa: D102
        pass  # the engine writes every answer's access line itself

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        # The stdlib's remaining diagnostics (a timed-out request) become
        # structured events instead of stderr lines nobody reads.
        self.server.engine.event_log.emit(
            "http-log", client=self.client_address[0], message=format % args
        )

    def _respond(self, result: WireResponse) -> None:
        self.send_response(result.status)
        self.send_header("Content-Type", result.content_type)
        self.send_header("Content-Length", str(len(result.body)))
        # Echo the request's trace header so the caller can correlate the
        # response (and any retrieved trace) with the id it generated.
        if result.trace_echo:
            self.send_header(TRACE_HEADER, result.trace_echo)
        if result.close:
            # Also flips self.close_connection in the base class, so the
            # keep-alive loop ends after this response.
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(result.body)

    def _lowercase_headers(self) -> dict[str, str]:
        headers: dict[str, str] = {}
        for name, value in self.headers.items():
            add_header(headers, name.lower(), value)
        return headers

    def _serve(self) -> None:
        headers = self._lowercase_headers()
        try:
            length = body_length(headers)
        except InvalidRequestError as error:
            # The body was never read, so this HTTP/1.1 connection is
            # desynchronized; the refusal closes it.
            self._respond(self._refuse(400, str(error)))
            return
        body = self.rfile.read(length) if length else b""
        self._respond(
            self.server.engine.handle(
                self.command, self.path, body, headers, self.client_address[0]
            )
        )

    do_GET = do_POST = _serve  # noqa: N815 - stdlib handler names

    def send_error(self, code: int, message: str | None = None, explain=None) -> None:
        """Answer a stdlib-level rejection with a taxonomy body, not HTML."""
        # A request line too broken to name its version parses as
        # HTTP/0.9, whose responses carry no status line or headers.
        self.request_version = self.protocol_version
        if code == HTTPStatus.NOT_IMPLEMENTED:
            # An unsupported method: the engine refuses those itself, so
            # every transport answers them with the same bytes.
            result = self.server.engine.handle(
                self.command, self.path, b"", self._lowercase_headers(),
                self.client_address[0],
            )
        else:
            result = self._refuse(code, message or HTTPStatus(code).phrase)
        self._respond(result)

    def _refuse(self, status: int, message: str) -> WireResponse:
        return self.server.engine.refuse(
            status, message, self.requestline, self.client_address[0]
        )


class _EventedThreadingHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer whose per-connection crashes become events.

    The stdlib prints a traceback to stderr and drops the connection;
    here the traceback also lands in the structured event log so a
    dropped connection is diagnosable after the fact.
    """

    engine: WireRequestExecutor

    # The socketserver default backlog of 5 resets connections the moment
    # a pooled client dials its sockets in one burst; listen deep enough
    # that a fleet-sized pool (hundreds of connections) can connect while
    # handler threads are still being spawned.
    request_queue_size = 1024

    def handle_error(self, request, client_address) -> None:  # noqa: D102
        self.engine.event_log.emit(
            "connection-error",
            client=str(client_address),
            traceback=traceback.format_exc(limit=8),
        )


class GatewayHttpServer(HostingServer):
    """Serve one or more gateways over HTTP/JSON; in-thread or blocking.

    Hosting (``gateway``/``group``/``gateways``) is
    :class:`~repro.service.wire.engine.HostingServer`'s.  ``port=0``
    binds an ephemeral port (tests, loopback benchmarks); :attr:`url`
    reports the bound address either way.  :meth:`start` runs
    the accept loop in a daemon thread and returns; :meth:`serve_forever`
    blocks the caller (the CLI's ``serve --http`` mode).  Closing the
    server stops the accept loop but deliberately leaves every gateway
    open — the owner decides when to release the shard fleets.
    """

    def __init__(
        self,
        gateway=None,
        group: PairingGroup | PreBackend | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        gateways: Sequence | None = None,
        event_log: EventLog | None = None,
        tls=None,
        auth=None,
        trace_sample: float = 1.0,
    ):
        """``tls`` is a server-side :class:`ssl.SSLContext` (see
        :func:`repro.service.auth.tls.server_context`); ``auth`` is a
        :class:`~repro.service.auth.signing.RequestVerifier` — with one
        installed every POST must carry a valid ``X-Repro-Auth``
        signature, without one the wire stays anonymous.
        ``trace_sample`` is the server-side head-sampling fraction for
        incoming trace headers (1.0 records every traced request)."""
        super().__init__(gateway, group, gateways, event_log, auth, trace_sample)
        self._httpd = _EventedThreadingHTTPServer((host, port), _GatewayRequestHandler)
        self._httpd.daemon_threads = True
        self._httpd.engine = self.engine
        self._url_scheme = "http"
        if tls is not None:
            # Wrapping the *listening* socket makes every accepted
            # connection TLS; the handshake completes during accept().
            self._httpd.socket = tls.wrap_socket(self._httpd.socket, server_side=True)
            self._url_scheme = "https"
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return "%s://%s:%d" % (self._url_scheme, self.host, self.port)

    def start(self) -> "GatewayHttpServer":
        """Run the accept loop in a daemon thread; returns self."""
        if self._thread is None:
            # A short poll: close() waits for the loop's next one.
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, args=(0.05,), name="gateway-http", daemon=True
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Block serving requests until :meth:`close` (or KeyboardInterrupt)."""
        self._httpd.serve_forever()

    def close(self) -> None:
        """Stop accepting, join the serving thread, release the socket."""
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "GatewayHttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
