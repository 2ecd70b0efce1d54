"""The gateway server: one event loop, thousands of connections.

:class:`AsyncGatewayServer` puts one or *several*
:class:`~repro.service.gateway.ReEncryptionGateway` fleets (or anything
with the same typed API) behind a socket: the paper's semi-trusted
proxy answers over the network instead of a method call, and one
process can host a fleet per scheme backend.

A single event loop accepts every socket and answers every request
whose work is one in-process gateway operation itself, so a server that
receives no batch runs one thread.  Only grant and re-encrypt batches,
and calls to a gateway that forwards to other processes, go to a
:class:`~concurrent.futures.ThreadPoolExecutor`, where they overlap with
the loop's work (see :meth:`WireRequestExecutor.placement`).  That pool
has one thread, which serves batches in arrival order across every
connection: a batch waits for every batch ahead of it.  A batch is
pure-Python pairing code holding the GIL, so more threads would add no
throughput; they would time-slice the batches, letting a small one
finish beside a large one, and take the GIL from the loop more often.
A server hosting a gateway that ``forwards`` (the ``--fleet`` router)
gets eight, because its calls wait on worker pipes and overlap there.
The listening port speaks *two* protocols, sniffed from the first octet
of each connection:

* **mux framing** (first octet ``0x00``): length-prefixed JSON frames
  (see ``codec.encode_frame``); after a ``hello`` handshake every
  client frame is a ``request`` carrying an integer id, and responses
  stream back tagged with the same id in completion order — many
  in-flight requests multiplexed over ONE socket, HTTP/2-style.
  :class:`~repro.service.wire.aio_client.MuxRemoteGateway` is the
  matching client.

* **HTTP/1.1** (first octet an ASCII method byte — no HTTP verb starts
  with NUL): a minimal keep-alive HTTP server with the stdlib's limits
  and connection semantics, and a strict reader of the request head:
  a header line two readers could split differently is refused, so a
  front proxy can never frame a request otherwise than this server.
  The pooled :class:`~repro.service.wire.client.RemoteGateway` and bare
  ``curl`` talk to it.

This module is the one place that reads HTTP.  Both transports feed
the :class:`~repro.service.wire.engine.WireRequestExecutor`, so they
answer byte-identically; ``tests/data/wire_transcript.json`` pins
those bytes.
"""

from __future__ import annotations

import asyncio
import itertools
import re
import signal
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context
from http import HTTPStatus
from typing import Callable, Sequence

from repro.core.api import PreBackend
from repro.pairing.group import PairingGroup
from repro.service.metrics import WireServerStats
from repro.service.telemetry import TRACE_HEADER, EventLog
from repro.service.wire.codec import (
    FRAME_HEADER_LEN,
    MUX_PROTOCOL,
    FrameProtocolError,
    ParsedBody,
    decode_frame_payload,
    encode_frame,
    frame_length,
    mux_hello,
    mux_response,
)
from repro.service.wire.engine import (
    IdempotencyWindow,
    WireRequestExecutor,
    WireResponse,
    build_host_map,
)

__all__ = [
    "AsyncGatewayServer",
    "MAX_BODY_BYTES",
    "MAX_HEADERS",
    "WireRequestExecutor",
    "WireResponse",
]

_SERVER_ID = "repro-gateway-aio/1.0"
# The stdlib's cap on one request or header line, in bytes.
_MAX_LINE = 65536
# The stdlib's cap (``http.client._MAXHEADERS``): more head lines than
# this, counting the blank line that ends the head, is answered 431.
MAX_HEADERS = 100
MAX_BODY_BYTES = 64 * 1024 * 1024  # refuse absurd Content-Length up front
# Bytes one recv() on a plain TCP connection asks for.  asyncio asks for
# 256 KiB, above glibc's initial 128 KiB mmap threshold: until something
# raises that threshold, every read maps a fresh buffer, faults its pages
# in and unmaps it, about two page faults per served request.
_READ_SIZE = 64 * 1024
# Pool threads when a hosted gateway forwards; otherwise the pool has one
# (see the module docstring).
_FORWARDING_THREADS = 8
# What a connection the server ends may still read and drop after its
# last answer, and for how long (see _close_after_answer).
_LINGER_BYTES = 1024 * 1024
_LINGER_S = 1.0
# RFC 9110 section 5.1: a field name is a token.
_FIELD_NAME = re.compile(r"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
# RFC 9110 section 5.5: no control octet but HTAB in a field value.
_FIELD_VALUE_CONTROL = re.compile(r"[\x00-\x08\x0a-\x1f\x7f]")


class _Refused(Exception):
    """A request this reader will not frame: the status and message of
    the refusal, which closes the connection."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def _check_request_line(line: bytes | None, words: list[str], request_line: str) -> None:
    """Refuse a request line as ``http.server`` does (``line`` is None
    when it was too long to read)."""
    if line is None:
        raise _Refused(414, HTTPStatus.REQUEST_URI_TOO_LONG.phrase)
    if len(words) >= 3:
        version = words[-1]
        numbers = version[5:].split(".") if version.startswith("HTTP/") else []
        if len(numbers) != 2 or not all(n.isdecimal() and len(n) <= 10 for n in numbers):
            raise _Refused(400, "Bad request version (%r)" % version)
        if int(numbers[0]) >= 2:
            raise _Refused(505, "Invalid HTTP version (%s)" % version[5:])
    if not 2 <= len(words) <= 3:
        raise _Refused(400, "Bad request syntax (%r)" % request_line)
    if len(words) == 2 and words[0] != "GET":
        raise _Refused(400, "Bad HTTP/0.9 request type (%r)" % words[0])


def _header_field(line: bytes) -> tuple[str, str]:
    """``(lowercase name, value)`` of one header line.

    A line that two readers could split differently is refused (RFC 9112
    sections 2.2, 5.1 and 5.2; RFC 9110 section 5.5): a folded
    continuation line, a line without a colon, a name that is not a
    token (so no whitespace before the colon), and a value holding a
    control octet other than HTAB, a bare CR among them.
    """
    text = line.decode("latin-1").removesuffix("\n").removesuffix("\r")
    if text[:1] in (" ", "\t"):
        raise _Refused(400, "obsolete line folding in the request head")
    name, colon, value = text.partition(":")
    if not colon:
        raise _Refused(400, "header line without a colon")
    if not _FIELD_NAME.fullmatch(name):
        raise _Refused(400, "invalid header name %r" % name)
    value = value.strip(" \t")
    if _FIELD_VALUE_CONTROL.search(value):
        raise _Refused(400, "invalid %s" % name)
    return name.lower(), value


async def _read_headers(reader: asyncio.StreamReader) -> dict[str, str]:
    """The head's fields by lowercase name, through the blank line.

    A repeated field keeps its last value, except Content-Length: its
    values are joined with commas, which :func:`_body_length` refuses.
    """
    headers: dict[str, str] = {}
    for count in itertools.count(1):
        line = await _read_line(reader)
        if line is None:
            raise _Refused(431, "Line too long")
        if count > MAX_HEADERS:
            raise _Refused(431, "Too many headers")
        if line in (b"\r\n", b"\n"):
            return headers
        if not line.endswith(b"\n"):
            # The peer closed inside the head: nothing whole to answer.
            raise asyncio.IncompleteReadError(line, None)
        name, value = _header_field(line)
        if name == "content-length" and name in headers:
            value = headers[name] + ", " + value
        headers[name] = value


def _body_length(headers: dict[str, str]) -> int:
    """The request body's length, refusing a body no reader frames alike.

    Chunked bodies are never drained (their framing bytes would desync
    the keep-alive stream), and a Content-Length must be ``1*DIGIT``
    (RFC 9110 section 8.6), given once: a sign, an underscore or a
    second value would let another reader frame the body otherwise.
    """
    if "transfer-encoding" in headers:
        raise _Refused(400, "Transfer-Encoding is not supported")
    value = headers.get("content-length")
    if value is None:
        return 0
    if not (value.isascii() and value.isdigit()):
        raise _Refused(400, "invalid Content-Length")
    length = int(value)
    if length > MAX_BODY_BYTES:
        raise _Refused(400, "unacceptable Content-Length %d" % length)
    return length


def _mux_request(document: dict) -> tuple:
    """``(id, method, target, body, headers)`` of one request frame."""
    if document.get("type") != "request" or not isinstance(document.get("id"), int):
        raise FrameProtocolError("expected a request frame with an id")
    raw_headers = document.get("headers") or {}
    if not isinstance(raw_headers, dict):
        raise FrameProtocolError("request frame headers must be an object")
    body_text = document.get("body")
    # A JSON string may hold lone surrogates: they pass through as bytes
    # the engine refuses like any other undecodable body.
    body = body_text.encode("utf-8", "surrogatepass") if isinstance(body_text, str) else b""
    return (
        document["id"],
        str(document.get("method") or "POST").upper(),
        str(document.get("path") or "/"),
        body,
        {str(name).lower(): str(value) for name, value in raw_headers.items()},
    )


async def _read_line(reader: asyncio.StreamReader, prefix: bytes = b"") -> bytes | None:
    """One line, or None when it is longer than ``http.server`` takes."""
    try:
        line = prefix + await reader.readline()
    except ValueError:  # past the stream's own limit
        return None
    return line if len(line) <= _MAX_LINE else None


async def _close_after_answer(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """End an HTTP connection the server closes, in stages (RFC 9112
    section 9.6): half-close after the last answer, then read and drop
    what the client still sends, up to :data:`_LINGER_BYTES` and for at
    most :data:`_LINGER_S`; the caller then closes.  A socket closed with
    bytes still unread sends a reset instead of a FIN, and a reset can
    destroy the answer before the client has read it.  A TLS transport
    cannot half-close, so it closes at once."""
    if not writer.can_write_eof():
        return
    writer.write_eof()
    loop = asyncio.get_running_loop()
    deadline = loop.time() + _LINGER_S
    dropped = 0
    while dropped < _LINGER_BYTES:
        try:
            chunk = await asyncio.wait_for(reader.read(_READ_SIZE), deadline - loop.time())
        except asyncio.TimeoutError:
            return
        if not chunk:
            return
        dropped += len(chunk)


class AsyncGatewayServer:
    """Serve gateways over mux frames *and* HTTP/1.1 from one event loop.

    ``gateway`` hosts a single fleet (with ``group`` as the backend
    fallback for bare gateway-like objects); ``gateways`` hosts one fleet
    per element side by side, each routed under its backend's scheme-id
    prefix.  Scheme ids must be unique — one fleet per scheme per
    process.  ``event_log`` is the server-level event stream (access
    lines, handler crashes, connection errors).  ``tls`` is a server-side
    :class:`ssl.SSLContext` (see
    :func:`repro.service.auth.tls.server_context`), which wraps each
    accepted connection.  ``auth`` is a
    :class:`~repro.service.auth.signing.RequestVerifier`: with one
    installed every POST must carry a valid ``X-Repro-Auth`` signature.
    ``trace_sample`` is the head-sampling fraction for incoming trace
    headers, and ``max_streams`` is the per-connection in-flight cap,
    the mux backpressure bound.

    Batches and forwarded calls run on a worker pool whose size follows
    from the hosted gateways: one thread, or eight when a gateway
    ``forwards``.  Its threads start on first use.  With one thread,
    batches are served in arrival order.

    :meth:`serve_forever` runs the event loop on the calling thread;
    :meth:`start` runs it on a daemon thread for in-process callers.
    Closing the server leaves every gateway open: the owner decides when
    to release the shard fleets.

    :attr:`url` is the mux address (``mux://host:port``, ``muxs://``
    under TLS); :attr:`http_url` is the same port spelled for HTTP
    clients — both protocols share the listener, sniffed per connection.
    ``port=0`` binds an ephemeral port; both report the bound one.
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
        max_streams: int = 256,
    ):
        if max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        hosts, self.scheme_ids = build_host_map(gateway, group, gateways)
        # The first hosted fleet, for single-scheme callers.
        self.gateway = hosts[self.scheme_ids[0]][0]
        self.event_log = event_log if event_log is not None else EventLog()
        self.stats = WireServerStats()
        # One dedup window per server (scheme id is part of the key), so
        # retried revoke/resize replays are answered from the record.
        self.engine = WireRequestExecutor(
            hosts,
            self.scheme_ids,
            self.event_log,
            IdempotencyWindow(),
            auth=auth,
            trace_sample=trace_sample,
            wire_stats=self.stats,
        )
        self.max_streams = max_streams
        self._tls = tls
        self._bind_host = host
        self._bind_port = port
        self._pool = ThreadPoolExecutor(
            max_workers=_FORWARDING_THREADS if self.engine.forwarding else 1,
            thread_name_prefix="gateway-aio",
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._sockname: tuple | None = None

    # ------------------------------------------------------------ lifecycle

    @property
    def host(self) -> str:
        return self._sockname[0] if self._sockname else self._bind_host

    @property
    def port(self) -> int:
        return self._sockname[1] if self._sockname else self._bind_port

    @property
    def url(self) -> str:
        scheme = "muxs" if self._tls is not None else "mux"
        return "%s://%s:%d" % (scheme, self.host, self.port)

    @property
    def http_url(self) -> str:
        scheme = "https" if self._tls is not None else "http"
        return "%s://%s:%d" % (scheme, self.host, self.port)

    async def _main(self, ready: Callable[[], None]) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if threading.current_thread() is threading.main_thread():
            # The loop sees these signals between callbacks, so a request
            # it is answering finishes first; nothing raises inside one.
            for signum in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(signum, self._shutdown.set)
        # asyncio.start_server binds the listener itself, so accepted
        # sockets are TCP and get TCP_NODELAY.
        server = await asyncio.start_server(
            self._on_connection,
            self._bind_host,
            self._bind_port,
            ssl=self._tls,
            # Listen deep enough that a pooled client dialling hundreds
            # of connections in one burst is queued, not reset.
            backlog=1024,
        )
        self._sockname = server.sockets[0].getsockname()[:2]
        ready()
        try:
            await self._shutdown.wait()
        finally:
            # Stop listening; asyncio.run then cancels the connection
            # handlers, which close their sockets.  Server.wait_closed()
            # is not awaited: from Python 3.12 on it waits until every
            # client has hung up, so an idle client would hold SIGTERM off.
            server.close()

    def _run(self) -> None:
        try:
            asyncio.run(self._main(self._ready.set))
        except BaseException as error:  # noqa: BLE001 - raised by start()
            if not self._ready.is_set():
                self._startup_error = error
                self._ready.set()

    def start(self) -> "AsyncGatewayServer":
        """Run the event loop in a daemon thread; returns once bound."""
        if self._thread is None:
            self._ready.clear()
            self._thread = threading.Thread(
                target=self._run, name="gateway-aio", daemon=True
            )
            self._thread.start()
            self._ready.wait(timeout=30.0)
            if self._startup_error is not None:
                error, self._startup_error = self._startup_error, None
                self._thread.join(timeout=5.0)
                self._thread = None
                raise error
        return self

    def serve_forever(self, ready: Callable[[], None] = lambda: None) -> None:
        """Serve on the calling thread until :meth:`close`, SIGTERM or SIGINT.

        ``ready`` runs once the listener is bound, so it can report the
        real port.  The signals stop the loop only when it runs on the
        main thread; it closes the listener and its connections, and
        this returns.
        """
        asyncio.run(self._main(ready))

    def close(self) -> None:
        """Stop the loop, join its thread (if :meth:`start` made one),
        shut the worker pool down."""
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:
                pass  # loop already closed between the check and the call
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self._pool.shutdown(wait=False)

    def __enter__(self) -> "AsyncGatewayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ---------------------------------------------------------- connections

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.connection_opened()
        if hasattr(writer.transport, "max_size"):  # TLS transports read their own way
            writer.transport.max_size = _READ_SIZE
        try:
            try:
                # Four bytes decide the protocol: a mux frame's length
                # prefix leads with 0x00 (frames are capped below 2**24),
                # an HTTP request line leads with an ASCII method byte.
                first = await reader.readexactly(FRAME_HEADER_LEN)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if first[0] == 0:
                await self._serve_mux(reader, writer, first)
            else:
                await self._serve_http(reader, writer, first)
        except asyncio.CancelledError:
            # Server shutdown cancels live connection handlers; finishing
            # normally here keeps the teardown quiet (the task is done
            # either way, and asyncio.run is about to close the loop).
            pass
        except (asyncio.IncompleteReadError, ConnectionError, TimeoutError, OSError):
            pass  # peer went away mid-exchange; nothing to answer
        except FrameProtocolError as error:
            self.event_log.emit(
                "connection-error",
                client=self._peer(writer),
                error=str(error),
                error_type="FrameProtocolError",
            )
        except Exception:  # noqa: BLE001 - connection boundary
            self.event_log.emit(
                "connection-error",
                client=self._peer(writer),
                traceback=traceback.format_exc(limit=8),
            )
        finally:
            self.stats.connection_closed()
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    @staticmethod
    def _peer(writer: asyncio.StreamWriter) -> str:
        peer = writer.get_extra_info("peername")
        return str(peer[0]) if isinstance(peer, tuple) and peer else "-"

    # ------------------------------------------------------------------ mux

    async def _serve_mux(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        header: bytes,
    ) -> None:
        hello = decode_frame_payload(await reader.readexactly(frame_length(header)))
        if hello.get("mux") != MUX_PROTOCOL or hello.get("type") != "hello":
            raise FrameProtocolError(
                "connection opened with %r, expected a %s hello"
                % (hello.get("mux"), MUX_PROTOCOL)
            )
        writer.write(
            encode_frame(
                mux_hello(server=_SERVER_ID, schemes=list(self.scheme_ids))
            )
        )
        await writer.drain()
        peer = self._peer(writer)
        write_lock = asyncio.Lock()
        # Per-connection backpressure: past max_streams pooled streams in
        # flight the read loop stops pulling frames, so a flooding client
        # queues in its own socket buffer instead of ours.
        gate = asyncio.Semaphore(self.max_streams)
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    header = await reader.readexactly(FRAME_HEADER_LEN)
                except asyncio.IncompleteReadError:
                    break  # clean close between frames
                payload = await reader.readexactly(frame_length(header))
                request = _mux_request(decode_frame_payload(payload))
                _id, method, target, body, _headers = request
                inline, parsed = self.engine.placement(method, target, body)
                if inline:
                    await self._run_stream(request, parsed, writer, write_lock, peer, False)
                    # Reading frames that are already buffered never
                    # yields: let the other connections in between two.
                    await asyncio.sleep(0)
                    continue
                await gate.acquire()
                task = asyncio.create_task(
                    self._run_stream(request, parsed, writer, write_lock, peer, True)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                task.add_done_callback(lambda _task: gate.release())
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    async def _handle(
        self, pooled: bool, method: str, target: str, body: bytes, headers: dict, peer: str,
        parsed: ParsedBody | None,
    ) -> WireResponse:
        """The engine's answer, computed here or on the worker pool."""
        if pooled:
            # The copied context carries this request's counters and
            # trace record (if any) onto the pool thread.
            return await asyncio.get_running_loop().run_in_executor(
                self._pool, copy_context().run, self.engine.handle,
                method, target, body, headers, peer, parsed,
            )
        return self.engine.handle(method, target, body, headers, peer, parsed)

    async def _run_stream(
        self,
        request: tuple,
        parsed: ParsedBody | None,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        peer: str,
        pooled: bool,
    ) -> None:
        self.stats.stream_started()
        try:
            request_id, method, target, body, headers = request
            result = await self._handle(pooled, method, target, body, headers, peer, parsed)
            frame = encode_frame(
                mux_response(
                    request_id,
                    result.status,
                    result.body.decode("utf-8"),
                    result.content_type,
                    trace=result.trace_echo,
                )
            )
            async with write_lock:
                writer.write(frame)
                await writer.drain()
        except asyncio.CancelledError:
            raise
        except (ConnectionError, OSError):
            pass  # connection died under the response; reader loop ends too
        except Exception:  # noqa: BLE001 - stream boundary
            self.event_log.emit(
                "connection-error",
                client=peer,
                traceback=traceback.format_exc(limit=8),
            )
        finally:
            self.stats.stream_finished()

    # ----------------------------------------------------------------- http

    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        prefix: bytes,
    ) -> None:
        peer = self._peer(writer)
        while True:
            line = await _read_line(reader, prefix)
            prefix = b""
            request_line = "" if line is None else line.decode("latin-1").rstrip("\r\n")
            parts = request_line.split()
            if line is not None and not parts:
                return  # closed, or a blank line: no request to answer
            try:
                _check_request_line(line, parts, request_line)
                headers = await _read_headers(reader)
                length = _body_length(headers)
            except _Refused as refused:
                # The rest of the stream can no longer be framed, so the
                # refusal closes the connection.
                refusal = self.engine.refuse(refused.status, str(refused), request_line, peer)
                await self._write_http(writer, refusal)
                await _close_after_answer(reader, writer)
                return
            method, target = parts[0], parts[1]  # methods are case-sensitive
            if target.startswith("//"):  # reduced as http.server does (gh-87389)
                target = "/" + target.lstrip("/")
            http09 = len(parts) == 2
            body = await reader.readexactly(length) if length else b""
            inline, parsed = self.engine.placement(method, target, body)
            pooled = not inline
            self.stats.stream_started()
            try:
                result = await self._handle(pooled, method, target, body, headers, peer, parsed)
            finally:
                self.stats.stream_finished()
            # HTTP/1.1 keeps the connection unless told to close; older
            # versions close unless told to keep it (the stdlib's rule).
            connection = headers.get("connection", "").lower()
            if http09 or parts[2] < "HTTP/1.1":
                keep_alive = connection == "keep-alive"
            else:
                keep_alive = connection != "close"
            closing = result.close or not keep_alive
            await self._write_http(writer, result, close=closing, bare=http09)
            if closing:
                await _close_after_answer(reader, writer)
                return
            if not pooled:
                await asyncio.sleep(0)  # a pipelined next request would not yield

    async def _write_http(
        self,
        writer: asyncio.StreamWriter,
        result: WireResponse,
        close: bool = False,
        bare: bool = False,
    ) -> None:
        if bare:  # HTTP/0.9: the body alone, as ``http.server`` answers it
            writer.write(result.body)
            await writer.drain()
            return
        head = [
            "HTTP/1.1 %d %s" % (result.status, HTTPStatus(result.status).phrase),
            "Server: %s" % _SERVER_ID,
            "Content-Type: %s" % result.content_type,
            "Content-Length: %d" % len(result.body),
        ]
        if result.trace_echo:
            head.append("%s: %s" % (TRACE_HEADER, result.trace_echo))
        if close or result.close:
            head.append("Connection: close")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + result.body)
        await writer.drain()
