"""The asyncio gateway server: one event loop, thousands of connections.

:class:`AsyncGatewayServer` is the escape from thread-per-connection.
A single event loop accepts every socket; gateway calls are dispatched
to a bounded :class:`~concurrent.futures.ThreadPoolExecutor` (the shard
locks still serialize exactly as they do under the threaded server, and
CPU-bound pairing work never blocks the accept loop for long).  The
listening port speaks *two* protocols, sniffed from the first octet of
each connection:

* **mux framing** (first octet ``0x00``): length-prefixed JSON frames
  (see ``codec.encode_frame``); after a ``hello`` handshake every
  client frame is a ``request`` carrying an integer id, and responses
  stream back tagged with the same id in completion order — many
  in-flight requests multiplexed over ONE socket, HTTP/2-style.
  :class:`~repro.service.wire.aio_client.MuxRemoteGateway` is the
  matching client.

* **HTTP/1.1** (first octet an ASCII method byte — no HTTP verb starts
  with NUL): a minimal keep-alive HTTP server with the stdlib's limits
  and connection semantics, so the existing pooled
  :class:`~repro.service.wire.client.RemoteGateway` (and bare ``curl``)
  can talk to an async server unchanged.

This module holds only those transports.  Both feed the
:class:`~repro.service.wire.engine.WireRequestExecutor` the threaded
:class:`~repro.service.wire.server.GatewayHttpServer` uses too, so every
stack answers byte-identically; ``tests/data/wire_transcript.json`` pins
those bytes.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Sequence

from repro.core.api import PreBackend
from repro.pairing.group import PairingGroup
from repro.service.gateway import InvalidRequestError
from repro.service.metrics import WireServerStats
from repro.service.telemetry import TRACE_HEADER, EventLog
from repro.service.wire.codec import (
    FRAME_HEADER_LEN,
    MUX_PROTOCOL,
    FrameProtocolError,
    decode_frame_payload,
    encode_frame,
    frame_length,
    mux_hello,
    mux_response,
)
from repro.service.wire.engine import (
    MAX_HEADERS,
    HostingServer,
    WireRequestExecutor,
    WireResponse,
    body_length,
)

__all__ = ["AsyncGatewayServer", "WireRequestExecutor", "WireResponse"]

_SERVER_ID = "repro-gateway-aio/1.0"
# The stdlib's cap on one request or header line, in bytes.
_MAX_LINE = 65536


def _request_line_refusal(line: bytes | None, words: list[str], request_line: str):
    """The status and message ``http.server`` refuses a request line with,
    or None (``line`` is None when it was too long to read)."""
    if line is None:
        return 414, HTTPStatus.REQUEST_URI_TOO_LONG.phrase
    if len(words) >= 3:
        version = words[-1]
        numbers = version[5:].split(".") if version.startswith("HTTP/") else []
        if len(numbers) != 2 or not all(n.isdecimal() and len(n) <= 10 for n in numbers):
            return 400, "Bad request version (%r)" % version
        if int(numbers[0]) >= 2:
            return 505, "Invalid HTTP version (%s)" % version[5:]
    if not 2 <= len(words) <= 3:
        return 400, "Bad request syntax (%r)" % request_line
    if len(words) == 2 and words[0] != "GET":
        return 400, "Bad HTTP/0.9 request type (%r)" % words[0]
    return None


async def _read_line(reader: asyncio.StreamReader, prefix: bytes = b"") -> bytes | None:
    """One line, or None when it is longer than ``http.server`` takes."""
    try:
        line = prefix + await reader.readline()
    except ValueError:  # past the stream's own limit
        return None
    return line if len(line) <= _MAX_LINE else None


class AsyncGatewayServer(HostingServer):
    """Serve gateways over mux frames *and* HTTP/1.1 from one event loop.

    The constructor surface mirrors :class:`GatewayHttpServer` (gateway/
    group/gateways hosting, ``event_log``, ``tls``, ``auth``,
    ``trace_sample``), plus ``workers`` (the bounded executor that runs
    gateway calls — shard locks serialize there exactly as under the
    threaded server) and ``max_streams`` (per-connection in-flight cap,
    the mux backpressure bound).

    :attr:`url` is the mux address (``mux://host:port``, ``muxs://``
    under TLS); :attr:`http_url` is the same port spelled for HTTP
    clients — both protocols share the listener, sniffed per connection.
    ``tls`` is the same server-side ``ssl.SSLContext`` the threaded
    server takes; asyncio wraps each accepted connection with it.
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
        workers: int = 8,
        max_streams: int = 256,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_streams < 1:
            raise ValueError("max_streams must be >= 1")
        self.stats = WireServerStats()
        super().__init__(
            gateway, group, gateways, event_log, auth, trace_sample, wire_stats=self.stats
        )
        self.max_streams = max_streams
        self._tls = tls
        self._bind_host = host
        self._bind_port = port
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="gateway-aio"
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

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._on_connection,
                self._bind_host,
                self._bind_port,
                ssl=self._tls,
                # Match the threaded server's listen depth so a burst of
                # HTTP clients dialling at once is queued, not reset.
                backlog=1024,
            )
        except BaseException as error:
            self._startup_error = error
            self._ready.set()
            raise
        self._sockname = server.sockets[0].getsockname()[:2]
        self._ready.set()
        try:
            await self._shutdown.wait()
        finally:
            server.close()
            await server.wait_closed()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException:  # noqa: BLE001 - surfaced via _startup_error
            if not self._ready.is_set():
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

    def serve_forever(self) -> None:
        """Block serving until :meth:`close` (or KeyboardInterrupt)."""
        self.start()
        # Join in slices so the main thread stays interruptible.
        while self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=0.5)

    def close(self) -> None:
        """Stop the loop, join its thread, shut the worker pool down."""
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
        # Per-connection backpressure: past max_streams in-flight the
        # read loop stops pulling frames, so a flooding client queues in
        # its own socket buffer instead of ours.
        gate = asyncio.Semaphore(self.max_streams)
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    header = await reader.readexactly(FRAME_HEADER_LEN)
                except asyncio.IncompleteReadError:
                    break  # clean close between frames
                payload = await reader.readexactly(frame_length(header))
                document = decode_frame_payload(payload)
                if document.get("type") != "request" or not isinstance(
                    document.get("id"), int
                ):
                    raise FrameProtocolError("expected a request frame with an id")
                if not isinstance(document.get("headers") or {}, dict):
                    raise FrameProtocolError("request frame headers must be an object")
                await gate.acquire()
                task = asyncio.create_task(
                    self._run_stream(document, writer, write_lock, gate, peer)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)

    async def _run_stream(
        self,
        document: dict,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        gate: asyncio.Semaphore,
        peer: str,
    ) -> None:
        self.stats.stream_started()
        try:
            request_id = document["id"]
            method = str(document.get("method") or "POST").upper()
            target = str(document.get("path") or "/")
            body_text = document.get("body")
            # A JSON string may hold lone surrogates: they pass through as
            # bytes the engine refuses like any other undecodable body.
            body = (
                body_text.encode("utf-8", "surrogatepass")
                if isinstance(body_text, str)
                else b""
            )
            raw_headers = document.get("headers") or {}
            headers = {
                str(name).lower(): str(value) for name, value in raw_headers.items()
            }
            result = await asyncio.get_running_loop().run_in_executor(
                self._pool, self.engine.handle, method, target, body, headers, peer
            )
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
            gate.release()
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
            refused = _request_line_refusal(line, parts, request_line)
            if refused is not None:
                refusal = self.engine.refuse(*refused, request_line, peer)
                await self._write_http(writer, refusal)
                return
            method, target = parts[0].upper(), parts[1]
            # HTTP/1.1 keeps the connection unless told to close; older
            # versions close unless told to keep it (the stdlib's rule).
            legacy = len(parts) < 3 or parts[2] < "HTTP/1.1"
            headers: dict[str, str] = {}
            for count in itertools.count(1):
                hline = await _read_line(reader)
                if hline is None or count > MAX_HEADERS:
                    message = "Line too long" if hline is None else "Too many headers"
                    refusal = self.engine.refuse(431, message, request_line, peer)
                    await self._write_http(writer, refusal)
                    return
                if hline in (b"\r\n", b"\n", b""):
                    break
                name, sep, value = hline.decode("latin-1").partition(":")
                if sep:
                    headers[name.strip().lower()] = value.strip()
            try:
                length = body_length(headers)
            except InvalidRequestError as error:
                # The body was never drained; this connection is
                # desynchronized, so the refusal closes it.
                refusal = self.engine.refuse(400, str(error), request_line, peer)
                await self._write_http(writer, refusal)
                return
            body = await reader.readexactly(length) if length else b""
            self.stats.stream_started()
            try:
                result = await asyncio.get_running_loop().run_in_executor(
                    self._pool, self.engine.handle, method, target, body, headers, peer
                )
            finally:
                self.stats.stream_finished()
            connection = headers.get("connection", "").lower()
            keep_alive = connection == "keep-alive" if legacy else connection != "close"
            closing = result.close or not keep_alive
            await self._write_http(writer, result, close=closing)
            if closing:
                return

    async def _write_http(
        self, writer: asyncio.StreamWriter, result: WireResponse, close: bool = False
    ) -> None:
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
