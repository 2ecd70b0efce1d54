"""Spans around public functions, kept in memory, for the traced round.

A :class:`SpanRecorder` replaces public functions and methods with
wrappers that record a :class:`Span`.  Parents come from a per-thread
stack, and every span nested under one root (a server's
``WireRequestExecutor.handle`` call, a client's gateway call) carries
that root's id as its ``request``.  Hooks are looked up by dotted name;
one that no longer resolves prints a warning and its layer reports
``null`` instead of stopping the run.

Mux frames and the engine's ``handle`` are also tagged with the request's
``X-Repro-Trace`` header, which the client sends on every call, so one
request's client call, server frames and ``handle`` can be lined up and
the hand-offs between them (socket and event loop, executor queue,
reader-thread wake-up) measured as layers of their own.

Start and end are ``time.perf_counter()`` readings, which on Linux come
from ``CLOCK_MONOTONIC`` and so compare across the client and server
processes.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, NamedTuple

from repro.service.telemetry import TRACE_HEADER


class Span(NamedTuple):
    id: int
    parent: int | None
    request: int
    name: str
    start: float
    end: float
    size: int  # work items or bytes, 0 when the hook measures none
    tag: str | None  # the X-Repro-Trace header of the request, when known


def _length_of(position: int) -> Callable:
    return lambda args, result: len(args[position])


def _result_length(args, result) -> int:
    return len(result)


def _frame_tag(document) -> str | None:
    """A request frame carries the trace header, a response frame its echo."""
    if not isinstance(document, dict):
        return None
    return document.get("trace") or (document.get("headers") or {}).get(TRACE_HEADER)


# (target "module:Qualified.name", span name, size(args, result), tag(args, result))
SERVER_HOOKS = (
    ("repro.pairing.group:PairingGroup.pair", "pairing.pair", None, None),
    ("repro.pairing.group:PairingGroup.pair_batch", "pairing.pair_batch", _length_of(2), None),
    ("repro.core.tipre_backend:TipreBackend.reencrypt", "core.reencrypt", None, None),
    (
        "repro.core.tipre_backend:TipreBackend.reencrypt_batch",
        "core.reencrypt_batch",
        _length_of(1),
        None,
    ),
    ("repro.service.gateway:ReEncryptionGateway.reencrypt", "gateway.reencrypt", None, None),
    (
        "repro.service.gateway:ReEncryptionGateway.reencrypt_batch",
        "gateway.reencrypt_batch",
        _length_of(1),
        None,
    ),
    ("repro.service.gateway:ReEncryptionGateway.grant", "gateway.grant", None, None),
    ("repro.service.gateway:ReEncryptionGateway.revoke", "gateway.revoke", None, None),
    ("repro.service.cache:LruCache.invalidate_where", "cache.invalidate_where", None, None),
    ("repro.service.persistence:DurableProxyKeyTable.install", "persistence.install", None, None),
    ("repro.service.persistence:DurableProxyKeyTable.revoke", "persistence.revoke", None, None),
    (
        "repro.service.wire.aio_server:WireRequestExecutor.handle",
        "engine.handle",
        _length_of(3),
        lambda args, result: args[4].get(TRACE_HEADER.lower()),
    ),
)
CLIENT_HOOKS = tuple(
    ("repro.service.wire.client:RemoteGateway.%s" % op, "client.%s" % op, None, None)
    for op in ("reencrypt", "reencrypt_batch", "grant", "revoke")
)
# Codec functions that repro.service.wire.* modules import by name.
CODEC_PACKAGE = "repro.service.wire"
CODEC_HOOKS = (
    ("to_wire", "codec.encode", _result_length, None),
    ("from_wire", "codec.decode", _length_of(1), None),
    (
        "encode_frame",
        "codec.frame_encode",
        _result_length,
        lambda args, result: _frame_tag(args[0]),
    ),
    (
        "decode_frame_payload",
        "codec.frame_decode",
        _length_of(0),
        lambda args, result: _frame_tag(result),
    ),
)


class SpanRecorder:
    """Installs wrappers and keeps every finished span in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.unresolved: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, function: Callable, size=None, tag=None) -> Callable:
        local, ids, spans = self._local, self._ids, self.spans

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(ids)
            request = parent[1] if parent is not None else span_id
            stack.append((span_id, request))
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                done = result is not None
                spans.append(Span(
                    span_id,
                    parent[0] if parent is not None else None,
                    request,
                    name,
                    start,
                    end,
                    size(args, result) if size is not None and done else 0,
                    tag(args, result) if tag is not None and done else None,
                ))

        return traced

    def _replace(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def _unresolved(self, target: str) -> None:
        if target in self.unresolved:  # warned when the hooks were first installed
            return
        print("warning: trace hook %s no longer resolves; its layer reports null" % target,
              file=sys.stderr)
        self.unresolved.append(target)

    def hook(self, target: str, name: str, size=None, tag=None) -> None:
        """Wrap the function or method ``module:Qualified.name``."""
        module_name, _, path = target.partition(":")
        *parents, attribute = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attribute]
        except (ImportError, AttributeError, KeyError):
            self._unresolved(target)
            return
        self._replace(owner, attribute, self.wrap(name, original, size, tag))

    def hook_imported(self, package: str, function_name: str, name: str, size=None,
                      tag=None) -> None:
        """Rebind ``function_name`` in every imported submodule of ``package``.

        The defining module keeps its own binding, so calls the codec
        makes to itself are not counted twice.
        """
        rebound = False
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith(package + "."):
                continue
            original = vars(module).get(function_name)
            if callable(original) and original.__module__ != module_name:
                self._replace(module, function_name, self.wrap(name, original, size, tag))
                rebound = True
        if not rebound:
            self._unresolved("%s.*:%s" % (package, function_name))

    def install(self, hooks) -> "SpanRecorder":
        """Wrap ``hooks`` plus the codec functions; returns ``self``."""
        importlib.import_module(CODEC_PACKAGE)
        for target, name, size, tag in hooks:
            self.hook(target, name, size, tag)
        for function_name, name, size, tag in CODEC_HOOKS:
            self.hook_imported(CODEC_PACKAGE, function_name, name, size, tag)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def toggle(self, hooks) -> None:
        """Uninstall the wrappers when they are installed, else install ``hooks``."""
        if self._undo:
            self.uninstall()
        else:
            self.install(hooks)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"fields": Span._fields, "spans": self.spans, "unresolved": self.unresolved},
                handle,
            )


def load_spans(path) -> tuple[list[Span], list[str]]:
    """The spans and the unresolved hook targets :meth:`SpanRecorder.dump` wrote."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    return [Span(*row) for row in document["spans"]], document["unresolved"]


# --------------------------------------------------------- per-layer numbers


class SpanIndex:
    """Spans by name with self times (duration minus child span time)."""

    def __init__(self, spans: list[Span]):
        covered: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                covered[span.parent] += span.end - span.start
        self.by_name: dict[str, list[tuple[Span, float]]] = defaultdict(list)
        self.by_tag: dict[tuple[str, str], Span] = {}
        self.children: dict[int, list[Span]] = defaultdict(list)
        for span in spans:
            self.by_name[span.name].append((span, span.end - span.start - covered[span.id]))
            if span.tag is not None:
                self.by_tag[(span.name, span.tag)] = span
            if span.parent is not None:
                self.children[span.parent].append(span)

    def select(self, names, window=None) -> list[tuple[Span, float]]:
        chosen = [entry for name in names for entry in self.by_name.get(name, ())]
        if window is not None:
            chosen = [entry for entry in chosen if window[0] <= entry[0].start <= window[1]]
        return chosen

    def count(self, names, window) -> int:
        return len(self.select(names, window))

    def items(self, names, window) -> int:
        """Work items: a batch span counts its size, any other span one."""
        return sum(span.size or 1 for span, _ in self.select(names, window))


def _median_ms(values) -> float | None:
    values = list(values)
    return statistics.median(values) * 1000 if values else None


def _calls(index: SpanIndex, names, window) -> list[tuple[Span, float]]:
    """Calls of ``names`` in ``window``, or in the whole trial if it has none there.

    A hot-read server pairs, and a read workload's server writes, only
    while it is being set up.
    """
    return index.select(names, window) or index.select(names)


def _self_ms(index: SpanIndex, names, window) -> float | None:
    return _median_ms(own for _, own in _calls(index, names, window))


def _self_ms_per_item(index: SpanIndex, single: str, batch: str, window) -> float | None:
    """Median self time per work item over single and batched calls."""
    calls = _calls(index, [single, batch], window)
    return _median_ms(
        [own for span, own in calls if span.name == single]
        + [own / span.size for span, own in calls if span.name == batch and span.size]
    )


def _duration_ms(index: SpanIndex, names, window) -> float | None:
    return _median_ms(span.end - span.start for span, _ in _calls(index, names, window))


def _size(index: SpanIndex, name: str, window) -> float | None:
    sizes = [span.size for span, _ in index.select([name], window)]
    return float(statistics.median(sizes)) if sizes else None


def hand_offs(server: SpanIndex, client: SpanIndex, window) -> dict[str, list[float]]:
    """Per client call in ``window``: the time between one request's spans.

    ``transport``: client frame sent to server frame read, plus server
    frame written to client frame read (sockets and the event loop);
    ``engine_hop``: server frame read to ``handle``, plus ``handle`` to
    the response frame (the executor hand-off both ways); ``wake``: the
    client's reader thread to the waiting caller.
    """
    gaps: dict[str, list[float]] = {"transport": [], "engine_hop": [], "wake": []}
    for call, _ in client.select(CLIENT_CALLS, window):
        children = {span.name: span for span in client.children[call.id]}
        sent, decoded = children.get("codec.frame_encode"), children.get("codec.decode")
        if sent is None or decoded is None or sent.tag is None:
            continue
        read = server.by_tag.get(("codec.frame_decode", sent.tag))
        handled = server.by_tag.get(("engine.handle", sent.tag))
        written = server.by_tag.get(("codec.frame_encode", sent.tag))
        received = client.by_tag.get(("codec.frame_decode", sent.tag))
        if None in (read, handled, written, received):
            continue
        gaps["transport"].append(read.start - sent.end + received.start - written.end)
        gaps["engine_hop"].append(handled.start - read.end + written.start - handled.end)
        gaps["wake"].append(decoded.start - received.end)
    return gaps


SERVER_BLOCKING = (
    "engine.handle", "codec.decode", "codec.encode", "codec.frame_encode", "codec.frame_decode",
    "gateway.reencrypt", "gateway.reencrypt_batch", "gateway.grant", "gateway.revoke",
    "core.reencrypt", "core.reencrypt_batch", "pairing.pair", "pairing.pair_batch",
    "cache.invalidate_where", "persistence.install", "persistence.revoke",
)
CLIENT_BLOCKING = ("codec.encode", "codec.decode", "codec.frame_encode", "codec.frame_decode")
CLIENT_CALLS = tuple(name for _, name, _, _ in CLIENT_HOOKS)


def layer_metrics(server: list[Span], client: list[Span], traced) -> dict:
    """Per-layer numbers of one traced trial (a :class:`harness.Trial`).

    Per-call times, counts and ratios cover the measured phases (per-call
    times fall back to set-up for calls only set-up makes); call
    latencies, hand-offs and the explained share cover the open-loop
    phase, where the load threads rarely queue.
    """
    srv, cli = SpanIndex(server), SpanIndex(client)
    measured, open_window = traced.measured_window, traced.open_window
    ops = traced.measured_ops
    pairings = srv.count(["pairing.pair"], measured) + srv.items(["pairing.pair_batch"], measured)
    before, after = traced.before.caches["result_cache"], traced.after.caches["result_cache"]
    hits, misses = after.hits - before.hits, after.misses - before.misses
    queue_sum, queue_count = (
        sum(getattr(histogram, field) for histogram in traced.after.tenant_queue_ms.values())
        - sum(getattr(histogram, field) for histogram in traced.before.tenant_queue_ms.values())
        for field in ("sum", "count")
    )
    gaps = hand_offs(srv, cli, open_window)
    calls = cli.count(CLIENT_CALLS, open_window)
    call_p50 = _duration_ms(cli, CLIENT_CALLS, open_window)

    unexplained = None
    if call_p50:
        explained = sum(
            (_self_ms(index, [name], open_window) or 0.0) * index.count([name], open_window) / calls
            for index, names in ((srv, SERVER_BLOCKING), (cli, CLIENT_BLOCKING))
            for name in names
        ) + sum(_median_ms(values) or 0.0 for values in gaps.values())
        unexplained = 1 - explained / call_p50
    frame_ms = [
        _duration_ms(index, [name], measured)
        for index in (srv, cli)
        for name in ("codec.frame_encode", "codec.frame_decode")
    ]
    return {
        "pairing.pair_ms": _self_ms_per_item(srv, "pairing.pair", "pairing.pair_batch", measured),
        "pairing.pairings_per_op": pairings / ops,
        "core.reencrypt_self_ms": _self_ms_per_item(
            srv, "core.reencrypt", "core.reencrypt_batch", measured
        ),
        "gateway.reencrypt_self_ms": _self_ms_per_item(
            srv, "gateway.reencrypt", "gateway.reencrypt_batch", measured
        ),
        "gateway.write_ms": _duration_ms(srv, ["gateway.grant", "gateway.revoke"], measured),
        # No call took a shard lock when every read hit the result cache.
        "gateway.queue_wait_ms": queue_sum / queue_count if queue_count else 0.0,
        "cache.result_hit_ratio": hits / (hits + misses) if hits + misses else None,
        "cache.result_evictions_per_op": (after.evictions - before.evictions) / ops,
        "cache.invalidate_ms": _duration_ms(srv, ["cache.invalidate_where"], measured),
        "persistence.append_ms": _duration_ms(
            srv, ["persistence.install", "persistence.revoke"], measured
        ),
        "codec.server_decode_ms": _duration_ms(srv, ["codec.decode"], measured),
        "codec.server_encode_ms": _duration_ms(srv, ["codec.encode"], measured),
        "codec.client_encode_ms": _duration_ms(cli, ["codec.encode"], measured),
        "codec.client_decode_ms": _duration_ms(cli, ["codec.decode"], measured),
        "codec.frame_ms": None if None in frame_ms else sum(frame_ms),
        "codec.request_bytes": _size(cli, "codec.encode", measured),
        "codec.response_bytes": _size(cli, "codec.decode", measured),
        "engine.handle_self_ms": _self_ms(srv, ["engine.handle"], measured),
        "engine.hop_ms": _median_ms(gaps["engine_hop"]),
        "transport.overhead_ms": _median_ms(gaps["transport"]),
        "client.wake_ms": _median_ms(gaps["wake"]),
        "client.call_ms": call_p50,
        "trace.unexplained_frac": unexplained,
    }
