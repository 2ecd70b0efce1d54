"""End-to-end telemetry: traces, histogram metrics, structured events.

Three primitives every serving deployment of the gateway needs once a
request can cross process boundaries:

* **Trace contexts** — :class:`TraceContext` is a (trace id, span id)
  pair generated at the edge (:class:`~repro.service.wire.client.RemoteGateway`),
  carried as the ``X-Repro-Trace`` header through the wire, and threaded
  into :class:`~repro.service.gateway.ReEncryptionGateway` so every
  request stage (admission, route, cache lookup, shard crypto op,
  serialization) adds to the request's one :class:`RequestRecord`, which
  is filed into a bounded per-gateway :class:`Tracer` ring when the
  request ends.  ``GET /v1/trace/{id}`` reads the :class:`Span` objects
  back and ``repro-pre trace`` renders them as a waterfall.

* **Histogram metrics** — :class:`Histogram` is a fixed-bucket latency
  accumulator with exact count/sum/max.  Unlike the sample lists it
  replaces, it never drops an observation, so long-run percentiles track
  live traffic instead of freezing on startup samples, and the bounded
  memory holds no matter how long the gateway runs.
  :func:`render_prometheus` exposes everything (per scheme, per
  operation, per tenant outcome) in Prometheus text exposition format
  for ``GET /v1/metrics?format=prometheus``.

* **Structured events** — :class:`EventLog` is a bounded ring of
  structured events, read back as JSON objects, with an injectable sink
  (:func:`jsonl_sink` appends one JSON line per event to any stream).
  The gateway's audit writer and the wire server's access lines,
  handler crashes and connection errors all feed it, so nothing a
  production operator needs vanishes into a silenced stderr.  The wire
  engine files each answered request's events as one compact record.

Everything here is dependency-free within the service layer (no imports
from :mod:`repro.service.metrics` or the wire package), thread-safe, and
clock-injectable so tests assert on exact numbers.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import re
import secrets
import struct
import threading
import time
from collections import deque
from contextlib import nullcontext
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from repro._intern import intern

__all__ = [
    "TRACE_HEADER",
    "TraceContext",
    "Span",
    "RequestRecord",
    "Tracer",
    "Histogram",
    "HistogramSnapshot",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "EventLog",
    "jsonl_sink",
    "render_prometheus",
    "span_to_json",
    "span_from_json",
]

# The wire header carrying "<trace id>-<span id>" (32 + 16 lowercase hex
# chars); the response echoes it so a client can always correlate.
TRACE_HEADER = "X-Repro-Trace"

_TRACE_ID_CHARS = 32  # 16 random bytes
_SPAN_ID_CHARS = 16  # 8 bytes
_HEX = set("0123456789abcdef")

# Trace and span ids only need uniqueness, not unpredictability (they
# are correlation handles, not capabilities): a PRNG seeded once from
# the CSPRNG keeps id generation syscall-free — secrets.token_hex reads
# urandom per call, which is measurable at per-request rates.
# getrandbits on a shared Random is a single C call, atomic under the
# GIL.
_id_rng = random.Random(secrets.randbits(64))
# Span ids come in blocks of 2**32: a request record numbers its stages
# within one, a root context takes one for its own id.  Block numbers
# count up by one from a random 32-bit start and wrap at 2**32, so every
# id stays within 16 hex digits however long the process runs: distinct
# within a process until 2**32 blocks have been taken, and across
# processes (a fleet's router and shards share traces) as likely
# distinct as fresh random ids.  next() on a count is one C call, atomic
# under the GIL.
_id_blocks = itertools.count(_id_rng.getrandbits(32))
# Ended records a tracer queues before filing them (concurrent stages end
# in any order).
_BATCH = 16


def _id_block() -> int:
    """The first span id of a fresh block of 2**32."""
    return (next(_id_blocks) & 0xFFFFFFFF) << 32


# ------------------------------------------------------------------- tracing


class TraceContext(NamedTuple):
    """One request's position in a trace: the trace id plus current span.

    The context is propagation state, not a recorded span — spans are
    what a :class:`Tracer` stores.  ``span_id`` names the *enclosing*
    span, so spans opened under this context record it as their parent.
    A NamedTuple rather than a dataclass: one is built per traced request
    and per span that hands it on, and tuple construction keeps that cheap.
    """

    trace_id: str
    span_id: str

    @staticmethod
    def generate() -> "TraceContext":
        """A fresh root context (random trace id; no parent span recorded)."""
        return TraceContext("%032x" % _id_rng.getrandbits(128), "%016x" % _id_block())

    def child(self) -> "TraceContext":
        """Same trace, fresh span id — the context a sub-span runs under."""
        return TraceContext(self.trace_id, "%016x" % _id_block())

    def to_header(self) -> str:
        return "%s-%s" % (self.trace_id, self.span_id)

    @staticmethod
    def from_header(value: str | None) -> "TraceContext | None":
        """Parse a header value; anything malformed is ``None``, never an error.

        A gateway must keep serving clients with broken tracing middleware,
        so header parsing is deliberately infallible.
        """
        if not value or not isinstance(value, str):
            return None
        parts = value.strip().split("-")
        if len(parts) != 2:
            return None
        trace_id, span_id = parts
        if len(trace_id) != _TRACE_ID_CHARS or len(span_id) != _SPAN_ID_CHARS:
            return None
        if not (set(trace_id) <= _HEX and set(span_id) <= _HEX):
            return None
        return TraceContext(trace_id=trace_id, span_id=span_id)


class Span(NamedTuple):
    """One recorded stage of one request.

    ``attributes`` is a sorted tuple of (key, value) string pairs so the
    record stays hashable and wire round trips compare equal.  Built only
    when a trace is read (see :meth:`Tracer.trace`).
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start_ms: float
    duration_ms: float
    status: str = "ok"  # "ok" or a stable error code
    attributes: tuple[tuple[str, str], ...] = ()

    def attribute_dict(self) -> dict[str, str]:
        return dict(self.attributes)


# The record of the request running in this context, if it is traced.
_RECORD: ContextVar["RequestRecord | None"] = ContextVar("repro_request_record", default=None)


class _Stage:
    """One stage in flight: what :meth:`Tracer.span` returns and its block yields.

    ``context`` is the child trace context the stage runs under — pass it
    to nested stages so their spans parent correctly.  :meth:`set` adds
    attributes (setting a key again replaces its value); assigning
    :attr:`status` overrides the default ("ok", or the ``code`` of an
    exception that escapes the block).  Its clock starts when it is made.
    Single-use: a plain slotted context manager rather than
    ``@contextmanager``, because the generator machinery is measurable
    per-request overhead.
    """

    __slots__ = ("status", "_record", "_name", "_number", "_parent", "_keys", "_values", "_start")

    def __init__(self, record: "RequestRecord", parent: int, name: str, attributes) -> None:
        self.status: str | None = None
        self._record = record
        self._name = name
        self._number = next(record.numbers)
        self._parent = parent
        self._keys = tuple(attributes) if attributes else ()
        self._values = tuple(attributes.values()) if attributes else ()
        self._start = record.clock()

    @property
    def context(self) -> TraceContext:
        # Built on demand: most stages have no child to hand it to.
        record = self._record or self
        context = TraceContext(record.trace_id, "%016x" % (record.base + self._number))
        record.named[context] = self._number
        return context

    def set(self, key: str, value: Any) -> None:
        self._keys += (str(key),)
        self._values += (value,)

    def __enter__(self) -> "_Stage":
        return self

    def __exit__(self, exc_type, exc, _tb) -> bool:
        if exc is not None and self.status is None:
            self.status = getattr(exc, "code", exc_type.__name__)
        record = self._record or self
        record.stages.append((
            self._name, self._number, self._parent, self.status or "ok", self._keys,
            self._start, record.clock(), self._values,
        ))
        return False  # never swallow the block's exception


class RequestRecord(_Stage):
    """One traced request's stages, filed into its tracer's ring once.

    Entered, it is the running request's record (a context variable) for
    the wire engine's dispatch, where it is also its first stage, or for
    an in-process gateway call given a trace.  A stage numbers itself in
    the record's block of span ids and, ending, appends one tuple (one
    list append: fan-out threads' stages stay whole).  Filed, it is one
    tuple: parent span id, the stages' layout (shared per call shape),
    block and clock readings packed, then raw attribute values.
    """

    __slots__ = (
        "tracer", "clock", "trace_id", "parent_id", "base", "numbers", "stages", "named", "_token",
    )

    def __init__(self, tracer: "Tracer", context: TraceContext, name=None, attributes=None):
        self.tracer = tracer
        self.clock = tracer._clock
        self.trace_id = context.trace_id
        self.parent_id = context.span_id
        self.base = _id_block()
        self.numbers = itertools.count()
        self.stages: list[tuple] = []
        # Context a stage may open under -> the parent number it gives.
        self.named: dict[TraceContext, int] = {context: -1}
        self._name = name
        if name is not None:  # its own stage, number 0, files into itself
            _Stage.__init__(self, self, -1, name, attributes)
            self._record = None

    def __enter__(self) -> "RequestRecord":
        self._token = _RECORD.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._name is not None:
            _Stage.__exit__(self, exc_type, exc, tb)
        _RECORD.reset(self._token)
        self.tracer._file(self)
        return False


# What Tracer.span returns for an untraced request: yields None, shared.
_NO_SPAN = nullcontext()


@functools.lru_cache(maxsize=256)
def _packing(stages: int) -> struct.Struct:
    """A filed record's id block, then its stages' start and end readings."""
    return struct.Struct("Q%dd" % (2 * stages))


def _spans_of(trace_id: str, record: tuple) -> list[Span]:
    """The :class:`Span`\\ s of one record in a :class:`Tracer` ring."""
    parent_id, (names, numbers, parents, statuses, keys), packed = record[:3]
    count = len(names)
    base, *times = _packing(count).unpack(packed)
    spans, at = [], 3
    for i in range(count):
        values = record[at : at + len(keys[i])]
        at += len(keys[i])
        start, end = times[i], times[count + i]
        parent = parent_id if parents[i] < 0 else "%016x" % (base + parents[i])
        attributes = dict(zip(map(str, keys[i]), map(str, values)))
        spans.append(Span(
            trace_id, "%016x" % (base + numbers[i]), parent, names[i], start * 1000.0,
            (end - start) * 1000.0, statuses[i], tuple(sorted(attributes.items())),
        ))
    return spans


class Tracer:
    """A bounded ring of traces: at most ``max_traces``, oldest evicted.

    A trace keeps the records filed under its id, with at most
    ``max_spans_per_trace`` stages in all: a record is cut where its trace
    fills, and the stages cut off count as dropped.  Ended records queue
    and are filed in batches of ``_BATCH`` and before any read, so filing
    runs as warm code, not once per request.  :meth:`trace` builds the
    :class:`Span` objects.  Thread-safe.
    """

    def __init__(
        self,
        max_traces: int = 256,
        max_spans_per_trace: int = 256,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_traces < 1 or max_spans_per_trace < 1:
            raise ValueError("trace ring bounds must be positive")
        self.max_traces = max_traces
        self.max_spans_per_trace = max_spans_per_trace
        self._clock = clock
        self._lock = threading.Lock()
        self._ended: deque[RequestRecord] = deque()
        # trace id -> (stages held, record, record, ...), oldest trace first
        self._traces: dict[str, tuple] = {}
        self._shapes: dict[tuple, tuple] = {}
        self._counts = [0, 0, 0]  # stages recorded, stages dropped, traces evicted

    spans_recorded = property(lambda self: self._counted(0))
    spans_dropped = property(lambda self: self._counted(1))
    traces_evicted = property(lambda self: self._counted(2))

    def span(
        self,
        context: TraceContext | None,
        name: str,
        attributes: dict[str, Any] | None = None,
    ) -> _Stage | nullcontext:
        """Record one named stage around a block; no-op when ``context`` is None.

        The stage joins the running request's record when ``context`` names
        its parent or one of its stages, else it opens a record of its own.
        An exception escaping the block marks the stage's status with the
        exception's stable ``code`` (or its class name) and re-raises —
        failed stages show up in the trace exactly where they failed.
        """
        if context is None:
            return _NO_SPAN
        record = _RECORD.get()
        if record is not None and record.tracer is self:
            parent = record.named.get(context)
            if parent is not None:
                return _Stage(record, parent, name, attributes)
        return RequestRecord(self, context, name, attributes)

    def record(self, context: TraceContext) -> RequestRecord | None:
        """The record a call under ``context`` enters; None if one covers it."""
        record = _RECORD.get()
        if record is not None and record.tracer is self and context in record.named:
            return None
        return RequestRecord(self, context)

    def _file(self, record: RequestRecord) -> None:
        self._ended.append(record)
        if len(self._ended) >= _BATCH:
            with self._lock:
                self._drain()

    def _drain(self) -> None:
        """File the queued records (lock held), each cut to its trace's room."""
        while self._ended:
            record = self._ended.popleft()
            held = self._traces.get(record.trace_id, (0,))
            stages = record.stages[: max(0, self.max_spans_per_trace - held[0])]
            self._counts[1] += len(record.stages) - len(stages)
            if not stages:
                continue
            names, numbers, parents, statuses, keys, starts, ends, values = zip(*stages)
            # One layout per call shape.
            layout = intern(self._shapes, (names, numbers, parents, statuses, keys))
            packed = _packing(len(names)).pack(record.base, *starts, *ends)
            # sum() joins a few short tuples faster than chain does.
            compact = (record.parent_id, layout, packed) + sum(values, ())
            self._counts[0] += len(names)
            if len(held) == 1:  # a new trace
                while len(self._traces) >= self.max_traces:
                    del self._traces[next(iter(self._traces))]
                    self._counts[2] += 1
            self._traces[record.trace_id] = (held[0] + len(names), *held[1:], compact)

    def _counted(self, index: int) -> int:
        with self._lock:
            self._drain()
            return self._counts[index]

    def trace(self, trace_id: str) -> list[Span]:
        """Every recorded span of one trace, in filing order."""
        with self._lock:
            self._drain()
            records = self._traces.get(trace_id, (0,))[1:]
        return [span for record in records for span in _spans_of(trace_id, record)]

    def trace_ids(self) -> list[str]:
        with self._lock:
            self._drain()
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            self._drain()
            return len(self._traces)


def span_to_json(span: Span) -> dict:
    return {
        "trace": span.trace_id,
        "span": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "start_ms": span.start_ms,
        "duration_ms": span.duration_ms,
        "status": span.status,
        "attributes": span.attribute_dict(),
    }


def span_from_json(document: dict) -> Span:
    """Rebuild a :class:`Span`; raises ``ValueError`` on a malformed document."""
    if not isinstance(document, dict):
        raise ValueError("span document must be a JSON object")
    try:
        attributes = document.get("attributes") or {}
        if not isinstance(attributes, dict):
            raise ValueError("span attributes must be a JSON object")
        parent = document.get("parent")
        if parent is not None and not isinstance(parent, str):
            raise ValueError("span parent must be a string or null")
        return Span(
            trace_id=str(document["trace"]),
            span_id=str(document["span"]),
            parent_id=parent,
            name=str(document["name"]),
            start_ms=float(document["start_ms"]),
            duration_ms=float(document["duration_ms"]),
            status=str(document.get("status", "ok")),
            attributes=tuple(
                sorted((str(k), str(v)) for k, v in attributes.items())
            ),
        )
    except (KeyError, TypeError) as error:
        raise ValueError("malformed span document: %s" % error) from error


# ---------------------------------------------------------------- histograms

# Exponential-ish bounds spanning a cache hit (~50us) through a slow wire
# batch (~10s); everything slower lands in the implicit +Inf bucket.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


@dataclass(frozen=True)
class HistogramSnapshot:
    """A frozen histogram: cumulative math lives here, mutation in Histogram.

    ``counts`` has one entry per bound plus the final +Inf bucket.
    ``count``/``sum``/``max_value`` are exact — only percentiles are
    bucket-resolution estimates.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    count: int
    sum: float
    max_value: float

    def percentile(self, q: float) -> float:
        """Estimate the q-quantile (0 < q <= 1) by bucket interpolation.

        The rank is nearest-rank over the exact count; within the chosen
        bucket the estimate interpolates linearly between its bounds.
        The top (+Inf) bucket and the overall estimate are clamped to the
        exact observed max, so the estimate never invents a latency
        larger than anything that happened.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, int(q * self.count + 0.999999))
        cumulative = 0
        lower = 0.0
        for i, bucket_count in enumerate(self.counts):
            upper = self.bounds[i] if i < len(self.bounds) else self.max_value
            if bucket_count:
                cumulative += bucket_count
                if cumulative >= rank:
                    # Position of the rank inside this bucket.
                    into = rank - (cumulative - bucket_count)
                    estimate = lower + (upper - lower) * into / bucket_count
                    return min(estimate, self.max_value)
            lower = self.bounds[i] if i < len(self.bounds) else lower
        return self.max_value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class Histogram:
    """Fixed-bucket latency accumulator; every observation always counts.

    Replaces the first-50k-wins sample lists: memory is bounded by the
    bucket count, not the traffic volume, so a year-long run's p99 still
    reflects the last request.  Thread-safe.
    """

    __slots__ = ("bounds", "_counts", "_count", "_sum", "_max", "_lock")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_MS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted non-empty sequence")
        self.bounds = tuple(float(b) for b in bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # + the +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        # Linear scan beats bisect for ~18 buckets when most latencies
        # land in the first few; both are trivially cheap next to a pairing.
        index = len(self.bounds)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value

    def snapshot(self) -> HistogramSnapshot:
        with self._lock:
            return HistogramSnapshot(
                bounds=self.bounds,
                counts=tuple(self._counts),
                count=self._count,
                sum=self._sum,
                max_value=self._max,
            )


# ------------------------------------------------------------------- events

# The events of the request running in this context, while its answer is
# made (see EventLog.collect).
_EVENTS: ContextVar["_Collector | None"] = ContextVar("repro_request_events", default=None)
# The most events one record holds: a longer request (a large batch) is
# filed as several records, one after another, so that no layout grows
# with a batch's length and the interned layouts stay bounded in bytes.
_RECORD_EVENTS = 16
# The three parts a record holds: any event, an audit event, an access line.
_EVENT, _AUDIT, _ACCESS = range(3)
_ACCESS_PART = (_ACCESS,)
# An audit part's flags: which of its optional fields it holds.
_SHARD, _LATENCY, _TRACE = 1, 2, 4


def _audit_parts(scheme: str) -> tuple:
    """A scheme's audit parts, indexed by their flags: shared, so that no
    layout holds an audit part of its own."""
    return tuple((_AUDIT, scheme, flags) for flags in range(8))


class _Layout:
    """How one call shape's records read back: their parts (one per event),
    the struct their numbers are packed with, their event count."""

    __slots__ = ("parts", "packing", "count")

    def __init__(self, parts: tuple) -> None:
        formats = []
        for part in parts:
            if part[0] == _AUDIT:
                flags = part[2]
                formats.append("d" + "d" * bool(flags & _LATENCY) + "16s" * bool(flags & _TRACE))
            elif part[0] == _ACCESS:
                formats.append("dHI")  # time, status, response size
        self.parts = parts
        # A struct keeps 32 B per code: a run of doubles as one ("3d").
        packing = re.sub(r"d+", lambda run: "%dd" % len(run[0]), "".join(formats))
        self.packing = struct.Struct("=" + packing)
        self.count = len(parts)


class _Collector:
    """One request's events, filed together when its block ends."""

    __slots__ = ("log", "events", "_token")

    def __init__(self, log: "EventLog") -> None:
        self.log = log
        # One (part, numbers, refs) tuple per event, added by one append:
        # threads running in copies of the request's context share the
        # collector, and must not interleave one event's pieces with
        # another's.
        self.events: list[tuple] = []

    def __enter__(self) -> "_Collector":
        self._token = _EVENTS.set(self)
        return self

    def __exit__(self, *_exc_info) -> bool:
        _EVENTS.reset(self._token)
        events, log = self.events, self.log
        if len(events) == 2:  # the usual request: an audit event, an access line
            (first, first_numbers, first_refs), (second, numbers, refs) = events
            record = log._record((first, second), first_numbers + numbers, first_refs + refs)
            log._file((record,), 2)
        elif events:
            records = []
            for start in range(0, len(events), _RECORD_EVENTS):
                parts, numbers, refs = zip(*events[start : start + _RECORD_EVENTS])
                # sum() joins a few short tuples faster than chain does.
                records.append(log._record(parts, sum(numbers, ()), sum(refs, ())))
            log._file(records, len(events))
        return False


class EventLog:
    """A bounded ring of structured events with an injectable sink.

    :meth:`emit` records one event: ``ts``, ``kind`` and whatever fields
    the caller passes, less those that are ``None``; :meth:`audit` and
    :meth:`access` record the gateway's audit events and the server's
    access lines.  Inside :meth:`collect`'s block, which the wire engine
    opens around each request it answers, this log's events are gathered
    and filed together when the block ends, numbered one after another,
    as one record (as several of at most 16 events for a longer
    request); elsewhere an event is filed at once, as a record of its
    own.  A record keeps its layout (shared per call shape), its numbers
    (timestamps, latency, trace id, status, response size) packed, and
    its strings by reference; :meth:`tail` builds the events'
    JSON-compatible dicts, ``seq`` numbering every event in filing
    order, and formats an access line's ``message`` there.  The newest
    ``max_events`` events stay: the oldest record may be evicted in
    part.  When a ``sink`` is installed — a callable taking the event
    dict, e.g. :func:`jsonl_sink` — each event's dict is built when its
    record is filed and handed to it.  A sink failure is counted, never
    raised: telemetry must not take down serving.  Thread-safe.
    """

    def __init__(
        self,
        sink: Callable[[dict], None] | None = None,
        max_events: int = 4096,
        clock: Callable[[], float] = time.time,
    ):
        if max_events < 1:
            raise ValueError("max_events must be positive")
        self.max_events = max_events
        self.sink = sink
        self._clock = clock
        self._lock = threading.Lock()
        self._records: deque[tuple] = deque()
        self._held = 0  # events the ring holds
        self._cut = 0  # the oldest record's events already evicted
        self._layouts: dict[tuple, _Layout] = {}  # one per call shape
        self._audit_parts: dict[str, tuple] = {}  # per scheme
        self._strings: dict[str, str] = {}  # clients and request lines
        self.emitted = 0  # also the next event's seq
        self.sink_errors = 0

    def collect(self) -> _Collector:
        """A block whose events on this log are filed together when it ends."""
        return _Collector(self)

    def emit(self, kind: str, **fields: Any) -> None:
        """Record one event."""
        self._add((_EVENT, kind, tuple(fields)), (), (self._clock(), *fields.values()))

    def audit(
        self,
        scheme: str,
        entry: tuple[str, str, str, str],
        shard: str | None = None,
        latency_ms: float | None = None,
        trace: str | None = None,
    ) -> None:
        """Record one ``audit`` event; ``entry`` is its (tenant, action,
        outcome, detail), the detail dropped when empty."""
        ts = self._clock()
        trace_id = None if trace is None else _trace_bytes(trace)
        if (
            type(ts) is float
            and (latency_ms is None or type(latency_ms) is float)
            and (trace is None or trace_id is not None)
        ):
            flags, numbers = 0, (ts,)
            if latency_ms is not None:
                flags, numbers = _LATENCY, (ts, latency_ms)
            if trace_id is not None:
                flags |= _TRACE
                numbers += (trace_id,)
            table = self._audit_parts
            parts = table.get(scheme) or intern(table, scheme, _audit_parts)
            if shard is None:
                self._add(parts[flags], numbers, (entry,))
            else:
                self._add(parts[flags | _SHARD], numbers, (entry, shard))
            return
        # A value the packed part would not give back exactly: any event.
        tenant, action, outcome, detail = entry
        self._add(
            (_EVENT, "audit", _AUDIT_NAMES), (),
            (ts, scheme, tenant, action, outcome, shard, latency_ms, trace, detail or None),
        )

    def access(self, client: str, request: str, status: int, size: int) -> None:
        """Record one access line: ``message`` reads ``"<request>" <status>
        <size>``."""
        ts = self._clock()
        if type(ts) is float and 0 <= status < 0x10000 and 0 <= size < 0x100000000:
            strings = self._strings
            self._add(
                _ACCESS_PART,
                (ts, status, size),
                (strings.get(client) or intern(strings, client),
                 strings.get(request) or intern(strings, request)),
            )
            return
        message = '"%s" %d %d' % (request, status, size)
        self._add((_EVENT, "http-log", _ACCESS_NAMES), (), (ts, client, message))

    def _add(self, part: tuple, numbers, refs) -> None:
        collector = _EVENTS.get()
        if collector is not None and collector.log is self:
            collector.events.append((part, numbers, refs))
        else:
            self._file((self._record((part,), numbers, refs),), 1)

    def _record(self, parts: tuple, numbers, refs) -> tuple:
        """One record: its layout, its numbers packed, its refs."""
        layout = self._layouts.get(parts) or intern(self._layouts, parts, _Layout)
        return (layout, layout.packing.pack(*numbers), *refs)

    def _file(self, records, count: int) -> None:
        """File records holding ``count`` events, numbered one after another."""
        with self._lock:
            first = self.emitted
            self._records.extend(records)
            self.emitted += count
            self._held += count
            if self._held > self.max_events:
                self._evict()
            sink = self.sink
        if sink is None:
            return
        for record in records:
            for event in _events_of(record, first):
                try:
                    sink(event)
                except Exception:  # noqa: BLE001 - telemetry never kills serving
                    with self._lock:
                        self.sink_errors += 1
            first += record[0].count

    def _evict(self) -> None:
        """Drop the oldest events past ``max_events`` (lock held): whole
        records, and then the oldest record's first events if need be."""
        over = self._held - self.max_events
        while over:
            live = self._records[0][0].count - self._cut
            if over < live:
                self._cut += over
                self._held -= over
                return
            self._records.popleft()
            self._cut = 0
            self._held -= live
            over -= live

    def tail(self, n: int | None = None) -> list[dict]:
        """The newest ``n`` events (all retained when ``n`` is None), oldest first."""
        with self._lock:
            keep = self._held if n is None else max(0, min(n, self._held))
            records, counted = [], 0
            for record in reversed(self._records):
                if counted >= keep:
                    break
                records.append(record)
                counted += record[0].count
            first = self.emitted - counted
        events: list[dict] = []
        for record in reversed(records):
            events += _events_of(record, first + len(events))
        return events[len(events) - keep :]

    def __len__(self) -> int:
        with self._lock:
            return self._held


# The field names of an audit event and an access line kept as any event.
_AUDIT_NAMES = ("scheme", "tenant", "action", "outcome", "shard", "latency_ms", "trace", "detail")
_ACCESS_NAMES = ("client", "message")


def _trace_bytes(trace: str) -> bytes | None:
    """A trace id's 16 bytes, or None unless it is 32 lowercase hex digits
    (with a letter among them, which all but one id in 3 million have)."""
    if not (isinstance(trace, str) and len(trace) == 32 and trace.islower()):
        return None
    try:
        packed = bytes.fromhex(trace)
    except ValueError:
        return None
    return packed if len(packed) == 16 else None  # fromhex skips spaces


def _events_of(record: tuple, first: int) -> list[dict]:
    """The events of one record :class:`EventLog` filed, ``first`` its first seq."""
    layout = record[0]
    numbers = iter(layout.packing.unpack(record[1]))
    refs = itertools.islice(record, 2, None)
    events = []
    for sequence, part in enumerate(layout.parts, first):
        if part[0] == _AUDIT:
            *fields, detail = next(refs)
            event = {"ts": next(numbers), "kind": "audit", "scheme": part[1]}
            for key, value in zip(("tenant", "action", "outcome"), fields):
                if value is not None:
                    event[key] = value
            flags = part[2]
            if flags & _SHARD:
                event["shard"] = next(refs)
            if flags & _LATENCY:
                event["latency_ms"] = next(numbers)
            if flags & _TRACE:
                event["trace"] = next(numbers).hex()
            if detail:
                event["detail"] = detail
        elif part[0] == _ACCESS:
            ts, status, size = next(numbers), next(numbers), next(numbers)
            event = {"ts": ts, "kind": "http-log"}
            client = next(refs)
            if client is not None:
                event["client"] = client
            event["message"] = '"%s" %d %d' % (next(refs), status, size)
        else:
            event = {"ts": next(refs), "kind": part[1]}
            for key in part[2]:
                value = next(refs)
                if value is not None:
                    event[key] = value
        event["seq"] = sequence
        events.append(event)
    return events


def jsonl_sink(stream) -> Callable[[dict], None]:
    """A sink writing one compact JSON line per event to ``stream``.

    The write is flushed per event so a crash loses at most the event in
    flight — the property an audit trail needs from its transport.
    """

    lock = threading.Lock()

    def write(event: dict) -> None:
        line = json.dumps(event, sort_keys=True, default=str)
        with lock:
            stream.write(line + "\n")
            stream.flush()

    return write


# -------------------------------------------------------- prometheus render


def escape_label_value(value: str) -> str:
    """Escape a Prometheus label value (backslash, quote, newline)."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _fmt_value(value: float) -> str:
    if isinstance(value, bool):  # guard: bool is an int subclass
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == float("inf"):
        return "+Inf"
    return "%.10g" % value


def _labels(pairs: list[tuple[str, str]]) -> str:
    if not pairs:
        return ""
    return "{%s}" % ",".join(
        '%s="%s"' % (name, escape_label_value(value)) for name, value in pairs
    )


class _Family:
    """One exposition family: HELP/TYPE header plus its samples."""

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help_text = help_text
        self.samples: list[str] = []

    def add(self, labels: list[tuple[str, str]], value, suffix: str = "") -> None:
        self.samples.append(
            "%s%s%s %s" % (self.name, suffix, _labels(labels), _fmt_value(value))
        )

    def render(self) -> list[str]:
        if not self.samples:
            return []
        return [
            "# HELP %s %s" % (self.name, self.help_text),
            "# TYPE %s %s" % (self.name, self.kind),
        ] + self.samples


def render_prometheus(
    snapshots: dict[str, Any],
    wire: Any | None = None,
    substrate_ops: dict[str, dict[str, int]] | None = None,
) -> str:
    """Render gateway metrics snapshots as Prometheus text exposition.

    ``snapshots`` maps a scheme id to that fleet's
    :class:`~repro.service.metrics.MetricsSnapshot` (duck-typed: this
    module never imports the metrics module).  Each family is emitted
    once with every fleet's samples under a ``scheme`` label, which is
    what lets one scrape of a multi-scheme server stay a valid document.

    ``wire`` is an optional
    :class:`~repro.service.metrics.WireStatsSnapshot` (again duck-typed)
    carrying the serving transport's connection/stream gauges — scheme-
    neutral, since connections are shared by every hosted fleet.

    ``substrate_ops`` maps a scheme id to the pairing-layer operation
    counts of the requests its fleet served.
    """
    families = [
        _Family("repro_gateway_requests_total", "counter",
                "Requests admitted or refused since process start."),
        _Family("repro_gateway_served_total", "counter",
                "Requests served successfully."),
        _Family("repro_gateway_rejected_total", "counter",
                "Requests rejected by policy (not rate limiting)."),
        _Family("repro_gateway_rate_limited_total", "counter",
                "Requests refused by the per-tenant token bucket."),
        _Family("repro_gateway_resizes_total", "counter",
                "Fleet resize operations."),
        _Family("repro_gateway_keys_migrated_total", "counter",
                "Proxy keys moved by resize migrations."),
        _Family("repro_gateway_uptime_seconds", "gauge",
                "Seconds since the metrics accumulator started."),
        _Family("repro_gateway_shard_requests_total", "counter",
                "Served requests per shard."),
        _Family("repro_gateway_outcomes_total", "counter",
                "Request outcomes per operation and stable outcome code."),
        _Family("repro_gateway_tenant_outcomes_total", "counter",
                "Request outcomes per tenant (bounded cardinality)."),
        _Family("repro_gateway_cache_hits_total", "counter", "Cache hits."),
        _Family("repro_gateway_cache_misses_total", "counter", "Cache misses."),
        _Family("repro_gateway_cache_evictions_total", "counter", "Cache evictions."),
        _Family("repro_gateway_cache_invalidations_total", "counter",
                "Cache invalidations."),
        _Family("repro_gateway_cache_size", "gauge", "Current cache entries."),
        _Family("repro_gateway_cache_capacity", "gauge", "Cache capacity."),
        _Family("repro_gateway_auth_failures_total", "counter",
                "Authentication/authorization rejections by taxonomy code."),
        _Family("repro_substrate_ops_total", "counter",
                "Pairing-layer operations counted by served requests."),
    ]
    (requests, served, rejected, rate_limited, resizes, migrated, uptime,
     shard_requests, outcomes, tenant_outcomes, cache_hits, cache_misses,
     cache_evictions, cache_invalidations, cache_size, cache_capacity,
     auth_failures, substrate) = families
    latency = _Family(
        "repro_gateway_latency_ms", "histogram",
        "Request latency in milliseconds per operation.",
    )
    tenant_queue = _Family(
        "repro_gateway_tenant_queue_ms", "histogram",
        "Shard-lock queue time in milliseconds per tenant (fairness).",
    )

    for scheme_id in sorted(snapshots):
        snapshot = snapshots[scheme_id]
        base = [("scheme", scheme_id)]
        requests.add(base, snapshot.requests_total)
        served.add(base, snapshot.served)
        rejected.add(base, snapshot.rejected)
        rate_limited.add(base, snapshot.rate_limited)
        resizes.add(base, snapshot.resizes)
        migrated.add(base, snapshot.keys_migrated)
        uptime.add(base, snapshot.elapsed_s)
        for shard in sorted(snapshot.shard_requests):
            shard_requests.add(
                base + [("shard", shard)], snapshot.shard_requests[shard]
            )
        for (op, outcome) in sorted(getattr(snapshot, "outcomes", {}) or {}):
            outcomes.add(
                base + [("op", op), ("outcome", outcome)],
                snapshot.outcomes[(op, outcome)],
            )
        for (tenant, outcome) in sorted(getattr(snapshot, "tenant_outcomes", {}) or {}):
            tenant_outcomes.add(
                base + [("tenant", tenant), ("outcome", outcome)],
                snapshot.tenant_outcomes[(tenant, outcome)],
            )
        for name in sorted(snapshot.caches):
            stats = snapshot.caches[name]
            labels = base + [("cache", name)]
            cache_hits.add(labels, stats.hits)
            cache_misses.add(labels, stats.misses)
            cache_evictions.add(labels, stats.evictions)
            cache_invalidations.add(labels, stats.invalidations)
            cache_size.add(labels, stats.size)
            cache_capacity.add(labels, stats.capacity)
        for op in sorted(getattr(snapshot, "histograms", {}) or {}):
            hist = snapshot.histograms[op]
            op_labels = base + [("op", op)]
            cumulative = 0
            for i, bucket_count in enumerate(hist.counts):
                cumulative += bucket_count
                bound = hist.bounds[i] if i < len(hist.bounds) else float("inf")
                latency.add(
                    op_labels + [("le", _fmt_value(bound))], cumulative, "_bucket"
                )
            latency.add(op_labels, hist.sum, "_sum")
            latency.add(op_labels, hist.count, "_count")
        for code in sorted(getattr(snapshot, "auth_failures", {}) or {}):
            auth_failures.add(
                base + [("code", code)], snapshot.auth_failures[code]
            )
        ops = (substrate_ops or {}).get(scheme_id, {})
        for op in sorted(ops):
            substrate.add(base + [("op", op)], ops[op])
        for tenant in sorted(getattr(snapshot, "tenant_queue_ms", {}) or {}):
            hist = snapshot.tenant_queue_ms[tenant]
            tenant_labels = base + [("tenant", tenant)]
            cumulative = 0
            for i, bucket_count in enumerate(hist.counts):
                cumulative += bucket_count
                bound = hist.bounds[i] if i < len(hist.bounds) else float("inf")
                tenant_queue.add(
                    tenant_labels + [("le", _fmt_value(bound))], cumulative, "_bucket"
                )
            tenant_queue.add(tenant_labels, hist.sum, "_sum")
            tenant_queue.add(tenant_labels, hist.count, "_count")

    wire_families: list[_Family] = []
    if wire is not None:
        pairs = [
            ("repro_wire_connections_open", "gauge",
             "Wire connections currently accepted and not yet closed.",
             wire.connections_open),
            ("repro_wire_connections_total", "counter",
             "Wire connections accepted since process start.",
             wire.connections_total),
            ("repro_wire_streams_in_flight", "gauge",
             "Requests currently executing across all wire connections.",
             wire.streams_in_flight),
            ("repro_wire_streams_total", "counter",
             "Requests started on the wire since process start.",
             wire.streams_total),
            ("repro_wire_streams_peak", "gauge",
             "Highest concurrent in-flight request count observed.",
             wire.streams_peak),
        ]
        for name, kind, help_text, value in pairs:
            family = _Family(name, kind, help_text)
            family.add([], value)
            wire_families.append(family)

    lines: list[str] = []
    for family in families + [latency, tenant_queue] + wire_families:
        lines.extend(family.render())
    return "\n".join(lines) + "\n"
