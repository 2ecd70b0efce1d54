"""Tests for :mod:`repro.service.telemetry` and its end-to-end threading.

Unit coverage for the three primitives (trace contexts + tracer ring,
fixed-bucket histograms, bounded event log), then integration:

* the gateway records named per-stage spans when a request carries a
  :class:`TraceContext`, and failed stages carry the taxonomy code;
* a request through :class:`RemoteGateway` against a live
  :class:`AsyncGatewayServer` yields a retrievable server-side trace whose
  id matches the ``X-Repro-Trace`` header the client generated;
* the wire server's access lines and handler crashes land in the
  structured event log;
* the 50k sample-list truncation bias is gone — a regression test that
  fails on the old first-50k-wins implementation.
"""

from __future__ import annotations

import gc
import http.client
import io
import itertools
import json
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextvars import copy_context

import pytest

from repro.service.driver import DELEGATEE_DOMAIN, build_setting
from repro.service.gateway import (
    DelegationNotFoundError,
    EntryMissingError,
    FetchRequest,
    GatewayError,
    GrantRequest,
    ReEncryptRequest,
    ReEncryptionGateway,
    StoreUnavailableError,
)
from repro.service.metrics import GatewayMetrics
from repro.service.telemetry import (
    DEFAULT_LATENCY_BUCKETS_MS,
    EventLog,
    Histogram,
    Span,
    TraceContext,
    Tracer,
    jsonl_sink,
    span_from_json,
    span_to_json,
)
from repro.service.wire import (
    AsyncGatewayServer,
    MuxRemoteGateway,
    ReEncryptBatchRequest,
    RemoteGateway,
    to_wire,
)
from repro.service.wire.engine import IdempotencyWindow, WireRequestExecutor, build_host_map


# ------------------------------------------------------------ trace contexts


class TestTraceContext:
    def test_generate_shape(self):
        context = TraceContext.generate()
        assert len(context.trace_id) == 32
        assert len(context.span_id) == 16
        assert set(context.trace_id) <= set("0123456789abcdef")
        assert set(context.span_id) <= set("0123456789abcdef")

    def test_generate_is_random(self):
        a, b = TraceContext.generate(), TraceContext.generate()
        assert a.trace_id != b.trace_id

    def test_child_keeps_trace_changes_span(self):
        parent = TraceContext.generate()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.span_id != parent.span_id

    def test_header_round_trip(self):
        context = TraceContext.generate()
        parsed = TraceContext.from_header(context.to_header())
        assert parsed == context

    @pytest.mark.parametrize(
        "value",
        [
            None,
            "",
            "not-a-trace",
            "deadbeef",  # no separator into two parts of the right length
            "g" * 32 + "-" + "a" * 16,  # non-hex trace id
            "a" * 32 + "-" + "z" * 16,  # non-hex span id
            "a" * 31 + "-" + "b" * 16,  # short trace id
            "a" * 32 + "-" + "b" * 15,  # short span id
            "a" * 32 + "-" + "b" * 16 + "-extra",
            12345,
        ],
    )
    def test_malformed_headers_parse_to_none(self, value):
        assert TraceContext.from_header(value) is None

    def test_header_parse_strips_whitespace(self):
        context = TraceContext.generate()
        assert TraceContext.from_header("  %s \n" % context.to_header()) == context


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestTracer:
    def test_span_records_name_parent_and_duration(self):
        clock = _FakeClock()
        tracer = Tracer(clock=clock)
        root = TraceContext.generate()
        with tracer.span(root, "work", {"op": "test"}) as handle:
            clock.now += 0.005
            handle.set("shard", "shard-01")
        (span,) = tracer.trace(root.trace_id)
        assert span.name == "work"
        assert span.parent_id == root.span_id
        assert span.span_id == handle.context.span_id
        assert span.status == "ok"
        assert span.duration_ms == pytest.approx(5.0)
        assert span.attribute_dict() == {"op": "test", "shard": "shard-01"}

    def test_none_context_is_a_noop(self):
        tracer = Tracer()
        with tracer.span(None, "work") as handle:
            assert handle is None
        assert tracer.spans_recorded == 0

    def test_nested_spans_parent_through_handle_context(self):
        tracer = Tracer()
        root = TraceContext.generate()
        with tracer.span(root, "outer") as outer:
            with tracer.span(outer.context, "inner"):
                pass
        inner, outer_span = tracer.trace(root.trace_id)
        assert inner.name == "inner"
        assert inner.parent_id == outer_span.span_id

    def test_escaping_exception_sets_status_from_code(self):
        tracer = Tracer()
        root = TraceContext.generate()
        with pytest.raises(DelegationNotFoundError):
            with tracer.span(root, "shard-crypto"):
                raise DelegationNotFoundError("no key")
        (span,) = tracer.trace(root.trace_id)
        assert span.status == DelegationNotFoundError.code == "no-delegation"

    def test_exception_without_code_uses_class_name(self):
        tracer = Tracer()
        root = TraceContext.generate()
        with pytest.raises(RuntimeError):
            with tracer.span(root, "work"):
                raise RuntimeError("boom")
        (span,) = tracer.trace(root.trace_id)
        assert span.status == "RuntimeError"

    def test_explicit_status_wins_over_exception(self):
        tracer = Tracer()
        root = TraceContext.generate()
        with pytest.raises(RuntimeError):
            with tracer.span(root, "work") as handle:
                handle.status = "custom"
                raise RuntimeError("boom")
        (span,) = tracer.trace(root.trace_id)
        assert span.status == "custom"

    def test_ring_evicts_oldest_trace(self):
        tracer = Tracer(max_traces=2)
        contexts = [TraceContext.generate() for _ in range(3)]
        for context in contexts:
            with tracer.span(context, "work"):
                pass
        assert len(tracer) == 2
        assert tracer.trace(contexts[0].trace_id) == []
        assert tracer.trace_ids() == [contexts[1].trace_id, contexts[2].trace_id]
        assert tracer.traces_evicted == 1

    def test_span_cap_drops_later_spans_not_memory(self):
        tracer = Tracer(max_spans_per_trace=3)
        root = TraceContext.generate()
        for _ in range(5):
            with tracer.span(root, "work"):
                pass
        assert len(tracer.trace(root.trace_id)) == 3
        assert tracer.spans_dropped == 2
        assert tracer.spans_recorded == 3

    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(max_traces=0)
        with pytest.raises(ValueError):
            Tracer(max_spans_per_trace=0)


class TestRequestRecord:
    def test_a_request_is_filed_once_with_every_stage(self):
        clock = _FakeClock()
        tracer = Tracer(clock=clock)
        root = TraceContext.generate()
        with tracer.span(root, "request") as request:
            assert tracer.trace(root.trace_id) == []  # nothing filed yet
            for name in ("decode", "work", "encode"):
                with tracer.span(request.context, name):
                    clock.now += 0.001
        assert tracer.spans_recorded == 4
        (count, _record) = tracer._traces[root.trace_id]
        assert count == 4
        spans = tracer.trace(root.trace_id)
        assert [span.name for span in spans] == ["decode", "work", "encode", "request"]
        assert {span.parent_id for span in spans[:3]} == {spans[3].span_id}
        assert spans[3].parent_id == root.span_id
        assert spans[3].duration_ms == pytest.approx(3.0)

    def test_a_gateway_call_given_a_trace_opens_one_record(self):
        tracer = Tracer()
        root = TraceContext.generate()
        record = tracer.record(root)
        with record:
            assert tracer.record(root) is None  # covered by the running record
            with tracer.span(root, "admission"):
                pass
            with tracer.span(root, "route"):
                pass
        assert [span.parent_id for span in tracer.trace(root.trace_id)] == [root.span_id] * 2
        assert len(tracer._traces[root.trace_id]) == 2  # held count, one record

    def test_id_blocks_wrap_within_16_hex_digits(self, monkeypatch):
        from repro.service import telemetry

        # Three blocks before the last: each root context and each record
        # takes one, so these 20 requests run 37 blocks past the wrap.
        monkeypatch.setattr(telemetry, "_id_blocks", itertools.count((1 << 32) - 3))
        tracer = Tracer(max_traces=64)
        roots = [TraceContext.generate() for _ in range(20)]
        for root in roots:
            with tracer.span(root, "request") as request:
                with tracer.span(request.context, "stage"):
                    pass
        assert len(tracer) == 20 and tracer.spans_recorded == 40
        for root in roots:
            stage, request = tracer.trace(root.trace_id)
            assert stage.parent_id == request.span_id
            for span in (stage, request):
                header = "%s-%s" % (root.trace_id, span.span_id)
                assert TraceContext.from_header(header) == (root.trace_id, span.span_id)
        assert len(roots[0].span_id) == 16 and roots[3].span_id == "0" * 16

    def test_interned_call_shapes_are_bounded(self, monkeypatch):
        from repro import _intern

        monkeypatch.setattr(_intern, "INTERN_LIMIT", 2)
        tracer = Tracer()
        roots = [TraceContext.generate() for _ in range(5)]
        for n, root in enumerate(roots):  # five call shapes: 1..5 stages
            with tracer.span(root, "request") as request:
                for _ in range(n):
                    with tracer.span(request.context, "stage"):
                        pass
        assert [len(tracer.trace(root.trace_id)) for root in roots] == [1, 2, 3, 4, 5]
        assert len(tracer._shapes) <= 2

    def test_stages_on_pool_threads_join_the_record_they_were_handed(self):
        tracer = Tracer()
        root = TraceContext.generate()

        def call(sub, n):
            with tracer.span(sub, "shard-call", {"n": n}) as stage:
                assert stage.context != sub

        with ThreadPoolExecutor(max_workers=3) as pool:
            with tracer.span(root, "fan-out") as fan:
                sub = fan.context
                futures = [pool.submit(copy_context().run, call, sub, n) for n in range(6)]
                for future in futures:
                    future.result()
        *calls, fan_span = tracer.trace(root.trace_id)
        assert len(tracer._traces[root.trace_id]) == 2
        assert sorted(span.attribute_dict()["n"] for span in calls) == list("012345")
        assert {span.parent_id for span in calls} == {fan_span.span_id}
        assert len({span.span_id for span in calls + [fan_span]}) == 7


class TestSpanJson:
    def test_round_trip(self):
        span = Span(
            trace_id="a" * 32,
            span_id="b" * 16,
            parent_id="c" * 16,
            name="shard-crypto",
            start_ms=12.5,
            duration_ms=3.25,
            status="no-delegation",
            attributes=(("op", "reencrypt"), ("shard", "shard-01")),
        )
        assert span_from_json(span_to_json(span)) == span

    def test_root_span_keeps_null_parent(self):
        span = Span(
            trace_id="a" * 32, span_id="b" * 16, parent_id=None,
            name="wire-round-trip", start_ms=0.0, duration_ms=1.0,
        )
        assert span_from_json(span_to_json(span)).parent_id is None

    @pytest.mark.parametrize(
        "document",
        [
            "not a dict",
            {},
            {"trace": "t", "span": "s"},  # missing name/timings
            {"trace": "t", "span": "s", "name": "n", "start_ms": "x",
             "duration_ms": 1.0},
            {"trace": "t", "span": "s", "name": "n", "start_ms": 0.0,
             "duration_ms": 1.0, "attributes": ["not", "a", "dict"]},
            {"trace": "t", "span": "s", "name": "n", "start_ms": 0.0,
             "duration_ms": 1.0, "parent": 7},
        ],
    )
    def test_malformed_documents_raise_value_error(self, document):
        with pytest.raises(ValueError):
            span_from_json(document)


# --------------------------------------------------------------- histograms


class TestHistogram:
    def test_exact_count_sum_max(self):
        histogram = Histogram()
        for value in (0.04, 0.7, 30.0, 30.0, 20000.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot.count == 5
        assert snapshot.sum == pytest.approx(0.04 + 0.7 + 30.0 + 30.0 + 20000.0)
        assert snapshot.max_value == 20000.0

    def test_bucket_assignment_including_inf(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        # <=1.0: {0.5, 1.0}; <=10.0: {5.0, 10.0}; +Inf: {11.0}
        assert snapshot.counts == (2, 2, 1)
        assert len(snapshot.counts) == len(snapshot.bounds) + 1

    def test_percentile_interpolates_within_bucket(self):
        histogram = Histogram(bounds=(10.0, 20.0))
        for _ in range(4):
            histogram.observe(15.0)
        snapshot = histogram.snapshot()
        # All four observations sit in the (10, 20] bucket: the p50 rank
        # (2 of 4) interpolates to 10 + 10 * 2/4 = 15.
        assert snapshot.percentile(0.50) == pytest.approx(15.0)

    def test_percentile_clamped_to_observed_max(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(0.25)
        snapshot = histogram.snapshot()
        assert snapshot.percentile(0.99) <= snapshot.max_value

    def test_inf_bucket_percentile_uses_max_not_infinity(self):
        histogram = Histogram(bounds=(1.0,))
        for _ in range(10):
            histogram.observe(50.0)  # all land in +Inf
        snapshot = histogram.snapshot()
        assert snapshot.percentile(0.99) == 50.0

    def test_empty_percentile_and_mean_are_zero(self):
        snapshot = Histogram().snapshot()
        assert snapshot.count == 0
        assert snapshot.percentile(0.99) == 0.0
        assert snapshot.mean == 0.0

    def test_mean_is_exact(self):
        histogram = Histogram()
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.snapshot().mean == pytest.approx(2.0)

    def test_default_bounds_are_sorted(self):
        assert list(DEFAULT_LATENCY_BUCKETS_MS) == sorted(DEFAULT_LATENCY_BUCKETS_MS)

    @pytest.mark.parametrize("bounds", [(), (2.0, 1.0)])
    def test_invalid_bounds_rejected(self, bounds):
        with pytest.raises(ValueError):
            Histogram(bounds=bounds)


class TestTruncationRegression:
    def test_every_observation_past_50k_still_counts(self):
        """The old sample lists kept the first 50_000 observations and
        silently dropped the rest, so a long run's percentiles and max froze
        on startup traffic.  Histograms must count every observation."""
        metrics = GatewayMetrics()
        for _ in range(50_000):
            metrics.observe("reencrypt", 1.0)
        # The 50_001st observation is 100x slower than everything before
        # it; the old code dropped it, freezing max_ms at 1.0.
        metrics.observe("reencrypt", 100.0)
        snapshot = metrics.snapshot()
        summary = snapshot.latency["reencrypt"]
        assert summary.count == 50_001
        assert summary.max_ms == 100.0
        assert snapshot.histograms["reencrypt"].count == 50_001


# ------------------------------------------------------------- event log


class TestEventLog:
    def test_emit_stamps_ts_kind_seq(self):
        log = EventLog(clock=lambda: 1234.5)
        log.emit("audit", tenant="alice", outcome="ok")
        log.emit("audit")
        event, second = log.tail()
        assert event["ts"] == 1234.5
        assert event["kind"] == "audit"
        assert event["seq"] == 0
        assert event["tenant"] == "alice"
        assert second["seq"] == 1

    def test_none_fields_are_dropped(self):
        log = EventLog()
        log.emit("audit", shard=None, outcome="ok")
        (event,) = log.tail()
        assert "shard" not in event
        assert event["outcome"] == "ok"

    def test_ring_is_bounded(self):
        log = EventLog(max_events=3)
        for i in range(5):
            log.emit("tick", i=i)
        events = log.tail()
        assert len(log) == len(events) == 3
        assert [event["i"] for event in events] == [2, 3, 4]
        assert log.emitted == 5

    def test_tail_n_returns_newest(self):
        log = EventLog()
        for i in range(4):
            log.emit("tick", i=i)
        assert [event["i"] for event in log.tail(2)] == [2, 3]
        assert log.tail(0) == []

    def test_sink_receives_every_event(self):
        seen = []
        log = EventLog(sink=seen.append)
        log.emit("audit", outcome="ok")
        assert len(seen) == 1 and seen[0]["kind"] == "audit"

    def test_sink_failure_is_counted_never_raised(self):
        def broken(_event):
            raise IOError("disk full")

        log = EventLog(sink=broken)
        log.emit("audit")  # must not raise
        log.emit("audit")
        assert log.sink_errors == 2
        assert len(log) == 2  # the ring still kept both

    def test_max_events_must_be_positive(self):
        with pytest.raises(ValueError):
            EventLog(max_events=0)

    def test_jsonl_sink_writes_one_parseable_line_per_event(self):
        stream = io.StringIO()
        log = EventLog(sink=jsonl_sink(stream))
        log.emit("audit", tenant="alice")
        log.emit("server-error", error="boom")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "audit"
        assert parsed[1]["error"] == "boom"

    @pytest.mark.parametrize("reading", [7, 1.5])
    def test_audit_events_and_access_lines_read_back_exactly(self, reading):
        """Packed or not (an int clock, an int latency, a trace id other
        than 32 lowercase hex digits, a status past 16 bits), every value
        reads back as it was given, and None fields are left out."""
        log = EventLog(clock=lambda: reading)
        entry = ("alice", "reencrypt", "ok", "")
        log.audit("tipre/v1", entry, "shard-01", 0.25, "ab" * 16)
        log.audit("tipre/v1", entry, None, 3, "AB" * 16)
        log.audit("tipre/v1", (None, "fetch", "no-store", ""), trace="0" * 32)
        log.access("10.0.0.1", "GET /v1/health", 200, 16)
        log.access(None, "GET /x", 70000, 1)
        audit = {"ts": reading, "kind": "audit", "scheme": "tipre/v1", "outcome": "ok"}
        events = log.tail()
        assert events == [
            dict(audit, tenant="alice", action="reencrypt", shard="shard-01",
                 latency_ms=0.25, trace="ab" * 16, seq=0),
            dict(audit, tenant="alice", action="reencrypt", latency_ms=3,
                 trace="AB" * 16, seq=1),
            dict(audit, action="fetch", outcome="no-store", trace="0" * 32, seq=2),
            {"ts": reading, "kind": "http-log", "client": "10.0.0.1",
             "message": '"GET /v1/health" 200 16', "seq": 3},
            {"ts": reading, "kind": "http-log", "message": '"GET /x" 70000 1', "seq": 4},
        ]
        assert {type(event["ts"]) for event in events} == {type(reading)}
        assert type(events[1]["latency_ms"]) is int

    def test_jsonl_sink_stringifies_unserializable_values(self):
        stream = io.StringIO()
        sink = jsonl_sink(stream)
        sink({"kind": "odd", "value": object()})
        assert json.loads(stream.getvalue())["kind"] == "odd"


class TestConcurrentRecords:
    def test_writers_and_a_reader_agree_on_seq_and_span_ids(self):
        """``seq`` is implied by ring position, so a write racing a read
        must never shift which record a reader numbers as which."""
        writers, per_writer = 8, 1000
        log = EventLog(max_events=writers * per_writer)
        tracer = Tracer(max_spans_per_trace=per_writer)
        snapshots = []
        done = threading.Event()

        def write(index: int) -> None:
            root = TraceContext.generate()
            for i in range(per_writer):
                log.emit("tick", writer=index, i=i, skipped=None)
                with tracer.span(root, "tick"):
                    pass

        def read() -> None:
            while not done.is_set():
                snapshots.append(log.tail(50))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            reader.start()
            threads = [threading.Thread(target=write, args=(n,)) for n in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive() and not any(thread.is_alive() for thread in threads)
        events = log.tail()
        assert [event["seq"] for event in events] == list(range(writers * per_writer))
        assert all("skipped" not in event for event in events)
        for index in range(writers):
            mine = [event["i"] for event in events if event["writer"] == index]
            assert mine == list(range(per_writer))
        assert snapshots
        for snapshot in filter(None, snapshots):
            first = snapshot[0]["seq"]
            assert snapshot == events[first : first + len(snapshot)]
        span_ids = [span.span_id for trace_id in tracer.trace_ids() for span in tracer.trace(trace_id)]
        assert len(span_ids) == len(set(span_ids)) == writers * per_writer

    def test_records_evicted_in_part_under_concurrent_writers(self):
        """Writers file records of one to four events into a ring whose
        bound falls inside records, a reader tails it throughout: every
        read is the newest events, numbered without a gap, and no write
        is lost from the count."""
        writers, per_writer, bound = 6, 2000, 25
        log = EventLog(max_events=bound)
        reads = []
        done = threading.Event()

        def write(index: int) -> None:
            for i in range(per_writer):
                with log.collect():
                    for part in range(i % 4 + 1):
                        log.emit("tick", writer=index, i=i, part=part)

        def read() -> None:
            while not done.is_set():
                try:
                    reads.append(log.tail())
                except Exception as error:  # noqa: BLE001 - reported below
                    reads.append(error)
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reader = threading.Thread(target=read)
            reader.start()
            threads = [threading.Thread(target=write, args=(n,)) for n in range(writers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive() and not any(thread.is_alive() for thread in threads)
        assert log.emitted == writers * per_writer * 10 // 4
        events = log.tail()
        assert len(log) == len(events) == bound
        assert [event["seq"] for event in events] == list(range(log.emitted - bound, log.emitted))
        assert reads and not [read for read in reads if isinstance(read, Exception)]
        for snapshot in filter(None, reads):
            assert len(snapshot) <= bound
            sequence = [event["seq"] for event in snapshot]
            assert sequence == list(range(sequence[0], sequence[0] + len(snapshot)))
        # A record's events stay in order and together, less those evicted.
        for before, after in zip(events, events[1:]):
            if (before["writer"], before["i"]) == (after["writer"], after["i"]):
                assert after["part"] == before["part"] + 1

    def test_threads_in_copies_of_a_request_context_share_its_collector(self):
        """Threads each running in a copy of the request's context (as a
        pool hand-off does): their events, of different shapes, join the
        request's collector and read back whole, even when the threads
        take turns between any two lines of the log's code."""
        from repro.service import telemetry

        writers, per_writer = 4, 200
        log = EventLog()
        entry = ("tenant", "reencrypt", "ok", "")
        trace = TRACED.split("-")[0]

        def yielding(frame, event, _arg):
            if frame.f_code.co_filename != telemetry.__file__:
                return None
            if event == "line":
                time.sleep(0)  # let another writer run here
            return yielding

        def write(index: int) -> None:
            shard = "shard-%d" % index
            previous = sys.gettrace()
            sys.settrace(yielding)
            try:
                for i in range(per_writer):
                    if index % 2:
                        log.emit(
                            "shard-unreachable", shard=shard, op="reencrypt", error="down %d" % i
                        )
                    else:
                        log.audit("tipre/v1", entry, shard, float(i), trace)
            finally:
                sys.settrace(previous)

        with log.collect():
            with ThreadPoolExecutor(max_workers=writers) as pool:
                futures = [pool.submit(copy_context().run, write, n) for n in range(writers)]
                for future in futures:
                    future.result(timeout=60)
            assert len(log) == 0  # filed when the block ends
        events = log.tail()
        assert [event["seq"] for event in events] == list(range(writers * per_writer))
        assert all(type(event["ts"]) is float for event in events)
        for index in range(writers):
            mine = [event for event in events if event["shard"] == "shard-%d" % index]
            if index % 2:
                assert [event["error"] for event in mine] == [
                    "down %d" % i for i in range(per_writer)
                ]
                assert {(event["kind"], event["op"]) for event in mine} == {
                    ("shard-unreachable", "reencrypt")
                }
            else:
                assert [event["latency_ms"] for event in mine] == [
                    float(i) for i in range(per_writer)
                ]
                assert {(event["kind"], event["tenant"], event["trace"]) for event in mine} == {
                    ("audit", "tenant", trace)
                }


# ----------------------------------------------------- gateway integration


@pytest.fixture()
def traced_gateway(pre_setting, rng):
    scheme, _kgc1, kgc2, alice, _bob = pre_setting
    gateway = ReEncryptionGateway(scheme, shard_count=2)
    proxy_key = scheme.pextract(alice, "bob", "labs", kgc2.params, rng)
    gateway.grant(GrantRequest(tenant="alice", proxy_key=proxy_key))
    yield scheme, gateway, alice
    gateway.close()


class TestGatewayTracing:
    def test_reencrypt_records_named_stage_spans(
        self, traced_gateway, pre_setting, group, rng
    ):
        scheme, gateway, alice = traced_gateway
        _scheme, kgc1, *_rest = pre_setting
        message = group.random_gt(rng)
        ciphertext = scheme.encrypt(kgc1.params, alice, message, "labs", rng)
        trace = TraceContext.generate()
        gateway.reencrypt(
            ReEncryptRequest(
                tenant="alice", ciphertext=ciphertext,
                delegatee_domain=DELEGATEE_DOMAIN, delegatee="bob",
            ),
            trace=trace,
        )
        spans = gateway.tracer.trace(trace.trace_id)
        names = {span.name for span in spans}
        assert {"admission", "cache-lookup", "route", "shard-crypto"} <= names
        assert all(span.trace_id == trace.trace_id for span in spans)
        assert all(span.status == "ok" for span in spans)

    def test_failed_stage_carries_taxonomy_code(
        self, traced_gateway, pre_setting, group, rng
    ):
        scheme, gateway, alice = traced_gateway
        _scheme, kgc1, *_rest = pre_setting
        message = group.random_gt(rng)
        # "notes" was never granted, so the shard lookup fails inside the
        # shard-crypto span.
        ciphertext = scheme.encrypt(kgc1.params, alice, message, "notes", rng)
        trace = TraceContext.generate()
        with pytest.raises(DelegationNotFoundError):
            gateway.reencrypt(
                ReEncryptRequest(
                    tenant="alice", ciphertext=ciphertext,
                    delegatee_domain=DELEGATEE_DOMAIN, delegatee="bob",
                ),
                trace=trace,
            )
        by_name = {span.name: span for span in gateway.tracer.trace(trace.trace_id)}
        assert by_name["shard-crypto"].status == "no-delegation"
        assert by_name["admission"].status == "ok"

    def test_audit_events_carry_the_trace_id(
        self, traced_gateway, pre_setting, group, rng
    ):
        scheme, gateway, alice = traced_gateway
        _scheme, kgc1, *_rest = pre_setting
        message = group.random_gt(rng)
        ciphertext = scheme.encrypt(kgc1.params, alice, message, "labs", rng)
        trace = TraceContext.generate()
        gateway.reencrypt(
            ReEncryptRequest(
                tenant="alice", ciphertext=ciphertext,
                delegatee_domain=DELEGATEE_DOMAIN, delegatee="bob",
            ),
            trace=trace,
        )
        audits = [e for e in gateway.event_log.tail() if e["kind"] == "audit"]
        assert audits, "the audit writer must feed the event log"
        assert audits[-1]["trace"] == trace.trace_id
        assert audits[-1]["outcome"] == "ok"

    def test_untraced_calls_record_nothing(
        self, traced_gateway, pre_setting, group, rng
    ):
        scheme, gateway, alice = traced_gateway
        _scheme, kgc1, *_rest = pre_setting
        message = group.random_gt(rng)
        ciphertext = scheme.encrypt(kgc1.params, alice, message, "labs", rng)
        before = gateway.tracer.spans_recorded
        gateway.reencrypt(
            ReEncryptRequest(
                tenant="alice", ciphertext=ciphertext,
                delegatee_domain=DELEGATEE_DOMAIN, delegatee="bob",
            )
        )
        assert gateway.tracer.spans_recorded == before

    def test_telemetry_off_disables_tracer_and_event_log(self, pre_setting):
        scheme, *_rest = pre_setting
        gateway = ReEncryptionGateway(scheme, shard_count=2, telemetry=False)
        try:
            assert gateway.tracer is None
            assert gateway.event_log is None
            # A trace passed anyway is a harmless no-op (the fetch still
            # fails on the missing store, not on telemetry).
            with pytest.raises(StoreUnavailableError):
                gateway.fetch(
                    FetchRequest(tenant="t", patient="p"),
                    trace=TraceContext.generate(),
                )
        finally:
            gateway.close()


def _deep_size(root) -> int:
    """Bytes of ``root`` and everything it references, each object once."""
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


class TestRecordMemory:
    # Bytes per record on CPython 3.11 with records kept as dicts, Spans
    # and dataclasses / as flat tuples: events 631 / 268, spans 418 / 302,
    # audit entries 110 / 82, shard-log entries 85 / 71 (small sequence
    # ints are shared between the two shards).  Spans then measured 269 B
    # per recorded stage with one tuple per stage, and 93 B with one
    # record per request.  With numbers packed and entries shared, events
    # measured 151 B, audit entries 11 B and shard-log entries 10 B (a
    # ring slot each, and the tables' share).  Each bound sits between.
    BOUNDS = {"events": 200, "spans": 160, "audit": 16, "shard_logs": 16}

    def test_bounded_logs_hold_at_most_their_bytes_per_record(self):
        setting = build_setting(
            group_name="TOY",
            shard_count=2,
            n_patients=2,
            n_delegatees=2,
            n_types=2,
            ciphertexts_per_pair=24,
            seed="record-memory",
        )
        gateway = ReEncryptionGateway(setting.backend, shard_count=2)
        try:
            for key in setting.gateway.list_keys():
                gateway.grant(GrantRequest(tenant="admin", proxy_key=key))
            shards = [gateway.shard_named(name) for name in gateway.shard_names]

            def held():
                return {
                    "events": (gateway.event_log._records, gateway.event_log.emitted),
                    "spans": (gateway.tracer._traces, gateway.tracer.spans_recorded),
                    "audit": (gateway._audit, len(gateway.audit)),
                    "shard_logs": (
                        [shard._log for shard in shards],
                        sum(shard.transformations_total for shard in shards),
                    ),
                }

            before = {name: (_deep_size(ring), count) for name, (ring, count) in held().items()}
            requests = [
                ReEncryptRequest(
                    tenant=patient, ciphertext=ciphertext,
                    delegatee_domain=DELEGATEE_DOMAIN, delegatee=delegatee,
                )
                for (patient, _type_label), entries in sorted(setting.pool.items())
                for ciphertext, _message in entries
                for delegatee in setting.delegatees
            ]
            assert len(requests) < gateway.tracer.max_traces  # no trace evicted
            for request in requests:
                gateway.reencrypt(request, trace=TraceContext.generate())
            per_record = {}
            for name, (ring, count) in held().items():
                size_before, count_before = before[name]
                assert count > count_before
                per_record[name] = (_deep_size(ring) - size_before) / (count - count_before)
        finally:
            gateway.close()
            setting.gateway.close()
        over = {
            name: round(size) for name, size in per_record.items() if size > self.BOUNDS[name]
        }
        assert not over, "bytes per record over %s: %s" % (self.BOUNDS, over)


# -------------------------------------------------------- wire integration


@pytest.fixture()
def telemetry_loopback():
    setting = build_setting(
        group_name="TOY",
        shard_count=2,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=1,
        seed="telemetry-loopback",
    )
    with AsyncGatewayServer(setting.gateway, setting.group) as server:
        client = RemoteGateway(server.http_url, setting.group)
        yield setting, server, client
        client.close()
    setting.gateway.close()


def _one_request(setting):
    (patient, _type_label), entries = sorted(setting.pool.items())[0]
    ciphertext, _message = entries[0]
    return ReEncryptRequest(
        tenant=patient,
        ciphertext=ciphertext,
        delegatee_domain=DELEGATEE_DOMAIN,
        delegatee=setting.delegatees[0],
    )


class TestWireTelemetry:
    def test_trace_id_round_trips_through_the_header(self, telemetry_loopback):
        setting, _server, client = telemetry_loopback
        client.reencrypt(_one_request(setting))
        assert client.last_trace is not None
        echo = TraceContext.from_header(client.last_trace_echo)
        # The echoed header is the wire-round-trip span's child context:
        # same trace id as the root the client generated.
        assert echo is not None
        assert echo.trace_id == client.last_trace.trace_id

    def test_server_trace_holds_at_least_four_named_stage_spans(
        self, telemetry_loopback
    ):
        setting, server, client = telemetry_loopback
        client.reencrypt(_one_request(setting))
        trace_id = client.last_trace.trace_id
        spans = server.gateway.tracer.trace(trace_id)
        names = {span.name for span in spans}
        assert len(spans) >= 4
        assert {"http:reencrypt", "admission", "route", "shard-crypto"} <= names
        assert all(span.trace_id == trace_id for span in spans)

    def test_fetch_trace_returns_the_server_spans(self, telemetry_loopback):
        setting, _server, client = telemetry_loopback
        client.reencrypt(_one_request(setting))
        trace_id = client.last_trace.trace_id
        spans = client.fetch_trace(trace_id)
        assert len(spans) >= 4
        assert all(isinstance(span, Span) for span in spans)
        assert {span.name for span in spans} >= {"http:reencrypt", "shard-crypto"}

    def test_server_spans_nest_under_the_client_round_trip_span(
        self, telemetry_loopback
    ):
        setting, server, client = telemetry_loopback
        client.reencrypt(_one_request(setting))
        trace_id = client.last_trace.trace_id
        (client_span,) = [
            span for span in client.tracer.trace(trace_id)
            if span.name == "wire-round-trip"
        ]
        server_spans = server.gateway.tracer.trace(trace_id)
        roots = [span for span in server_spans if span.name == "http:reencrypt"]
        assert roots and roots[0].parent_id == client_span.span_id

    def test_unknown_trace_is_entry_not_found(self, telemetry_loopback):
        _setting, _server, client = telemetry_loopback
        with pytest.raises(EntryMissingError):
            client.fetch_trace("f" * 32)

    def test_trace_requests_off_sends_no_header(self, telemetry_loopback):
        setting, server, _client = telemetry_loopback
        quiet = RemoteGateway(server.http_url, setting.group, trace_requests=False)
        try:
            quiet.reencrypt(_one_request(setting))
            assert quiet.tracer is None
            assert quiet.last_trace is None
            assert quiet.last_trace_echo is None
        finally:
            quiet.close()

    def test_http_log_lines_become_events(self, telemetry_loopback):
        """Every answer leaves exactly one access line: handled requests,
        refusals the HTTP reader makes before the engine runs a request,
        and requests the engine refuses."""
        setting, server, client = telemetry_loopback
        client.reencrypt(_one_request(setting))
        kinds = {event["kind"] for event in server.event_log.tail()}
        assert "http-log" in kinds
        padding = b"".join(b"X-Pad-%d: x\r\n" % index for index in range(200))
        exchanges = [
            (b"GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n", 200),
            (b"PUT /v1/grant HTTP/1.1\r\nContent-Length: 0\r\n\r\n", 501),
            (b"POST /v1/grant HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 400),
            (b"POST /v1/grant HTTP/1.1\r\nContent-Length: nope\r\n\r\n", 400),
            (b"BOGUS\r\n\r\n", 400),
            (b"GET /v1/health HTTP/1.1\r\n" + padding + b"\r\n", 431),
        ]
        for payload, status in exchanges:
            before = len(server.event_log.tail())
            with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
                sock.sendall(payload)
                raw = b""
                while chunk := sock.recv(65536):
                    raw += chunk
            assert raw.split(b" ", 2)[1] == b"%d" % status, payload
            lines = [
                event for event in server.event_log.tail()[before:]
                if event["kind"] == "http-log"
            ]
            assert len(lines) == 1, (payload, lines)
            assert '" %d ' % status in lines[0]["message"], payload

    def test_metrics_text_serves_prometheus(self, telemetry_loopback):
        setting, _server, client = telemetry_loopback
        client.reencrypt(_one_request(setting))
        text = client.metrics_text()
        assert "# TYPE repro_gateway_served_total counter" in text
        assert "repro_gateway_latency_ms_bucket" in text


CLIENT = "127.0.0.1:40000"
TRACED = "44" * 16 + "-" + "d4" * 8


def _records_setting(ciphertexts_per_pair: int = 3):
    return build_setting(
        group_name="TOY",
        shard_count=2,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=ciphertexts_per_pair,
        seed="wire-event-records",
    )


def _sharing_engine(setting, log: EventLog):
    """A gateway and a request engine sharing one event log, as ``serve`` runs them."""
    gateway = ReEncryptionGateway(setting.backend, shard_count=2, event_log=log)
    engine = WireRequestExecutor(*build_host_map(gateway), log, IdempotencyWindow())
    return gateway, engine


def _requests_round_robin(setting) -> list[ReEncryptRequest]:
    """Every (ciphertext, doctor) pair, cycling through the delegations."""
    per_delegation = [
        [
            ReEncryptRequest(
                tenant=patient, ciphertext=ciphertext,
                delegatee_domain=DELEGATEE_DOMAIN, delegatee=delegatee,
            )
            for ciphertext, _message in entries
        ]
        for (patient, _type_label), entries in sorted(setting.pool.items())
        for delegatee in setting.delegatees
    ]
    return [request for row in zip(*per_delegation) for request in row]


class TestWireEventRecords:
    """The wire engine files each answered request's events (the
    gateway's audit events when it shares the engine's log, a server
    error, the access line) as one record when it answers."""

    def test_tail_equals_the_sink_through_the_engine(self):
        setting = _records_setting()
        stream = io.StringIO()
        log = EventLog(sink=jsonl_sink(stream))
        gateway, engine = _sharing_engine(setting, log)
        backend = setting.backend
        requests = _requests_round_robin(setting)

        def delegation(request):
            return request.tenant, request.ciphertext.type_label, request.delegatee

        first = requests[0]
        same = [request for request in requests[1:] if delegation(request) == delegation(first)]
        refused = next(request for request in requests if delegation(request) != delegation(first))
        key = next(
            key for key in setting.gateway.list_keys()
            if (key.delegator, key.type_label, key.delegatee) == delegation(first)
        )

        def post(path, message, headers=None):
            body = to_wire(backend, message).encode()
            return engine.handle("POST", path, body, headers or {}, CLIENT).status

        try:
            assert post("/v1/grant", GrantRequest(tenant="admin", proxy_key=key)) == 200
            assert post("/v1/reencrypt", first, {"x-repro-trace": TRACED}) == 200  # a miss
            assert post("/v1/reencrypt", first) == 200  # a hit
            batch = ReEncryptBatchRequest(requests=(first, *same[:2]))
            assert post("/v1/reencrypt", batch) == 200
            assert post("/v1/reencrypt", refused) == 404  # a gateway refusal
            assert engine.handle("GET", "/v1/health", b"", {}, CLIENT).status == 200
            answer = engine.refuse(400, "Bad request syntax ('BOGUS')", "BOGUS", CLIENT)
            assert answer.status == 400
        finally:
            gateway.close()
            setting.gateway.close()
        events = log.tail()
        lines = sorted(
            stream.getvalue().splitlines(), key=lambda line: json.loads(line)["seq"]
        )
        assert [json.dumps(event, sort_keys=True) for event in events] == lines
        assert [event["seq"] for event in events] == list(range(len(events)))
        assert [event["kind"] for event in events] == [
            "audit", "http-log",  # grant
            "audit", "http-log",  # miss
            "audit", "http-log",  # hit
            "audit", "audit", "audit", "http-log",  # batch of 3
            "audit", "http-log",  # refusal
            "http-log",  # GET
            "http-log",  # transport refusal
        ]
        assert len(log._records) == 7  # one per answer
        miss, hit, refusal = events[2], events[4], events[10]
        assert miss["trace"] == TRACED.split("-")[0]
        assert miss["detail"] == "shard=%s" % miss["shard"]
        assert "trace" not in hit and hit["detail"].startswith("cache-hit")
        assert refusal["outcome"] == "no-delegation"
        assert "shard" not in refusal and "latency_ms" not in refusal
        assert events[-2]["message"] == '"GET /v1/health" 200 16'
        assert events[-1]["message"] == '"BOGUS" 400 %d' % len(answer.body)

    def test_a_bound_inside_a_record_keeps_exactly_the_newest_events(self):
        setting = _records_setting()
        seen = []
        log = EventLog(sink=seen.append, max_events=5)
        gateway, engine = _sharing_engine(setting, log)
        for key in setting.gateway.list_keys():
            gateway.grant(GrantRequest(tenant="admin", proxy_key=key))
        granted = len(seen)  # in process: one record per audit event
        requests = _requests_round_robin(setting)
        batch = ReEncryptBatchRequest(requests=tuple(requests[:3]))
        first_kinds = []
        try:
            for message in (requests[0], batch, requests[1], batch, requests[2]):
                body = to_wire(setting.backend, message).encode()
                assert engine.handle("POST", "/v1/reencrypt", body, {}, CLIENT).status == 200
                kept = seen[-5:]
                assert log.tail() == kept  # the newest five, in seq order
                assert log.tail(2) == kept[-2:]
                assert len(log) == len(kept)
                first_kinds.append(kept[0]["kind"])
        finally:
            gateway.close()
            setting.gateway.close()
        assert log.emitted == len(seen) == granted + 2 + 4 + 2 + 4 + 2
        assert [event["seq"] for event in log.tail()] == list(range(len(seen) - 5, len(seen)))
        # After the first batch the oldest kept event is an access line
        # whose audit event was evicted: the bound fell inside a record.
        assert first_kinds[1] == "http-log"

    def test_a_served_request_retains_at_most_220_bytes(self):
        """Across the event ring, the gateway's audit ring and its shard
        logs, over mux with a trace per request, as ``serve`` shares one
        event log between its gateway and its server."""
        setting = _records_setting(ciphertexts_per_pair=20)
        log = EventLog()
        gateway = ReEncryptionGateway(setting.backend, shard_count=2, event_log=log)
        for key in setting.gateway.list_keys():
            gateway.grant(GrantRequest(tenant="admin", proxy_key=key))
        shards = [gateway.shard_named(name) for name in gateway.shard_names]

        def held() -> int:
            return _deep_size((log._records, gateway._audit, [shard._log for shard in shards]))

        requests = _requests_round_robin(setting)
        warm, measured = requests[:40], requests[40:]
        per_request = {}
        try:
            with AsyncGatewayServer(gateway, setting.group, event_log=log) as server:
                client = MuxRemoteGateway(server.url, setting.group)
                try:
                    for label in ("miss", "hit"):
                        for request in warm:
                            assert client.reencrypt(request).cache_hit == (label == "hit")
                        before = held()
                        for request in measured:
                            assert client.reencrypt(request).cache_hit == (label == "hit")
                        per_request[label] = (held() - before) / len(measured)
                finally:
                    client.close()
        finally:
            gateway.close()
            setting.gateway.close()
        assert len(log) < log.max_events  # nothing evicted while measuring
        assert all(size <= 220 for size in per_request.values()), per_request

    def test_batches_of_many_sizes_keep_the_event_log_bounded(self):
        """A record holds at most 16 events, so batches of 1 to 120 items
        share a few layouts: the event log's bytes, its layout and string
        tables included, do not grow with the number of batch sizes."""
        setting = _records_setting()
        seen = []
        log = EventLog(sink=seen.append, max_events=64)
        gateway, engine = _sharing_engine(setting, log)
        for key in setting.gateway.list_keys():
            gateway.grant(GrantRequest(tenant="admin", proxy_key=key))
        first = _requests_round_robin(setting)[0]

        def serve(size: int) -> None:
            batch = ReEncryptBatchRequest(requests=(first,) * size)
            body = to_wire(setting.backend, batch).encode()
            assert engine.handle("POST", "/v1/reencrypt", body, {}, CLIENT).status == 200

        def held() -> int:
            return _deep_size((log._records, log._layouts, log._strings, log._audit_parts))

        try:
            for size in range(1, 33):
                serve(size)
            sizes_32, layouts_32 = held(), len(log._layouts)
            for size in range(33, 121):
                serve(size)
        finally:
            gateway.close()
            setting.gateway.close()
        assert len(log._layouts) == layouts_32
        assert held() <= sizes_32 + 1024, (sizes_32, held())
        assert max(record[0].count for record in log._records) == 16
        assert log.tail() == seen[-64:]
        assert [event["seq"] for event in log.tail()] == list(range(len(seen) - 64, len(seen)))
        assert [event["kind"] for event in seen[-121:]] == ["audit"] * 120 + ["http-log"]


class _ExplodingGateway:
    """A gateway whose every op crashes with a non-taxonomy error."""

    def reencrypt(self, request):
        raise RuntimeError("shard fleet on fire")

    def snapshot(self):
        raise RuntimeError("metrics on fire")


class TestServerErrorEvents:
    def test_forced_500_emits_a_server_error_event(self, pre_setting, group):
        scheme, kgc1, _kgc2, alice, _bob = pre_setting
        from repro.math.drbg import HmacDrbg

        rng = HmacDrbg("exploding-gateway")
        message = group.random_gt(rng)
        ciphertext = scheme.encrypt(kgc1.params, alice, message, "labs", rng)
        with AsyncGatewayServer(_ExplodingGateway(), group) as server:
            client = RemoteGateway(server.http_url, group, negotiate=False)
            # The crash surfaces to the caller as the neutral base-class
            # wire error (HTTP 500), never the raw RuntimeError text alone.
            with pytest.raises(GatewayError, match="internal error"):
                client.reencrypt(
                    ReEncryptRequest(
                        tenant="t", ciphertext=ciphertext,
                        delegatee_domain=DELEGATEE_DOMAIN, delegatee="bob",
                    )
                )
            client.close()
            errors = [
                event for event in server.event_log.tail()
                if event["kind"] == "server-error"
            ]
        assert errors, "a handler crash must land in the event log"
        event = errors[-1]
        assert event["error_type"] == "RuntimeError"
        assert "shard fleet on fire" in event["error"]
        assert "traceback" in event

    def test_get_crash_answers_500_with_a_server_error_event(self, group):
        """A GET whose gateway call raises is answered, not dropped."""
        events = EventLog()
        with AsyncGatewayServer(_ExplodingGateway(), group, event_log=events) as server:
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10.0)
            try:
                conn.request("GET", "/v1/metrics")
                response = conn.getresponse()
                document = json.loads(response.read())
            finally:
                conn.close()
        assert response.status == 500
        assert response.getheader("Content-Type") == "application/json"
        assert document["type"] == "error"
        assert document["body"]["code"] == "gateway-error"
        assert "metrics on fire" in document["body"]["message"]
        errors = [event for event in events.tail() if event["kind"] == "server-error"]
        assert errors and errors[-1]["error_type"] == "RuntimeError"
        assert "connection-error" not in {event["kind"] for event in events.tail()}
