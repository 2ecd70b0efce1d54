"""Golden bodies for the telemetry read side: ``GET /v1/trace/{id}`` and
``GET /v1/events``.

``tests/data/wire_transcript.json`` pins every operation's answer but
neither observability read.  This module runs one scripted sequence
through a live request engine whose tracer, event log and gateway run on
injected ticking clocks, and compares the trace and event bodies byte for
byte with ``tests/data/telemetry_read_side.json``.  The sequence covers a
served re-encryption (its spans, its audit event and its access line), a
failed stage, a span attribute set twice, fields dropped because they were
``None``, and a trace that runs past ``max_spans_per_trace``.  The same
file pins ``ReEncryptionGateway.audit`` and each shard's
``ProxyService.log``, and the event log's JSONL sink must write exactly
the events ``GET /v1/events`` serves.

Span ids are random per process, so each body's 16-hex ids are replaced
by their first-appearance index before the comparison; everything else,
timings included, is compared as served.

Re-record only for a deliberate change to what the read side serves:

    PYTHONPATH=src python tests/test_telemetry_read_side.py
"""

from __future__ import annotations

import dataclasses
import io
import json
import re
import sys
from pathlib import Path

from repro.service.driver import DELEGATEE_DOMAIN, build_setting
from repro.service.gateway import GrantRequest, ReEncryptionGateway, ReEncryptRequest
from repro.service.telemetry import EventLog, TraceContext, Tracer, jsonl_sink
from repro.service.wire import to_wire
from repro.service.wire.engine import IdempotencyWindow, WireRequestExecutor, build_host_map

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "telemetry_read_side.json"
CLIENT = "127.0.0.1:40000"
SERVED = "11" * 16 + "-" + "a1" * 8
FAILED = "22" * 16 + "-" + "b2" * 8
RUNAWAY = "33" * 16 + "-" + "c3" * 8
MAX_SPANS = 10  # RUNAWAY's three requests record six spans each
_SPAN_ID = re.compile(r"(?<![0-9a-f])[0-9a-f]{16}(?![0-9a-f])")


class _Ticker:
    """A clock that advances by a fixed binary fraction on every reading."""

    def __init__(self, start: float, step: float):
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _numbered_span_ids(body: str) -> str:
    """``body`` with each span id replaced by its first-appearance index."""
    seen: dict[str, int] = {}
    return _SPAN_ID.sub(
        lambda match: "span-%d" % seen.setdefault(match.group(0), len(seen)), body
    )


def read_side_bodies() -> list[list]:
    """Run the scripted sequence; returns ``[label, status, body]`` per read."""
    setting = build_setting(
        group_name="TOY",
        shard_count=2,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=1,
        seed="telemetry-read-side",
    )
    backend = setting.backend
    sink = io.StringIO()
    events = EventLog(sink=jsonl_sink(sink), clock=_Ticker(1_700_000_000.0, 0.25))
    gateway = ReEncryptionGateway(
        backend,
        shard_count=2,
        clock=_Ticker(500.0, 2.0**-9),
        tracer=Tracer(max_spans_per_trace=MAX_SPANS, clock=_Ticker(1000.0, 2.0**-10)),
        event_log=events,
    )
    engine = WireRequestExecutor(*build_host_map(gateway), events, IdempotencyWindow())
    (patient, type_label), entries = sorted(setting.pool.items())[0]
    served = ReEncryptRequest(
        tenant=patient,
        ciphertext=entries[0][0],
        delegatee_domain=DELEGATEE_DOMAIN,
        delegatee=setting.delegatees[0],
    )
    # The other type of the same patient is never granted below.
    (other, _type), other_entries = next(
        (pair, entries)
        for pair, entries in sorted(setting.pool.items())
        if pair[0] == patient and pair[1] != type_label
    )
    refused = ReEncryptRequest(
        tenant=other,
        ciphertext=other_entries[0][0],
        delegatee_domain=DELEGATEE_DOMAIN,
        delegatee=setting.delegatees[0],
    )
    key = next(
        key
        for key in setting.gateway.list_keys()
        if key.delegator == patient
        and key.type_label == type_label
        and key.delegatee == setting.delegatees[0]
    )

    def post(path: str, message, trace: str | None = None) -> int:
        headers = {"x-repro-trace": trace} if trace is not None else {}
        body = to_wire(backend, message).encode("utf-8")
        return engine.handle("POST", path, body, headers, CLIENT).status

    def get(path: str):
        response = engine.handle("GET", path, b"", {}, CLIENT)
        return response.status, response.body.decode("utf-8")

    try:
        assert post("/v1/grant", GrantRequest(tenant="admin", proxy_key=key)) == 200
        assert post("/v1/reencrypt", served, SERVED) == 200
        # A span of the served trace whose attribute is set twice: the
        # later value is the one read back.
        root = TraceContext.from_header(SERVED)
        with gateway.tracer.span(root, "operator-note", {"step": "first"}) as handle:
            handle.set("step", "second")
            handle.set("count", 3)
        assert post("/v1/reencrypt", refused, FAILED) == 404
        assert post("/v1/reencrypt", served) == 200  # untraced: no trace field
        for _ in range(3):
            assert post("/v1/reencrypt", served, RUNAWAY) == 200
        reads = []
        for label, trace in (("served", SERVED), ("failed", FAILED), ("runaway", RUNAWAY)):
            status, body = get("/v1/trace/%s" % trace.split("-")[0])
            reads.append(["trace " + label, status, _numbered_span_ids(body)])
        for path in ("/v1/events", "/v1/events?tail=3"):
            status, body = get(path)
            reads.append([path, status, body])
        listed = json.loads(reads[3][2])["events"]
        assert sink.getvalue().splitlines()[: len(listed)] == [
            json.dumps(event, sort_keys=True) for event in listed
        ]
        assert len(gateway.tracer.trace(RUNAWAY.split("-")[0])) == MAX_SPANS
        records = {"gateway.audit": gateway.audit}
        for name in gateway.shard_names:
            records["%s.log" % name] = gateway.shard_named(name).log
        for label, entries in records.items():
            body = json.dumps([dataclasses.asdict(entry) for entry in entries], sort_keys=True)
            reads.append([label, None, body])
        return reads
    finally:
        gateway.close()
        setting.gateway.close()


def test_trace_and_event_bodies_match_the_golden_file():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    bodies = read_side_bodies()
    assert [entry[:2] for entry in bodies] == [entry[:2] for entry in golden]
    for (label, _status, body), (_label, _golden_status, expected) in zip(bodies, golden):
        assert body == expected, label


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(read_side_bodies(), indent=1) + "\n", encoding="utf-8")
    print("recorded %s" % GOLDEN_PATH, file=sys.stderr)
