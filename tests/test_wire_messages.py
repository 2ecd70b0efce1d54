"""Golden bytes for every wire message type.

``tests/data/wire_messages.json`` holds :func:`to_wire` output for all
seventeen message types plus ``error``, with optional fields set and
unset, under ``tipre/v1`` (canonical containers) and ``afgh/v1``
(wrapped envelopes).  Each entry must encode to its bytes exactly and
decode back to an equal value.  An entry marked ``decode_only`` is an
older spelling of a message that decoders must keep reading.

The messages are built from seeded RNGs and a metrics clock that is
injected, so a recording is deterministic.  Re-record only for a
deliberate wire change:

    PYTHONPATH=src python tools/record_wire_messages.py
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import pytest

from repro.core.api import Encoded, EncodedCiphertext, create_backend
from repro.math.drbg import HmacDrbg
from repro.pairing.group import PairingGroup
from repro.phr.store import StoredRecord
from repro.service.cache import CacheStats
from repro.service.gateway import (
    FetchRequest,
    FetchResponse,
    GatewayError,
    GrantRequest,
    GrantResponse,
    InvalidRequestError,
    RateLimitedError,
    ReEncryptRequest,
    ReEncryptResponse,
    ResizeReport,
    RevokeRequest,
    RevokeResponse,
)
from repro.service.metrics import GatewayMetrics
from repro.service.wire import from_wire, to_wire
from repro.service.wire.codec import (
    GrantBatchRequest,
    GrantBatchResponse,
    KeyExportRequest,
    KeyExportResponse,
    ReEncryptBatchRequest,
    ReEncryptBatchResponse,
    ResizeRequest,
    TransformRequest,
    TransformResponse,
)

MESSAGES_PATH = Path(__file__).resolve().parent / "data" / "wire_messages.json"
SCHEMES = ("tipre/v1", "afgh/v1")


def _metrics_snapshots():
    """A fresh snapshot and one with every field populated."""
    ticks = iter((100.0, 112.5, 200.0, 203.25))
    fresh = GatewayMetrics(clock=lambda: next(ticks)).snapshot()
    metrics = GatewayMetrics(clock=lambda: next(ticks))
    metrics.observe("reencrypt", 2.5, "shard-00", tenant="alice")
    metrics.observe("reencrypt", 40.0, "shard-01", tenant="bob")
    metrics.observe("grant", 0.5, "shard-01", tenant="alice")
    metrics.observe_rejection(op="reencrypt", tenant="bob", code="no-delegation")
    metrics.observe_rejection(rate_limited=True, op="reencrypt", tenant="bob")
    metrics.observe_auth_failure("bad-signature", op="grant", tenant="mallory")
    metrics.observe_queue("alice", 0.25)
    metrics.observe_queue("bob", 7.0)
    metrics.observe_resize(3)
    caches = {
        "result_cache": CacheStats(
            name="result_cache", size=1, capacity=4, hits=1, misses=2,
            evictions=0, invalidations=1,
        )
    }
    return fresh, metrics.snapshot(caches=caches)


@functools.lru_cache(maxsize=None)
def golden_messages(scheme_id: str):
    """``(backend, {name: message})`` for one scheme, built from seeds."""
    backend = create_backend(scheme_id, PairingGroup.shared("TOY"))
    rng = HmacDrbg("wire-messages/" + scheme_id)
    backend.setup(rng)
    backend.create_party("KGC1", "alice", rng)
    backend.create_party("KGC2", "bob", rng)
    labs = backend.rekey("KGC1", "alice", "KGC2", "bob", "labs", rng)
    imaging = backend.rekey("KGC1", "alice", "KGC2", "bob", "imaging", rng)
    ciphertexts = [
        backend.encrypt("KGC1", "alice", backend.sample_message(rng), "labs", rng)
        for _ in range(2)
    ]
    reencrypted = [backend.reencrypt(ciphertext, labs) for ciphertext in ciphertexts]
    requests = [
        ReEncryptRequest(
            tenant="clinic", ciphertext=ciphertext, delegatee_domain="KGC2", delegatee="bob"
        )
        for ciphertext in ciphertexts
    ]
    responses = [
        ReEncryptResponse(ciphertext=ciphertext, shard="shard-02", cache_hit=hit)
        for ciphertext, hit in zip(reencrypted, (False, True))
    ]
    revoke = RevokeRequest(
        tenant="alice", delegator_domain="KGC1", delegator="alice",
        delegatee_domain="KGC2", delegatee="bob", type_label="labs",
    )
    records = (
        StoredRecord(patient="alice", category="labs", entry_id="e-1", blob=b"\x00\x01ct\xff"),
        StoredRecord(patient="alice", category="imaging", entry_id="e-2", blob=b""),
    )
    fresh_metrics, metrics = _metrics_snapshots()
    messages = {
        "grant-request": GrantRequest(tenant="alice", proxy_key=labs),
        "grant-response": GrantResponse(shard="shard-01"),
        "grant-batch-request": GrantBatchRequest(
            requests=(GrantRequest("alice", labs), GrantRequest("alice", imaging))
        ),
        "grant-batch-request/empty": GrantBatchRequest(requests=()),
        "grant-batch-response": GrantBatchResponse(
            responses=(GrantResponse("shard-00"), GrantResponse("shard-03"))
        ),
        "revoke-request": revoke,
        "revoke-request/request-id": dataclasses.replace(revoke, request_id="ab" * 16),
        "revoke-response": RevokeResponse(shard="shard-00", removed=True),
        "revoke-response/not-found": RevokeResponse(shard="shard-03", removed=False),
        "reencrypt-request": requests[0],
        "reencrypt-response/miss": responses[0],
        "reencrypt-response/hit": responses[1],
        "reencrypt-batch-request": ReEncryptBatchRequest(requests=tuple(requests)),
        "reencrypt-batch-response": ReEncryptBatchResponse(responses=tuple(responses)),
        "fetch-request/unfiltered": FetchRequest(tenant="clinic", patient="alice"),
        "fetch-request/entry": FetchRequest(tenant="clinic", patient="alice", entry_id="e-1"),
        "fetch-request/category": FetchRequest(
            tenant="clinic", patient="alice", category="labs"
        ),
        "fetch-request/filtered": FetchRequest(
            tenant="clinic", patient="alice", entry_id="e-1", category="labs"
        ),
        "fetch-response": FetchResponse(records=records),
        "fetch-response/empty": FetchResponse(records=()),
        "resize-request": ResizeRequest(tenant="admin", shard_count=6),
        "resize-request/request-id": ResizeRequest(
            tenant="admin", shard_count=2, request_id="cd" * 16
        ),
        "resize-report": ResizeReport(
            old_shard_count=4, new_shard_count=6, keys_moved=9,
            shards_added=("shard-04", "shard-05"), shards_removed=(), elapsed_ms=1.25,
        ),
        "key-export-request": KeyExportRequest(tenant="admin"),
        "key-export-response": KeyExportResponse(keys=(labs, imaging)),
        "key-export-response/empty": KeyExportResponse(keys=()),
        "transform-request": TransformRequest(
            tenant="fleet-router",
            proxy_key=backend.serialize_proxy_key(labs),
            ciphertexts=tuple(ciphertexts),
        ),
        "transform-response": TransformResponse(ciphertexts=tuple(reencrypted)),
        "metrics-snapshot": metrics,
        "metrics-snapshot/fresh": fresh_metrics,
        "error/invalid-request": InvalidRequestError("wire field 'tenant' must be str"),
        "error/rate-limited": RateLimitedError("tenant 'bob' is over its rate"),
        "error/gateway-error": GatewayError("internal error"),
    }
    return backend, messages


def record_messages(previous: list[dict] | None = None) -> list[dict]:
    """Every golden message's bytes under the current codec.

    ``decode_only`` entries of ``previous`` (older spellings) are kept.
    """
    entries = []
    for scheme_id in SCHEMES:
        backend, messages = golden_messages(scheme_id)
        for name, message in messages.items():
            entries.append(
                {"scheme": scheme_id, "name": name, "wire": to_wire(backend, message)}
            )
    entries.extend(entry for entry in previous or () if entry.get("decode_only"))
    return entries


def _entry_id(entry: dict) -> str:
    suffix = " (decode only)" if entry.get("decode_only") else ""
    return "%s %s%s" % (entry["scheme"], entry["name"], suffix)


def _same(decoded, message) -> bool:
    if isinstance(message, GatewayError):
        return type(decoded) is type(message) and str(decoded) == str(message)
    return decoded == message


ENTRIES = (
    json.loads(MESSAGES_PATH.read_text(encoding="utf-8")) if MESSAGES_PATH.exists() else []
)


def test_every_message_type_is_pinned_under_both_schemes():
    kinds = {(e["scheme"], json.loads(e["wire"])["type"]) for e in ENTRIES}
    assert len({kind for _scheme, kind in kinds}) == 20
    assert {scheme for scheme, _kind in kinds} == set(SCHEMES)
    assert len(kinds) == 40


@pytest.mark.parametrize("entry", ENTRIES, ids=_entry_id)
def test_golden_message(entry):
    backend, messages = golden_messages(entry["scheme"])
    message = messages[entry["name"]]
    if not entry.get("decode_only"):
        assert to_wire(backend, message) == entry["wire"]
    decoded = from_wire(backend, entry["wire"])
    assert _same(decoded, message)
    # Re-encryption ciphertexts stay canonical bytes until read.
    if isinstance(message, ReEncryptRequest):
        assert isinstance(decoded.ciphertext, EncodedCiphertext)
    if isinstance(message, ReEncryptResponse):
        assert isinstance(decoded.ciphertext, Encoded)
    if isinstance(message, TransformRequest):
        assert all(isinstance(c, EncodedCiphertext) for c in decoded.ciphertexts)
    if isinstance(message, TransformResponse):
        assert all(isinstance(c, Encoded) for c in decoded.ciphertexts)
