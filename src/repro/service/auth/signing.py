"""HMAC-SHA256 request signing for the gateway wire.

The scheme is deliberately boring — an AWS-SigV4-shaped canonical
request, one shared secret per tenant, one header:

    canonical = "repro-auth/v1" NL method NL path NL sha256(body) NL
                timestamp NL nonce NL tenant
    signature = hexdigest(HMAC-SHA256(secret, canonical))
    X-Repro-Auth: v1;tenant=<t>;ts=<unix>;nonce=<hex>;sig=<hex>

The timestamp is carried *verbatim* in the header and re-signed exactly
as sent, so verifier and signer never disagree about formatting; the
verifier bounds it by a clock-skew window and remembers accepted
``(tenant, nonce)`` pairs for the same window, which together make a
captured request unreplayable once the window passes and unreplayable
immediately within it.  Nonces are only recorded *after* the signature
verifies — an attacker who cannot sign cannot poison the replay window
against the legitimate client.
"""

from __future__ import annotations

import hashlib
import hmac
import secrets
import threading
import time
from collections import OrderedDict

from repro.service.auth.errors import (
    AUTH_HEADER,
    AuthRequiredError,
    BadSignatureError,
    ReplayedNonceError,
    StaleTimestampError,
    UnknownTenantError,
)

__all__ = [
    "AUTH_HEADER",
    "AUTH_VERSION",
    "canonical_request",
    "sign_request",
    "parse_auth_header",
    "RequestSigner",
    "ReplayWindow",
    "RequestVerifier",
]

AUTH_VERSION = "v1"

# Defaults shared by the verifier and the CLI: +/- two minutes of clock
# skew, and a replay memory that outlives the skew window with room to
# spare so a nonce can never be re-accepted while its timestamp is
# still admissible.
DEFAULT_MAX_SKEW_S = 120.0
DEFAULT_REPLAY_TTL_S = 300.0
DEFAULT_REPLAY_CAPACITY = 65536


def canonical_request(
    method: str, path: str, body: bytes, timestamp: str, nonce: str, tenant: str
) -> bytes:
    """The byte string both sides HMAC; any edit to the request changes it."""
    body_digest = hashlib.sha256(body).hexdigest()
    return "\n".join(
        ["repro-auth/" + AUTH_VERSION, method.upper(), path, body_digest, timestamp, nonce, tenant]
    ).encode("utf-8")


def sign_request(
    secret: str, method: str, path: str, body: bytes, timestamp: str, nonce: str, tenant: str
) -> str:
    digest = canonical_request(method, path, body, timestamp, nonce, tenant)
    return hmac.new(secret.encode("utf-8"), digest, hashlib.sha256).hexdigest()


def build_auth_header(tenant: str, timestamp: str, nonce: str, signature: str) -> str:
    return "%s;tenant=%s;ts=%s;nonce=%s;sig=%s" % (
        AUTH_VERSION,
        tenant,
        timestamp,
        nonce,
        signature,
    )


def parse_auth_header(value: str | None) -> dict[str, str]:
    """Split an ``X-Repro-Auth`` value into its fields.

    Raises :class:`AuthRequiredError` on a missing or structurally
    malformed header — a request that cannot even be parsed carries no
    identity to blame a better error on.
    """
    if not value:
        raise AuthRequiredError("request is not signed (missing %s header)" % AUTH_HEADER)
    parts = value.split(";")
    if parts[0] != AUTH_VERSION:
        raise AuthRequiredError("unsupported auth header version %r" % parts[0][:32])
    fields: dict[str, str] = {}
    for part in parts[1:]:
        key, sep, item = part.partition("=")
        if not sep or not key:
            raise AuthRequiredError("malformed auth header field %r" % part[:32])
        fields[key] = item
    missing = {"tenant", "ts", "nonce", "sig"} - set(fields)
    if missing:
        raise AuthRequiredError("auth header missing fields: %s" % ", ".join(sorted(missing)))
    if not fields["ts"].isdigit():
        raise AuthRequiredError("auth header timestamp is not an integer")
    return fields


class RequestSigner:
    """Client-side signer: one tenant identity, fresh nonce per request."""

    __slots__ = ("tenant", "_secret", "_clock")

    def __init__(self, tenant: str, secret: str, clock=time.time):
        self.tenant = tenant
        self._secret = secret
        self._clock = clock

    def header(self, method: str, path: str, body: bytes) -> str:
        """The ``X-Repro-Auth`` value for one request attempt.

        Every call draws a fresh nonce — a retry of the same request is
        a *new* signed request, so the server's replay window never
        mistakes a legitimate retransmit for an attack.
        """
        timestamp = str(int(self._clock()))
        nonce = secrets.token_hex(16)
        signature = sign_request(
            self._secret, method, path, body, timestamp, nonce, self.tenant
        )
        return build_auth_header(self.tenant, timestamp, nonce, signature)


class ReplayWindow:
    """Bounded memory of accepted ``(tenant, nonce)`` pairs.

    Entries expire after ``ttl_s``; when the window is full the oldest
    entry is evicted first (insertion order ~ acceptance order).  The
    capacity bound keeps a nonce-spraying client from growing server
    memory without limit — at worst it shortens its *own* effective
    replay protection, never another tenant's timestamp window.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_REPLAY_CAPACITY,
        ttl_s: float = DEFAULT_REPLAY_TTL_S,
        clock=time.monotonic,
    ):
        self.capacity = int(capacity)
        self.ttl_s = float(ttl_s)
        self._clock = clock
        self._seen: OrderedDict[tuple[str, str], float] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen)

    def check_and_record(self, tenant: str, nonce: str) -> bool:
        """True if the pair is fresh (and now recorded); False on replay."""
        key = (tenant, nonce)
        now = self._clock()
        with self._lock:
            while self._seen:
                oldest_key = next(iter(self._seen))
                if self._seen[oldest_key] > now:
                    break
                del self._seen[oldest_key]
            if key in self._seen:
                return False
            while len(self._seen) >= self.capacity:
                self._seen.popitem(last=False)
            self._seen[key] = now + self.ttl_s
            return True


class RequestVerifier:
    """Server-side verification: header -> authenticated credential.

    The check order is fixed and observable through the error codes:
    parse, tenant lookup, timestamp window, signature, replay.  The
    replay check runs last so only *valid* signatures consume window
    entries, and the signature comparison is constant-time
    (:func:`hmac.compare_digest`).
    """

    def __init__(
        self,
        store,
        max_skew_s: float = DEFAULT_MAX_SKEW_S,
        clock=time.time,
        replay: ReplayWindow | None = None,
    ):
        self.store = store
        self.max_skew_s = float(max_skew_s)
        self._clock = clock
        self.replay = replay if replay is not None else ReplayWindow()

    def verify(self, method: str, path: str, body: bytes, header: str | None):
        """Authenticate one request; returns the tenant's credential."""
        fields = parse_auth_header(header)
        tenant = fields["tenant"]
        credential = self.store.lookup(tenant)
        if credential is None:
            raise UnknownTenantError("unknown tenant %r" % tenant[:64])
        age = abs(self._clock() - int(fields["ts"]))
        if age > self.max_skew_s:
            raise StaleTimestampError(
                "signed timestamp is %ds outside the %ds skew window"
                % (int(age), int(self.max_skew_s))
            )
        expected = sign_request(
            credential.secret, method, path, body, fields["ts"], fields["nonce"], tenant
        )
        if not hmac.compare_digest(expected, fields["sig"]):
            raise BadSignatureError("request signature does not verify for tenant %r" % tenant)
        if not self.replay.check_and_record(tenant, fields["nonce"]):
            raise ReplayedNonceError("nonce already used by tenant %r" % tenant)
        return credential
