"""The auth slice of the gateway error taxonomy.

Every failure mode of the wire's authentication layer is a
:class:`~repro.service.gateway.GatewayError` subclass with a stable
``code`` string, exactly like the rest of the taxonomy: the codec
serializes them by code, the HTTP server maps them onto 401/403, and a
client that pins behaviour to a code never sees a different one for the
same failure.  Authentication failures (who are you?) descend from
:class:`AuthenticationError`; authorization failures (you may not do
that) are :class:`ForbiddenError` — the split mirrors HTTP 401 vs 403.

The name of the header a signed request carries, :data:`AUTH_HEADER`,
is here too: the wire engine reads that header whether or not the
server verifies signatures, and it needs nothing else of the signer.
"""

from __future__ import annotations

from repro.service.gateway import GatewayError

__all__ = [
    "AUTH_HEADER",
    "AuthenticationError",
    "AuthRequiredError",
    "UnknownTenantError",
    "BadSignatureError",
    "StaleTimestampError",
    "ReplayedNonceError",
    "ForbiddenError",
]

AUTH_HEADER = "X-Repro-Auth"


class AuthenticationError(GatewayError):
    """Base of every authentication failure (HTTP 401)."""

    code = "auth-failed"


class AuthRequiredError(AuthenticationError):
    """The server requires signed requests and none (or garbage) arrived."""

    code = "auth-required"


class UnknownTenantError(AuthenticationError):
    """The signature names a tenant the credential store does not hold."""

    code = "auth-unknown-tenant"


class BadSignatureError(AuthenticationError):
    """The HMAC over the canonical request does not verify."""

    code = "auth-bad-signature"


class StaleTimestampError(AuthenticationError):
    """The signed timestamp is outside the allowed clock-skew window."""

    code = "auth-stale-timestamp"


class ReplayedNonceError(AuthenticationError):
    """The (tenant, nonce) pair was already accepted inside the window."""

    code = "auth-replay"


class ForbiddenError(GatewayError):
    """The authenticated tenant's roles do not allow this operation (403)."""

    code = "auth-forbidden"
