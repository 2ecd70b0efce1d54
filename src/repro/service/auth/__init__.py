"""Wire security for the gateway: TLS, tenant authentication, isolation.

The paper's proxy is *semi-trusted*: it transforms ciphertexts it cannot
read, but it must still know — and enforce — who is asking.  This
package supplies that layer for the HTTP wire:

* :mod:`repro.service.auth.credentials` — the per-tenant secret/role
  registry (one JSON file, atomic rewrite, lazy reload);
* :mod:`repro.service.auth.signing` — HMAC-SHA256 request signing with
  a replay-nonce window and clock-skew bounds, carried in the
  ``X-Repro-Auth`` header;
* :mod:`repro.service.auth.policy` — per-tenant rate/quota/batch limits
  replacing the gateway's global token-bucket defaults;
* :mod:`repro.service.auth.tls` — stdlib ``ssl`` contexts for the
  server socket and the pooled client (with CA pinning);
* :mod:`repro.service.auth.errors` — the auth slice of the gateway's
  closed error taxonomy (401-shaped authentication codes plus
  ``auth-forbidden`` for role denials).

Everything is opt-in: a server without ``--tenant-config`` accepts
anonymous requests exactly as before, so existing tests, benches and
examples run unchanged.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "credentials": ("DEFAULT_ROLES", "TenantCredential", "TenantCredentialStore"),
        "errors": (
            "AuthenticationError",
            "AuthRequiredError",
            "BadSignatureError",
            "ForbiddenError",
            "ReplayedNonceError",
            "StaleTimestampError",
            "UnknownTenantError",
        ),
        "policy": ("PolicyEngine",),
        "signing": (
            "AUTH_HEADER",
            "ReplayWindow",
            "RequestSigner",
            "RequestVerifier",
            "build_auth_header",
            "canonical_request",
            "parse_auth_header",
            "sign_request",
        ),
        "tls": ("client_context", "server_context"),
    },
)

__all__ = [
    "AUTH_HEADER",
    "AuthenticationError",
    "AuthRequiredError",
    "BadSignatureError",
    "DEFAULT_ROLES",
    "ForbiddenError",
    "PolicyEngine",
    "ReplayWindow",
    "ReplayedNonceError",
    "RequestSigner",
    "RequestVerifier",
    "StaleTimestampError",
    "TenantCredential",
    "TenantCredentialStore",
    "UnknownTenantError",
    "build_auth_header",
    "canonical_request",
    "client_context",
    "parse_auth_header",
    "server_context",
    "sign_request",
]
