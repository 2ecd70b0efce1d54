"""Tests for repro.service.auth: signing, credentials, policy, TLS, wire.

Three layers:

* unit — the HMAC canonicalization and verifier check order, the
  credential store's atomic reload/rotate, the replay window's bounds,
  and the per-tenant policy engine;
* loopback — a real :class:`AsyncGatewayServer` with a credential store
  installed, driven through every negative path (unsigned, mis-signed,
  replayed nonce, stale timestamp, unknown tenant, role-forbidden op),
  each asserting the *exact* taxonomy code and the structured
  ``auth-failure`` event;
* TLS — wrapped loopback with a generated self-signed certificate,
  including the wrong-CA handshake failure and the end-to-end
  subprocess test of ``serve --http --tls-cert --tenant-config``.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import ssl
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.auth import (
    AUTH_HEADER,
    AuthRequiredError,
    BadSignatureError,
    ForbiddenError,
    PolicyEngine,
    ReplayWindow,
    ReplayedNonceError,
    RequestSigner,
    RequestVerifier,
    StaleTimestampError,
    TenantCredentialStore,
    UnknownTenantError,
    canonical_request,
    client_context,
    parse_auth_header,
    server_context,
    sign_request,
)
from repro.service.driver import DELEGATEE_DOMAIN, build_setting
from repro.service.gateway import (
    GrantRequest,
    QuotaExceededError,
    RateLimitedError,
    ReEncryptRequest,
)
from repro.service.telemetry import EventLog
from repro.service.wire import (
    AsyncGatewayServer,
    RemoteGateway,
    ResizeRequest,
    WireTransportError,
    to_wire,
)

REPO_ROOT = Path(__file__).resolve().parents[1]


# --------------------------------------------------------------------- unit


class _FakeClock:
    def __init__(self, now: float = 1_000_000.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


@pytest.fixture()
def store(tmp_path) -> TenantCredentialStore:
    store = TenantCredentialStore.initialize(tmp_path / "tenants.json")
    store.add("clinic-a", secret="a" * 64)
    store.add("ops", secret="b" * 64, roles=("admin",))
    return store


class TestSigning:
    def test_sign_verify_round_trip(self, store):
        clock = _FakeClock()
        signer = RequestSigner("clinic-a", "a" * 64, clock=clock)
        verifier = RequestVerifier(store, clock=clock)
        header = signer.header("POST", "/v1/grant", b"{}")
        credential = verifier.verify("POST", "/v1/grant", b"{}", header)
        assert credential.tenant == "clinic-a"

    def test_canonical_request_covers_every_field(self):
        base = ("POST", "/v1/grant", b"{}", "123", "aa", "t")
        reference = canonical_request(*base)
        variants = [
            ("GET", "/v1/grant", b"{}", "123", "aa", "t"),
            ("POST", "/v1/revoke", b"{}", "123", "aa", "t"),
            ("POST", "/v1/grant", b"{x}", "123", "aa", "t"),
            ("POST", "/v1/grant", b"{}", "124", "aa", "t"),
            ("POST", "/v1/grant", b"{}", "123", "ab", "t"),
            ("POST", "/v1/grant", b"{}", "123", "aa", "u"),
        ]
        for variant in variants:
            assert canonical_request(*variant) != reference

    def test_fresh_nonce_per_attempt(self):
        signer = RequestSigner("t", "s", clock=_FakeClock())
        first = parse_auth_header(signer.header("POST", "/p", b""))
        second = parse_auth_header(signer.header("POST", "/p", b""))
        assert first["nonce"] != second["nonce"]

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "v2;tenant=t;ts=1;nonce=n;sig=s",
            "v1;tenant=t;ts=1;nonce=n",  # missing sig
            "v1;tenantt;ts=1;nonce=n;sig=s",  # field without '='
            "v1;tenant=t;ts=soon;nonce=n;sig=s",  # non-integer ts
        ],
    )
    def test_parse_rejects_malformed_headers(self, header):
        with pytest.raises(AuthRequiredError):
            parse_auth_header(header)

    def test_verifier_unknown_tenant(self, store):
        clock = _FakeClock()
        header = RequestSigner("ghost", "x", clock=clock).header("POST", "/p", b"")
        with pytest.raises(UnknownTenantError):
            RequestVerifier(store, clock=clock).verify("POST", "/p", b"", header)

    def test_verifier_stale_timestamp(self, store):
        clock = _FakeClock()
        header = RequestSigner("clinic-a", "a" * 64, clock=clock).header(
            "POST", "/p", b""
        )
        late = RequestVerifier(store, clock=_FakeClock(clock.now + 3600))
        with pytest.raises(StaleTimestampError):
            late.verify("POST", "/p", b"", header)

    def test_verifier_bad_signature(self, store):
        clock = _FakeClock()
        header = RequestSigner("clinic-a", "wrong-secret", clock=clock).header(
            "POST", "/p", b""
        )
        with pytest.raises(BadSignatureError):
            RequestVerifier(store, clock=clock).verify("POST", "/p", b"", header)

    def test_verifier_tampered_body(self, store):
        clock = _FakeClock()
        header = RequestSigner("clinic-a", "a" * 64, clock=clock).header(
            "POST", "/p", b"original"
        )
        with pytest.raises(BadSignatureError):
            RequestVerifier(store, clock=clock).verify("POST", "/p", b"tampered", header)

    def test_verifier_replay(self, store):
        clock = _FakeClock()
        verifier = RequestVerifier(store, clock=clock)
        header = RequestSigner("clinic-a", "a" * 64, clock=clock).header(
            "POST", "/p", b""
        )
        verifier.verify("POST", "/p", b"", header)
        with pytest.raises(ReplayedNonceError):
            verifier.verify("POST", "/p", b"", header)

    def test_failed_signature_does_not_consume_nonce(self, store):
        """Only *valid* signatures enter the replay window."""
        clock = _FakeClock()
        verifier = RequestVerifier(store, clock=clock)
        timestamp = str(int(clock.now))
        nonce = "f" * 32
        bad = sign_request("not-the-secret", "POST", "/p", b"", timestamp, nonce, "clinic-a")
        with pytest.raises(BadSignatureError):
            verifier.verify(
                "POST", "/p", b"",
                "v1;tenant=clinic-a;ts=%s;nonce=%s;sig=%s" % (timestamp, nonce, bad),
            )
        good = sign_request("a" * 64, "POST", "/p", b"", timestamp, nonce, "clinic-a")
        credential = verifier.verify(
            "POST", "/p", b"",
            "v1;tenant=clinic-a;ts=%s;nonce=%s;sig=%s" % (timestamp, nonce, good),
        )
        assert credential.tenant == "clinic-a"


class TestReplayWindow:
    def test_ttl_expiry_frees_the_nonce(self):
        clock = _FakeClock()
        window = ReplayWindow(ttl_s=10.0, clock=clock)
        assert window.check_and_record("t", "n1")
        assert not window.check_and_record("t", "n1")
        clock.now += 11.0
        assert window.check_and_record("t", "n1")

    def test_capacity_bound_evicts_oldest(self):
        window = ReplayWindow(capacity=2, ttl_s=1e9, clock=_FakeClock())
        assert window.check_and_record("t", "n1")
        assert window.check_and_record("t", "n2")
        assert window.check_and_record("t", "n3")
        assert len(window) == 2
        # n1 was evicted, so (only) it is acceptable again.
        assert window.check_and_record("t", "n1")
        assert not window.check_and_record("t", "n3")

    def test_tenants_do_not_share_nonces(self):
        window = ReplayWindow(clock=_FakeClock())
        assert window.check_and_record("t1", "n")
        assert window.check_and_record("t2", "n")


class TestCredentialStore:
    def test_reload_picks_up_external_edits(self, tmp_path):
        path = tmp_path / "tenants.json"
        writer = TenantCredentialStore.initialize(path)
        reader = TenantCredentialStore(path)
        assert reader.lookup("late") is None
        writer.add("late", secret="s")
        os.utime(path, (time.time() + 2, time.time() + 2))
        assert reader.lookup("late").secret == "s"

    def test_corrupt_rewrite_keeps_last_good_snapshot(self, tmp_path):
        path = tmp_path / "tenants.json"
        writer = TenantCredentialStore.initialize(path)
        writer.add("kept", secret="s")
        reader = TenantCredentialStore(path)
        assert reader.lookup("kept") is not None
        path.write_text("{ not json")
        os.utime(path, (time.time() + 2, time.time() + 2))
        assert reader.lookup("kept").secret == "s"

    def test_rotate_preserves_roles_and_limits(self, tmp_path):
        store = TenantCredentialStore.initialize(tmp_path / "t.json")
        store.add("t", secret="old", roles=("admin",), rate_per_s=5.0, quota=100)
        rotated = store.rotate("t")
        assert rotated.secret != "old"
        assert rotated.roles == ("admin",)
        assert rotated.rate_per_s == 5.0
        assert rotated.quota == 100

    def test_initialize_refuses_to_clobber(self, tmp_path):
        path = tmp_path / "t.json"
        TenantCredentialStore.initialize(path)
        with pytest.raises(FileExistsError):
            TenantCredentialStore.initialize(path)

    def test_roles_gate_operations(self, store):
        client = store.lookup("clinic-a")
        admin = store.lookup("ops")
        assert store.allows(client, "reencrypt")
        assert not store.allows(client, "resize")
        assert store.allows(admin, "resize")
        assert store.allows(admin, "export")


class TestPolicyEngine:
    def test_no_limits_falls_through(self, store):
        engine = PolicyEngine(store, clock=_FakeClock())
        assert engine.admit("clinic-a", "grant") is False
        assert engine.admit("anonymous", "grant") is False

    def test_rate_limit_enforced(self, tmp_path):
        store = TenantCredentialStore.initialize(tmp_path / "t.json")
        store.add("slow", secret="s", rate_per_s=2.0, burst=2.0)
        clock = _FakeClock()
        engine = PolicyEngine(store, clock=clock)
        assert engine.admit("slow", "reencrypt") is True
        assert engine.admit("slow", "reencrypt") is True
        with pytest.raises(RateLimitedError):
            engine.admit("slow", "reencrypt")
        clock.now += 1.0  # refill 2/s for one second
        assert engine.admit("slow", "reencrypt") is True

    def test_quota_exhaustion(self, tmp_path):
        store = TenantCredentialStore.initialize(tmp_path / "t.json")
        store.add("metered", secret="s", quota=2)
        engine = PolicyEngine(store, clock=_FakeClock())
        assert engine.admit("metered", "grant") is True
        assert engine.admit("metered", "grant") is True
        with pytest.raises(QuotaExceededError):
            engine.admit("metered", "grant")
        assert engine.quota_spent("metered") == 2


# ----------------------------------------------------------------- loopback


@pytest.fixture()
def auth_loopback(tmp_path):
    """A live authenticated HTTP server plus credentials for two tenants."""
    store = TenantCredentialStore.initialize(tmp_path / "tenants.json")
    store.add("clinic-a", secret="a" * 64)
    store.add("ops", secret="b" * 64, roles=("admin",))
    setting = build_setting(
        group_name="TOY",
        shard_count=2,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=1,
        seed="auth-loopback",
    )
    events = EventLog()
    server = AsyncGatewayServer(
        setting.gateway,
        setting.group,
        event_log=events,
        auth=RequestVerifier(store),
    )
    with server:
        yield setting, server, events
    setting.gateway.close()


def _reencrypt_request(setting) -> ReEncryptRequest:
    (patient, _type_label), entries = sorted(setting.pool.items())[0]
    ciphertext, _message = entries[0]
    return ReEncryptRequest(
        tenant=patient,
        ciphertext=ciphertext,
        delegatee_domain=DELEGATEE_DOMAIN,
        delegatee=setting.delegatees[0],
    )


def _raw_post(server, path: str, body: bytes, header: str | None):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        headers = {"Content-Type": "application/json"}
        if header is not None:
            headers[AUTH_HEADER] = header
        conn.request("POST", path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def _auth_failure_events(events: EventLog) -> list[dict]:
    return [event for event in events.tail() if event["kind"] == "auth-failure"]


class TestWireNegativePaths:
    def test_signed_client_succeeds_and_stamps_tenant(self, auth_loopback):
        setting, server, _events = auth_loopback
        client = RemoteGateway(
            server.http_url, setting.group, tenant="clinic-a", secret="a" * 64
        )
        response = client.reencrypt(_reencrypt_request(setting))
        assert response.shard
        # Quotas/metrics/audit attribute to the *authenticated* tenant,
        # not the body's self-declared one.
        snapshot = client.snapshot()
        assert any(tenant == "clinic-a" for tenant, _ in snapshot.tenant_outcomes)
        client.close()

    def test_unsigned_request_rejected(self, auth_loopback):
        setting, server, events = auth_loopback
        client = RemoteGateway(server.http_url, setting.group)
        with pytest.raises(AuthRequiredError):
            client.reencrypt(_reencrypt_request(setting))
        client.close()
        assert _auth_failure_events(events)[-1]["code"] == "auth-required"

    def test_bad_signature_rejected(self, auth_loopback):
        setting, server, events = auth_loopback
        client = RemoteGateway(
            server.http_url, setting.group, tenant="clinic-a", secret="not-the-secret"
        )
        with pytest.raises(BadSignatureError):
            client.reencrypt(_reencrypt_request(setting))
        client.close()
        event = _auth_failure_events(events)[-1]
        assert event["code"] == "auth-bad-signature"
        assert event["tenant"] == "clinic-a"

    def test_unknown_tenant_rejected(self, auth_loopback):
        setting, server, events = auth_loopback
        client = RemoteGateway(
            server.http_url, setting.group, tenant="ghost", secret="s"
        )
        with pytest.raises(UnknownTenantError):
            client.reencrypt(_reencrypt_request(setting))
        client.close()
        assert _auth_failure_events(events)[-1]["code"] == "auth-unknown-tenant"

    def test_replayed_nonce_rejected(self, auth_loopback):
        setting, server, events = auth_loopback
        body = to_wire(setting.group, _reencrypt_request(setting)).encode("utf-8")
        header = RequestSigner("clinic-a", "a" * 64).header("POST", "/v1/reencrypt", body)
        status, _ = _raw_post(server, "/v1/reencrypt", body, header)
        assert status == 200
        status, document = _raw_post(server, "/v1/reencrypt", body, header)
        assert status == 401
        assert document["body"]["code"] == "auth-replay"
        assert _auth_failure_events(events)[-1]["code"] == "auth-replay"

    def test_stale_timestamp_rejected(self, auth_loopback):
        setting, server, events = auth_loopback
        body = to_wire(setting.group, _reencrypt_request(setting)).encode("utf-8")
        past = lambda: time.time() - 3600  # noqa: E731
        header = RequestSigner("clinic-a", "a" * 64, clock=past).header(
            "POST", "/v1/reencrypt", body
        )
        status, document = _raw_post(server, "/v1/reencrypt", body, header)
        assert status == 401
        assert document["body"]["code"] == "auth-stale-timestamp"
        assert _auth_failure_events(events)[-1]["code"] == "auth-stale-timestamp"

    def test_role_forbidden_resize_as_non_admin(self, auth_loopback):
        setting, server, events = auth_loopback
        client = RemoteGateway(
            server.http_url, setting.group, tenant="clinic-a", secret="a" * 64
        )
        with pytest.raises(ForbiddenError):
            client.resize(3)
        client.close()
        event = _auth_failure_events(events)[-1]
        assert event["code"] == "auth-forbidden"
        assert event["op"] == "resize"

    def test_admin_role_may_resize(self, auth_loopback):
        setting, server, _events = auth_loopback
        client = RemoteGateway(
            server.http_url, setting.group, tenant="ops", secret="b" * 64
        )
        report = client.resize(3)
        assert report.new_shard_count == 3
        client.close()

    def test_forbidden_maps_to_http_403(self, auth_loopback):
        setting, server, _events = auth_loopback
        # clinic-a may not resize: send the signed resize body directly.
        body = to_wire(
            setting.group,
            ResizeRequest(tenant="clinic-a", shard_count=2, request_id="ff" * 16),
        ).encode("utf-8")
        header = RequestSigner("clinic-a", "a" * 64).header("POST", "/v1/resize", body)
        status, document = _raw_post(server, "/v1/resize", body, header)
        assert status == 403
        assert document["body"]["code"] == "auth-forbidden"

    def test_auth_failures_counted_into_rejected(self, auth_loopback):
        setting, server, _events = auth_loopback
        before = setting.gateway.metrics.snapshot()
        client = RemoteGateway(server.http_url, setting.group)
        with pytest.raises(AuthRequiredError):
            client.reencrypt(_reencrypt_request(setting))
        client.close()
        after = setting.gateway.metrics.snapshot()
        assert after.rejected == before.rejected + 1
        assert after.requests_total == before.requests_total + 1
        assert after.auth_failures.get("auth-required", 0) >= 1
        # The stress-tested invariant holds with auth failures counted in.
        assert after.requests_total == after.served + after.rejected + after.rate_limited


class TestPerTenantPolicyOverWire:
    def test_tenant_rate_limit_and_max_batch(self, tmp_path):
        store = TenantCredentialStore.initialize(tmp_path / "tenants.json")
        store.add("throttled", secret="t" * 64, rate_per_s=3.0, burst=3.0, max_batch=2)
        setting = build_setting(
            group_name="TOY",
            shard_count=2,
            n_patients=2,
            n_delegatees=2,
            n_types=2,
            ciphertexts_per_pair=1,
            seed="auth-policy",
        )
        setting.gateway.policy = PolicyEngine(store)
        server = AsyncGatewayServer(
            setting.gateway, setting.group, auth=RequestVerifier(store)
        )
        with server:
            client = RemoteGateway(
                server.http_url, setting.group, tenant="throttled", secret="t" * 64
            )
            request = _reencrypt_request(setting)
            with pytest.raises(RateLimitedError):
                for _ in range(10):
                    client.reencrypt(request)
            with pytest.raises(Exception) as excinfo:
                client.reencrypt_batch([request] * 3)
            assert getattr(excinfo.value, "code", None) == "invalid-request"
            client.close()
        setting.gateway.close()

    def test_tenant_quota_maps_to_wire_code(self, tmp_path):
        store = TenantCredentialStore.initialize(tmp_path / "tenants.json")
        store.add("metered", secret="m" * 64, quota=2)
        setting = build_setting(
            group_name="TOY",
            shard_count=2,
            n_patients=1,
            n_delegatees=1,
            n_types=1,
            ciphertexts_per_pair=1,
            seed="auth-quota",
        )
        setting.gateway.policy = PolicyEngine(store)
        server = AsyncGatewayServer(
            setting.gateway, setting.group, auth=RequestVerifier(store)
        )
        with server:
            client = RemoteGateway(
                server.http_url, setting.group, tenant="metered", secret="m" * 64
            )
            request = _reencrypt_request(setting)
            client.reencrypt(request)
            client.reencrypt(request)
            with pytest.raises(QuotaExceededError):
                client.reencrypt(request)
            client.close()
        setting.gateway.close()


# ---------------------------------------------------------------------- TLS


@pytest.fixture(scope="module")
def dev_cert(tmp_path_factory):
    out = tmp_path_factory.mktemp("tls")
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    try:
        import gen_dev_cert
    finally:
        sys.path.pop(0)
    return gen_dev_cert.generate(out)


@pytest.fixture()
def tls_loopback(dev_cert):
    cert_path, key_path = dev_cert
    setting = build_setting(
        group_name="TOY",
        shard_count=2,
        n_patients=1,
        n_delegatees=1,
        n_types=1,
        ciphertexts_per_pair=1,
        seed="tls-loopback",
    )
    server = AsyncGatewayServer(
        setting.gateway,
        setting.group,
        tls=server_context(str(cert_path), str(key_path)),
    )
    with server:
        yield setting, server, cert_path
    setting.gateway.close()


class TestTls:
    def test_https_round_trip_with_pinned_ca(self, tls_loopback):
        setting, server, cert_path = tls_loopback
        assert server.http_url.startswith("https://")
        client = RemoteGateway(server.http_url, setting.group, tls_ca=str(cert_path))
        response = client.reencrypt(_reencrypt_request(setting))
        assert response.shard
        client.close()

    def test_wrong_ca_handshake_fails_clean(self, tls_loopback, tmp_path):
        setting, server, _cert_path = tls_loopback
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            import gen_dev_cert
        finally:
            sys.path.pop(0)
        other_cert, _other_key = gen_dev_cert.generate(tmp_path / "other")
        client = RemoteGateway(server.http_url, setting.group, tls_ca=str(other_cert))
        with pytest.raises(WireTransportError):
            client.reencrypt(_reencrypt_request(setting))
        client.close()

    def test_failed_handshake_does_not_kill_the_server(self, tls_loopback, tmp_path):
        setting, server, cert_path = tls_loopback
        raw = ssl.create_default_context()
        # An unpinned client aborts its handshake on the self-signed cert...
        bad = RemoteGateway(server.http_url, setting.group)
        with pytest.raises(WireTransportError):
            bad.scheme_info()
        bad.close()
        assert raw is not None
        # ...and the server keeps serving pinned clients afterwards.
        good = RemoteGateway(server.http_url, setting.group, tls_ca=str(cert_path))
        assert good.scheme_info()["group"] == "TOY"
        good.close()

    def test_client_context_verifies_by_default(self):
        context = client_context()
        assert context.verify_mode == ssl.CERT_REQUIRED
        assert context.check_hostname


# -------------------------------------------------------------- trace sampling


class TestTraceSampling:
    def test_zero_fraction_sends_no_trace_header(self, auth_loopback):
        setting, server, _events = auth_loopback
        client = RemoteGateway(
            server.http_url,
            setting.group,
            tenant="clinic-a",
            secret="a" * 64,
            trace_requests=0.0,
        )
        client.reencrypt(_reencrypt_request(setting))
        assert client.last_trace is None
        assert client.last_trace_echo is None
        client.close()

    def test_fractional_sampling_is_deterministic(self, auth_loopback):
        setting, server, _events = auth_loopback
        client = RemoteGateway(
            server.http_url,
            setting.group,
            tenant="clinic-a",
            secret="a" * 64,
            trace_requests=0.5,
        )
        request = _reencrypt_request(setting)
        traced = 0
        for _ in range(20):
            client.last_trace = None
            client.reencrypt(request)
            if client.last_trace is not None:
                traced += 1
        # Seeded RNG: the count is reproducible and strictly partial.
        assert 0 < traced < 20
        client.close()

    def test_invalid_fraction_rejected(self, auth_loopback):
        setting, server, _events = auth_loopback
        with pytest.raises(ValueError):
            RemoteGateway(server.http_url, setting.group, trace_requests=1.5)

    def test_metrics_count_unsampled_requests(self, auth_loopback):
        setting, server, _events = auth_loopback
        before = setting.gateway.metrics.snapshot().requests_total
        client = RemoteGateway(
            server.http_url,
            setting.group,
            tenant="clinic-a",
            secret="a" * 64,
            trace_requests=0.0,
        )
        client.reencrypt(_reencrypt_request(setting))
        client.close()
        assert setting.gateway.metrics.snapshot().requests_total == before + 1


# ----------------------------------------------------------- end-to-end CLI


class TestServeTlsEndToEnd:
    def test_serve_with_tls_and_tenant_config(self, dev_cert, tmp_path):
        """The full stack: subprocess server, TLS, signed requests.

        The signed+TLS transformation must be *bit-identical* to the
        plaintext anonymous one (auth wraps the wire, never the math),
        and unsigned/mis-signed/replayed requests must fail with their
        stable codes.
        """
        cert_path, key_path = dev_cert
        config = tmp_path / "tenants.json"
        store = TenantCredentialStore.initialize(config)
        store.add("clinic-a", secret="a" * 64)

        setting = build_setting(
            group_name="TOY",
            shard_count=2,
            n_patients=1,
            n_delegatees=1,
            n_types=1,
            ciphertexts_per_pair=1,
            seed="e2e-tls",
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--http",
                "0",
                "--group",
                "TOY",
                "--shards",
                "2",
                "--tls-cert",
                str(cert_path),
                "--tls-key",
                str(key_path),
                "--tenant-config",
                str(config),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            banner = ""
            deadline = time.time() + 60
            while time.time() < deadline:
                line = process.stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    banner = line.split("listening on ")[1].split()[0]
                    break
            assert banner.startswith("muxs://"), "server did not start"
            # The banner names the mux transport; the same port answers HTTPS.
            url = "https://" + banner[len("muxs://"):]

            # Anonymous plaintext twin for the bit-identical comparison.
            # build_setting already granted the local gateway; the remote
            # server starts empty, so replay its keys over the wire.
            anon_server = AsyncGatewayServer(setting.gateway, setting.group)
            request = _reencrypt_request(setting)
            grant_requests = [
                GrantRequest(tenant="e2e", proxy_key=key)
                for key in setting.gateway.list_keys()
            ]
            with anon_server:
                anon = RemoteGateway(anon_server.http_url, setting.group)
                plain_response = anon.reencrypt(request)
                anon.close()

            secure = RemoteGateway(
                url,
                setting.group,
                tenant="clinic-a",
                secret="a" * 64,
                tls_ca=str(cert_path),
            )
            secure.grant_batch(grant_requests)
            tls_response = secure.reencrypt(request)
            assert tls_response.ciphertext == plain_response.ciphertext

            # Unsigned and mis-signed: stable codes over the same wire.
            unsigned = RemoteGateway(url, setting.group, tls_ca=str(cert_path))
            with pytest.raises(AuthRequiredError):
                unsigned.reencrypt(request)
            unsigned.close()
            mis_signed = RemoteGateway(
                url,
                setting.group,
                tenant="clinic-a",
                secret="wrong",
                tls_ca=str(cert_path),
            )
            with pytest.raises(BadSignatureError):
                mis_signed.reencrypt(request)
            mis_signed.close()

            # Replay: same signed header POSTed twice over TLS.
            body = to_wire(setting.group, request).encode("utf-8")
            header = RequestSigner("clinic-a", "a" * 64).header(
                "POST", "/v1/reencrypt", body
            )
            host, port = url[len("https://"):].split(":")
            context = client_context(str(cert_path))
            for expected_status, expected_code in ((200, None), (401, "auth-replay")):
                conn = http.client.HTTPSConnection(
                    host, int(port), timeout=10, context=context
                )
                conn.request(
                    "POST",
                    "/v1/reencrypt",
                    body=body,
                    headers={"Content-Type": "application/json", AUTH_HEADER: header},
                )
                response = conn.getresponse()
                document = json.loads(response.read().decode("utf-8"))
                conn.close()
                assert response.status == expected_status
                if expected_code is not None:
                    assert document["body"]["code"] == expected_code
            secure.close()
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
            setting.gateway.close()
