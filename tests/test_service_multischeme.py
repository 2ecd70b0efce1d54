"""The gateway as a PRE *platform*: every registered scheme, end to end.

Three layers of proof that the service stack is scheme-agnostic:

* in-process: the seeded E9-style workload (grants, caching, batching,
  decrypt-and-compare verification) driven through each backend;
* over the wire: a live :class:`AsyncGatewayServer` + negotiated
  :class:`RemoteGateway` doing grant -> re-encrypt -> decrypt per scheme;
* the guard rails: scheme negotiation refuses a mismatched server, the
  codec rejects foreign-scheme messages as ``invalid-request``, and the
  KEM-result cache is bypassed for backends without
  ``deterministic_reencrypt``.
"""

from __future__ import annotations

import pytest

from repro.core.api import create_backend
from repro.service.driver import build_setting, drive_requests, run_demo
from repro.service.gateway import (
    GrantRequest,
    InvalidRequestError,
    ReEncryptionGateway,
    ReEncryptRequest,
)
from repro.service.wire import (
    AsyncGatewayServer,
    RemoteGateway,
    SchemeMismatchError,
    from_wire,
    to_wire,
)

# The wire matrix: the paper's scheme plus representative baselines with
# different message spaces (GT vs G1) and key shapes (point vs scalar).
WIRE_SCHEMES = ["tipre/v1", "green-ateniese/v1", "afgh/v1", "bbs/v1"]
ALL_SCHEMES = WIRE_SCHEMES + ["dodis-ivan/v1", "matsuo/v1"]


def _small_setting(scheme_id, **kwargs):
    defaults = dict(
        scheme_id=scheme_id,
        group_name="TOY",
        shard_count=3,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=1,
        seed="multischeme-" + scheme_id,
    )
    defaults.update(kwargs)
    return build_setting(**defaults)


class TestInProcessEveryScheme:
    @pytest.mark.parametrize("scheme_id", ALL_SCHEMES)
    def test_seeded_workload_verifies(self, scheme_id):
        report = run_demo(
            scheme_id=scheme_id,
            shard_count=2,
            n_requests=24,
            batch_size=4,
            seed="e12-style-" + scheme_id,
        )
        assert report.scheme_id == scheme_id
        assert report.verified > 0
        assert report.snapshot.served > 0

    @pytest.mark.parametrize("scheme_id", ALL_SCHEMES)
    def test_revoked_delegation_stops_serving(self, scheme_id):
        from repro.service.gateway import DelegationNotFoundError, RevokeRequest

        setting = _small_setting(scheme_id)
        try:
            (patient, type_label), entries = sorted(setting.pool.items())[0]
            ciphertext, _message = entries[0]
            delegatee = setting.delegatees[0]
            setting.gateway.revoke(
                RevokeRequest(
                    tenant=patient,
                    delegator_domain=setting.delegator_domain,
                    delegator=patient,
                    delegatee_domain=setting.delegatee_domain,
                    delegatee=delegatee,
                    type_label=type_label,
                )
            )
            with pytest.raises(DelegationNotFoundError):
                setting.gateway.reencrypt(
                    ReEncryptRequest(
                        tenant=patient,
                        ciphertext=ciphertext,
                        delegatee_domain=setting.delegatee_domain,
                        delegatee=delegatee,
                    )
                )
        finally:
            setting.gateway.close()

    @pytest.mark.parametrize("scheme_id", ["afgh/v1", "green-ateniese/v1"])
    def test_durable_state_dir_survives_restart(self, scheme_id, tmp_path):
        state_dir = str(tmp_path / "fleet")
        setting = _small_setting(scheme_id, state_dir=state_dir)
        installed = setting.gateway.key_count()
        setting.gateway.close()
        assert installed > 0

        # A fresh fleet on the same state dir serves every delegation.
        backend = create_backend(scheme_id, setting.group)
        gateway = ReEncryptionGateway(backend, shard_count=3, state_dir=state_dir)
        try:
            assert gateway.key_count() == installed
            (patient, _type), entries = sorted(setting.pool.items())[0]
            ciphertext, message = entries[0]
            response = gateway.reencrypt(
                ReEncryptRequest(
                    tenant=patient,
                    ciphertext=ciphertext,
                    delegatee_domain=setting.delegatee_domain,
                    delegatee=setting.delegatees[0],
                )
            )
            # The *original* backend holds the party keys; the restarted
            # server-side backend never needs them.
            recovered = setting.backend.decrypt_reencrypted(
                response.ciphertext, setting.delegatee_domain, setting.delegatees[0]
            )
            assert recovered == message
        finally:
            gateway.close()


class TestWireEveryScheme:
    @pytest.mark.parametrize("scheme_id", WIRE_SCHEMES)
    def test_grant_reencrypt_decrypt_over_the_wire(self, scheme_id):
        """The acceptance anchor: a bare server process per scheme."""
        setting = _small_setting(scheme_id)
        group = setting.group
        # The server side: a fresh backend with no party state at all.
        server_gateway = ReEncryptionGateway(create_backend(scheme_id, group), shard_count=2)
        try:
            with AsyncGatewayServer(server_gateway) as server:
                client = RemoteGateway(server.http_url, setting.backend)
                info = client.scheme_info()
                assert info["scheme"] == scheme_id
                assert info["group"] == group.params.name
                # grant every proxy key over the wire ...
                for key in setting.gateway.list_keys():
                    client.grant(GrantRequest(tenant="t", proxy_key=key))
                # ... then re-encrypt remotely and decrypt locally.
                verified = drive_requests(
                    setting,
                    12,
                    seed="wire-" + scheme_id,
                    batch_size=3,
                    verify_every=1,
                    gateway=client,
                )
                assert verified == 12
        finally:
            server_gateway.close()
            setting.gateway.close()

    def test_client_refuses_mismatched_server_scheme(self, group):
        server_gateway = ReEncryptionGateway(create_backend("tipre/v1", group), shard_count=1)
        try:
            with AsyncGatewayServer(server_gateway) as server:
                client = RemoteGateway(server.http_url, create_backend("afgh/v1", group))
                with pytest.raises(SchemeMismatchError, match="tipre/v1"):
                    client.snapshot()
        finally:
            server_gateway.close()

    def test_unnegotiated_mismatched_message_is_invalid_request(self, group, rng):
        """Even with negotiation off, the codec rejects foreign envelopes."""
        afgh = create_backend("afgh/v1", group)
        afgh.setup(rng)
        afgh.create_party("D", "a", rng)
        afgh.create_party("D", "b", rng)
        key = afgh.rekey("D", "a", "D", "b", "t", rng)
        server_gateway = ReEncryptionGateway(create_backend("tipre/v1", group), shard_count=1)
        try:
            with AsyncGatewayServer(server_gateway) as server:
                client = RemoteGateway(server.http_url, afgh, negotiate=False)
                with pytest.raises(InvalidRequestError):
                    client.grant(GrantRequest(tenant="t", proxy_key=key))
        finally:
            server_gateway.close()

    def test_codec_rejects_foreign_scheme_messages(self, group, rng):
        afgh = create_backend("afgh/v1", group)
        afgh.setup(rng)
        afgh.create_party("D", "a", rng)
        afgh.create_party("D", "b", rng)
        key = afgh.rekey("D", "a", "D", "b", "t", rng)
        message = to_wire(afgh, GrantRequest(tenant="t", proxy_key=key))
        with pytest.raises(InvalidRequestError, match="scheme"):
            from_wire(group, message)  # bare group = the tipre backend


class TestCacheAdmissionGating:
    def test_nondeterministic_backend_bypasses_result_cache(self, rng):
        """A backend without deterministic_reencrypt never replays results."""
        from repro.baselines.backends import AfghBackend
        from repro.core.api import SchemeCapabilities

        class RandomizedAfgh(AfghBackend):
            # Same cryptography; declares its transform non-replayable.
            capabilities = SchemeCapabilities(
                **{**AfghBackend.capabilities.as_dict(), "deterministic_reencrypt": False}
            )

        from repro.pairing.group import PairingGroup

        group = PairingGroup("TOY")
        backend = RandomizedAfgh(group)
        backend.setup(rng)
        backend.create_party("D", "alice", rng)
        backend.create_party("D", "bob", rng)
        gateway = ReEncryptionGateway(backend, shard_count=1)
        try:
            gateway.grant(
                GrantRequest(
                    tenant="t", proxy_key=backend.rekey("D", "alice", "D", "bob", "t", rng)
                )
            )
            message = backend.sample_message(rng)
            ciphertext = backend.encrypt("D", "alice", message, "t", rng)
            request = ReEncryptRequest(
                tenant="t", ciphertext=ciphertext, delegatee_domain="D", delegatee="bob"
            )
            responses = [gateway.reencrypt(request) for _ in range(4)]
            batch = gateway.reencrypt_batch([request, request])
            assert not any(r.cache_hit for r in responses + batch)
            stats = gateway.cache_stats()["result_cache"]
            assert stats.hits == 0 and stats.size == 0
            # Correctness is unaffected: every response decrypts.
            for response in responses + batch:
                assert (
                    backend.decrypt_reencrypted(response.ciphertext, "D", "bob") == message
                )
        finally:
            gateway.close()

    def test_deterministic_backend_still_caches(self, rng):
        setting = _small_setting("afgh/v1")
        try:
            (patient, _type), entries = sorted(setting.pool.items())[0]
            ciphertext, _message = entries[0]
            request = ReEncryptRequest(
                tenant=patient,
                ciphertext=ciphertext,
                delegatee_domain=setting.delegatee_domain,
                delegatee=setting.delegatees[0],
            )
            first = setting.gateway.reencrypt(request)
            second = setting.gateway.reencrypt(request)
            assert not first.cache_hit and second.cache_hit
        finally:
            setting.gateway.close()
