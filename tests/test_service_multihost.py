"""Multi-scheme hosting: one HTTP process, several isolated scheme fleets.

PR 4 made the gateway scheme-agnostic but left one fleet per process;
this suite proves the multi-fleet server end to end:

* ``GET /v1/schemes`` enumerates every hosted fleet's scheme document;
* scheme-id-prefixed routes (``/v1/{scheme}/reencrypt``, ...) dispatch
  to the right fleet, with shards, caches, metrics and durable state
  fully isolated per scheme;
* the legacy unprefixed routes keep working verbatim on a single-scheme
  server (backward compatibility, asserted against raw HTTP), while a
  multi-scheme server rejects them as ambiguous;
* :class:`RemoteGateway` negotiation pins the prefixed route family and
  refuses servers that do not host the client's scheme.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.core.api import create_backend
from repro.service.driver import build_setting, drive_requests
from repro.service.gateway import (
    GrantRequest,
    ReEncryptionGateway,
    ReEncryptRequest,
)
from repro.service.persistence import scheme_state_subdir
from repro.service.wire import GatewayHttpServer, RemoteGateway, SchemeMismatchError, to_wire

HOSTED = ("tipre/v1", "afgh/v1")


def _raw(url: str, path: str, data: bytes | None = None):
    request = urllib.request.Request(
        url + path,
        data=data,
        headers={"Content-Type": "application/json"} if data is not None else {},
        method="POST" if data is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=10.0) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _small_setting(scheme_id: str, **kwargs):
    defaults = dict(
        scheme_id=scheme_id,
        group_name="TOY",
        shard_count=2,
        n_patients=2,
        n_delegatees=2,
        n_types=2,
        ciphertexts_per_pair=1,
        seed="multihost-" + scheme_id,
    )
    defaults.update(kwargs)
    return build_setting(**defaults)


def _grant_all(setting, client) -> int:
    granted = 0
    for name in setting.gateway.shard_names:
        for key in list(setting.gateway.shard_named(name).table):
            client.grant(GrantRequest(tenant="t", proxy_key=key))
            granted += 1
    return granted


@pytest.fixture()
def two_fleet_server(group):
    """A live server hosting a bare fleet per scheme in ``HOSTED``."""
    gateways = [
        ReEncryptionGateway(create_backend(scheme_id, group), shard_count=2)
        for scheme_id in HOSTED
    ]
    with GatewayHttpServer(gateways=gateways) as server:
        yield server, dict(zip(HOSTED, gateways))
    for gateway in gateways:
        gateway.close()


class TestSchemesEndpoint:
    def test_enumerates_every_hosted_fleet(self, two_fleet_server):
        server, _gateways = two_fleet_server
        status, body = _raw(server.url, "/v1/schemes")
        assert status == 200
        documents = json.loads(body)["schemes"]
        assert [doc["scheme"] for doc in documents] == list(HOSTED)
        for doc in documents:
            assert doc["group"] == "TOY"
            assert "deterministic_reencrypt" in doc["capabilities"]

    def test_client_schemes_info_sees_the_hosted_list(self, two_fleet_server, group):
        server, _gateways = two_fleet_server
        client = RemoteGateway(server.url, create_backend("afgh/v1", group))
        assert [doc["scheme"] for doc in client.schemes_info()] == list(HOSTED)

    def test_single_scheme_server_also_serves_schemes(self, group):
        gateway = ReEncryptionGateway(create_backend("bbs/v1", group), shard_count=1)
        try:
            with GatewayHttpServer(gateway) as server:
                status, body = _raw(server.url, "/v1/schemes")
                assert status == 200
                assert [d["scheme"] for d in json.loads(body)["schemes"]] == ["bbs/v1"]
        finally:
            gateway.close()


class TestPrefixedRouting:
    def test_both_fleets_serve_end_to_end_with_isolation(self, two_fleet_server):
        """The acceptance anchor: one process, two fleets, full lifecycle
        per scheme — and every grant lands only on its own fleet."""
        server, gateways = two_fleet_server
        granted = {}
        for scheme_id in HOSTED:
            setting = _small_setting(scheme_id)
            try:
                client = RemoteGateway(server.url, setting.backend)
                granted[scheme_id] = _grant_all(setting, client)
                verified = drive_requests(
                    setting,
                    8,
                    seed="multihost-" + scheme_id,
                    batch_size=2,
                    verify_every=1,
                    gateway=client,
                )
                assert verified == 8
            finally:
                setting.gateway.close()
        # Isolation: each fleet holds exactly its own scheme's keys, and
        # each fleet's metrics counted only its own traffic.
        for scheme_id in HOSTED:
            assert gateways[scheme_id].key_count() == granted[scheme_id]
            assert gateways[scheme_id].snapshot().served > 0

    def test_prefixed_scheme_and_metrics_documents(self, two_fleet_server):
        server, _gateways = two_fleet_server
        for scheme_id in HOSTED:
            status, body = _raw(server.url, "/v1/%s/scheme" % scheme_id)
            assert status == 200
            assert json.loads(body)["scheme"] == scheme_id
            status, body = _raw(server.url, "/v1/%s/metrics" % scheme_id)
            assert status == 200
            assert json.loads(body)["type"] == "metrics-snapshot"

    def test_unknown_scheme_prefix_is_404(self, two_fleet_server):
        server, _gateways = two_fleet_server
        status, body = _raw(server.url, "/v1/bogus/v9/reencrypt", b"{}")
        assert status == 404
        assert json.loads(body)["body"]["code"] == "invalid-request"

    def test_cross_scheme_envelope_rejected_on_prefixed_route(
        self, two_fleet_server, group, rng
    ):
        """An afgh grant POSTed to the tipre fleet dies in the codec."""
        server, _gateways = two_fleet_server
        afgh = create_backend("afgh/v1", group)
        afgh.setup(rng)
        afgh.create_party("D", "a", rng)
        afgh.create_party("D", "b", rng)
        key = afgh.rekey("D", "a", "D", "b", "t", rng)
        payload = to_wire(afgh, GrantRequest(tenant="t", proxy_key=key)).encode()
        status, body = _raw(server.url, "/v1/tipre/v1/grant", payload)
        assert status == 400
        assert json.loads(body)["body"]["code"] == "invalid-request"


class TestLegacyCompatibility:
    def test_single_scheme_server_keeps_unprefixed_routes(self):
        """The PR-3-era HTTP surface, byte for byte: a one-scheme server
        answers /v1/grant, /v1/reencrypt, /v1/scheme and /v1/metrics with
        no scheme prefix anywhere."""
        setting = _small_setting("tipre/v1")
        try:
            with GatewayHttpServer(setting.gateway) as server:
                status, body = _raw(server.url, "/v1/scheme")
                assert status == 200
                assert json.loads(body)["scheme"] == "tipre/v1"
                (patient, _type), entries = sorted(setting.pool.items())[0]
                ciphertext, message = entries[0]
                request = ReEncryptRequest(
                    tenant=patient,
                    ciphertext=ciphertext,
                    delegatee_domain=setting.delegatee_domain,
                    delegatee=setting.delegatees[0],
                )
                payload = to_wire(setting.backend, request).encode()
                status, body = _raw(server.url, "/v1/reencrypt", payload)
                assert status == 200
                assert json.loads(body)["type"] == "reencrypt-response"
                status, body = _raw(server.url, "/v1/metrics")
                assert status == 200
        finally:
            setting.gateway.close()

    def test_prefixed_routes_also_work_on_a_single_scheme_server(self):
        setting = _small_setting("tipre/v1")
        try:
            with GatewayHttpServer(setting.gateway) as server:
                status, body = _raw(server.url, "/v1/tipre/v1/scheme")
                assert status == 200
                assert json.loads(body)["scheme"] == "tipre/v1"
        finally:
            setting.gateway.close()

    def test_unprefixed_op_on_multischeme_server_is_ambiguous(self, two_fleet_server):
        server, _gateways = two_fleet_server
        for path, data in (("/v1/reencrypt", b"{}"), ("/v1/metrics", None), ("/v1/scheme", None)):
            status, body = _raw(server.url, path, data)
            assert status == 400, path
            envelope = json.loads(body)
            assert envelope["body"]["code"] == "invalid-request"
            for scheme_id in HOSTED:
                assert scheme_id in envelope["body"]["message"]


class TestNegotiation:
    def test_client_pins_the_prefixed_route_family(self, two_fleet_server, group):
        server, gateways = two_fleet_server
        client = RemoteGateway(server.url, create_backend("afgh/v1", group))
        info = client.scheme_info()
        assert info["scheme"] == "afgh/v1"
        assert client._prefix == "/v1/afgh/v1"
        # The pinned client's metrics are the afgh fleet's, not tipre's.
        assert client.snapshot().requests_total == gateways["afgh/v1"].snapshot().requests_total

    def test_unhosted_scheme_is_a_mismatch_naming_the_hosted(self, two_fleet_server, group):
        server, _gateways = two_fleet_server
        client = RemoteGateway(server.url, create_backend("bbs/v1", group))
        with pytest.raises(SchemeMismatchError) as excinfo:
            client.snapshot()
        for scheme_id in HOSTED:
            assert scheme_id in str(excinfo.value)


class TestServerConstruction:
    def test_duplicate_scheme_fleets_rejected(self, group):
        first = ReEncryptionGateway(create_backend("tipre/v1", group), shard_count=1)
        second = ReEncryptionGateway(create_backend("tipre/v1", group), shard_count=1)
        try:
            with pytest.raises(ValueError, match="already hosted"):
                GatewayHttpServer(gateways=[first, second])
        finally:
            first.close()
            second.close()

    def test_gateway_and_gateways_are_exclusive(self, group):
        gateway = ReEncryptionGateway(create_backend("tipre/v1", group), shard_count=1)
        try:
            with pytest.raises(ValueError, match="not both"):
                GatewayHttpServer(gateway, gateways=[gateway])
            with pytest.raises(ValueError):
                GatewayHttpServer(gateways=[])
            with pytest.raises(ValueError):
                GatewayHttpServer()
        finally:
            gateway.close()


class TestPerSchemeGroups:
    """Regression: multi-scheme hosting must not share one pairing group.

    ``serve --http --scheme A --scheme B`` used to build every fleet on
    the same ``PairingGroup.shared(base)``, silently collapsing the
    schemes' algebra onto one modulus.  Each hosted scheme now gets a
    deterministically derived group of its own.
    """

    def test_derived_groups_have_distinct_moduli(self):
        from repro.pairing.group import PairingGroup

        base = PairingGroup.shared("TOY")
        tipre = PairingGroup.for_scheme("TOY", "tipre/v1")
        afgh = PairingGroup.for_scheme("TOY", "afgh/v1")
        moduli = {base.params.p, tipre.params.p, afgh.params.p}
        assert len(moduli) == 3, "per-scheme groups must not share a modulus"
        orders = {base.params.q, tipre.params.q, afgh.params.q}
        assert len(orders) == 3
        # Same security level as the base, and stable across calls.
        assert tipre.params.q.bit_length() == base.params.q.bit_length()
        assert PairingGroup.for_scheme("TOY", "tipre/v1") is tipre
        assert tipre.params.name == "TOY:tipre/v1"

    def test_schemes_endpoint_reports_the_derived_groups(self):
        from repro.pairing.group import PairingGroup
        from repro.service.driver import resolve_remote_group

        gateways = [
            ReEncryptionGateway(
                create_backend(scheme_id, PairingGroup.for_scheme("TOY", scheme_id)),
                shard_count=1,
            )
            for scheme_id in HOSTED
        ]
        try:
            with GatewayHttpServer(gateways=gateways) as server:
                status, body = _raw(server.url, "/v1/schemes")
                assert status == 200
                by_scheme = {
                    doc["scheme"]: doc["group"]
                    for doc in json.loads(body)["schemes"]
                }
                assert by_scheme == {
                    scheme_id: "TOY:" + scheme_id for scheme_id in HOSTED
                }
                # Clients discover the right group and negotiate cleanly.
                for scheme_id in HOSTED:
                    resolved = resolve_remote_group(server.url, scheme_id, "TOY")
                    assert resolved is PairingGroup.for_scheme("TOY", scheme_id)
                    client = RemoteGateway(
                        server.url, create_backend(scheme_id, resolved)
                    )
                    assert client.scheme_info()["scheme"] == scheme_id
                    client.close()
                # A client on the shared base group is refused up front.
                mismatched = RemoteGateway(
                    server.url,
                    create_backend("tipre/v1", PairingGroup.shared("TOY")),
                )
                with pytest.raises(SchemeMismatchError, match="on TOY"):
                    mismatched.snapshot()
        finally:
            for gateway in gateways:
                gateway.close()


class TestPerSchemeDurableState:
    def test_scheme_state_subdir_is_filesystem_safe(self, tmp_path):
        path = scheme_state_subdir(tmp_path, "green-ateniese/v1")
        assert path == tmp_path / "green-ateniese-v1"

    def test_fleets_persist_and_restart_in_isolated_subdirs(self, tmp_path, group):
        """Grants over the wire land in per-scheme durable logs; fresh
        fleets on the same subdirs recover exactly their own keys."""
        settings = {scheme_id: _small_setting(scheme_id) for scheme_id in HOSTED}
        gateways = [
            ReEncryptionGateway(
                create_backend(scheme_id, group),
                shard_count=2,
                state_dir=scheme_state_subdir(tmp_path, scheme_id),
            )
            for scheme_id in HOSTED
        ]
        granted = {}
        try:
            with GatewayHttpServer(gateways=gateways) as server:
                for scheme_id in HOSTED:
                    client = RemoteGateway(server.url, settings[scheme_id].backend)
                    granted[scheme_id] = _grant_all(settings[scheme_id], client)
        finally:
            for gateway in gateways:
                gateway.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            scheme_id.replace("/", "-") for scheme_id in HOSTED
        )

        # Restart: each scheme's fresh fleet sees exactly its own keys and
        # still serves a working transformation.
        try:
            for scheme_id in HOSTED:
                setting = settings[scheme_id]
                reborn = ReEncryptionGateway(
                    create_backend(scheme_id, group),
                    shard_count=2,
                    state_dir=scheme_state_subdir(tmp_path, scheme_id),
                )
                try:
                    assert reborn.key_count() == granted[scheme_id]
                    (patient, _type), entries = sorted(setting.pool.items())[0]
                    ciphertext, message = entries[0]
                    response = reborn.reencrypt(
                        ReEncryptRequest(
                            tenant=patient,
                            ciphertext=ciphertext,
                            delegatee_domain=setting.delegatee_domain,
                            delegatee=setting.delegatees[0],
                        )
                    )
                    recovered = setting.backend.decrypt_reencrypted(
                        response.ciphertext, setting.delegatee_domain, setting.delegatees[0]
                    )
                    assert recovered == message
                finally:
                    reborn.close()
        finally:
            for setting in settings.values():
                setting.gateway.close()
