"""Tests for the scheme-agnostic backend API (:mod:`repro.core.api`).

The seams the gateway redesign introduced: the registry (stable ids,
duplicate/unknown rejection), the full lifecycle and the envelope codec
round trips for *every* registered backend, cross-scheme envelope
rejection, capability flags, and the durable log's scheme stamp.
"""

from __future__ import annotations

import pytest

from repro.core.api import (
    CAPABILITY_NAMES,
    PROPERTY_NAMES,
    REGISTRY,
    TIPRE_SCHEME_ID,
    DuplicateSchemeError,
    PreBackend,
    SchemeCapabilities,
    SchemeRegistry,
    UnknownSchemeError,
    available_schemes,
    create_backend,
    resolve_backend,
)
from repro.core.scheme import DelegationError, TypeAndIdentityPre
from repro.core.tipre_backend import TipreBackend
from repro.serialization.encoding import EncodingError
from repro.service.persistence import DurableProxyKeyTable, LogFormatError

DELEGATOR_DOMAIN = "KGC1"
DELEGATEE_DOMAIN = "KGC2"


def _ready_backend(scheme_id, group, rng):
    """A backend with two parties, ready to encrypt/rekey."""
    backend = create_backend(scheme_id, group)
    backend.setup(rng)
    delegatee_domain = DELEGATOR_DOMAIN if backend.single_authority else DELEGATEE_DOMAIN
    backend.create_party(DELEGATOR_DOMAIN, "alice", rng)
    backend.create_party(delegatee_domain, "bob", rng)
    return backend, delegatee_domain


class TestRegistry:
    def test_builtins_registered_with_stable_ids(self):
        ids = available_schemes()
        for expected in (
            "tipre/v1",
            "afgh/v1",
            "green-ateniese/v1",
            "bbs/v1",
            "matsuo/v1",
            "dodis-ivan/v1",
        ):
            assert expected in ids
        assert ids[0] == TIPRE_SCHEME_ID, "the paper's scheme leads the listing"

    def test_create_returns_backend_with_matching_id(self, group):
        for scheme_id in available_schemes():
            backend = create_backend(scheme_id, group)
            assert isinstance(backend, PreBackend)
            assert backend.scheme_id == scheme_id
            assert backend.group is group

    def test_unknown_scheme_id_rejected(self, group):
        with pytest.raises(UnknownSchemeError, match="unknown scheme id"):
            create_backend("quantum/v9", group)

    def test_duplicate_registration_rejected(self):
        registry = SchemeRegistry()
        registry.register(TipreBackend)

        class Impostor(TipreBackend):
            pass

        Impostor.scheme_id = TIPRE_SCHEME_ID
        with pytest.raises(DuplicateSchemeError):
            registry.register(Impostor)
        # Same class twice is a no-op, and replace=True is an override.
        registry.register(TipreBackend)
        registry.register(Impostor, replace=True)
        assert registry.backend_class(TIPRE_SCHEME_ID) is Impostor

    def test_builtin_table_names_what_the_modules_register(self):
        """available_schemes() imports no backend module, so the global
        registry's built-in table must list exactly the ids they register."""
        for scheme_id in REGISTRY.ids():
            REGISTRY.backend_class(scheme_id)
        assert sorted(REGISTRY._backends) == sorted(REGISTRY._builtins)

    def test_global_registry_contains_and_iterates(self):
        assert TIPRE_SCHEME_ID in REGISTRY
        assert list(REGISTRY) == REGISTRY.ids()

    def test_capability_flags_complete_and_boolean(self):
        for scheme_id in available_schemes():
            flags = REGISTRY.backend_class(scheme_id).capabilities.as_dict()
            assert set(flags) == set(CAPABILITY_NAMES), scheme_id
            assert all(isinstance(v, bool) for v in flags.values())

    def test_capabilities_round_trip_through_dict(self):
        caps = TipreBackend.capabilities
        assert SchemeCapabilities.from_dict(caps.as_dict()) == caps
        assert set(caps.properties()) == set(PROPERTY_NAMES)
        with pytest.raises(ValueError, match="missing capability flags"):
            SchemeCapabilities.from_dict({"unidirectional": True})

    def test_only_the_paper_scheme_is_type_granular(self):
        granular = [
            scheme_id
            for scheme_id in available_schemes()
            if REGISTRY.backend_class(scheme_id).capabilities.type_granular
        ]
        assert granular == [TIPRE_SCHEME_ID]


class TestResolveBackend:
    def test_backend_passes_through(self, group):
        backend = create_backend("afgh/v1", group)
        assert resolve_backend(backend) is backend

    def test_raw_scheme_wraps_sharing_the_instance(self, group):
        scheme = TypeAndIdentityPre(group)
        backend = resolve_backend(scheme)
        assert isinstance(backend, TipreBackend)
        assert backend.scheme is scheme

    def test_bare_group_selects_tipre(self, group):
        assert resolve_backend(group).scheme_id == TIPRE_SCHEME_ID

    def test_anything_else_is_a_type_error(self):
        with pytest.raises(TypeError):
            resolve_backend("tipre/v1")


class TestEveryBackendLifecycle:
    @pytest.mark.parametrize("scheme_id", [
        "tipre/v1", "afgh/v1", "bbs/v1", "dodis-ivan/v1", "green-ateniese/v1", "matsuo/v1",
    ])
    def test_full_lifecycle_and_envelope_round_trips(self, group, rng, scheme_id):
        backend, delegatee_domain = _ready_backend(scheme_id, group, rng)
        message = backend.sample_message(rng)
        ciphertext = backend.encrypt(DELEGATOR_DOMAIN, "alice", message, "labs", rng)
        assert backend.decrypt_original(ciphertext, DELEGATOR_DOMAIN, "alice") == message
        key = backend.rekey(
            DELEGATOR_DOMAIN, "alice", delegatee_domain, "bob", "labs", rng
        )
        transformed = backend.reencrypt(ciphertext, key)
        assert backend.decrypt_reencrypted(transformed, delegatee_domain, "bob") == message
        assert backend.ciphertext_components(ciphertext) >= 2

        # Scheme-tagged envelope codec: serialize -> deserialize is exact.
        assert backend.deserialize_ciphertext(backend.serialize_ciphertext(ciphertext)) == ciphertext
        assert backend.deserialize_proxy_key(backend.serialize_proxy_key(key)) == key
        assert (
            backend.deserialize_reencrypted(backend.serialize_reencrypted(transformed))
            == transformed
        )
        # Envelopes must be usable as cache keys.
        hash(ciphertext)
        hash(key)

    @pytest.mark.parametrize("scheme_id", [
        "afgh/v1", "bbs/v1", "dodis-ivan/v1", "green-ateniese/v1", "matsuo/v1",
    ])
    def test_mismatched_delegation_metadata_refused(self, group, rng, scheme_id):
        """The wrapper guard scopes a key to its delegation triple."""
        backend, delegatee_domain = _ready_backend(scheme_id, group, rng)
        message = backend.sample_message(rng)
        other = backend.encrypt(DELEGATOR_DOMAIN, "alice", message, "other-type", rng)
        key = backend.rekey(DELEGATOR_DOMAIN, "alice", delegatee_domain, "bob", "labs", rng)
        with pytest.raises(DelegationError):
            backend.reencrypt(other, key)

    def test_cross_scheme_envelope_rejected(self, group, rng):
        """Bytes serialized under one scheme id refuse to open under another."""
        afgh, _ = _ready_backend("afgh/v1", group, rng)
        bbs, _ = _ready_backend("bbs/v1", group, rng)
        ciphertext = afgh.encrypt(DELEGATOR_DOMAIN, "alice", afgh.sample_message(rng), "t", rng)
        blob = afgh.serialize_ciphertext(ciphertext)
        with pytest.raises(EncodingError, match="scheme"):
            bbs.deserialize_ciphertext(blob)

    def test_tipre_envelope_bytes_are_the_canonical_containers(self, group, rng):
        """tipre/v1 keeps byte compatibility with pre-API serialization."""
        from repro.serialization.containers import serialize_typed_ciphertext

        backend, _ = _ready_backend("tipre/v1", group, rng)
        ciphertext = backend.encrypt(DELEGATOR_DOMAIN, "alice", backend.sample_message(rng), "t", rng)
        assert backend.serialize_ciphertext(ciphertext) == serialize_typed_ciphertext(
            group, ciphertext
        )


class TestDurableLogSchemeStamp:
    @pytest.mark.parametrize("writer_id,reader_id", [
        ("tipre/v1", "green-ateniese/v1"),
        ("afgh/v1", "tipre/v1"),
        ("green-ateniese/v1", "afgh/v1"),
    ])
    def test_log_written_under_one_scheme_refuses_another(
        self, group, rng, tmp_path, writer_id, reader_id
    ):
        backend, delegatee_domain = _ready_backend(writer_id, group, rng)
        path = tmp_path / "shard.log"
        table = DurableProxyKeyTable(path, backend)
        table.install(
            backend.rekey(DELEGATOR_DOMAIN, "alice", delegatee_domain, "bob", "labs", rng)
        )
        table.close()
        reader = create_backend(reader_id, group)
        with pytest.raises(LogFormatError, match="scheme"):
            DurableProxyKeyTable(path, reader)

    def test_log_reopens_under_the_same_scheme(self, group, rng, tmp_path):
        backend, delegatee_domain = _ready_backend("afgh/v1", group, rng)
        path = tmp_path / "shard.log"
        table = DurableProxyKeyTable(path, backend)
        key = backend.rekey(DELEGATOR_DOMAIN, "alice", delegatee_domain, "bob", "labs", rng)
        table.install(key)
        table.close()
        reopened = DurableProxyKeyTable(path, create_backend("afgh/v1", group))
        assert list(reopened) == [key]
        reopened.close()

    def test_legacy_header_without_scheme_field_is_tipre(self, group, rng, tmp_path):
        """Logs from before the backend API opened as the paper's scheme."""
        import json

        backend, _ = _ready_backend("tipre/v1", group, rng)
        path = tmp_path / "legacy.log"
        table = DurableProxyKeyTable(path, backend)
        table.install(backend.rekey(DELEGATOR_DOMAIN, "alice", DELEGATEE_DOMAIN, "bob", "t", rng))
        table.close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["scheme"]
        path.write_text("\n".join([json.dumps(header, sort_keys=True)] + lines[1:]) + "\n")
        reopened = DurableProxyKeyTable(path, group)  # bare group = tipre
        assert len(reopened) == 1
        reopened.close()
        with pytest.raises(LogFormatError, match="scheme"):
            DurableProxyKeyTable(path, create_backend("bbs/v1", group))
