"""Tests for the registry's scheme comparison facts and the multi-keypair strawman."""

import pytest

from repro.baselines.multi_keypair import MultiKeypairDelegation
from repro.core.api import REGISTRY, create_backend
from repro.ibe.kgc import KgcRegistry


def _capabilities(scheme_id):
    return REGISTRY.backend_class(scheme_id).capabilities


class TestAdapters:
    """Each registered backend adapts one scheme to the PreBackend API; the
    E2/E4 comparison tables iterate the registry and print these facts."""

    def test_paper_scheme_is_first_and_unique_in_type_granularity(self):
        scheme_ids = REGISTRY.ids()
        assert "this paper" in REGISTRY.backend_class(scheme_ids[0]).display_name
        granular = [s for s in scheme_ids if _capabilities(s).type_granular]
        assert granular == [scheme_ids[0]]

    def test_bbs_flagged_bidirectional_and_interactive(self):
        bbs = _capabilities("bbs/v1")
        assert not bbs.unidirectional
        assert not bbs.non_interactive
        assert not bbs.collusion_safe

    def test_identity_based_flags(self):
        assert _capabilities("green-ateniese/v1").identity_based
        assert not _capabilities("afgh/v1").identity_based

    def test_ciphertext_components_positive(self, group, rng):
        for scheme_id in REGISTRY.ids():
            backend = create_backend(scheme_id, group)
            backend.setup(rng)
            backend.create_party("KGC1", "delegator", rng)
            ciphertext = backend.encrypt(
                "KGC1", "delegator", backend.sample_message(rng), "t", rng
            )
            assert backend.ciphertext_components(ciphertext) >= 2, scheme_id


class TestMultiKeypair:
    @pytest.fixture()
    def setting(self, group, rng):
        registry = KgcRegistry(group, rng)
        kgc1, kgc2 = registry.create("KGC1"), registry.create("KGC2")
        strawman = MultiKeypairDelegation(group=group, kgc=kgc1, base_identity="alice")
        return strawman, kgc1, kgc2

    def test_keys_grow_with_types(self, setting, group, rng):
        strawman, _, _ = setting
        assert strawman.key_count() == 0
        for i in range(5):
            strawman.encrypt(group.random_gt(rng), "type-%d" % i, rng)
        assert strawman.key_count() == 5
        assert strawman.key_storage_bytes() == 5 * group.g1_element_size()

    def test_reusing_a_type_does_not_add_keys(self, setting, group, rng):
        strawman, _, _ = setting
        strawman.encrypt(group.random_gt(rng), "t", rng)
        strawman.encrypt(group.random_gt(rng), "t", rng)
        assert strawman.key_count() == 1

    def test_kgc_sees_one_extract_per_type(self, setting, group, rng):
        strawman, kgc1, _ = setting
        for label in ("a", "b", "c"):
            strawman.encrypt(group.random_gt(rng), label, rng)
        assert kgc1.issued_identities() == ["alice#a", "alice#b", "alice#c"]

    def test_round_trip(self, setting, group, rng):
        strawman, _, _ = setting
        message = group.random_gt(rng)
        ciphertext = strawman.encrypt(message, "t", rng)
        assert strawman.decrypt(ciphertext, "t") == message

    def test_delegation_round_trip(self, setting, group, rng):
        strawman, _, kgc2 = setting
        bob = kgc2.extract("bob")
        message = group.random_gt(rng)
        ciphertext = strawman.encrypt(message, "t", rng)
        rk = strawman.delegate("t", "bob", kgc2.params, rng)
        transformed = strawman.reencrypt(ciphertext, rk)
        assert strawman.decrypt_reencrypted(transformed, bob) == message

    def test_per_type_isolation_via_key_separation(self, setting, group, rng):
        """The strawman does achieve isolation — at linear key cost."""
        strawman, _, kgc2 = setting
        bob = kgc2.extract("bob")
        message = group.random_gt(rng)
        ciphertext_other = strawman.encrypt(message, "t2", rng)
        rk_t1 = strawman.delegate("t1", "bob", kgc2.params, rng)
        with pytest.raises(ValueError):
            strawman.reencrypt(ciphertext_other, rk_t1)

    def test_type_identity_format(self, setting):
        strawman, _, _ = setting
        assert strawman.type_identity("labs") == "alice#labs"
