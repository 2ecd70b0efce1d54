"""Tests for the durable file-backed PHR store."""

import pytest

from repro.math.drbg import HmacDrbg
from repro.phr.generator import PhrGenerator
from repro.phr.store import (
    EntryNotFoundError,
    FilePhrStore,
    StoreIndexError,
    StoreSchemeMismatchError,
)


@pytest.fixture()
def store(tmp_path):
    return FilePhrStore(tmp_path / "store")


class TestBasicOperations:
    def test_put_get(self, store):
        store.put("alice", "labs", "e1", b"ciphertext")
        record = store.get("alice", "e1")
        assert record.blob == b"ciphertext"
        assert record.category == "labs"
        assert record.patient == "alice"

    def test_missing(self, store):
        with pytest.raises(EntryNotFoundError):
            store.get("alice", "nope")

    def test_bytes_only(self, store):
        with pytest.raises(TypeError):
            store.put("alice", "labs", "e1", "text")

    def test_overwrite(self, store):
        store.put("alice", "labs", "e1", b"v1")
        store.put("alice", "labs", "e1", b"v2")
        assert store.get("alice", "e1").blob == b"v2"
        assert store.record_count() == 1

    def test_delete(self, store):
        store.put("alice", "labs", "e1", b"x")
        assert store.delete("alice", "e1")
        assert not store.delete("alice", "e1")
        with pytest.raises(EntryNotFoundError):
            store.get("alice", "e1")

    def test_filters_and_accounting(self, store):
        store.put("alice", "labs", "e1", b"aaaa")
        store.put("alice", "vitals", "e2", b"bb")
        store.put("bob", "labs", "e3", b"c")
        assert [r.entry_id for r in store.entries_for("alice")] == ["e1", "e2"]
        assert [r.entry_id for r in store.entries_for("alice", "labs")] == ["e1"]
        assert store.patients() == ["alice", "bob"]
        assert store.record_count() == 3
        assert store.size_bytes() == 7

    def test_pipe_in_patient_rejected(self, store):
        with pytest.raises(ValueError):
            store.put("a|b", "labs", "e1", b"x")

    def test_path_traversal_neutralised(self, store, tmp_path):
        store.put("alice", "labs", "../escape", b"x")
        # The blob must stay inside the store root.
        stray = tmp_path / "escape.bin"
        assert not stray.exists()
        assert store.get("alice", "../escape").blob == b"x"


class TestDurability:
    def test_reopen_preserves_records(self, tmp_path):
        first = FilePhrStore(tmp_path / "store")
        first.put("alice", "labs", "e1", b"persisted")
        second = FilePhrStore(tmp_path / "store")
        assert second.get("alice", "e1").blob == b"persisted"
        assert second.record_count() == 1

    def test_reopen_after_delete(self, tmp_path):
        first = FilePhrStore(tmp_path / "store")
        first.put("alice", "labs", "e1", b"x")
        first.delete("alice", "e1")
        second = FilePhrStore(tmp_path / "store")
        assert second.record_count() == 0


class TestProxyIntegration:
    def test_category_proxy_over_file_store(self, tmp_path, pre_setting, group, rng):
        """A CategoryProxy backed by the durable store serves requests."""
        from repro.phr.actors import CategoryProxy, Patient, Requester

        scheme, kgc1, kgc2, alice_key, bob_key = pre_setting
        alice = Patient(
            name="alice", params=kgc1.params, private_key=alice_key, group=group, rng=rng
        )
        bob = Requester(
            name="bob", role="doctor", params=kgc2.params, private_key=bob_key, group=group
        )
        proxy = CategoryProxy(
            category="lab-results",
            group=group,
            scheme=scheme,
            store=FilePhrStore(tmp_path / "labs"),
        )
        entry = PhrGenerator(HmacDrbg("file-store"), "alice").entry_for("lab-results")
        proxy.accept_record("alice", entry.entry_id, alice.encrypt_entry(entry))
        proxy.install_grant(alice.make_grant(bob, "lab-results"))

        served = proxy.serve("alice", entry.entry_id, "KGC2", "bob")
        assert bob.read_entry(served) == entry

        # The durable copy survives a "restart" of the proxy.
        reopened = CategoryProxy(
            category="lab-results",
            group=group,
            scheme=scheme,
            store=FilePhrStore(tmp_path / "labs"),
        )
        reopened.install_grant(alice.make_grant(bob, "lab-results"))
        assert bob.read_entry(
            reopened.serve("alice", entry.entry_id, "KGC2", "bob")
        ) == entry


class TestIndexV2:
    def test_v1_flat_index_migrates_on_open(self, tmp_path):
        """A pre-sizes index (flat key->category map) upgrades in place."""
        import json

        root = tmp_path / "store"
        blob_dir = root / "blobs" / "alice"
        blob_dir.mkdir(parents=True)
        (blob_dir / "e1.bin").write_bytes(b"four")
        (blob_dir / "e2.bin").write_bytes(b"sixsix")
        (root / "index.json").write_text(
            json.dumps({"alice|e1": "labs", "alice|e2": "meds"})
        )

        store = FilePhrStore(root)
        assert store.record_count() == 2
        assert store.size_bytes() == 10
        assert store.get("alice", "e1").category == "labs"
        # The on-disk index is rewritten in the versioned format.
        upgraded = json.loads((root / "index.json").read_text())
        assert upgraded["version"] == FilePhrStore.INDEX_VERSION
        assert upgraded["entries"]["alice|e2"] == {"category": "meds", "size": 6}

    def test_size_bytes_needs_no_filesystem(self, tmp_path):
        """Sizes come from the index: accounting survives blob deletion."""
        store = FilePhrStore(tmp_path / "store")
        store.put("alice", "labs", "e1", b"12345")
        (tmp_path / "store" / "blobs" / "alice" / "e1.bin").unlink()
        assert store.size_bytes() == 5

    def test_headers_do_not_read_blobs(self, tmp_path):
        store = FilePhrStore(tmp_path / "store")
        store.put("alice", "labs", "e1", b"aaa")
        store.put("alice", "meds", "e2", b"bb")
        (tmp_path / "store" / "blobs" / "alice" / "e1.bin").unlink()  # prove no read
        assert store.headers_for("alice") == [("e1", "labs", 3), ("e2", "meds", 2)]
        assert store.headers_for("alice", "meds") == [("e2", "meds", 2)]

    def test_v2_round_trips_across_reopen(self, tmp_path):
        first = FilePhrStore(tmp_path / "store")
        first.put("alice", "labs", "e1", b"xyz")
        second = FilePhrStore(tmp_path / "store")
        assert second.size_bytes() == 3
        assert second.entries_for("alice")[0].blob == b"xyz"


class TestSchemeSealing:
    def test_stamp_round_trips(self, tmp_path):
        """A declared scheme is written to disk and accepted on reopen."""
        import json

        first = FilePhrStore(tmp_path / "store", scheme_id="tipre/v1")
        first.put("alice", "labs", "e1", b"x")
        header = json.loads((tmp_path / "store" / "index.json").read_text())
        assert header["version"] == FilePhrStore.INDEX_VERSION
        assert header["scheme"] == "tipre/v1"
        second = FilePhrStore(tmp_path / "store", scheme_id="tipre/v1")
        assert second.get("alice", "e1").blob == b"x"

    def test_cross_scheme_open_raises(self, tmp_path):
        first = FilePhrStore(tmp_path / "store", scheme_id="tipre/v1")
        first.put("alice", "labs", "e1", b"x")
        with pytest.raises(StoreSchemeMismatchError, match="tipre/v1"):
            FilePhrStore(tmp_path / "store", scheme_id="green/ateniese-fo")

    def test_undeclared_opener_adopts_stored_scheme(self, tmp_path):
        first = FilePhrStore(tmp_path / "store", scheme_id="tipre/v1")
        first.put("alice", "labs", "e1", b"x")
        second = FilePhrStore(tmp_path / "store")
        assert second.scheme_id == "tipre/v1"
        assert second.get("alice", "e1").blob == b"x"

    def test_unsealed_store_sealed_by_declared_opener(self, tmp_path):
        """An unsealed (scheme=None) store is stamped in place on open."""
        import json

        FilePhrStore(tmp_path / "store").put("alice", "labs", "e1", b"x")
        sealer = FilePhrStore(tmp_path / "store", scheme_id="tipre/v1")
        assert sealer.scheme_id == "tipre/v1"
        header = json.loads((tmp_path / "store" / "index.json").read_text())
        assert header["scheme"] == "tipre/v1"
        # From now on the wrong scheme is rejected.
        with pytest.raises(StoreSchemeMismatchError):
            FilePhrStore(tmp_path / "store", scheme_id="green/ateniese-fo")

    def test_v2_index_migrates_in_place(self, tmp_path):
        """A pre-sealing v2 index upgrades to v3, adopting the opener."""
        import json

        root = tmp_path / "store"
        blob_dir = root / "blobs" / "alice"
        blob_dir.mkdir(parents=True)
        (blob_dir / "e1.bin").write_bytes(b"four")
        (root / "index.json").write_text(
            json.dumps(
                {"version": 2, "entries": {"alice|e1": {"category": "labs", "size": 4}}}
            )
        )

        store = FilePhrStore(root, scheme_id="tipre/v1")
        assert store.get("alice", "e1").blob == b"four"
        upgraded = json.loads((root / "index.json").read_text())
        assert upgraded["version"] == FilePhrStore.INDEX_VERSION
        assert upgraded["scheme"] == "tipre/v1"
        assert upgraded["entries"]["alice|e1"] == {"category": "labs", "size": 4}


class TestUnreadableIndex:
    """An index the store cannot read refuses to open, names the file and
    the reason, and is left byte for byte."""

    @pytest.mark.parametrize(
        ("index", "reason"),
        [
            pytest.param(
                b'{"version": 4, "scheme": null, "entries": {}}',
                "version 4 is not 2 or 3",
                id="unknown-version",
            ),
            pytest.param(
                b'{"version": 1, "alice|e1": "labs"}',
                r"version 1 is not 2 or 3 \(a version-1 index has no version key\)",
                id="version-key-1",
            ),
            pytest.param(b'["alice|e1"]', "JSON list, not an object", id="json-list"),
            pytest.param(
                b'{"version": 3, "scheme": null, "entries": {"alice|e1": {"cat',
                "not JSON",
                id="torn-json",
            ),
            pytest.param(
                b'{"version": 3, "scheme": "tipre/v1"}',
                'no "entries" object',
                id="v3-without-entries",
            ),
            pytest.param(
                b'{"alice|e1": "labs"}',
                "entry 'alice|e1' names a missing blob",
                id="v1-missing-blob",
            ),
        ],
    )
    def test_refuses_and_leaves_the_index_as_it_is(self, tmp_path, index, reason):
        root = tmp_path / "store"
        root.mkdir()
        index_path = root / "index.json"
        index_path.write_bytes(index)
        with pytest.raises(StoreIndexError, match=reason) as refused:
            FilePhrStore(root)
        assert str(index_path) in str(refused.value)
        assert isinstance(refused.value, ValueError)
        assert index_path.read_bytes() == index
        # Not even the blob directory is created.
        assert [path.name for path in root.iterdir()] == ["index.json"]
