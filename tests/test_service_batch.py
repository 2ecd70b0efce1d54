"""Tests for delegation-grouped request batching."""

import pytest

from repro.service.batch import BatchItemError, ReEncryptBatcher


class FakeCiphertext:
    """Just the header fields the batcher reads (no pairing work needed)."""

    def __init__(self, domain, identity, type_label, payload):
        self.domain = domain
        self.identity = identity
        self.type_label = type_label
        self.payload = payload


def _item(identity, delegatee, type_label, payload=0):
    return (FakeCiphertext("KGC1", identity, type_label, payload), "KGC2", delegatee)


class TestGrouping:
    def test_same_delegation_shares_a_group(self):
        items = [
            _item("alice", "bob", "labs", 1),
            _item("alice", "bob", "labs", 2),
            _item("alice", "carol", "labs", 3),
        ]
        groups = ReEncryptBatcher.group(items)
        assert len(groups) == 2
        assert groups[0].group_key == ("KGC1", "alice", "KGC2", "bob", "labs")
        assert groups[0].positions == (0, 1)
        assert groups[1].positions == (2,)

    def test_type_splits_groups(self):
        items = [_item("alice", "bob", "labs"), _item("alice", "bob", "meds")]
        assert len(ReEncryptBatcher.group(items)) == 2

    def test_groups_in_first_appearance_order(self):
        items = [
            _item("alice", "bob", "labs"),
            _item("zoe", "bob", "labs"),
            _item("alice", "bob", "labs"),
        ]
        groups = ReEncryptBatcher.group(items)
        assert [g.group_key[1] for g in groups] == ["alice", "zoe"]

    def test_empty_batch_groups_empty(self):
        assert ReEncryptBatcher.group([]) == []


class TestExecution:
    """``resolve_all``: the key check the gateway runs before any group."""

    def test_one_key_resolution_per_group(self):
        items = [
            _item("alice", "bob", "labs", 1),
            _item("alice", "bob", "labs", 2),
            _item("alice", "bob", "labs", 3),
            _item("alice", "carol", "labs", 4),
        ]
        resolutions = []

        def resolve(group_key):
            resolutions.append(group_key)
            return "key-for-%s" % group_key[3]

        keys = ReEncryptBatcher.resolve_all(ReEncryptBatcher.group(items), resolve)
        assert len(resolutions) == 2  # not 4: lookups amortized per delegation
        assert keys == {
            ("KGC1", "alice", "KGC2", "bob", "labs"): "key-for-bob",
            ("KGC1", "alice", "KGC2", "carol", "labs"): "key-for-carol",
        }

    def test_resolve_failure_names_first_position(self):
        items = [
            _item("alice", "bob", "labs", 0),
            _item("alice", "carol", "labs", 1),
            _item("alice", "carol", "labs", 2),
        ]

        def resolve(group_key):
            if group_key[3] == "carol":
                raise KeyError("no key")
            return "k"

        with pytest.raises(BatchItemError) as excinfo:
            ReEncryptBatcher.resolve_all(ReEncryptBatcher.group(items), resolve)
        assert excinfo.value.position == 1
        assert isinstance(excinfo.value.cause, KeyError)

    def test_resolution_stops_at_the_first_failing_group(self):
        items = [
            _item("alice", "bob", "labs", 0),
            _item("alice", "carol", "labs", 1),
            _item("alice", "dave", "labs", 2),
        ]
        resolutions = []

        def resolve(group_key):
            resolutions.append(group_key[3])
            if group_key[3] == "carol":
                raise KeyError("no key")
            return "k"

        with pytest.raises(BatchItemError):
            ReEncryptBatcher.resolve_all(ReEncryptBatcher.group(items), resolve)
        assert resolutions == ["bob", "carol"]  # dave's group is never looked up
