"""Live fleet resizing: zero lost delegations, nothing written.

The contract under test: after ``resize(m)`` every delegation installed
before it still re-encrypts (and decrypts to the original plaintext),
the reported key moves equal the routers' ownership diff exactly, and
with a state dir the one key log survives a restart under any shard
count, byte for byte.  A state dir in the older per-shard layout
(``tests/data/legacy_state/``, recorded by
``tools/record_legacy_state.py``) folds into that one log.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.proxy import ProxyKeyTable, ProxyService
from repro.core.scheme import TypeAndIdentityPre
from repro.ibe.kgc import KgcRegistry
from repro.math.drbg import HmacDrbg
from repro.service.driver import build_setting
from repro.service.gateway import (
    DelegationNotFoundError,
    GrantRequest,
    InvalidRequestError,
    ReEncryptionGateway,
    ReEncryptRequest,
)
from repro.service.persistence import KEY_LOG, DurableProxyKeyTable, open_key_log
from repro.service.router import ShardRouter

LEGACY_STATE = Path(__file__).parent / "data" / "legacy_state"

PATIENTS = ("pat-a", "pat-b", "pat-c")
DELEGATEES = ("bob", "dave")
TYPES = ("labs", "meds")


@pytest.fixture(scope="module")
def universe(group):
    """12 proxy keys plus one (ciphertext, plaintext) pair per route key."""
    rng = HmacDrbg("rebalance-universe")
    registry = KgcRegistry(group, rng)
    kgc1 = registry.create("KGC1")
    kgc2 = registry.create("KGC2")
    scheme = TypeAndIdentityPre(group)
    proxy_keys = []
    ciphertexts = {}  # (patient, type) -> (ciphertext, message)
    for patient in PATIENTS:
        patient_key = kgc1.extract(patient)
        for type_label in TYPES:
            message = group.random_gt(rng)
            ciphertexts[(patient, type_label)] = (
                scheme.encrypt(kgc1.params, patient_key, message, type_label, rng),
                message,
            )
            for delegatee in DELEGATEES:
                proxy_keys.append(
                    scheme.pextract(patient_key, delegatee, type_label, kgc2.params, rng)
                )
    delegatee_keys = {name: kgc2.extract(name) for name in DELEGATEES}
    return scheme, proxy_keys, ciphertexts, delegatee_keys


def _granted_gateway(scheme, proxy_keys, shard_count, **kwargs):
    gateway = ReEncryptionGateway(scheme, shard_count=shard_count, **kwargs)
    for key in proxy_keys:
        gateway.grant(GrantRequest(tenant=key.delegator, proxy_key=key))
    return gateway


def _expected_moves(proxy_keys, old_count, new_count):
    """Keys whose route triple changes owner between the two fleets."""
    old = ShardRouter(["shard-%02d" % i for i in range(old_count)])
    new = ShardRouter(["shard-%02d" % i for i in range(new_count)])
    diff = old.ownership_diff(
        new, {(k.delegator_domain, k.delegator, k.type_label) for k in proxy_keys}
    )
    return sum(
        1
        for key in proxy_keys
        if (key.delegator_domain, key.delegator, key.type_label) in diff
    )


def _installed_indices(gateway):
    return [ProxyKeyTable.index_of(key) for key in gateway.list_keys()]


def _dir_bytes(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestResizeCorrectness:
    @pytest.mark.parametrize("old_count,new_count", [(1, 4), (4, 2), (3, 5)])
    def test_every_delegation_survives_and_decrypts(self, universe, old_count, new_count):
        scheme, proxy_keys, ciphertexts, delegatee_keys = universe
        gateway = _granted_gateway(scheme, proxy_keys, old_count)
        report = gateway.resize(new_count)
        assert report.new_shard_count == new_count
        assert gateway.key_count() == len(proxy_keys)
        assert len(gateway.shard_names) == new_count
        for (patient, type_label), (ciphertext, message) in ciphertexts.items():
            for delegatee in DELEGATEES:
                response = gateway.reencrypt(
                    ReEncryptRequest(
                        tenant=patient,
                        ciphertext=ciphertext,
                        delegatee_domain="KGC2",
                        delegatee=delegatee,
                    )
                )
                recovered = scheme.decrypt_reencrypted(
                    response.ciphertext, delegatee_keys[delegatee]
                )
                assert recovered == message

    @pytest.mark.parametrize("old_count,new_count", [(2, 6), (5, 3), (4, 4)])
    def test_migrated_count_matches_ownership_diff(self, universe, old_count, new_count):
        scheme, proxy_keys, _, _ = universe
        gateway = _granted_gateway(scheme, proxy_keys, old_count)
        report = gateway.resize(new_count)
        assert report.keys_moved == _expected_moves(proxy_keys, old_count, new_count)

    @settings(max_examples=15, deadline=None)
    @given(
        old_count=st.integers(min_value=1, max_value=6),
        new_count=st.integers(min_value=1, max_value=6),
    )
    def test_random_fleet_sizes_keep_every_key_exactly_once(
        self, universe, old_count, new_count
    ):
        scheme, proxy_keys, _, _ = universe
        gateway = _granted_gateway(scheme, proxy_keys, old_count)
        report = gateway.resize(new_count)
        indices = _installed_indices(gateway)
        # No key lost, no key duplicated, migration count matches the plan.
        assert len(indices) == len(proxy_keys)
        assert set(indices) == {ProxyKeyTable.index_of(key) for key in proxy_keys}
        assert report.keys_moved == _expected_moves(proxy_keys, old_count, new_count)

    def test_resize_to_invalid_count_is_typed(self, universe):
        scheme, proxy_keys, _, _ = universe
        gateway = _granted_gateway(scheme, proxy_keys, 2)
        with pytest.raises(InvalidRequestError):
            gateway.resize(0)


class TestResizeObservability:
    def test_resize_emits_metrics_and_audit(self, universe):
        scheme, proxy_keys, _, _ = universe
        gateway = _granted_gateway(scheme, proxy_keys, 2)
        report = gateway.resize(5)
        snapshot = gateway.snapshot()
        assert snapshot.resizes == 1
        assert snapshot.keys_migrated == report.keys_moved
        resize_events = [event for event in gateway.audit if event.action == "resize"]
        assert len(resize_events) == 1
        assert resize_events[0].outcome == "ok"
        assert "moved=%d" % report.keys_moved in resize_events[0].detail
        # The resize itself is a served, latency-sampled operation.
        assert snapshot.latency["resize"].count == 1

    def test_resize_report_names_fleet_changes(self, universe):
        scheme, proxy_keys, _, _ = universe
        gateway = _granted_gateway(scheme, proxy_keys, 3)
        grown = gateway.resize(5)
        assert grown.shards_added == ("shard-03", "shard-04")
        assert grown.shards_removed == ()
        shrunk = gateway.resize(2)
        assert shrunk.shards_added == ()
        assert shrunk.shards_removed == ("shard-02", "shard-03", "shard-04")


class TestResizeDurability:
    def test_resized_layout_survives_restart(self, universe, tmp_path):
        scheme, proxy_keys, ciphertexts, delegatee_keys = universe
        state_dir = tmp_path / "state"
        gateway = _granted_gateway(scheme, proxy_keys, 4, state_dir=state_dir)
        written = _dir_bytes(state_dir)
        gateway.resize(2)
        gateway.close()
        # One key log, and the resize wrote nothing to it.
        assert list(written) == ["keys.log"]
        assert _dir_bytes(state_dir) == written

        reloaded = ReEncryptionGateway(scheme, shard_count=2, state_dir=state_dir)
        assert reloaded.key_count() == len(proxy_keys)
        (patient, type_label), (ciphertext, message) = next(iter(ciphertexts.items()))
        response = reloaded.reencrypt(
            ReEncryptRequest(
                tenant=patient,
                ciphertext=ciphertext,
                delegatee_domain="KGC2",
                delegatee=DELEGATEES[0],
            )
        )
        assert (
            scheme.decrypt_reencrypted(response.ciphertext, delegatee_keys[DELEGATEES[0]])
            == message
        )
        reloaded.close()

    def test_restart_under_a_different_fleet_size_rehomes_keys(self, universe, tmp_path):
        """Opening a 4-shard state dir with 2 shards serves every key."""
        scheme, proxy_keys, _, _ = universe
        state_dir = tmp_path / "state"
        gateway = _granted_gateway(scheme, proxy_keys, 4, state_dir=state_dir)
        gateway.close()
        written = _dir_bytes(state_dir)

        reloaded = ReEncryptionGateway(scheme, shard_count=2, state_dir=state_dir)
        assert reloaded.key_count() == len(proxy_keys)
        indices = _installed_indices(reloaded)
        assert set(indices) == {ProxyKeyTable.index_of(key) for key in proxy_keys}
        assert len(indices) == len(proxy_keys)
        # The reopen under another shard count wrote nothing.
        assert _dir_bytes(state_dir) == written
        reloaded.close()


class TestOneKeyTable:
    def test_every_shard_shares_the_gateway_table(self, universe):
        scheme, proxy_keys, _, _ = universe
        tables = []

        def factory(name, table):
            tables.append(table)
            return ProxyService(scheme, name=name, table=table)

        gateway = ReEncryptionGateway(scheme, shard_count=3, shard_factory=factory)
        for key in proxy_keys:
            gateway.grant(GrantRequest(tenant=key.delegator, proxy_key=key))
        gateway.resize(5)
        shared = gateway.shard_named("shard-00").table
        assert len(tables) == 5 and all(table is shared for table in tables)
        assert all(gateway.shard_named(name).table is shared for name in gateway.shard_names)
        assert len(shared) == gateway.key_count() == len(proxy_keys)
        assert sum(gateway.shard_key_counts().values()) == len(proxy_keys)

    @pytest.mark.parametrize("reopen_count", [1, 3, 6])
    def test_resizes_and_reopens_leave_the_state_dir_byte_identical(
        self, universe, tmp_path, reopen_count
    ):
        scheme, proxy_keys, _, _ = universe
        state_dir = tmp_path / "state"
        gateway = _granted_gateway(scheme, proxy_keys, 4, state_dir=state_dir)
        written = _dir_bytes(state_dir)
        for shard_count in (1, 6, 2, 5):
            gateway.resize(shard_count)
            assert _dir_bytes(state_dir) == written
        gateway.close()
        reloaded = ReEncryptionGateway(scheme, shard_count=reopen_count, state_dir=state_dir)
        assert reloaded.key_count() == len(proxy_keys)
        reloaded.close()
        assert _dir_bytes(state_dir) == written

    def test_a_foreign_log_in_the_state_dir_is_never_opened(self, universe, tmp_path):
        from repro.cli import _state_dirs_for

        scheme, proxy_keys, _, _ = universe
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        events = state_dir / "events.log"
        events.write_text('{"kind": "audit"}\n')
        assert _state_dirs_for(state_dir, ["tipre/v1"]) == [state_dir]
        assert _state_dirs_for(state_dir, ["tipre/v1", "afgh/v1"]) == [
            state_dir / "tipre-v1",
            state_dir / "afgh-v1",
        ]
        gateway = _granted_gateway(scheme, proxy_keys, 2, state_dir=state_dir)
        gateway.close()
        reloaded = ReEncryptionGateway(scheme, shard_count=3, state_dir=state_dir)
        assert reloaded.key_count() == len(proxy_keys)
        reloaded.close()
        assert sorted(_dir_bytes(state_dir)) == ["events.log", "keys.log"]
        assert events.read_text() == '{"kind": "audit"}\n'


@pytest.fixture(scope="module")
def legacy():
    """The recorded per-shard state dir and the universe that wrote it."""
    expected = json.loads((LEGACY_STATE / "expected.json").read_text())
    setting = build_setting(
        group_name=expected["group"], shard_count=1, seed=expected["seed"]
    )
    setting.gateway.close()
    return expected, setting


def _copy_legacy_logs(state_dir):
    state_dir.mkdir(exist_ok=True)
    names = sorted(path.name for path in LEGACY_STATE.glob("shard-*.log"))
    assert names == ["shard-%02d.log" % i for i in range(4)]
    for name in names:
        shutil.copyfile(LEGACY_STATE / name, state_dir / name)


def _assert_serves_exactly(gateway, expected, setting):
    """The key set is the recorded one, and every delegation decrypts."""
    keys = {tuple(index) for index in expected["keys"]}
    assert set(_installed_indices(gateway)) == keys
    assert gateway.key_count() == len(keys)
    for domain, patient, delegatee_domain, delegatee, type_label in sorted(keys):
        ciphertext, message = setting.pool[(patient, type_label)][0]
        response = gateway.reencrypt(
            ReEncryptRequest(
                tenant=patient,
                ciphertext=ciphertext,
                delegatee_domain=delegatee_domain,
                delegatee=delegatee,
            )
        )
        recovered = setting.backend.decrypt_reencrypted(
            response.ciphertext, delegatee_domain, delegatee
        )
        assert recovered == message
    _, patient, delegatee_domain, delegatee, type_label = expected["revoked"]
    with pytest.raises(DelegationNotFoundError):
        gateway.reencrypt(
            ReEncryptRequest(
                tenant=patient,
                ciphertext=setting.pool[(patient, type_label)][0][0],
                delegatee_domain=delegatee_domain,
                delegatee=delegatee,
            )
        )


class TestLegacyLayout:
    @pytest.mark.parametrize("shard_count", [1, 3, 4, 6])
    def test_per_shard_logs_fold_into_one_key_log(self, legacy, tmp_path, shard_count):
        expected, setting = legacy
        state_dir = tmp_path / "state"
        _copy_legacy_logs(state_dir)
        gateway = ReEncryptionGateway(
            setting.backend, shard_count=shard_count, state_dir=state_dir
        )
        try:
            assert sorted(path.name for path in state_dir.iterdir()) == ["keys.log"]
            _assert_serves_exactly(gateway, expected, setting)
        finally:
            gateway.close()

    def test_a_crash_between_install_and_delete_folds_again(self, legacy, tmp_path):
        expected, setting = legacy
        state_dir = tmp_path / "state"
        _copy_legacy_logs(state_dir)
        ReEncryptionGateway(setting.backend, shard_count=2, state_dir=state_dir).close()
        # The legacy logs beside the folded keys.log: the state a crash
        # after the fold's installs and before its deletes leaves.
        _copy_legacy_logs(state_dir)
        gateway = ReEncryptionGateway(setting.backend, shard_count=3, state_dir=state_dir)
        try:
            assert sorted(path.name for path in state_dir.iterdir()) == ["keys.log"]
            _assert_serves_exactly(gateway, expected, setting)
        finally:
            gateway.close()


class _Stopped(Exception):
    """Stands for a process dying part way through the legacy fold."""


def _assert_fold_completes(state_dir, expected, backend):
    """Reopening finishes the fold: exactly the recorded keys, one clean log."""
    keys = {tuple(index) for index in expected["keys"]}
    table = open_key_log(state_dir, backend)
    try:
        assert table.recovered_bytes == 0
        assert {ProxyKeyTable.index_of(key) for key in table} == keys
        assert len(table) == len(keys) == 35
    finally:
        table.close()
    assert sorted(path.name for path in state_dir.iterdir()) == [KEY_LOG]
    replayed = DurableProxyKeyTable(state_dir / KEY_LOG, backend)
    try:
        assert replayed.recovered_bytes == 0
        assert {ProxyKeyTable.index_of(key) for key in replayed} == keys
    finally:
        replayed.close()


class TestInterruptedLegacyFold:
    """``open_key_log`` stopped part way through folding the recorded
    ``shard-NN.log`` files leaves a state dir the next open completes."""

    @pytest.mark.parametrize("files_folded", range(5))
    def test_stopped_after_each_file(self, legacy, tmp_path, monkeypatch, files_folded):
        expected, setting = legacy
        state_dir = tmp_path / "state"
        _copy_legacy_logs(state_dir)
        opened = []
        original_init = DurableProxyKeyTable.__init__

        def open_or_stop(table, path, *args, **kwargs):
            if path.name != KEY_LOG:
                if len(opened) == files_folded:
                    raise _Stopped(path.name)
                opened.append(path.name)
            original_init(table, path, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(DurableProxyKeyTable, "__init__", open_or_stop)
            if files_folded < 4:
                with pytest.raises(_Stopped):
                    open_key_log(state_dir, setting.backend)
            else:
                open_key_log(state_dir, setting.backend).close()
        assert opened == ["shard-%02d.log" % i for i in range(files_folded)]
        assert sorted(path.name for path in state_dir.glob("shard-*.log")) == [
            "shard-%02d.log" % i for i in range(files_folded, 4)
        ]
        _assert_fold_completes(state_dir, expected, setting.backend)

    def test_stopped_between_a_files_installs_and_its_deletion(
        self, legacy, tmp_path, monkeypatch
    ):
        expected, setting = legacy
        state_dir = tmp_path / "state"
        _copy_legacy_logs(state_dir)

        def stop_before_deleting(table):
            table.close()
            raise _Stopped(table.path.name)

        with monkeypatch.context() as patch:
            patch.setattr(DurableProxyKeyTable, "delete", stop_before_deleting)
            with pytest.raises(_Stopped, match="shard-00.log"):
                open_key_log(state_dir, setting.backend)
        # shard-00.log's keys are in keys.log, and the file is still there.
        assert sorted(path.name for path in state_dir.iterdir()) == [KEY_LOG] + [
            "shard-%02d.log" % i for i in range(4)
        ]
        folded = DurableProxyKeyTable(state_dir / KEY_LOG, setting.backend)
        first = DurableProxyKeyTable(state_dir / "shard-00.log", setting.backend)
        try:
            assert {ProxyKeyTable.index_of(key) for key in folded} == {
                ProxyKeyTable.index_of(key) for key in first
            }
            assert len(first) > 0
        finally:
            folded.close()
            first.close()
        _assert_fold_completes(state_dir, expected, setting.backend)
