"""Property-style tests for the durable proxy-key table.

The contract under test: any sequence of installs and revokes, replayed
from the append log, reconstructs exactly the in-memory table — a torn
or corrupt last line (the damage a crash mid-append can cause) loses at
most that record, never the history before it — and damage anywhere
before the last line refuses to open, leaving the file as it was.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.proxy import ProxyKeyTable
from repro.core.scheme import TypeAndIdentityPre
from repro.ibe.kgc import KgcRegistry
from repro.math.drbg import HmacDrbg
from repro.service.persistence import DurableProxyKeyTable, LogFormatError, open_key_log

N_KEYS = 8
_case_ids = itertools.count()


@pytest.fixture(scope="module")
def key_pool(group):
    """Eight distinct proxy keys (2 delegators x 2 delegatees x 2 types)."""
    rng = HmacDrbg("persistence-keys")
    registry = KgcRegistry(group, rng)
    kgc1 = registry.create("KGC1")
    kgc2 = registry.create("KGC2")
    scheme = TypeAndIdentityPre(group)
    keys = []
    for delegator in ("alice", "carol"):
        delegator_key = kgc1.extract(delegator)
        for delegatee in ("bob", "dave"):
            for type_label in ("labs", "meds"):
                keys.append(
                    scheme.pextract(delegator_key, delegatee, type_label, kgc2.params, rng)
                )
    assert len(keys) == N_KEYS
    return keys


def _state_of(table) -> dict:
    return {ProxyKeyTable.index_of(key): key for key in table}


def _fresh_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("durable-%d" % next(_case_ids))


class TestRoundTrip:
    @settings(max_examples=25)
    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=N_KEYS - 1)),
            max_size=40,
        )
    )
    def test_random_op_sequence_reloads_identically(
        self, ops, key_pool, group, tmp_path_factory
    ):
        """Apply installs/revokes, reload, and compare against a model dict."""
        path = _fresh_dir(tmp_path_factory) / "shard.log"
        table = DurableProxyKeyTable(path, group)
        model: dict = {}
        for is_install, key_index in ops:
            key = key_pool[key_index]
            index = ProxyKeyTable.index_of(key)
            if is_install:
                table.install(key)
                model[index] = key
            else:
                assert table.revoke(index) == (index in model)
                model.pop(index, None)
        table.close()

        reloaded = DurableProxyKeyTable(path, group)
        assert _state_of(reloaded) == model
        assert reloaded.recovered_bytes == 0
        reloaded.close()

    def test_reload_after_compaction_is_identical(self, key_pool, group, tmp_path_factory):
        path = _fresh_dir(tmp_path_factory) / "shard.log"
        table = DurableProxyKeyTable(path, group)
        for _ in range(10):
            for key in key_pool:
                table.install(key)
            table.revoke(ProxyKeyTable.index_of(key_pool[0]))
        before = _state_of(table)
        assert table.log_records > len(table)
        table.compact()
        assert table.log_records == len(table)
        table.close()

        reloaded = DurableProxyKeyTable(path, group)
        assert _state_of(reloaded) == before
        reloaded.close()

    def test_auto_compaction_bounds_the_log(self, key_pool, group, tmp_path_factory):
        """Install/revoke churn cannot grow the log without bound."""
        path = _fresh_dir(tmp_path_factory) / "shard.log"
        table = DurableProxyKeyTable(path, group, auto_compact_ratio=2.0, auto_compact_min=8)
        key = key_pool[0]
        for _ in range(100):
            table.install(key)
            table.revoke(ProxyKeyTable.index_of(key))
        # 200 mutations, but compaction kept the log near the live size.
        assert table.log_records <= 8
        table.close()


class TestTailRecovery:
    def _installed(self, path, group, keys):
        table = DurableProxyKeyTable(path, group)
        for key in keys:
            table.install(key)
        table.close()

    def test_torn_final_record_is_dropped(self, key_pool, group, tmp_path_factory):
        path = _fresh_dir(tmp_path_factory) / "shard.log"
        self._installed(path, group, key_pool[:3])
        with open(path, "rb+") as handle:
            handle.truncate(path.stat().st_size - 10)  # tear the last append

        table = DurableProxyKeyTable(path, group)
        assert table.recovered_bytes > 0
        assert set(_state_of(table)) == {
            ProxyKeyTable.index_of(key) for key in key_pool[:2]
        }
        # The table keeps working after recovery, and the repair sticks.
        table.install(key_pool[3])
        table.close()
        reloaded = DurableProxyKeyTable(path, group)
        assert reloaded.recovered_bytes == 0
        assert len(reloaded) == 3
        reloaded.close()

    def test_garbage_tail_is_dropped(self, key_pool, group, tmp_path_factory):
        path = _fresh_dir(tmp_path_factory) / "shard.log"
        self._installed(path, group, key_pool[:4])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("this is not a log record\n")

        table = DurableProxyKeyTable(path, group)
        assert table.recovered_bytes > 0
        assert len(table) == 4  # every real record survived
        table.close()

    def test_bad_crc_tail_is_dropped(self, key_pool, group, tmp_path_factory):
        path = _fresh_dir(tmp_path_factory) / "shard.log"
        self._installed(path, group, key_pool[:2])
        with open(path, "a", encoding="utf-8") as handle:
            record = {"op": "revoke", "index": list(ProxyKeyTable.index_of(key_pool[0])), "crc": 1}
            handle.write(json.dumps(record) + "\n")

        table = DurableProxyKeyTable(path, group)
        # The forged revoke did not apply: its CRC does not match.
        assert len(table) == 2
        assert table.recovered_bytes > 0
        table.close()


def _record_offsets(data: bytes) -> list[int]:
    """The byte offset where each line of ``data`` starts, header first."""
    offsets, offset = [], 0
    for line in data.splitlines(keepends=True):
        offsets.append(offset)
        offset += len(line)
    return offsets


class TestDamageBeforeTheLastLine:
    """An append crash tears only the last line.  A damaged record with
    valid records after it is other damage: replaying past it as a torn
    tail used to truncate the file there, dropping every later grant and
    revoke, so a revoked delegation came back live."""

    def _history(self, path, group, key_pool):
        """Grant 4 keys, revoke the first: a header and five records."""
        table = DurableProxyKeyTable(path, group)
        for key in key_pool[:4]:
            table.install(key)
        table.revoke(ProxyKeyTable.index_of(key_pool[0]))
        table.close()
        states = [{}]
        for key in key_pool[:4]:
            states.append({**states[-1], ProxyKeyTable.index_of(key): key})
        last = dict(states[-1])
        del last[ProxyKeyTable.index_of(key_pool[0])]
        states.append(last)
        return path.read_bytes(), states  # states[i]: after the first i records

    def test_flipped_byte_in_the_third_record_refuses_to_open(
        self, key_pool, group, tmp_path
    ):
        path = tmp_path / "keys.log"
        data, _states = self._history(path, group, key_pool)
        offsets = _record_offsets(data)
        assert len(offsets) == 6
        damaged = bytearray(data)
        damaged[(offsets[3] + offsets[4]) // 2] ^= 0x01  # inside the third record
        path.write_bytes(bytes(damaged))
        with pytest.raises(LogFormatError, match="line 4"):
            DurableProxyKeyTable(path, group)
        assert path.read_bytes() == bytes(damaged)

    def test_every_cut_recovers_the_prefix_before_it(self, key_pool, group, tmp_path):
        """Cut at each record boundary, and at each byte of the last record."""
        path = tmp_path / "keys.log"
        data, states = self._history(path, group, key_pool)
        offsets = _record_offsets(data)[1:] + [len(data)]
        cuts = [(end, count) for count, end in enumerate(offsets)]
        cuts += [(cut, len(offsets) - 2) for cut in range(offsets[-2] + 1, offsets[-1])]
        for cut, count in cuts:
            path.write_bytes(data[:cut])
            table = DurableProxyKeyTable(path, group)
            try:
                assert _state_of(table) == states[count], cut
                assert table.recovered_bytes == cut - offsets[count], cut
            finally:
                table.close()

    def test_a_flipped_bit_before_the_last_record_refuses(self, key_pool, group, tmp_path):
        path = tmp_path / "keys.log"
        data, _states = self._history(path, group, key_pool)
        offsets = _record_offsets(data)
        for line in range(1, len(offsets) - 1):  # every record but the last
            for position in range(offsets[line], offsets[line + 1] - 1):
                damaged = bytearray(data)
                damaged[position] ^= 1 << (position % 8)
                path.write_bytes(bytes(damaged))
                with pytest.raises(LogFormatError, match="line %d" % (line + 1)):
                    DurableProxyKeyTable(path, group)
                assert path.read_bytes() == bytes(damaged)

    def test_a_damaged_per_shard_log_is_not_folded(self, key_pool, group, tmp_path):
        """The older ``shard-NN.log`` files fold in through the same replay."""
        legacy = tmp_path / "shard-00.log"
        data, _states = self._history(legacy, group, key_pool)
        offsets = _record_offsets(data)
        damaged = bytearray(data)
        damaged[offsets[2] + 2] ^= 0x01
        legacy.write_bytes(bytes(damaged))
        with pytest.raises(LogFormatError, match="shard-00.log"):
            open_key_log(tmp_path, group)
        assert legacy.read_bytes() == bytes(damaged)


class TestHeader:
    def test_wrong_group_refused(self, key_pool, group, tmp_path_factory):
        path = _fresh_dir(tmp_path_factory) / "shard.log"
        table = DurableProxyKeyTable(path, group)
        table.install(key_pool[0])
        table.close()
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["group"] = "SS256"
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(LogFormatError):
            DurableProxyKeyTable(path, group)

    def test_unversioned_file_refused(self, group, tmp_path_factory):
        path = _fresh_dir(tmp_path_factory) / "shard.log"
        path.write_text('{"something": "else"}\n')
        with pytest.raises(LogFormatError):
            DurableProxyKeyTable(path, group)

    def test_empty_file_opens_as_a_fresh_log(self, key_pool, group, tmp_path_factory):
        """A crash at creation time must not brick the shard."""
        path = _fresh_dir(tmp_path_factory) / "shard.log"
        path.write_bytes(b"")
        table = DurableProxyKeyTable(path, group)
        assert len(table) == 0
        table.install(key_pool[0])
        table.close()
        reloaded = DurableProxyKeyTable(path, group)
        assert len(reloaded) == 1
        reloaded.close()

    def test_torn_header_recovers_as_a_fresh_log(self, key_pool, group, tmp_path_factory):
        path = _fresh_dir(tmp_path_factory) / "shard.log"
        path.write_bytes(b'{"format": "repro-proxy-k')  # no newline: torn write
        table = DurableProxyKeyTable(path, group)
        assert table.recovered_bytes > 0
        assert len(table) == 0
        table.install(key_pool[0])
        table.close()
        reloaded = DurableProxyKeyTable(path, group)
        assert len(reloaded) == 1
        reloaded.close()


class TestLogDiscipline:
    def test_noop_revoke_writes_nothing(self, key_pool, group, tmp_path_factory):
        path = _fresh_dir(tmp_path_factory) / "shard.log"
        table = DurableProxyKeyTable(path, group)
        table.install(key_pool[0])
        records = table.log_records
        assert not table.revoke(ProxyKeyTable.index_of(key_pool[1]))
        assert table.log_records == records
        table.close()

    def test_delete_removes_the_file(self, key_pool, group, tmp_path_factory):
        path = _fresh_dir(tmp_path_factory) / "shard.log"
        table = DurableProxyKeyTable(path, group)
        table.install(key_pool[0])
        table.delete()
        assert not path.exists()
