"""Multi-threaded stress tests for the gateway and its shard locks.

The contracts under test: per-shard mutual exclusion (no two threads
inside the same shard at once), no lost updates under grant/re-encrypt/
revoke races, deadlock-freedom (every join completes), and exact metrics
accounting (``requests_total == served + rejected + rate_limited``).
The concurrency comes from the tests' own threads: the gateway starts
none.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.proxy import ProxyKeyTable, ProxyService
from repro.core.scheme import TypeAndIdentityPre
from repro.ibe.kgc import KgcRegistry
from repro.math.drbg import HmacDrbg
from repro.service.driver import run_demo
from repro.service.gateway import (
    DelegationNotFoundError,
    GrantRequest,
    ReEncryptionGateway,
    ReEncryptRequest,
    RevokeRequest,
)
from repro.service.pool import ShardPool

N_THREADS = 4
TYPES = ("labs", "meds", "notes")
ROUNDS = 3
JOIN_TIMEOUT_S = 60.0


@pytest.fixture(scope="module")
def universe(group):
    """One delegator per thread, each with one delegation per type."""
    rng = HmacDrbg("concurrency-universe")
    registry = KgcRegistry(group, rng)
    kgc1 = registry.create("KGC1")
    kgc2 = registry.create("KGC2")
    scheme = TypeAndIdentityPre(group)
    delegations = {}  # thread index -> list of (proxy_key, ciphertext, message)
    for i in range(N_THREADS):
        patient = "patient-%d" % i
        patient_key = kgc1.extract(patient)
        entries = []
        for type_label in TYPES:
            message = group.random_gt(rng)
            entries.append(
                (
                    scheme.pextract(patient_key, "bob", type_label, kgc2.params, rng),
                    scheme.encrypt(kgc1.params, patient_key, message, type_label, rng),
                    message,
                )
            )
        delegations[i] = entries
    return scheme, delegations, kgc2.extract("bob")


def _request(ciphertext):
    return ReEncryptRequest(
        tenant=ciphertext.identity,
        ciphertext=ciphertext,
        delegatee_domain="KGC2",
        delegatee="bob",
    )


def _revoke(key):
    return RevokeRequest(
        tenant=key.delegator,
        delegator_domain=key.delegator_domain,
        delegator=key.delegator,
        delegatee_domain=key.delegatee_domain,
        delegatee=key.delegatee,
        type_label=key.type_label,
    )


class TestGatewayRaces:
    def test_grant_reencrypt_revoke_races_lose_nothing(self, universe):
        """Threads churn disjoint delegations; counters stay exact."""
        scheme, delegations, _ = universe
        gateway = ReEncryptionGateway(scheme, shard_count=4)
        served = [0] * N_THREADS
        rejected = [0] * N_THREADS
        failures = []

        def worker(thread_index: int) -> None:
            try:
                entries = delegations[thread_index]
                for _ in range(ROUNDS):
                    for key, ciphertext, _message in entries:
                        gateway.grant(GrantRequest(tenant=key.delegator, proxy_key=key))
                        served[thread_index] += 1
                        gateway.reencrypt(_request(ciphertext))
                        served[thread_index] += 1
                        gateway.revoke(_revoke(key))
                        served[thread_index] += 1
                        with pytest.raises(DelegationNotFoundError):
                            gateway.reencrypt(_request(ciphertext))
                        rejected[thread_index] += 1
                # Leave every delegation granted for the final census.
                for key, _, _ in entries:
                    gateway.grant(GrantRequest(tenant=key.delegator, proxy_key=key))
                    served[thread_index] += 1
            except Exception as error:  # noqa: BLE001 - surfaced via failures
                failures.append((thread_index, error))

        threads = [
            threading.Thread(target=worker, args=(i,), name="stress-%d" % i)
            for i in range(N_THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
        assert not any(thread.is_alive() for thread in threads), "deadlock: join timed out"
        assert failures == []

        # No lost updates: every thread's final grants are installed.
        assert gateway.key_count() == N_THREADS * len(TYPES)

        # Metrics-counter consistency, exactly.
        snapshot = gateway.snapshot()
        assert snapshot.served == sum(served)
        assert snapshot.rejected == sum(rejected)
        assert snapshot.rate_limited == 0
        assert snapshot.requests_total == snapshot.served + snapshot.rejected

        # The audit log saw every request once, in one total order.
        sequences = [event.sequence for event in gateway.audit]
        assert len(sequences) == snapshot.requests_total
        assert sequences == sorted(sequences)
        assert len(set(sequences)) == len(sequences)
        gateway.close()

    def test_concurrent_batch_is_bit_identical_to_sequential(self, universe):
        """Threads sending the same batch to one gateway at once each get
        the bits one thread's batch gets from another gateway, and every
        distinct item is transformed once: a group checks the result
        cache under its shard lock, so a group that waited for the lock
        finds the results of the group that held it."""
        scheme, delegations, bob = universe
        sequential = ReEncryptionGateway(scheme, shard_count=4)
        concurrent = ReEncryptionGateway(scheme, shard_count=4)
        requests = []
        messages = []
        for entries in delegations.values():
            for key, ciphertext, message in entries:
                for gateway in (sequential, concurrent):
                    gateway.grant(GrantRequest(tenant=key.delegator, proxy_key=key))
                requests.append(_request(ciphertext))
                messages.append(message)
        distinct = len(requests)
        # Duplicate a request so the in-batch hit path races too.
        requests.append(requests[0])
        messages.append(messages[0])
        expected = sequential.reencrypt_batch(requests)
        outputs: list = [None] * N_THREADS
        failures = []

        def worker(thread_index: int) -> None:
            try:
                outputs[thread_index] = concurrent.reencrypt_batch(requests)
            except Exception as error:  # noqa: BLE001 - surfaced via failures
                failures.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(N_THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        for output in outputs:
            assert [r.ciphertext for r in output] == [r.ciphertext for r in expected]
            assert [r.shard for r in output] == [r.shard for r in expected]
        misses = sum(not r.cache_hit for output in outputs for r in output)
        transformed = sum(
            concurrent.shard_named(name).transformations_total
            for name in concurrent.shard_names
        )
        assert misses == transformed == distinct
        for response, message in zip(outputs[-1], messages):
            assert scheme.decrypt_reencrypted(response.ciphertext, bob) == message
        sequential.close()
        concurrent.close()

    def test_every_shard_appends_to_one_durable_log_without_loss(self, universe, tmp_path):
        """Eight writer threads on four shards share one ``keys.log``: with
        auto-compaction running among them, a reopen replays exactly the
        final key set and finds no torn record."""
        scheme, delegations, _ = universe
        keys = [key for entries in delegations.values() for key, _, _ in entries]
        gateway = ReEncryptionGateway(scheme, shard_count=4, state_dir=tmp_path)
        writers = 8
        failures = []

        def writer(thread_index: int) -> None:
            try:
                mine = keys[thread_index::writers]
                for _ in range(ROUNDS * 8):
                    for key in mine:
                        gateway.grant(GrantRequest(tenant=key.delegator, proxy_key=key))
                        assert gateway.revoke(_revoke(key)).removed
                for key in mine:
                    gateway.grant(GrantRequest(tenant=key.delegator, proxy_key=key))
            except Exception as error:  # noqa: BLE001 - surfaced via failures
                failures.append(error)

        threads = [threading.Thread(target=writer, args=(i,)) for i in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert gateway.key_count() == len(keys)
        gateway.close()
        reopened = ReEncryptionGateway(scheme, shard_count=3, state_dir=tmp_path)
        table = reopened.shard_named("shard-00").table
        assert table.recovered_bytes == 0
        assert {ProxyKeyTable.index_of(key) for key in reopened.list_keys()} == {
            ProxyKeyTable.index_of(key) for key in keys
        }
        reopened.close()

    def test_revoke_racing_reencrypt_cannot_repopulate_caches(self, universe):
        """Regression: a result computed before a revoke must not outlive it.

        The re-encryptor is frozen mid-transformation (inside the shard
        lock) while a revoke arrives.  Because cache writes and the
        revoke's invalidation both happen under the shard lock, the
        revoke's invalidation is ordered after the racing put — the next
        request must miss the cache and fail typed, not serve the stale
        transformation forever.
        """
        scheme, delegations, _ = universe
        entered = threading.Event()
        release = threading.Event()

        class BlockingShard(ProxyService):
            def reencrypt_with_key(self, ciphertext, key, trace=None):
                entered.set()
                assert release.wait(timeout=30.0)
                return super().reencrypt_with_key(ciphertext, key)

        gateway = ReEncryptionGateway(
            scheme,
            shard_count=1,
            shard_factory=lambda name, table: BlockingShard(scheme, name=name, table=table),
        )
        key, ciphertext, _message = delegations[0][0]
        gateway.grant(GrantRequest(tenant=key.delegator, proxy_key=key))

        outcome = {}
        reencryptor = threading.Thread(
            target=lambda: outcome.update(resp=gateway.reencrypt(_request(ciphertext)))
        )
        reencryptor.start()
        assert entered.wait(timeout=30.0)
        revoker = threading.Thread(
            target=lambda: outcome.update(revoke=gateway.revoke(_revoke(key)))
        )
        revoker.start()
        time.sleep(0.05)  # the revoke is now queued on the shard lock
        release.set()
        reencryptor.join(timeout=JOIN_TIMEOUT_S)
        revoker.join(timeout=JOIN_TIMEOUT_S)
        assert not reencryptor.is_alive() and not revoker.is_alive()
        assert outcome["revoke"].removed

        with pytest.raises(DelegationNotFoundError):
            gateway.reencrypt(_request(ciphertext))
        gateway.close()

    def test_a_read_is_answered_while_a_resize_builds_its_shards(self, universe):
        """A resize builds its new shards before it takes the shard locks:
        while the shard factory is blocked, a cache-miss read on an
        existing shard is answered, and a second resize waits for the
        first instead of building the same shard again."""
        scheme, delegations, bob = universe
        building, release = threading.Event(), threading.Event()
        built = []

        def factory(name, table):
            if name != "shard-00":  # built by a resize, not by the gateway's start
                built.append(name)
                building.set()
                assert release.wait(timeout=30.0)
            return ProxyService(scheme, name=name, table=table)

        gateway = ReEncryptionGateway(scheme, shard_count=1, shard_factory=factory)
        key, ciphertext, message = delegations[0][0]
        gateway.grant(GrantRequest(tenant=key.delegator, proxy_key=key))
        resizes = [threading.Thread(target=gateway.resize, args=(2,)) for _ in range(2)]
        read = {}
        reader = threading.Thread(
            target=lambda: read.update(response=gateway.reencrypt(_request(ciphertext)))
        )
        resizes[0].start()
        try:
            assert building.wait(timeout=30.0)
            resizes[1].start()
            reader.start()
            reader.join(timeout=5.0)
            assert not reader.is_alive(), "the read waited for the shard factory"
        finally:
            release.set()
            for thread in (reader, *resizes):
                if thread.ident is not None:
                    thread.join(timeout=JOIN_TIMEOUT_S)
        assert not any(thread.is_alive() for thread in resizes)
        assert built == ["shard-01"]
        assert gateway.shard_names == ["shard-00", "shard-01"]
        response = read["response"]
        assert not response.cache_hit and response.shard == "shard-00"
        assert scheme.decrypt_reencrypted(response.ciphertext, bob) == message
        gateway.close()

    def test_concurrent_resize_during_traffic_loses_nothing(self, universe):
        """A resize racing live re-encrypts never drops a delegation."""
        scheme, delegations, _ = universe
        gateway = ReEncryptionGateway(scheme, shard_count=2)
        for entries in delegations.values():
            for key, _, _ in entries:
                gateway.grant(GrantRequest(tenant=key.delegator, proxy_key=key))
        stop = threading.Event()
        failures = []

        def traffic() -> None:
            entries = delegations[0]
            try:
                while not stop.is_set():
                    for _, ciphertext, _ in entries:
                        gateway.reencrypt(_request(ciphertext))
                    # The batch path races the resize too: its existence
                    # guard must not misread a mid-migration key as gone.
                    gateway.reencrypt_batch(
                        [_request(ciphertext) for _, ciphertext, _ in entries]
                    )
            except Exception as error:  # noqa: BLE001 - surfaced via failures
                failures.append(error)

        thread = threading.Thread(target=traffic, name="traffic")
        thread.start()
        try:
            for count in (5, 3, 4):
                gateway.resize(count)
        finally:
            stop.set()
            thread.join(timeout=JOIN_TIMEOUT_S)
        assert not thread.is_alive()
        assert failures == []
        assert gateway.key_count() == N_THREADS * len(TYPES)
        assert gateway.snapshot().resizes == 3
        gateway.close()


class TestShardPool:
    @staticmethod
    def _hold(pool: ShardPool, shard: str, body) -> threading.Thread:
        def run() -> None:
            with pool.lock_object(shard):
                body()

        return threading.Thread(target=run)

    def test_same_shard_tasks_never_overlap(self):
        pool = ShardPool(["a", "b"])
        active = {"a": 0, "b": 0}
        peak = {"a": 0, "b": 0}
        guard = threading.Lock()

        def inside(shard: str):
            def body() -> None:
                with guard:
                    active[shard] += 1
                    peak[shard] = max(peak[shard], active[shard])
                time.sleep(0.01)
                with guard:
                    active[shard] -= 1

            return body

        threads = [self._hold(pool, shard, inside(shard)) for shard in "ab" * 6]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
        assert not any(thread.is_alive() for thread in threads)
        assert peak == {"a": 1, "b": 1}

    def test_different_shards_do_overlap(self):
        pool = ShardPool(["a", "b"])
        started = threading.Barrier(2, timeout=10.0)
        passed = []
        # Both threads must be inside their shard at once to pass the barrier.
        threads = [
            self._hold(pool, shard, lambda: passed.append(started.wait()))
            for shard in "ab"
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_TIMEOUT_S)
        assert sorted(passed) == [0, 1]

    def test_sequential_pool_needs_no_threads(self, universe):
        """Neither the pool nor a gateway serving a batch starts a thread."""
        scheme, delegations, _ = universe
        before = set(threading.enumerate())
        pool = ShardPool(["a"])
        with pool.lock_object("a"), pool.lock_all():
            pass
        gateway = ReEncryptionGateway(scheme, shard_count=4)
        for key, _, _ in delegations[0]:
            gateway.grant(GrantRequest(tenant=key.delegator, proxy_key=key))
        gateway.reencrypt_batch(
            [_request(ciphertext) for _, ciphertext, _ in delegations[0]]
        )
        assert set(threading.enumerate()) <= before
        gateway.close()


class TestDriverConcurrency:
    def test_driver_verifies_with_workers_and_state_dir(self, tmp_path):
        report = run_demo(
            shard_count=3,
            n_requests=24,
            batch_size=6,
            state_dir=str(tmp_path / "state"),
        )
        assert report.verified > 0
        # A second run against the same state dir reloads every grant.
        again = run_demo(
            shard_count=3,
            n_requests=12,
            batch_size=4,
            state_dir=str(tmp_path / "state"),
        )
        assert again.verified > 0
