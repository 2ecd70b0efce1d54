"""Tests for the sharded re-encryption gateway (routing, cache, limits)."""

import dataclasses

import pytest

from repro.bench.counters import count_operations
from repro.core.proxy import ProxyKeyTable
from repro.core.scheme import TypeAndIdentityPre
from repro.ibe.kgc import KgcRegistry
from repro.pairing.group import PairingGroup
from repro.phr.store import EncryptedPhrStore
from repro.service.gateway import (
    DelegationNotFoundError,
    EntryMissingError,
    FetchRequest,
    GatewayError,
    GrantRequest,
    InvalidRequestError,
    RateLimitedError,
    ReEncryptionGateway,
    ReEncryptRequest,
    RevokeRequest,
    StoreUnavailableError,
    TokenBucket,
)


class ManualClock:
    """A clock the tests advance explicitly (no sleeping)."""

    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


@pytest.fixture()
def setting(pre_setting, group, rng):
    """Gateway over 4 shards with one granted delegation and a ciphertext."""
    scheme, kgc1, kgc2, alice, bob = pre_setting
    gateway = ReEncryptionGateway(scheme, shard_count=4)
    proxy_key = scheme.pextract(alice, "bob", "labs", kgc2.params, rng)
    gateway.grant(GrantRequest(tenant="alice", proxy_key=proxy_key))
    message = group.random_gt(rng)
    ciphertext = scheme.encrypt(kgc1.params, alice, message, "labs", rng)
    return scheme, gateway, message, ciphertext, bob


def _reencrypt_request(ciphertext, delegatee="bob"):
    return ReEncryptRequest(
        tenant="tenant-1", ciphertext=ciphertext, delegatee_domain="KGC2", delegatee=delegatee
    )


class TestRoundTrip:
    def test_granted_request_served_and_decrypts(self, setting):
        scheme, gateway, message, ciphertext, bob = setting
        response = gateway.reencrypt(_reencrypt_request(ciphertext))
        assert not response.cache_hit
        assert scheme.decrypt_reencrypted(response.ciphertext, bob) == message

    def test_key_lands_on_the_routed_shard(self, setting):
        _, gateway, _, ciphertext, _ = setting
        response = gateway.reencrypt(_reencrypt_request(ciphertext))
        # Exactly one shard owns the delegation and it is the routed one.
        counts = gateway.shard_key_counts()
        assert counts[response.shard] == 1
        assert sum(counts.values()) == 1
        assert gateway.shard_named(response.shard).transformations_total == 1

    def test_no_delegation_is_a_typed_error(self, setting):
        _, gateway, _, ciphertext, _ = setting
        with pytest.raises(DelegationNotFoundError) as excinfo:
            gateway.reencrypt(_reencrypt_request(ciphertext, delegatee="mallory"))
        assert excinfo.value.code == "no-delegation"
        assert isinstance(excinfo.value, GatewayError)

    def test_repeat_request_is_a_cache_hit(self, setting):
        scheme, gateway, message, ciphertext, bob = setting
        first = gateway.reencrypt(_reencrypt_request(ciphertext))
        second = gateway.reencrypt(_reencrypt_request(ciphertext))
        assert second.cache_hit
        assert second.ciphertext == first.ciphertext
        assert scheme.decrypt_reencrypted(second.ciphertext, bob) == message
        stats = gateway.cache_stats()["result_cache"]
        assert stats.hits == 1
        # The shard did the pairing work exactly once.
        assert gateway.shard_named(first.shard).transformations_total == 1


class TestRevocation:
    def test_revoke_refuses_future_requests(self, setting):
        _, gateway, _, ciphertext, _ = setting
        gateway.reencrypt(_reencrypt_request(ciphertext))
        response = gateway.revoke(
            RevokeRequest(
                tenant="alice",
                delegator_domain="KGC1",
                delegator="alice",
                delegatee_domain="KGC2",
                delegatee="bob",
                type_label="labs",
            )
        )
        assert response.removed
        # The cached transformation must not outlive the key.
        with pytest.raises(DelegationNotFoundError):
            gateway.reencrypt(_reencrypt_request(ciphertext))

    def test_revoke_unknown_delegation_reports_removed_false(self, setting):
        _, gateway, _, _, _ = setting
        response = gateway.revoke(
            RevokeRequest(
                tenant="alice",
                delegator_domain="KGC1",
                delegator="alice",
                delegatee_domain="KGC2",
                delegatee="nobody",
                type_label="labs",
            )
        )
        assert not response.removed


class TestBatching:
    def test_batched_equals_sequential(self, pre_setting, group, rng):
        """The acceptance property: batching never changes the bits."""
        scheme, kgc1, kgc2, alice, bob = pre_setting
        sequential = ReEncryptionGateway(scheme, shard_count=3)
        batched = ReEncryptionGateway(scheme, shard_count=3)
        for type_label in ("labs", "meds"):
            key = scheme.pextract(alice, "bob", type_label, kgc2.params, rng)
            for gateway in (sequential, batched):
                gateway.grant(GrantRequest(tenant="alice", proxy_key=key))
        requests = []
        messages = []
        for i in range(6):
            type_label = "labs" if i % 2 else "meds"
            message = group.random_gt(rng)
            ciphertext = scheme.encrypt(kgc1.params, alice, message, type_label, rng)
            requests.append(_reencrypt_request(ciphertext))
            messages.append(message)

        sequential_out = [sequential.reencrypt(r).ciphertext for r in requests]
        batched_out = [r.ciphertext for r in batched.reencrypt_batch(requests)]
        assert batched_out == sequential_out  # bit-identical, not just equivalent
        for transformed, message in zip(batched_out, messages):
            assert scheme.decrypt_reencrypted(transformed, bob) == message

    def test_batch_amortizes_key_lookups(self, setting, pre_setting, group, rng, monkeypatch):
        scheme, gateway, _, _, _ = setting
        _, kgc1, _, alice, _ = pre_setting
        lookups = []
        table_get = ProxyKeyTable.get

        def counting_get(table, index):
            lookups.append(index)
            return table_get(table, index)

        monkeypatch.setattr(ProxyKeyTable, "get", counting_get)

        def lookups_for(n_items: int) -> int:
            requests = [
                _reencrypt_request(
                    scheme.encrypt(kgc1.params, alice, group.random_gt(rng), "labs", rng)
                )
                for _ in range(n_items)
            ]
            lookups.clear()
            gateway.reencrypt_batch(requests)
            return len(lookups)

        per_group = lookups_for(1)
        assert per_group >= 1
        # Five same-delegation items cost the table what one item does.
        assert lookups_for(5) == per_group

    def test_failing_group_ends_the_batch(self, pre_setting, group, rng):
        """Groups run in submission order, and the first failure stops them.

        The second of three groups, each on its own shard, holds a proxy
        key on the curve but outside G1: the batch fails invalid-request,
        and the third group is neither transformed nor cached.
        """
        scheme, kgc1, kgc2, alice, _bob = pre_setting
        gateway = ReEncryptionGateway(scheme, shard_count=4)
        by_shard = {}
        for i in range(32):
            type_label = "type-%d" % i
            key = scheme.pextract(alice, "bob", type_label, kgc2.params, rng)
            shard = gateway.grant(GrantRequest(tenant="alice", proxy_key=key)).shard
            by_shard.setdefault(shard, (type_label, key))
            if len(by_shard) == 3:
                break
        (first, _), (second, second_key), (third, _) = by_shard.values()
        third_shard = list(by_shard)[2]
        params = group.params
        outside = next(
            point
            for point in (params.curve.lift_x(x) for x in range(1, 1000))
            if point is not None and not params.is_in_subgroup(point)
        )
        gateway.grant(
            GrantRequest(
                tenant="alice", proxy_key=dataclasses.replace(second_key, rk_point=outside)
            )
        )
        requests = [
            _reencrypt_request(
                scheme.encrypt(kgc1.params, alice, group.random_gt(rng), type_label, rng)
            )
            for type_label in (first, second, third)
        ]
        transformed = gateway.shard_named(third_shard).transformations_total
        with pytest.raises(InvalidRequestError, match="outside G1"):
            gateway.reencrypt_batch(requests)
        assert gateway.audit[-1].outcome == InvalidRequestError.code
        assert gateway.shard_named(third_shard).transformations_total == transformed
        # Only the first group's result was cached; the third misses alone.
        assert gateway.cache_stats()["result_cache"].size == 1
        assert gateway.reencrypt(requests[0]).cache_hit
        assert not gateway.reencrypt(requests[2]).cache_hit
        gateway.close()

    def test_batch_with_missing_delegation_fails_typed(self, setting):
        _, gateway, _, ciphertext, _ = setting
        with pytest.raises(DelegationNotFoundError):
            gateway.reencrypt_batch(
                [_reencrypt_request(ciphertext), _reencrypt_request(ciphertext, "mallory")]
            )

    def test_empty_batch_rejected(self, setting):
        _, gateway, _, _, _ = setting
        with pytest.raises(InvalidRequestError):
            gateway.reencrypt_batch([])


class TestMillerPrecomputations:
    def test_each_proxy_key_is_precomputed_once(self, rng):
        """Three delegations, four records each: the first pass builds one
        Miller precomputation per proxy key, and a second pass over fresh
        records under the same keys builds none."""
        group = PairingGroup("TOY")  # a precomputation cache of its own
        registry = KgcRegistry(group, rng)
        kgc1, kgc2 = registry.create("KGC1"), registry.create("KGC2")
        scheme = TypeAndIdentityPre(group)
        alice = kgc1.extract("alice")
        gateway = ReEncryptionGateway(scheme, shard_count=4)
        labels = ("labs", "meds", "notes")
        for type_label in labels:
            key = scheme.pextract(alice, "bob", type_label, kgc2.params, rng)
            gateway.grant(GrantRequest(tenant="alice", proxy_key=key))

        def one_pass() -> tuple[int, int]:
            requests = [
                _reencrypt_request(
                    scheme.encrypt(kgc1.params, alice, group.random_gt(rng), type_label, rng)
                )
                for type_label in labels
                for _record in range(4)
            ]
            with count_operations() as counter:
                for request in requests:
                    assert not gateway.reencrypt(request).cache_hit
            return counter.get("miller_precompute"), counter.get("pairing")

        assert one_pass() == (3, 12)
        assert one_pass() == (0, 12)
        gateway.close()


class TestRateLimiting:
    def test_burst_exhaustion_then_refill(self, pre_setting, group, rng):
        scheme, kgc1, kgc2, alice, _ = pre_setting
        clock = ManualClock()
        gateway = ReEncryptionGateway(
            scheme, shard_count=2, rate_per_s=1.0, burst=2.0, clock=clock
        )
        gateway.grant(GrantRequest(tenant="alice", proxy_key=scheme.pextract(alice, "bob", "labs", kgc2.params, rng)))
        ciphertext = scheme.encrypt(kgc1.params, alice, group.random_gt(rng), "labs", rng)
        request = _reencrypt_request(ciphertext)  # tenant-1: fresh bucket of 2
        gateway.reencrypt(request)
        gateway.reencrypt(request)
        with pytest.raises(RateLimitedError) as excinfo:
            gateway.reencrypt(request)
        assert excinfo.value.code == "rate-limited"
        clock.advance(1.0)  # one token refilled
        gateway.reencrypt(request)
        assert gateway.snapshot().rate_limited == 1

    def test_tenants_have_independent_buckets(self):
        clock = ManualClock()
        bucket = TokenBucket(rate_per_s=1.0, burst=1.0, clock=clock)
        assert bucket.allow("a")
        assert not bucket.allow("a")
        assert bucket.allow("b")  # tenant b unaffected by a's exhaustion

    def test_no_rate_limit_by_default(self, setting):
        _, gateway, _, ciphertext, _ = setting
        for _ in range(50):
            gateway.reencrypt(_reencrypt_request(ciphertext))
        assert gateway.snapshot().rate_limited == 0


class TestTokenBucketRefill:
    """Deterministic refill edge cases on the injectable clock."""

    def test_fractional_refill_accumulates_across_denials(self):
        clock = ManualClock()
        bucket = TokenBucket(rate_per_s=10.0, burst=1.0, clock=clock)
        assert bucket.allow("t")
        clock.advance(0.05)  # half a token — not enough yet
        assert not bucket.allow("t")
        clock.advance(0.05)  # the denial banked the first half
        assert bucket.allow("t")

    def test_refill_caps_at_burst(self):
        clock = ManualClock()
        bucket = TokenBucket(rate_per_s=100.0, burst=3.0, clock=clock)
        clock.advance(1000.0)  # an idle tenant does not bank 100k tokens
        assert bucket.available("idle") == 3.0
        for _ in range(3):
            assert bucket.allow("idle")
        assert not bucket.allow("idle")

    def test_cost_above_burst_is_never_admitted_but_spends_nothing(self):
        clock = ManualClock()
        bucket = TokenBucket(rate_per_s=1.0, burst=2.0, clock=clock)
        assert not bucket.allow("t", cost=5.0)
        assert bucket.available("t") == 2.0  # tokens never went negative
        assert bucket.allow("t", cost=2.0)  # normal costs still work

    def test_zero_elapsed_time_refills_nothing(self):
        clock = ManualClock()
        bucket = TokenBucket(rate_per_s=1000.0, burst=1.0, clock=clock)
        assert bucket.allow("t")
        # Same timestamp, many attempts: no refill, no drift.
        for _ in range(5):
            assert not bucket.allow("t")
        assert bucket.available("t") == 0.0

    def test_clock_defaults_to_monotonic(self):
        bucket = TokenBucket(rate_per_s=1000.0, burst=1.0)
        assert bucket.allow("t")
        assert bucket.available("t") <= 1.0

    def test_gateway_limiter_uses_the_injected_clock(self, pre_setting):
        """The gateway's rate-limit path never reads the wall clock."""
        scheme = pre_setting[0]
        clock = ManualClock()
        gateway = ReEncryptionGateway(
            scheme, shard_count=1, rate_per_s=1.0, burst=1.0, clock=clock
        )
        assert gateway._limiter._clock is clock
        assert gateway._limiter.allow("t")
        assert not gateway._limiter.allow("t")
        clock.advance(1.0)
        assert gateway._limiter.allow("t")


class TestFetch:
    def test_fetch_requires_a_store(self, setting):
        _, gateway, _, _, _ = setting
        with pytest.raises(StoreUnavailableError):
            gateway.fetch(FetchRequest(tenant="t", patient="alice"))

    def test_fetch_by_entry_and_by_category(self, pre_setting):
        scheme, _, _, _, _ = pre_setting
        store = EncryptedPhrStore()
        store.put("alice", "labs", "e1", b"blob-1")
        store.put("alice", "meds", "e2", b"blob-2")
        gateway = ReEncryptionGateway(scheme, shard_count=2, store=store)
        one = gateway.fetch(FetchRequest(tenant="t", patient="alice", entry_id="e1"))
        assert [r.blob for r in one.records] == [b"blob-1"]
        labs = gateway.fetch(FetchRequest(tenant="t", patient="alice", category="labs"))
        assert [r.entry_id for r in labs.records] == ["e1"]
        everything = gateway.fetch(FetchRequest(tenant="t", patient="alice"))
        assert len(everything.records) == 2

    def test_fetch_missing_entry_is_typed(self, pre_setting):
        scheme, _, _, _, _ = pre_setting
        gateway = ReEncryptionGateway(scheme, shard_count=2, store=EncryptedPhrStore())
        with pytest.raises(EntryMissingError) as excinfo:
            gateway.fetch(FetchRequest(tenant="t", patient="alice", entry_id="nope"))
        assert excinfo.value.code == "entry-not-found"


class TestAuditAndMetrics:
    def test_audit_records_outcomes(self, setting):
        _, gateway, _, ciphertext, _ = setting
        gateway.reencrypt(_reencrypt_request(ciphertext))
        with pytest.raises(DelegationNotFoundError):
            gateway.reencrypt(_reencrypt_request(ciphertext, "mallory"))
        outcomes = [(event.action, event.outcome) for event in gateway.audit]
        assert ("grant", "ok") in outcomes
        assert ("reencrypt", "ok") in outcomes
        assert ("reencrypt", "no-delegation") in outcomes

    def test_audit_is_bounded(self, pre_setting):
        scheme, _, _, _, _ = pre_setting
        gateway = ReEncryptionGateway(
            scheme, shard_count=1, store=EncryptedPhrStore(), max_audit_entries=5
        )
        for i in range(9):
            with pytest.raises(EntryMissingError):
                gateway.fetch(FetchRequest(tenant="t", patient="p", entry_id="e%d" % i))
        audit = gateway.audit
        assert len(audit) == 5
        # Oldest dropped, newest kept, sequence numbers keep counting.
        assert [event.sequence for event in audit] == [4, 5, 6, 7, 8]

    def test_audit_keeps_one_copy_of_a_tenant_name_in_a_bounded_table(
        self, pre_setting, monkeypatch
    ):
        from repro import _intern

        scheme, _, _, _, _ = pre_setting
        gateway = ReEncryptionGateway(scheme, shard_count=1, store=EncryptedPhrStore())

        def refuse(tenant):
            with pytest.raises(EntryMissingError):
                gateway.fetch(FetchRequest(tenant=tenant, patient="p", entry_id="e"))

        # Equal names decoded from two requests are two string objects.
        first, second = ("tenant-%d" % 1, "tenant-%d" % 1)
        assert first is not second
        refuse(first)
        refuse(second)
        assert gateway.audit[-1].tenant is gateway.audit[-2].tenant
        # A stream of distinct names empties the table instead of growing it.
        monkeypatch.setattr(_intern, "INTERN_LIMIT", 4)
        names = ["tenant-%d" % (i % 6) for i in range(30)]
        for name in names:
            refuse(name)
        assert [event.tenant for event in gateway.audit][-30:] == names
        assert len(gateway._tenant_names) <= 4

    def test_snapshot_accounts_requests(self, setting):
        _, gateway, _, ciphertext, _ = setting
        gateway.reencrypt(_reencrypt_request(ciphertext))
        gateway.reencrypt(_reencrypt_request(ciphertext))
        with pytest.raises(DelegationNotFoundError):
            gateway.reencrypt(_reencrypt_request(ciphertext, "mallory"))
        snapshot = gateway.snapshot()
        assert snapshot.served == 3  # the grant + two served re-encryptions
        assert snapshot.rejected == 1
        assert snapshot.requests_total == 4
        assert snapshot.caches["result_cache"].hits == 1
        assert set(snapshot.caches) == set(gateway.cache_stats()) == {"result_cache"}
        assert sum(snapshot.shard_requests.values()) == 3


class TestBatchCacheReporting:
    def test_duplicate_items_in_one_batch_report_the_hit(self, setting):
        """The second occurrence of a duplicate is served from cache — and says so."""
        _, gateway, _, ciphertext, _ = setting
        request = _reencrypt_request(ciphertext)
        responses = gateway.reencrypt_batch([request, request])
        assert [r.cache_hit for r in responses] == [False, True]
        assert responses[0].ciphertext == responses[1].ciphertext
        # Only one transformation reached the shard.
        assert gateway.shard_named(responses[0].shard).transformations_total == 1

    def test_failed_batch_leaves_no_cached_transformations(self, setting):
        """A batch with a missing delegation aborts before any pairing work."""
        _, gateway, _, ciphertext, _ = setting
        with pytest.raises(DelegationNotFoundError):
            gateway.reencrypt_batch(
                [_reencrypt_request(ciphertext), _reencrypt_request(ciphertext, "mallory")]
            )
        # The granted item was not transformed behind the caller's back.
        assert gateway.cache_stats()["result_cache"].size == 0
        assert all(
            gateway.shard_named(name).transformations_total == 0
            for name in gateway.shard_names
        )

    def test_explicit_zero_burst_rejected(self, pre_setting):
        scheme = pre_setting[0]
        with pytest.raises(ValueError):
            ReEncryptionGateway(scheme, shard_count=1, rate_per_s=10.0, burst=0.0)
