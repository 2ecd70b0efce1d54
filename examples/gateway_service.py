"""The re-encryption gateway: sharding, caching, batching, rate limits.

The paper's proxy serves *many* patients and delegatees.  This walkthrough
stands a gateway over four proxy shards, installs grants through it,
serves single and batched re-encryption requests, trips the per-tenant
rate limiter, and prints the metrics snapshot a production operator would
watch.

Run:  python examples/gateway_service.py
"""

from repro import HmacDrbg, KgcRegistry, PairingGroup, TypeAndIdentityPre
from repro.bench.report import print_table
from repro.service import (
    DelegationNotFoundError,
    GrantRequest,
    RateLimitedError,
    ReEncryptionGateway,
    ReEncryptRequest,
    RevokeRequest,
)

rng = HmacDrbg("gateway-example")

# 1. The usual two-domain setting, plus a gateway over four proxy shards.
group = PairingGroup("SS256")
registry = KgcRegistry(group, rng)
kgc1 = registry.create("KGC1")
kgc2 = registry.create("KGC2")
scheme = TypeAndIdentityPre(group)
gateway = ReEncryptionGateway(scheme, shard_count=4, rate_per_s=50.0, burst=5.0)

alice = kgc1.extract("alice")
bob = kgc2.extract("bob")

# 2. Grants go through the gateway; consistent hashing picks the shard.
for type_label in ("labs", "medication"):
    response = gateway.grant(
        GrantRequest(
            tenant="alice",
            proxy_key=scheme.pextract(alice, "bob", type_label, kgc2.params, rng),
        )
    )
    print("grant %-10s -> %s" % (type_label, response.shard))

# 3. A batch of lab reports for bob: one key lookup serves all three.
reports = [group.random_gt(rng) for _ in range(3)]
requests = [
    ReEncryptRequest(
        tenant="clinic",
        ciphertext=scheme.encrypt(kgc1.params, alice, report, "labs", rng),
        delegatee_domain="KGC2",
        delegatee="bob",
    )
    for report in reports
]
for response, report in zip(gateway.reencrypt_batch(requests), reports):
    assert scheme.decrypt_reencrypted(response.ciphertext, bob) == report
print("batched re-encryption: 3 plaintexts recovered by bob: OK")

# 4. Replaying a request is a cache hit — the shard does no pairing work.
replay = gateway.reencrypt(requests[0])
print("replayed request served from cache:", replay.cache_hit)

# 5. Revocation drops the cached results too; the request now fails, typed.
gateway.revoke(
    RevokeRequest(
        tenant="alice",
        delegator_domain="KGC1",
        delegator="alice",
        delegatee_domain="KGC2",
        delegatee="bob",
        type_label="labs",
    )
)
try:
    gateway.reencrypt(requests[0])
except DelegationNotFoundError as refusal:
    print("after revoke, gateway refuses with code %r" % refusal.code)

# 6. A greedy tenant hits the token bucket.
greedy = ReEncryptRequest(
    tenant="greedy",
    ciphertext=requests[0].ciphertext,
    delegatee_domain="KGC2",
    delegatee="bob",
)
limited = 0
for _ in range(8):
    try:
        gateway.reencrypt(greedy)
    except DelegationNotFoundError:
        pass  # labs was revoked; admission still consumed a token
    except RateLimitedError:
        limited += 1
print("rate limiter rejected %d of 8 burst requests" % limited)

# 7. The operator's view.
print_table("gateway metrics", ["metric", "value"], gateway.snapshot().rows())
