"""The gateway as a real server: HTTP/JSON wire protocol walkthrough.

The paper's proxy is a semi-trusted *server* patients and clinicians
reach over a network.  This example makes that literal: it starts an
`AsyncGatewayServer` on an ephemeral port, then talks to it only through
`RemoteGateway` over HTTP — grants, a single re-encryption, a batch, a revocation
and the error taxonomy all cross a real socket as versioned JSON, and
the delegatee still recovers the exact plaintexts.

Run:  python examples/wire_gateway.py

(TOY parameters: the point here is the wire, not key size.)
"""

from repro import HmacDrbg, KgcRegistry, PairingGroup, TypeAndIdentityPre
from repro.serialization.containers import serialize_reencrypted
from repro.service import (
    AsyncGatewayServer,
    DelegationNotFoundError,
    GrantRequest,
    ReEncryptionGateway,
    ReEncryptRequest,
    RemoteGateway,
    RevokeRequest,
)

rng = HmacDrbg("wire-example")

# 1. The usual two-domain setting; the gateway process owns the shards.
group = PairingGroup("TOY")
registry = KgcRegistry(group, rng)
kgc1 = registry.create("KGC1")
kgc2 = registry.create("KGC2")
scheme = TypeAndIdentityPre(group)
gateway = ReEncryptionGateway(scheme, shard_count=4)

alice = kgc1.extract("alice")
bob = kgc2.extract("bob")

# 2. Put the gateway behind HTTP and build the typed client.  From here
#    on, nothing touches `gateway` directly — every call is a request.
server = AsyncGatewayServer(gateway, group).start()
client = RemoteGateway(server.http_url, group)
print("gateway serving on %s" % server.http_url)

# 3. Grants travel the wire as canonical proxy-key envelopes.
for type_label in ("labs", "medication"):
    response = client.grant(
        GrantRequest(
            tenant="alice",
            proxy_key=scheme.pextract(alice, "bob", type_label, kgc2.params, rng),
        )
    )
    print("wire grant %-10s -> %s" % (type_label, response.shard))

# 4. One re-encryption over HTTP; the response decodes to the exact
#    bytes an in-process call returns, so bob's decryption is unchanged.
report = group.random_gt(rng)
ciphertext = scheme.encrypt(kgc1.params, alice, report, "labs", rng)
request = ReEncryptRequest(
    tenant="clinic", ciphertext=ciphertext, delegatee_domain="KGC2", delegatee="bob"
)
wire_response = client.reencrypt(request)
in_process = gateway.reencrypt(request)
assert serialize_reencrypted(group, wire_response.ciphertext) == serialize_reencrypted(
    group, in_process.ciphertext
)
assert scheme.decrypt_reencrypted(wire_response.ciphertext, bob) == report
print("single re-encryption over the wire: byte-identical, decrypts: OK")

# 5. A batch is one POST: N medication entries, one HTTP round trip.
entries = [group.random_gt(rng) for _ in range(3)]
batch = [
    ReEncryptRequest(
        tenant="clinic",
        ciphertext=scheme.encrypt(kgc1.params, alice, entry, "medication", rng),
        delegatee_domain="KGC2",
        delegatee="bob",
    )
    for entry in entries
]
for response, entry in zip(client.reencrypt_batch(batch), entries):
    assert scheme.decrypt_reencrypted(response.ciphertext, bob) == entry
print("batched re-encryption over the wire: 3 plaintexts recovered by bob: OK")

# 6. Revocation over the wire; the stable error code comes back as the
#    same exception class an in-process caller would catch.
client.revoke(
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
    client.reencrypt(request)
    raise AssertionError("revoked delegation must not re-encrypt")
except DelegationNotFoundError as error:
    print("after revoke, the wire answers 404 %s: %s" % (error.code, error))

# 7. The operator's view, fetched as a metrics-snapshot message.
snapshot = client.snapshot()
print(
    "server metrics over the wire: %d served, %d rejected, reencrypt p50 %.2f ms"
    % (snapshot.served, snapshot.rejected, snapshot.latency["reencrypt"].p50_ms)
)

server.close()
gateway.close()
