"""E2 — the paper's scheme vs every baseline PRE scheme.

Same message load through every registered backend's lifecycle on SS256:
encryption, re-encryption key generation, proxy transformation and
delegatee decryption, plus the ciphertext/key size table.

Expected shape: the paper's scheme costs within a small constant of
Green--Ateniese (its closest relative — the delta is one GT exponentiation
for the type binding), both cost more than raw ElGamal-based schemes
(pairings vs G1 multiplications), and only the paper's scheme offers
per-type delegation.
"""

from __future__ import annotations

import pytest

from repro.bench.report import print_table
from repro.core.api import REGISTRY, create_backend
from repro.core.scheme import TypeAndIdentityPre
from repro.math.drbg import HmacDrbg
from repro.pairing.group import PairingGroup

DELEGATOR_DOMAIN = "KGC1"
DELEGATEE_DOMAIN = "KGC2"
TYPE_LABEL = "benchmark-type"


def _delegatee_domain(backend) -> str:
    return DELEGATOR_DOMAIN if backend.single_authority else DELEGATEE_DOMAIN


def _encrypt(backend, message, rng):
    return backend.encrypt(DELEGATOR_DOMAIN, "delegator", message, TYPE_LABEL, rng)


def _decrypt_reencrypted(backend, transformed):
    return backend.decrypt_reencrypted(transformed, _delegatee_domain(backend), "delegatee")


def _prepared(scheme_id: str):
    backend = create_backend(scheme_id, PairingGroup.shared("SS256"))
    rng = HmacDrbg("e2-%s" % backend.display_name)
    backend.setup(rng)
    backend.create_party(DELEGATOR_DOMAIN, "delegator", rng)
    backend.create_party(_delegatee_domain(backend), "delegatee", rng)
    message = backend.sample_message(rng)
    ciphertext = _encrypt(backend, message, rng)
    rekey = backend.rekey(
        DELEGATOR_DOMAIN, "delegator", _delegatee_domain(backend), "delegatee", TYPE_LABEL, rng
    )
    transformed = backend.reencrypt(ciphertext, rekey)
    return backend, rng, message, ciphertext, rekey, transformed


@pytest.mark.parametrize("scheme_id", REGISTRY.ids())
def test_encrypt(benchmark, scheme_id):
    backend, rng, message, *_ = _prepared(scheme_id)
    benchmark.group = "E2 encrypt"
    benchmark.pedantic(lambda: _encrypt(backend, message, rng), rounds=5, iterations=1)


@pytest.mark.parametrize("scheme_id", REGISTRY.ids())
def test_reencrypt(benchmark, scheme_id):
    backend, _, _, ciphertext, rekey, _ = _prepared(scheme_id)
    benchmark.group = "E2 re-encrypt"
    benchmark.pedantic(lambda: backend.reencrypt(ciphertext, rekey), rounds=5, iterations=1)


@pytest.mark.parametrize("scheme_id", REGISTRY.ids())
def test_decrypt_reencrypted(benchmark, scheme_id):
    backend, _, message, _, _, transformed = _prepared(scheme_id)
    benchmark.group = "E2 re-decrypt"
    result = benchmark.pedantic(
        lambda: _decrypt_reencrypted(backend, transformed), rounds=5, iterations=1
    )
    assert result == message


def test_e2_size_report(benchmark):
    """Ciphertext / proxy-key size table (bytes on the wire, SS256)."""
    group = PairingGroup.shared("SS256")
    g1, gt = group.g1_element_size(), group.gt_element_size()
    scheme = TypeAndIdentityPre(group)
    rows = [
        ["type-and-identity (this paper)", str(scheme.ciphertext_size()),
         str(scheme.reencrypted_size()), str(scheme.proxy_key_size())],
        ["Green-Ateniese IBP1", str(g1 + gt), str(2 * (g1 + gt)), str(2 * g1 + gt)],
        ["AFGH (2nd level)", str(g1 + gt), str(2 * gt), str(g1)],
        ["BBS", str(2 * g1), str(2 * g1), str(group.scalar_size())],
        ["Dodis-Ivan", str(2 * g1), str(2 * g1), str(2 * group.scalar_size())],
        ["Matsuo-style (BB1)", str(2 * g1 + gt), str(g1 + 3 * gt + g1),
         str(2 * g1 + (2 * g1 + gt))],
    ]
    print_table(
        "E2: serialized sizes on SS256 (bytes): original ct / re-encrypted ct / proxy key",
        ["scheme", "ciphertext", "re-encrypted", "proxy key"],
        rows,
    )
    benchmark.pedantic(lambda: scheme.ciphertext_size(), rounds=3, iterations=1)
