"""Golden bytes for every binary container.

``tests/data/containers.json`` holds the canonical encoding of the
paper's eight containers (``tipre/v1``) and of each baseline scheme's
three wrapped envelopes (ciphertext, proxy key, re-encrypted
ciphertext), built on TOY from seeded RNGs.  Each entry must encode to
its bytes, decode to an equal value, and re-encode to the same bytes.
Durable key logs, result-cache keys and wire payloads are these bytes,
so a change here is a format change.  Re-record only for a deliberate
one:

    PYTHONPATH=src python tools/record_containers.py
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

import pytest

from repro.core.api import create_backend
from repro.core.scheme import TypeAndIdentityPre
from repro.hybrid.kem import HybridPre
from repro.ibe.kgc import KgcRegistry
from repro.math.drbg import HmacDrbg
from repro.pairing.group import PairingGroup
from repro.serialization import containers
from repro.serialization.encoding import EncodingError, Writer

CONTAINERS_PATH = Path(__file__).resolve().parent / "data" / "containers.json"
TIPRE = "tipre/v1"
BASELINES = ("afgh/v1", "bbs/v1", "dodis-ivan/v1", "green-ateniese/v1", "matsuo/v1")
# The paper's containers, by the name their JSON envelope gives their kind.
TIPRE_CONTAINERS = {
    "ibe-ciphertext": "ibe_ciphertext",
    "private-key": "private_key",
    "params": "params",
    "typed-ciphertext": "typed_ciphertext",
    "proxy-key": "proxy_key",
    "reencrypted-ciphertext": "reencrypted",
    "hybrid-ciphertext": "hybrid",
    "hybrid-reencrypted": "hybrid_reencrypted",
}
ENVELOPES = ("ciphertext", "proxy_key", "reencrypted")


def _tipre_values(group: PairingGroup) -> dict:
    rng = HmacDrbg("containers/" + TIPRE)
    registry = KgcRegistry(group, rng)
    kgc1, kgc2 = registry.create("KGC1"), registry.create("KGC2")
    alice = kgc1.extract("alice")
    scheme = TypeAndIdentityPre(group)
    hybrid = HybridPre(group, scheme)
    ciphertext = scheme.encrypt(kgc1.params, alice, group.random_gt(rng), "labs", rng)
    key = scheme.pextract(alice, "bob", "labs", kgc2.params, rng)
    sealed = hybrid.encrypt(kgc1.params, alice, b"lab report \x00\xff", "labs", rng)
    return {
        "ibe-ciphertext": key.encrypted_blind,
        "private-key": alice,
        "params": kgc1.params,
        "typed-ciphertext": ciphertext,
        "proxy-key": key,
        "reencrypted-ciphertext": scheme.preenc(ciphertext, key),
        "hybrid-ciphertext": sealed,
        "hybrid-reencrypted": hybrid.reencrypt(sealed, key),
    }


@functools.lru_cache(maxsize=None)
def golden_containers(scheme_id: str) -> dict:
    """``{name: (value, encode, decode)}`` for one scheme, built from seeds.

    ``encode`` maps the value to bytes and ``decode`` maps bytes back.
    """
    group = PairingGroup.shared("TOY")
    if scheme_id == TIPRE:
        entries = {}
        for name, value in _tipre_values(group).items():
            suffix = TIPRE_CONTAINERS[name]
            serialize = getattr(containers, "serialize_" + suffix)
            deserialize = getattr(containers, "deserialize_" + suffix)
            entries[name] = (
                value,
                functools.partial(serialize, group),
                functools.partial(deserialize, group),
            )
        return entries
    backend = create_backend(scheme_id, group)
    rng = HmacDrbg("containers/" + scheme_id)
    backend.setup(rng)
    backend.create_party("KGC1", "alice", rng)
    delegatee_domain = "KGC1" if backend.single_authority else "KGC2"
    backend.create_party(delegatee_domain, "bob", rng)
    ciphertext = backend.encrypt("KGC1", "alice", backend.sample_message(rng), "labs", rng)
    key = backend.rekey("KGC1", "alice", delegatee_domain, "bob", "labs", rng)
    values = {
        "ciphertext": ciphertext,
        "proxy_key": key,
        "reencrypted": backend.reencrypt(ciphertext, key),
    }
    return {
        name: (
            values[name],
            getattr(backend, "serialize_" + name),
            getattr(backend, "deserialize_" + name),
        )
        for name in ENVELOPES
    }


def record_containers() -> list[dict]:
    """Every golden container's bytes under the current codec."""
    return [
        {"scheme": scheme_id, "name": name, "hex": encode(value).hex()}
        for scheme_id in (TIPRE,) + BASELINES
        for name, (value, encode, _decode) in golden_containers(scheme_id).items()
    ]


ENTRIES = (
    json.loads(CONTAINERS_PATH.read_text(encoding="utf-8")) if CONTAINERS_PATH.exists() else []
)


def entry_id(entry: dict) -> str:
    return "%s %s" % (entry["scheme"], entry["name"])


def test_every_container_is_pinned():
    pinned = {(entry["scheme"], entry["name"]) for entry in ENTRIES}
    expected = {(TIPRE, name) for name in TIPRE_CONTAINERS} | {
        (scheme_id, name) for scheme_id in BASELINES for name in ENVELOPES
    }
    assert pinned == expected
    assert len(ENTRIES) == len(expected) == 23


@pytest.mark.parametrize("entry", ENTRIES, ids=entry_id)
def test_golden_container(entry):
    value, encode, decode = golden_containers(entry["scheme"])[entry["name"]]
    blob = bytes.fromhex(entry["hex"])
    assert encode(value) == blob
    decoded = decode(blob)
    assert decoded == value
    assert encode(decoded) == blob


@pytest.mark.parametrize("spelling", ["leading zero", "empty"])
@pytest.mark.parametrize("scheme_id", ["bbs/v1", "dodis-ivan/v1"])
def test_a_proxy_share_has_one_encoding(scheme_id, spelling):
    """These proxy keys are one integer: its bytes with a zero byte in
    front, or no bytes for 0, are second encodings and are refused."""
    key, encode, decode = golden_containers(scheme_id)["proxy_key"]
    number = int(key.payload)  # an mpz under the gmpy2 int backend
    share = number.to_bytes((number.bit_length() + 7) // 8, "big")
    payload = Writer(41).write_bytes(share).getvalue()
    blob = encode(key)
    assert blob.endswith(len(payload).to_bytes(4, "big") + payload)
    spelled = b"\x00" + share if spelling == "leading zero" else b""
    other = Writer(41).write_bytes(spelled).getvalue()
    with pytest.raises(EncodingError, match="minimally"):
        decode(blob[: -len(payload) - 4] + len(other).to_bytes(4, "big") + other)
