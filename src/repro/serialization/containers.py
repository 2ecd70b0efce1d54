"""The paper's eight canonical containers, and their JSON envelope.

Each container is declared once from its dataclass, under the rule of
:mod:`repro.serialization.encoding`: its fields in declaration order,
each written as its annotation says, and a field holding another of
these containers (a proxy key's encrypted blind, a hybrid ciphertext's
KEM) as that container's full encoding.  What a dataclass does not say
is a table here: the kind bytes, the typed ciphertext's wire order (its
type label, c3, before c1 and c2) and the params' check that they are
for the decoding group.  The other schemes' wrapped envelopes, with
their scheme-id check, are declared in :mod:`repro.core.api`.

Each container has a ``serialize_*`` function producing its canonical
bytes and a ``deserialize_*`` function that needs the
:class:`~repro.pairing.group.PairingGroup` (group elements cannot be
decoded without their group).  A JSON envelope (base64 payload +
readable metadata) is provided for interoperability and debugging.
"""

from __future__ import annotations

import base64
import json

from repro.core.ciphertexts import ProxyKey, ReEncryptedCiphertext, TypedCiphertext
from repro.hybrid.kem import HybridCiphertext, HybridReEncrypted
from repro.ibe.keys import IbeCiphertext, IbeParams, IbePrivateKey
from repro.pairing.group import PairingGroup
from repro.serialization.encoding import Container, EncodingError

__all__ = [
    "KIND_TYPED_CIPHERTEXT",
    "KIND_PROXY_KEY",
    "KIND_REENCRYPTED",
    "KIND_IBE_CIPHERTEXT",
    "KIND_PRIVATE_KEY",
    "KIND_PARAMS",
    "KIND_HYBRID",
    "KIND_HYBRID_REENCRYPTED",
    "serialize_typed_ciphertext",
    "deserialize_typed_ciphertext",
    "serialize_proxy_key",
    "deserialize_proxy_key",
    "serialize_reencrypted",
    "deserialize_reencrypted",
    "serialize_ibe_ciphertext",
    "deserialize_ibe_ciphertext",
    "serialize_private_key",
    "deserialize_private_key",
    "serialize_params",
    "deserialize_params",
    "serialize_hybrid",
    "deserialize_hybrid",
    "serialize_hybrid_reencrypted",
    "deserialize_hybrid_reencrypted",
    "to_json_envelope",
    "from_json_envelope",
]

KIND_TYPED_CIPHERTEXT = 1
KIND_PROXY_KEY = 2
KIND_REENCRYPTED = 3
KIND_IBE_CIPHERTEXT = 4
KIND_PRIVATE_KEY = 5
KIND_PARAMS = 6
KIND_HYBRID = 7
KIND_HYBRID_REENCRYPTED = 8


def _check_group(group: PairingGroup, group_name: str) -> None:
    if group_name != group.params.name:
        raise EncodingError(
            "params are for group %r, not %r" % (group_name, group.params.name)
        )


# Each is declared before the containers that hold it.
IBE_CIPHERTEXT = Container(KIND_IBE_CIPHERTEXT, IbeCiphertext)
PRIVATE_KEY = Container(KIND_PRIVATE_KEY, IbePrivateKey)
PARAMS = Container(KIND_PARAMS, IbeParams, checks={"group_name": _check_group})
TYPED_CIPHERTEXT = Container(
    KIND_TYPED_CIPHERTEXT, TypedCiphertext, order=("domain", "identity", "type_label", "c1", "c2")
)
PROXY_KEY = Container(KIND_PROXY_KEY, ProxyKey)
REENCRYPTED = Container(KIND_REENCRYPTED, ReEncryptedCiphertext)
HYBRID = Container(KIND_HYBRID, HybridCiphertext)
HYBRID_REENCRYPTED = Container(KIND_HYBRID_REENCRYPTED, HybridReEncrypted)


def serialize_ibe_ciphertext(group: PairingGroup, ct: IbeCiphertext) -> bytes:
    return IBE_CIPHERTEXT.encode(group, ct)


def deserialize_ibe_ciphertext(group: PairingGroup, data: bytes) -> IbeCiphertext:
    return IBE_CIPHERTEXT.decode(group, data)


def serialize_private_key(group: PairingGroup, key: IbePrivateKey) -> bytes:
    return PRIVATE_KEY.encode(group, key)


def deserialize_private_key(group: PairingGroup, data: bytes) -> IbePrivateKey:
    return PRIVATE_KEY.decode(group, data)


def serialize_params(group: PairingGroup, params: IbeParams) -> bytes:
    return PARAMS.encode(group, params)


def deserialize_params(group: PairingGroup, data: bytes) -> IbeParams:
    return PARAMS.decode(group, data)


def serialize_typed_ciphertext(group: PairingGroup, ct: TypedCiphertext) -> bytes:
    return TYPED_CIPHERTEXT.encode(group, ct)


def deserialize_typed_ciphertext(group: PairingGroup, data: bytes) -> TypedCiphertext:
    return TYPED_CIPHERTEXT.decode(group, data)


def serialize_proxy_key(group: PairingGroup, key: ProxyKey) -> bytes:
    return PROXY_KEY.encode(group, key)


def deserialize_proxy_key(group: PairingGroup, data: bytes) -> ProxyKey:
    return PROXY_KEY.decode(group, data)


def serialize_reencrypted(group: PairingGroup, ct: ReEncryptedCiphertext) -> bytes:
    return REENCRYPTED.encode(group, ct)


def deserialize_reencrypted(group: PairingGroup, data: bytes) -> ReEncryptedCiphertext:
    return REENCRYPTED.decode(group, data)


def serialize_hybrid(group: PairingGroup, ct: HybridCiphertext) -> bytes:
    return HYBRID.encode(group, ct)


def deserialize_hybrid(group: PairingGroup, data: bytes) -> HybridCiphertext:
    return HYBRID.decode(group, data)


def serialize_hybrid_reencrypted(group: PairingGroup, ct: HybridReEncrypted) -> bytes:
    return HYBRID_REENCRYPTED.encode(group, ct)


def deserialize_hybrid_reencrypted(group: PairingGroup, data: bytes) -> HybridReEncrypted:
    return HYBRID_REENCRYPTED.decode(group, data)


# ----------------------------------------------------------- JSON envelope

_KIND_NAMES = {
    KIND_TYPED_CIPHERTEXT: "typed-ciphertext",
    KIND_PROXY_KEY: "proxy-key",
    KIND_REENCRYPTED: "reencrypted-ciphertext",
    KIND_IBE_CIPHERTEXT: "ibe-ciphertext",
    KIND_PRIVATE_KEY: "private-key",
    KIND_PARAMS: "params",
    KIND_HYBRID: "hybrid-ciphertext",
    KIND_HYBRID_REENCRYPTED: "hybrid-reencrypted",
}


def to_json_envelope(group: PairingGroup, blob: bytes) -> str:
    """Wrap canonical bytes in a readable JSON envelope."""
    if len(blob) < 6 or blob[5] not in _KIND_NAMES:
        raise EncodingError("not a recognised container")
    envelope = {
        "format": "tipre/v1",
        "kind": _KIND_NAMES[blob[5]],
        "group": group.params.name,
        "payload": base64.b64encode(blob).decode("ascii"),
    }
    return json.dumps(envelope, sort_keys=True)


def from_json_envelope(group: PairingGroup, text: str) -> bytes:
    """Unwrap a JSON envelope back to canonical bytes (validating the group)."""
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EncodingError("invalid JSON envelope") from exc
    if not isinstance(envelope, dict):
        raise EncodingError("envelope must be a JSON object")
    if envelope.get("format") != "tipre/v1":
        raise EncodingError("unknown envelope format")
    if envelope.get("group") != group.params.name:
        raise EncodingError(
            "envelope is for group %r, not %r" % (envelope.get("group"), group.params.name)
        )
    try:
        return base64.b64decode(envelope["payload"], validate=True)
    except (KeyError, ValueError) as exc:
        raise EncodingError("invalid payload") from exc
