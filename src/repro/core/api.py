"""The scheme-agnostic backend API: one lifecycle, many PRE schemes.

The paper positions its construction inside a family of proxy
re-encryption schemes (AFGH, BBS, Green--Ateniese, Matsuo-style, ...).
Everything above :mod:`repro.core` — the gateway, its shard locks, the
durable key table, the wire protocol, the CLI — used to be hard-wired to
:class:`~repro.core.scheme.TypeAndIdentityPre`.  This module promotes the
uniform five-step lifecycle the benchmarks already used,

    setup -> encrypt -> rekey -> reencrypt -> decrypt (both sides)

into a first-class backend protocol the *service stack* is built
against, so one production gateway serves any registered scheme:

* :class:`PreBackend` — the abstract lifecycle plus serialization hooks
  for the three envelope kinds a gateway moves around (ciphertext,
  proxy key, re-encrypted ciphertext);
* :class:`SchemeCapabilities` — the property flag set of the Ateniese
  et al. taxonomy (experiment E4) extended with the *operational* flag
  ``deterministic_reencrypt`` that gates result-cache admission;
* :class:`WrappedCiphertext` / :class:`WrappedProxyKey` /
  :class:`WrappedReEncrypted` — routing envelopes for schemes whose
  native containers carry no (domain, identity, type) metadata.  They
  duck-type the attribute surface of the paper's native containers, so
  the router, key table, batcher and caches work on either unchanged;
* :class:`Encoded` / :class:`EncodedCiphertext` — an envelope held as
  its canonical bytes (plus, for a ciphertext, its routing header) and
  decoded only when something reads a component, which is how a wire
  server answers a cached re-encryption without decompressing a point;
* :class:`SchemeRegistry` — stable scheme ids (``tipre/v1``,
  ``afgh/v1``, ``green-ateniese/v1``, ...) to backend classes; a
  built-in scheme's module is imported only when that scheme is first
  looked up, so a process serving one scheme never loads the others.

Scheme ids are *wire- and disk-stable*: the HTTP codec tags every
element envelope with one and rejects mismatches as ``invalid-request``,
and the durable append log refuses to open under a different scheme.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Any, ClassVar, Iterator

from repro.serialization.encoding import EncodingError, Reader, Writer

__all__ = [
    "TIPRE_SCHEME_ID",
    "CAPABILITY_NAMES",
    "PROPERTY_NAMES",
    "SchemeCapabilities",
    "WrappedCiphertext",
    "WrappedProxyKey",
    "WrappedReEncrypted",
    "Encoded",
    "EncodedCiphertext",
    "PreBackend",
    "SchemeRegistry",
    "UnknownSchemeError",
    "DuplicateSchemeError",
    "REGISTRY",
    "register_backend",
    "available_schemes",
    "create_backend",
    "resolve_backend",
]

TIPRE_SCHEME_ID = "tipre/v1"

# The five benchmark property flags (experiment E4 order) ...
PROPERTY_NAMES = (
    "unidirectional",
    "non_interactive",
    "collusion_safe",
    "identity_based",
    "type_granular",
)
# ... plus the operational flags the service layer keys decisions on.
CAPABILITY_NAMES = PROPERTY_NAMES + ("deterministic_reencrypt",)

# Canonical-encoding kind bytes for the generic wrapped envelopes; the
# native tipre containers keep their own kinds in repro.serialization.
KIND_WRAPPED_CIPHERTEXT = 32
KIND_WRAPPED_PROXY_KEY = 33
KIND_WRAPPED_REENCRYPTED = 34


@dataclass(frozen=True)
class SchemeCapabilities:
    """What a scheme guarantees — the E4 taxonomy plus operational flags.

    ``deterministic_reencrypt`` is the service layer's cache-soundness
    contract: True means the transformation is a pure function of
    (ciphertext, installed key), so a cached result is an exact replay.
    A scheme with randomized re-encryption must set it False, and the
    gateway will never admit its results to the KEM-result cache.
    """

    unidirectional: bool
    non_interactive: bool
    collusion_safe: bool
    identity_based: bool
    type_granular: bool
    deterministic_reencrypt: bool

    def as_dict(self) -> dict[str, bool]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def properties(self) -> dict[str, bool]:
        """Just the five E4 property flags (the benchmark tables)."""
        return {name: getattr(self, name) for name in PROPERTY_NAMES}

    @classmethod
    def from_dict(cls, flags: dict[str, bool]) -> "SchemeCapabilities":
        missing = [name for name in CAPABILITY_NAMES if name not in flags]
        if missing:
            raise ValueError("missing capability flags: %s" % ", ".join(missing))
        return cls(**{name: bool(flags[name]) for name in CAPABILITY_NAMES})


# ------------------------------------------------------- routing envelopes


@dataclass(frozen=True)
class WrappedCiphertext:
    """A scheme-native ciphertext plus the routing header the gateway needs.

    Mirrors the attribute surface of
    :class:`~repro.core.ciphertexts.TypedCiphertext` (``domain``,
    ``identity``, ``type_label``), so the router and batcher treat both
    identically.  ``payload`` is the scheme's own (hashable) container.
    """

    scheme_id: str
    domain: str
    identity: str
    type_label: str
    payload: Any

    def header(self) -> tuple[str, str, str]:
        return (self.domain, self.identity, self.type_label)


@dataclass(frozen=True)
class WrappedProxyKey:
    """A scheme-native re-encryption key plus its delegation metadata."""

    scheme_id: str
    delegator_domain: str
    delegator: str
    delegatee_domain: str
    delegatee: str
    type_label: str
    payload: Any

    def matches(self, ciphertext: WrappedCiphertext) -> bool:
        """True when this key is allowed to transform ``ciphertext``."""
        return (
            self.scheme_id == ciphertext.scheme_id
            and self.delegator_domain == ciphertext.domain
            and self.delegator == ciphertext.identity
            and self.type_label == ciphertext.type_label
        )


@dataclass(frozen=True)
class WrappedReEncrypted:
    """A scheme-native re-encrypted ciphertext plus delegation metadata."""

    scheme_id: str
    delegator_domain: str
    delegator: str
    delegatee_domain: str
    delegatee: str
    type_label: str
    payload: Any


# ------------------------------------------------------- canonical bytes


class Encoded:
    """An envelope held as its canonical bytes, decoded on first use.

    ``blob`` is the envelope's canonical encoding and ``decode`` the
    backend hook that turns it back into the envelope (``element``, when
    the caller already holds it).  Reading any other attribute decodes
    once and forwards to the decoded envelope, so an ``Encoded`` stands
    in for what it holds.  Two encodings compare by their bytes — the
    decoders accept only canonical encodings, so equal bytes are equal
    envelopes — and an encoding equals a decoded envelope when its own
    decoding does.
    """

    __slots__ = ("blob", "_decode", "_element")

    def __init__(self, blob: bytes, decode, element: Any = None):
        self.blob = blob
        self._decode = decode
        self._element = element

    @property
    def element(self) -> Any:
        """The decoded envelope (decoding raises what ``decode`` raises)."""
        if self._element is None:
            self._element = self._decode(self.blob)
        return self._element

    def __getattr__(self, name: str) -> Any:
        if name.startswith("__"):
            raise AttributeError(name)
        return getattr(self.element, name)

    def __eq__(self, other) -> bool:
        if isinstance(other, Encoded):
            return self.blob == other.blob
        return self.element == other

    def __hash__(self) -> int:
        return hash(self.element)

    def __repr__(self) -> str:
        return "%s(%d bytes)" % (type(self).__name__, len(self.blob))


class EncodedCiphertext(Encoded):
    """A ciphertext envelope as canonical bytes plus its routing header.

    The header — the ``domain``, ``identity`` and ``type_label`` every
    envelope family writes before its elements — is all the router, key
    table and result cache read, so a request answered from the cache
    is never decoded.
    """

    __slots__ = ("domain", "identity", "type_label")

    def __init__(self, blob: bytes, decode, domain: str, identity: str, type_label: str):
        super().__init__(blob, decode)
        self.domain = domain
        self.identity = identity
        self.type_label = type_label


# ----------------------------------------------------------------- backend


class PreBackend(ABC):
    """One PRE scheme behind the uniform lifecycle the service stack speaks.

    Parties are addressed as (domain, identity) string pairs — for
    identity-based schemes the domain names a KGC, for key-pair schemes
    it is just a namespace.  The backend holds whatever party state the
    scheme needs (key pairs, KGC registries, secret shares); a *serving*
    process never calls the party-side methods, only :meth:`reencrypt`
    and the serialization hooks, which must work with nothing but the
    pairing group.

    Subclasses implement the lifecycle plus the ``_encode_payload`` /
    ``_decode_payload`` pair; the generic wrapped-envelope serialization
    (scheme id + routing metadata + payload bytes) is provided here.
    The native tipre backend overrides the ``serialize_*`` methods
    wholesale to keep its canonical container bytes.
    """

    scheme_id: ClassVar[str] = "abstract"
    display_name: ClassVar[str] = "abstract"
    capabilities: ClassVar[SchemeCapabilities]
    # True for schemes (Matsuo-style) where delegator and delegatee must
    # be registered under the same authority; drivers collapse the two
    # demo domains into one when set.
    single_authority: ClassVar[bool] = False

    def __init__(self, group):
        self.group = group

    # ------------------------------------------------------------ lifecycle

    @abstractmethod
    def setup(self, rng) -> None:
        """(Re-)initialize global parameters and forget all parties."""

    @abstractmethod
    def create_party(self, domain: str, identity: str, rng) -> None:
        """Ensure (domain, identity) has keys; idempotent."""

    @abstractmethod
    def sample_message(self, rng) -> Any:
        """A uniform plaintext from this scheme's message space."""

    @abstractmethod
    def encrypt(self, domain: str, identity: str, message: Any, type_label: str, rng):
        """Encrypt for (domain, identity) under ``type_label``.

        Schemes without type granularity still carry the label in the
        envelope — the gateway's delegation table is label-scoped either
        way; the capability flag records that the *cryptography* does
        not enforce it.
        """

    @abstractmethod
    def rekey(
        self,
        delegator_domain: str,
        delegator: str,
        delegatee_domain: str,
        delegatee: str,
        type_label: str,
        rng,
    ):
        """Produce the delegator->delegatee proxy key envelope."""

    @abstractmethod
    def reencrypt(self, ciphertext, proxy_key):
        """The proxy transformation; must work with party-free state."""

    def reencrypt_batch(self, ciphertexts, proxy_key):
        """Transform many ciphertexts under ONE proxy key.

        The default is the per-item loop; pairing-based backends override
        it to share the Miller-loop precomputation for the fixed
        re-encryption-key point and batch the final-exponentiation
        inversions.  Results must be item-for-item identical to calling
        :meth:`reencrypt` in order.
        """
        return [self.reencrypt(ciphertext, proxy_key) for ciphertext in ciphertexts]

    @abstractmethod
    def decrypt_original(self, ciphertext, domain: str, identity: str) -> Any:
        """Delegator-side decryption."""

    @abstractmethod
    def decrypt_reencrypted(self, ciphertext, domain: str, identity: str) -> Any:
        """Delegatee-side decryption."""

    def ciphertext_components(self, ciphertext) -> int:
        """Group-element components of one ciphertext (size tables)."""
        return 2

    # -------------------------------------------------------- serialization

    def _encode_payload(self, kind: str, payload: Any) -> bytes:
        """Scheme-native payload -> canonical bytes; ``kind`` is one of
        ``"ciphertext"``, ``"proxy-key"``, ``"reencrypted"``."""
        raise NotImplementedError("%s does not encode %s payloads" % (self.scheme_id, kind))

    def _decode_payload(self, kind: str, blob: bytes) -> Any:
        raise NotImplementedError("%s does not decode %s payloads" % (self.scheme_id, kind))

    def _check_scheme(self, found: str) -> None:
        if found != self.scheme_id:
            raise EncodingError(
                "envelope is for scheme %r, not %r" % (found, self.scheme_id)
            )

    def serialize_ciphertext(self, ciphertext: WrappedCiphertext) -> bytes:
        writer = Writer(KIND_WRAPPED_CIPHERTEXT)
        writer.write_str(ciphertext.scheme_id)
        writer.write_str(ciphertext.domain).write_str(ciphertext.identity)
        writer.write_str(ciphertext.type_label)
        writer.write_bytes(self._encode_payload("ciphertext", ciphertext.payload))
        return writer.getvalue()

    def deserialize_ciphertext(self, blob: bytes) -> WrappedCiphertext:
        reader = Reader(blob, KIND_WRAPPED_CIPHERTEXT)
        scheme_id = reader.read_str()
        self._check_scheme(scheme_id)
        domain = reader.read_str()
        identity = reader.read_str()
        type_label = reader.read_str()
        payload = self._decode_payload("ciphertext", reader.read_bytes())
        reader.finish()
        return WrappedCiphertext(
            scheme_id=scheme_id,
            domain=domain,
            identity=identity,
            type_label=type_label,
            payload=payload,
        )

    def serialize_proxy_key(self, key: WrappedProxyKey) -> bytes:
        writer = Writer(KIND_WRAPPED_PROXY_KEY)
        writer.write_str(key.scheme_id)
        writer.write_str(key.delegator_domain).write_str(key.delegator)
        writer.write_str(key.delegatee_domain).write_str(key.delegatee)
        writer.write_str(key.type_label)
        writer.write_bytes(self._encode_payload("proxy-key", key.payload))
        return writer.getvalue()

    def deserialize_proxy_key(self, blob: bytes) -> WrappedProxyKey:
        reader = Reader(blob, KIND_WRAPPED_PROXY_KEY)
        scheme_id = reader.read_str()
        self._check_scheme(scheme_id)
        parts = [reader.read_str() for _ in range(5)]
        payload = self._decode_payload("proxy-key", reader.read_bytes())
        reader.finish()
        return WrappedProxyKey(scheme_id, *parts, payload=payload)

    def serialize_reencrypted(self, ciphertext: WrappedReEncrypted) -> bytes:
        writer = Writer(KIND_WRAPPED_REENCRYPTED)
        writer.write_str(ciphertext.scheme_id)
        writer.write_str(ciphertext.delegator_domain).write_str(ciphertext.delegator)
        writer.write_str(ciphertext.delegatee_domain).write_str(ciphertext.delegatee)
        writer.write_str(ciphertext.type_label)
        writer.write_bytes(self._encode_payload("reencrypted", ciphertext.payload))
        return writer.getvalue()

    def deserialize_reencrypted(self, blob: bytes) -> WrappedReEncrypted:
        reader = Reader(blob, KIND_WRAPPED_REENCRYPTED)
        scheme_id = reader.read_str()
        self._check_scheme(scheme_id)
        parts = [reader.read_str() for _ in range(5)]
        payload = self._decode_payload("reencrypted", reader.read_bytes())
        reader.finish()
        return WrappedReEncrypted(scheme_id, *parts, payload=payload)

    # ------------------------------------------------ canonical-bytes views

    def encoded_ciphertext(self, blob: bytes) -> EncodedCiphertext:
        """Check a ciphertext envelope; hold it as bytes plus its header.

        Every check :meth:`deserialize_ciphertext` makes runs here except
        the square roots that decompress G1 points, which wait until a
        component is read.
        """
        with self.group.deferred_square_roots():
            shell = self.deserialize_ciphertext(blob)
        return EncodedCiphertext(
            blob, self.deserialize_ciphertext, shell.domain, shell.identity, shell.type_label
        )

    def encoded_reencrypted(self, blob: bytes) -> Encoded:
        """Check a re-encrypted envelope; hold it as bytes until it is read.

        The deferred decoding runs under the calling thread's
        :meth:`~repro.pairing.group.PairingGroup.known_points`, so a
        client decompresses no point it already holds.
        """
        with self.group.deferred_square_roots():
            self.deserialize_reencrypted(blob)
        return Encoded(blob, self.group.bind_known_points(self.deserialize_reencrypted))

    def ciphertext_bytes(self, ciphertext) -> bytes:
        """A ciphertext's canonical bytes, whether held decoded or encoded."""
        if isinstance(ciphertext, Encoded):
            return ciphertext.blob
        return self.serialize_ciphertext(ciphertext)

    def reencrypted_bytes(self, ciphertext) -> bytes:
        """A re-encrypted ciphertext's canonical bytes, decoded or encoded."""
        if isinstance(ciphertext, Encoded):
            return ciphertext.blob
        return self.serialize_reencrypted(ciphertext)


# ---------------------------------------------------------------- registry


class UnknownSchemeError(KeyError):
    """No backend is registered under the requested scheme id."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the prose
        return self.args[0] if self.args else ""


class DuplicateSchemeError(ValueError):
    """A second backend tried to claim an already-registered scheme id."""


class SchemeRegistry:
    """Stable scheme ids to :class:`PreBackend` classes.

    Ids are versioned slugs (``tipre/v1``) so that an incompatible
    envelope change registers as a *new* id instead of silently
    corrupting wire peers and durable logs written under the old one.

    ``builtins`` maps ids to the module whose import registers them:
    those ids are listed and contained from the start, and a lookup
    imports the module on first use.
    """

    def __init__(self, builtins: dict[str, str] | None = None) -> None:
        self._backends: dict[str, type[PreBackend]] = {}
        self._builtins = dict(builtins or {})

    def register(
        self, backend_class: type[PreBackend], replace: bool = False
    ) -> type[PreBackend]:
        scheme_id = backend_class.scheme_id
        existing = self._backends.get(scheme_id)
        if existing is not None and existing is not backend_class and not replace:
            raise DuplicateSchemeError(
                "scheme id %r is already registered to %s"
                % (scheme_id, existing.__name__)
            )
        self._backends[scheme_id] = backend_class
        return backend_class

    def backend_class(self, scheme_id: str) -> type[PreBackend]:
        if scheme_id not in self._backends and scheme_id in self._builtins:
            __import__(self._builtins[scheme_id])  # registers on import
        try:
            return self._backends[scheme_id]
        except KeyError:
            raise UnknownSchemeError(
                "unknown scheme id %r (registered: %s)"
                % (scheme_id, ", ".join(sorted(self.ids())) or "none")
            ) from None

    def create(self, scheme_id: str, group) -> PreBackend:
        return self.backend_class(scheme_id)(group)

    def ids(self) -> list[str]:
        """Known ids, the paper's scheme first, then alphabetical."""
        known = set(self._backends) | set(self._builtins)
        rest = sorted(scheme_id for scheme_id in known if scheme_id != TIPRE_SCHEME_ID)
        head = [TIPRE_SCHEME_ID] if TIPRE_SCHEME_ID in known else []
        return head + rest

    def __contains__(self, scheme_id: str) -> bool:
        return scheme_id in self._backends or scheme_id in self._builtins

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids())


REGISTRY = SchemeRegistry(
    builtins={
        TIPRE_SCHEME_ID: "repro.core.tipre_backend",
        "afgh/v1": "repro.baselines.backends",
        "bbs/v1": "repro.baselines.backends",
        "dodis-ivan/v1": "repro.baselines.backends",
        "green-ateniese/v1": "repro.baselines.backends",
        "matsuo/v1": "repro.baselines.backends",
    }
)


def register_backend(backend_class: type[PreBackend]) -> type[PreBackend]:
    """Class decorator: add a backend to the process-wide registry."""
    return REGISTRY.register(backend_class)


def available_schemes() -> list[str]:
    """Every known scheme id, built-ins included, without importing any."""
    return REGISTRY.ids()


def create_backend(scheme_id: str, group) -> PreBackend:
    """Instantiate the backend registered under ``scheme_id``."""
    return REGISTRY.create(scheme_id, group)


def resolve_backend(obj) -> PreBackend:
    """Coerce legacy scheme-or-group arguments into a :class:`PreBackend`.

    Accepts a backend (returned as-is), a raw
    :class:`~repro.core.scheme.TypeAndIdentityPre` (wrapped in the tipre
    backend sharing that instance) or a bare
    :class:`~repro.pairing.group.PairingGroup` (a fresh tipre backend) —
    the three spellings the service stack historically took.
    """
    if isinstance(obj, PreBackend):
        return obj
    from repro.core.scheme import TypeAndIdentityPre
    from repro.core.tipre_backend import TipreBackend
    from repro.pairing.group import PairingGroup

    if isinstance(obj, TypeAndIdentityPre):
        return TipreBackend.over(obj)
    if isinstance(obj, PairingGroup):
        return TipreBackend(obj)
    raise TypeError(
        "expected a PreBackend, TypeAndIdentityPre or PairingGroup, got %r"
        % type(obj).__name__
    )
