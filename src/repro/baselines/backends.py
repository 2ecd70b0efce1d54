"""The related-work schemes as registered :class:`PreBackend` s.

Each backend wires one baseline scheme into the scheme-agnostic gateway
API: parties are (domain, identity) pairs, ciphertexts and proxy keys
travel inside the generic wrapped envelopes (the native containers of
these schemes carry no routing metadata), and every backend names the
three payload types the container rule writes inside them — so the
durable key table, the wire protocol and the benchmarks move their
envelopes exactly like the paper's own.

Re-encryption never touches party state: a serving process deserializes
a wrapped key and transforms with group operations only, which is what
lets ``repro-pre serve --http --scheme afgh/v1`` run with nothing but
the pairing group.
"""

from __future__ import annotations

from typing import Any, ClassVar

from repro.baselines.afgh import (
    AfghFirstLevelCiphertext,
    AfghKeyPair,
    AfghScheme,
    AfghSecondLevelCiphertext,
)
from repro.baselines.bb1 import Bb1Ciphertext, Bb1Ibe, Bb1MasterKey, Bb1Params, Bb1PrivateKey
from repro.baselines.bbs import BbsCiphertext, BbsProxyScheme
from repro.baselines.dodis_ivan import DodisIvanScheme, PartiallyDecrypted, SecretShares
from repro.baselines.elgamal import ElGamalCiphertext, ElGamalKeyPair
from repro.baselines.green_ateniese import (
    GaProxyKey,
    GaReEncryptedCiphertext,
    GreenAtenieseIbp1,
)
from repro.baselines.matsuo import MatsuoProxyKey, MatsuoReEncrypted, MatsuoStylePre
from repro.core.api import (
    PreBackend,
    SchemeCapabilities,
    WrappedCiphertext,
    WrappedProxyKey,
    WrappedReEncrypted,
    register_backend,
)
from repro.core.scheme import DelegationError
from repro.core.tipre_backend import KgcPartyMixin
from repro.ec.curve import Point
from repro.ibe.keys import IbeCiphertext

__all__ = [
    "GreenAtenieseBackend",
    "AfghBackend",
    "BbsBackend",
    "MatsuoBackend",
    "DodisIvanBackend",
]

class _WrappingBackend(PreBackend):
    """Shared plumbing: envelope construction and the metadata guard."""

    def _wrap_ciphertext(self, domain: str, identity: str, type_label: str, payload: Any):
        return WrappedCiphertext(
            scheme_id=self.scheme_id,
            domain=domain,
            identity=identity,
            type_label=type_label,
            payload=payload,
        )

    def _wrap_key(self, index: tuple[str, str, str, str, str], payload: Any):
        delegator_domain, delegator, delegatee_domain, delegatee, type_label = index
        return WrappedProxyKey(
            scheme_id=self.scheme_id,
            delegator_domain=delegator_domain,
            delegator=delegator,
            delegatee_domain=delegatee_domain,
            delegatee=delegatee,
            type_label=type_label,
            payload=payload,
        )

    def _wrap_reencrypted(self, key: WrappedProxyKey, payload: Any):
        return WrappedReEncrypted(
            scheme_id=self.scheme_id,
            delegator_domain=key.delegator_domain,
            delegator=key.delegator,
            delegatee_domain=key.delegatee_domain,
            delegatee=key.delegatee,
            type_label=key.type_label,
            payload=payload,
        )

    def _guard(self, ciphertext: WrappedCiphertext, key: WrappedProxyKey) -> None:
        """The gateway-level policy check every transformation pays.

        For schemes without cryptographic type granularity this guard is
        the *only* thing scoping a key to its label — which is exactly
        the contrast experiment E7 demonstrates.
        """
        if not key.matches(ciphertext):
            raise DelegationError(
                "proxy key %s->%s (type %r) does not match ciphertext of %s (type %r)"
                % (
                    key.delegator,
                    key.delegatee,
                    key.type_label,
                    ciphertext.identity,
                    ciphertext.type_label,
                )
            )


# --------------------------------------------------------- Green--Ateniese


@register_backend
class GreenAtenieseBackend(KgcPartyMixin, _WrappingBackend):
    """Green--Ateniese IBP1: IBE-to-IBE, no type granularity."""

    scheme_id: ClassVar[str] = "green-ateniese/v1"
    display_name: ClassVar[str] = "Green-Ateniese IBP1"
    capabilities: ClassVar[SchemeCapabilities] = SchemeCapabilities(
        unidirectional=True,
        non_interactive=True,
        collusion_safe=True,
        identity_based=True,
        type_granular=False,
        deterministic_reencrypt=True,
    )
    payload_types: ClassVar[tuple] = (IbeCiphertext, GaProxyKey, GaReEncryptedCiphertext)

    def __init__(self, group):
        super().__init__(group)
        self.scheme = GreenAtenieseIbp1(group)
        self._init_party_state()

    def encrypt(self, domain: str, identity: str, message, type_label: str, rng):
        ciphertext = self.scheme.encrypt(self._kgc(domain).params, message, identity, rng)
        return self._wrap_ciphertext(domain, identity, type_label, ciphertext)

    def rekey(self, delegator_domain, delegator, delegatee_domain, delegatee, type_label, rng):
        payload = self.scheme.rkgen(
            self._key(delegator_domain, delegator),
            delegatee,
            self._kgc(delegatee_domain).params,
            rng,
        )
        return self._wrap_key(
            (delegator_domain, delegator, delegatee_domain, delegatee, type_label), payload
        )

    def reencrypt(self, ciphertext, proxy_key):
        self._guard(ciphertext, proxy_key)
        return self._wrap_reencrypted(
            proxy_key, self.scheme.reencrypt(ciphertext.payload, proxy_key.payload)
        )

    def decrypt_original(self, ciphertext, domain: str, identity: str):
        return self.scheme.decrypt(ciphertext.payload, self._key(domain, identity))

    def decrypt_reencrypted(self, ciphertext, domain: str, identity: str):
        return self.scheme.decrypt_reencrypted(
            ciphertext.payload, self._key(domain, identity)
        )


# -------------------------------------------------------------------- AFGH


@register_backend
class AfghBackend(_WrappingBackend):
    """AFGH (TISSEC'06): key pairs, second-level to first-level transform."""

    scheme_id: ClassVar[str] = "afgh/v1"
    display_name: ClassVar[str] = "AFGH (TISSEC'06)"
    capabilities: ClassVar[SchemeCapabilities] = SchemeCapabilities(
        unidirectional=True,
        non_interactive=True,
        collusion_safe=True,
        identity_based=False,
        type_granular=False,
        deterministic_reencrypt=True,
    )
    payload_types: ClassVar[tuple] = (AfghSecondLevelCiphertext, Point, AfghFirstLevelCiphertext)

    def __init__(self, group):
        super().__init__(group)
        self.scheme = AfghScheme(group)
        self._pairs: dict[tuple[str, str], AfghKeyPair] = {}

    def setup(self, rng) -> None:
        self._pairs = {}

    def create_party(self, domain: str, identity: str, rng) -> None:
        if (domain, identity) not in self._pairs:
            self._pairs[(domain, identity)] = self.scheme.keygen(rng)

    def sample_message(self, rng):
        return self.group.random_gt(rng)

    def encrypt(self, domain: str, identity: str, message, type_label: str, rng):
        pair = self._pairs[(domain, identity)]
        ciphertext = self.scheme.encrypt_second(identity, pair.public, message, rng)
        return self._wrap_ciphertext(domain, identity, type_label, ciphertext)

    def rekey(self, delegator_domain, delegator, delegatee_domain, delegatee, type_label, rng):
        payload = self.scheme.rekey(
            self._pairs[(delegator_domain, delegator)].secret,
            self._pairs[(delegatee_domain, delegatee)].public,
        )
        return self._wrap_key(
            (delegator_domain, delegator, delegatee_domain, delegatee, type_label), payload
        )

    def reencrypt(self, ciphertext, proxy_key):
        self._guard(ciphertext, proxy_key)
        return self._wrap_reencrypted(
            proxy_key,
            self.scheme.reencrypt(ciphertext.payload, proxy_key.payload, proxy_key.delegatee),
        )

    def decrypt_original(self, ciphertext, domain: str, identity: str):
        return self.scheme.decrypt_second(
            ciphertext.payload, self._pairs[(domain, identity)].secret
        )

    def decrypt_reencrypted(self, ciphertext, domain: str, identity: str):
        return self.scheme.decrypt_first(
            ciphertext.payload, self._pairs[(domain, identity)].secret
        )


# --------------------------------------------------------------------- BBS


@register_backend
class BbsBackend(_WrappingBackend):
    """BBS (EUROCRYPT'98): bidirectional, interactive ElGamal proxy."""

    scheme_id: ClassVar[str] = "bbs/v1"
    display_name: ClassVar[str] = "BBS (EUROCRYPT'98)"
    capabilities: ClassVar[SchemeCapabilities] = SchemeCapabilities(
        unidirectional=False,
        non_interactive=False,
        collusion_safe=False,
        identity_based=False,
        type_granular=False,
        deterministic_reencrypt=True,
    )
    payload_types: ClassVar[tuple] = (BbsCiphertext, int, BbsCiphertext)

    def __init__(self, group):
        super().__init__(group)
        self.scheme = BbsProxyScheme(group)
        self._pairs: dict[tuple[str, str], ElGamalKeyPair] = {}

    def setup(self, rng) -> None:
        self._pairs = {}

    def create_party(self, domain: str, identity: str, rng) -> None:
        if (domain, identity) not in self._pairs:
            self._pairs[(domain, identity)] = self.scheme.keygen(rng)

    def sample_message(self, rng):
        return self.group.random_g1(rng)

    def encrypt(self, domain: str, identity: str, message, type_label: str, rng):
        pair = self._pairs[(domain, identity)]
        ciphertext = self.scheme.encrypt(identity, pair.public, message, rng)
        return self._wrap_ciphertext(domain, identity, type_label, ciphertext)

    def rekey(self, delegator_domain, delegator, delegatee_domain, delegatee, type_label, rng):
        # Interactive: the dealer needs both secrets (the scheme's
        # documented weakness, not an accident of this backend).
        payload = self.scheme.rekey(
            self._pairs[(delegator_domain, delegator)].secret,
            self._pairs[(delegatee_domain, delegatee)].secret,
        )
        return self._wrap_key(
            (delegator_domain, delegator, delegatee_domain, delegatee, type_label), payload
        )

    def reencrypt(self, ciphertext, proxy_key):
        self._guard(ciphertext, proxy_key)
        return self._wrap_reencrypted(
            proxy_key,
            self.scheme.reencrypt(ciphertext.payload, proxy_key.payload, proxy_key.delegatee),
        )

    def decrypt_original(self, ciphertext, domain: str, identity: str):
        return self.scheme.decrypt(ciphertext.payload, self._pairs[(domain, identity)].secret)

    def decrypt_reencrypted(self, ciphertext, domain: str, identity: str):
        return self.scheme.decrypt(ciphertext.payload, self._pairs[(domain, identity)].secret)


# ------------------------------------------------------------ Matsuo (BB1)


@register_backend
class MatsuoBackend(_WrappingBackend):
    """Matsuo-style BB1 IBE-to-IBE PRE (same-KGC reconstruction)."""

    scheme_id: ClassVar[str] = "matsuo/v1"
    display_name: ClassVar[str] = "Matsuo-style (BB1)"
    single_authority: ClassVar[bool] = True
    capabilities: ClassVar[SchemeCapabilities] = SchemeCapabilities(
        unidirectional=True,
        non_interactive=True,
        collusion_safe=True,
        identity_based=True,
        type_granular=False,
        deterministic_reencrypt=True,
    )
    payload_types: ClassVar[tuple] = (Bb1Ciphertext, MatsuoProxyKey, MatsuoReEncrypted)

    def __init__(self, group):
        super().__init__(group)
        self._domains: dict[str, tuple[Bb1Ibe, Bb1Params, Bb1MasterKey]] = {}
        self._keys: dict[tuple[str, str], Bb1PrivateKey] = {}

    def setup(self, rng) -> None:
        self._domains = {}
        self._keys = {}

    def _domain(self, domain: str, rng=None) -> tuple[Bb1Ibe, Bb1Params, Bb1MasterKey]:
        if domain not in self._domains:
            if rng is None:
                raise ValueError("no BB1 domain %r; create a party there first" % domain)
            ibe = Bb1Ibe(self.group, domain)
            params, master = ibe.setup(rng)
            self._domains[domain] = (ibe, params, master)
        return self._domains[domain]

    def create_party(self, domain: str, identity: str, rng) -> None:
        if (domain, identity) not in self._keys:
            ibe, params, master = self._domain(domain, rng)
            self._keys[(domain, identity)] = ibe.extract(params, master, identity, rng)

    def sample_message(self, rng):
        return self.group.random_gt(rng)

    def encrypt(self, domain: str, identity: str, message, type_label: str, rng):
        ibe, params, _master = self._domain(domain)
        ciphertext = MatsuoStylePre(self.group, ibe).encrypt(params, message, identity, rng)
        return self._wrap_ciphertext(domain, identity, type_label, ciphertext)

    def rekey(self, delegator_domain, delegator, delegatee_domain, delegatee, type_label, rng):
        if delegator_domain != delegatee_domain:
            raise DelegationError(
                "Matsuo-style PRE requires delegator and delegatee under one KGC"
            )
        ibe, params, _master = self._domain(delegator_domain)
        payload = MatsuoStylePre(self.group, ibe).rkgen(
            params, self._keys[(delegator_domain, delegator)], delegatee, rng
        )
        return self._wrap_key(
            (delegator_domain, delegator, delegatee_domain, delegatee, type_label), payload
        )

    def reencrypt(self, ciphertext, proxy_key):
        self._guard(ciphertext, proxy_key)
        # Transformation is pure group arithmetic; the Bb1Ibe instance is
        # stateless, so a serving process needs no domain setup.
        scheme = MatsuoStylePre(self.group, Bb1Ibe(self.group, ciphertext.domain))
        return self._wrap_reencrypted(
            proxy_key, scheme.reencrypt(ciphertext.payload, proxy_key.payload)
        )

    def decrypt_original(self, ciphertext, domain: str, identity: str):
        ibe, _params, _master = self._domain(domain)
        return MatsuoStylePre(self.group, ibe).decrypt(
            ciphertext.payload, self._keys[(domain, identity)]
        )

    def decrypt_reencrypted(self, ciphertext, domain: str, identity: str):
        ibe, _params, _master = self._domain(domain)
        return MatsuoStylePre(self.group, ibe).decrypt_reencrypted(
            ciphertext.payload, self._keys[(domain, identity)]
        )

    def ciphertext_components(self, ciphertext) -> int:
        return 3


# -------------------------------------------------------------- Dodis-Ivan


@register_backend
class DodisIvanBackend(_WrappingBackend):
    """Dodis--Ivan (NDSS'03): secret splitting, proxy partially decrypts.

    The proxy key envelope carries only the *proxy* share; the delegatee
    share stays with the backend that ran :meth:`rekey` (the delegator's
    side), mirroring the scheme's out-of-band share hand-off.
    """

    scheme_id: ClassVar[str] = "dodis-ivan/v1"
    display_name: ClassVar[str] = "Dodis-Ivan (NDSS'03)"
    capabilities: ClassVar[SchemeCapabilities] = SchemeCapabilities(
        unidirectional=True,
        non_interactive=True,
        collusion_safe=False,
        identity_based=False,
        type_granular=False,
        deterministic_reencrypt=True,
    )
    payload_types: ClassVar[tuple] = (ElGamalCiphertext, int, PartiallyDecrypted)

    def __init__(self, group):
        super().__init__(group)
        self.scheme = DodisIvanScheme(group)
        self._pairs: dict[tuple[str, str], ElGamalKeyPair] = {}
        self._delegatee_shares: dict[tuple[str, str, str, str, str], int] = {}

    def setup(self, rng) -> None:
        self._pairs = {}
        self._delegatee_shares = {}

    def create_party(self, domain: str, identity: str, rng) -> None:
        if (domain, identity) not in self._pairs:
            self._pairs[(domain, identity)] = self.scheme.keygen(rng)

    def sample_message(self, rng):
        return self.group.random_g1(rng)

    def encrypt(self, domain: str, identity: str, message, type_label: str, rng):
        pair = self._pairs[(domain, identity)]
        return self._wrap_ciphertext(
            domain, identity, type_label, self.scheme.encrypt(pair.public, message, rng)
        )

    def rekey(self, delegator_domain, delegator, delegatee_domain, delegatee, type_label, rng):
        index = (delegator_domain, delegator, delegatee_domain, delegatee, type_label)
        shares: SecretShares = self.scheme.split(
            self._pairs[(delegator_domain, delegator)].secret, rng
        )
        self._delegatee_shares[index] = shares.delegatee_share
        return self._wrap_key(index, shares.proxy_share)

    def reencrypt(self, ciphertext, proxy_key):
        self._guard(ciphertext, proxy_key)
        return self._wrap_reencrypted(
            proxy_key, self.scheme.proxy_transform(ciphertext.payload, proxy_key.payload)
        )

    def decrypt_original(self, ciphertext, domain: str, identity: str):
        return self.scheme.decrypt(ciphertext.payload, self._pairs[(domain, identity)].secret)

    def decrypt_reencrypted(self, ciphertext, domain: str, identity: str):
        index = (
            ciphertext.delegator_domain,
            ciphertext.delegator,
            ciphertext.delegatee_domain,
            ciphertext.delegatee,
            ciphertext.type_label,
        )
        try:
            share = self._delegatee_shares[index]
        except KeyError:
            raise DelegationError(
                "no delegatee share for %s->%s; rekey ran elsewhere"
                % (ciphertext.delegator, ciphertext.delegatee)
            ) from None
        return self.scheme.delegatee_decrypt(ciphertext.payload, share)
