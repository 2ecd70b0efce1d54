"""The paper's scheme behind the :class:`~repro.core.api.PreBackend` API.

``tipre/v1`` is the native backend: its envelope types *are* the
library's canonical containers (:class:`TypedCiphertext`,
:class:`ProxyKey`, :class:`ReEncryptedCiphertext`), which already carry
the routing metadata the gateway needs, and it serializes them as those
containers — so wire messages and durable logs written before the
backend API existed stay byte-compatible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.core.api import (
    TIPRE_SCHEME_ID,
    PreBackend,
    SchemeCapabilities,
    register_backend,
)
from repro.core.ciphertexts import ProxyKey, ReEncryptedCiphertext, TypedCiphertext
from repro.core.scheme import TypeAndIdentityPre
from repro.ibe.keys import IbePrivateKey
from repro.serialization.containers import PROXY_KEY, REENCRYPTED, TYPED_CIPHERTEXT

if TYPE_CHECKING:
    from repro.ibe.kgc import KeyGenerationCenter, KgcRegistry

__all__ = ["KgcPartyMixin", "TipreBackend"]


class KgcPartyMixin:
    """Boneh--Franklin party bookkeeping shared by the KGC-based backends.

    Maintains one :class:`~repro.ibe.kgc.KgcRegistry` (a KGC per domain)
    and the extracted :class:`IbePrivateKey` per (domain, identity) —
    the party state both the paper's scheme and Green--Ateniese need.
    Expects ``self.group`` from the owning :class:`PreBackend`.  The KGC
    module is imported by the methods that stand up a KGC, so a proxy,
    which holds no party state, does not load it.
    """

    def _init_party_state(self) -> None:
        self._registry: KgcRegistry | None = None
        self._keys: dict[tuple[str, str], IbePrivateKey] = {}

    def setup(self, rng) -> None:
        from repro.ibe.kgc import KgcRegistry

        self._registry = KgcRegistry(self.group, rng)
        self._keys = {}

    def _kgc(self, domain: str, rng=None) -> KeyGenerationCenter:
        if self._registry is None:
            if rng is None:
                raise ValueError("call setup() before using parties")
            from repro.ibe.kgc import KgcRegistry

            self._registry = KgcRegistry(self.group, rng)
        if domain not in self._registry:
            return self._registry.create(domain)
        return self._registry.get(domain)

    def _key(self, domain: str, identity: str) -> IbePrivateKey:
        try:
            return self._keys[(domain, identity)]
        except KeyError:
            raise KeyError(
                "no party %r in domain %r; call create_party first" % (identity, domain)
            ) from None

    def create_party(self, domain: str, identity: str, rng) -> None:
        if (domain, identity) not in self._keys:
            self._keys[(domain, identity)] = self._kgc(domain, rng).extract(identity)

    def sample_message(self, rng):
        return self.group.random_gt(rng)


@register_backend
class TipreBackend(KgcPartyMixin, PreBackend):
    """Type-and-identity-based PRE (this paper) as a registered backend."""

    scheme_id: ClassVar[str] = TIPRE_SCHEME_ID
    display_name: ClassVar[str] = "type-and-identity (this paper)"
    capabilities: ClassVar[SchemeCapabilities] = SchemeCapabilities(
        unidirectional=True,
        non_interactive=True,
        collusion_safe=True,
        identity_based=True,
        type_granular=True,
        deterministic_reencrypt=True,
    )
    # The envelopes are the paper's containers, routing header included.
    _containers = (TYPED_CIPHERTEXT, PROXY_KEY, REENCRYPTED)

    def __init__(self, group, scheme: TypeAndIdentityPre | None = None):
        super().__init__(group)
        self.scheme = scheme if scheme is not None else TypeAndIdentityPre(group)
        self._init_party_state()

    @classmethod
    def over(cls, scheme: TypeAndIdentityPre) -> "TipreBackend":
        """Wrap an existing scheme instance (the legacy gateway argument)."""
        return cls(scheme.group, scheme)

    # ------------------------------------------------------------ lifecycle

    def encrypt(
        self, domain: str, identity: str, message, type_label: str, rng
    ) -> TypedCiphertext:
        key = self._key(domain, identity)
        return self.scheme.encrypt(self._kgc(domain).params, key, message, type_label, rng)

    def rekey(
        self,
        delegator_domain: str,
        delegator: str,
        delegatee_domain: str,
        delegatee: str,
        type_label: str,
        rng,
    ) -> ProxyKey:
        return self.scheme.pextract(
            self._key(delegator_domain, delegator),
            delegatee,
            type_label,
            self._kgc(delegatee_domain).params,
            rng,
        )

    def reencrypt(self, ciphertext: TypedCiphertext, proxy_key: ProxyKey) -> ReEncryptedCiphertext:
        return self.scheme.preenc(ciphertext, proxy_key)

    def reencrypt_batch(
        self, ciphertexts: list[TypedCiphertext], proxy_key: ProxyKey
    ) -> list[ReEncryptedCiphertext]:
        return self.scheme.preenc_batch(ciphertexts, proxy_key)

    def decrypt_original(self, ciphertext: TypedCiphertext, domain: str, identity: str):
        return self.scheme.decrypt(ciphertext, self._key(domain, identity))

    def decrypt_reencrypted(self, ciphertext: ReEncryptedCiphertext, domain: str, identity: str):
        return self.scheme.decrypt_reencrypted(ciphertext, self._key(domain, identity))
