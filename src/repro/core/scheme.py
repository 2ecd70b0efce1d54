"""The paper's contribution: a type-and-identity-based proxy re-encryption.

Section 4.1, implemented verbatim over the multiplicative Boneh--Franklin
variant.  The delegator (identity ``id_i``, domain KGC1) categorises his
messages with free-form type labels; the delegatee (identity ``id_j``) may
live under a different KGC (KGC2) that shares only the pairing group.

Algorithm map (paper -> here):

===================  =====================================================
``Encrypt1``         :meth:`TypeAndIdentityPre.encrypt`
``Decrypt1``         :meth:`TypeAndIdentityPre.decrypt`
``Pextract``         :meth:`TypeAndIdentityPre.pextract`
``Preenc``           :meth:`TypeAndIdentityPre.preenc`
(delegatee decrypt)  :meth:`TypeAndIdentityPre.decrypt_reencrypted`
===================  =====================================================

``Setup1/Extract1/Setup2/Extract2`` are the Boneh--Franklin algorithms of
:class:`~repro.ibe.boneh_franklin.BonehFranklinIbe`; use
:class:`~repro.ibe.kgc.KgcRegistry` to stand up the two domains.

Key design facts the implementation preserves:

* Only the delegator can produce type-``t`` ciphertexts under his own
  identity, because the per-type exponent ``H2(sk_id || t)`` requires his
  private key.  :meth:`encrypt` therefore takes the *private key*, not the
  identity.
* A proxy key transforms exactly the ciphertexts whose type it names —
  applying it to a different type yields garbage (and :meth:`preenc`
  refuses up front unless ``unchecked=True``, which the security tests use
  to demonstrate the isolation property rather than rely on it).
* The blinding element ``X`` is fresh per proxy key and reaches the
  delegatee only under ``Encrypt2``, so the proxy learns nothing.
"""

from __future__ import annotations

from repro.core.ciphertexts import ProxyKey, ReEncryptedCiphertext, TypedCiphertext
from repro.ibe.keys import IbeParams, IbePrivateKey
from repro.math.drbg import RandomSource, system_random
from repro.math.fields import Fp2Element
from repro.pairing.group import PairingGroup

__all__ = ["TypeAndIdentityPre", "TypeMismatchError", "DelegationError"]


class TypeMismatchError(ValueError):
    """Raised when a proxy key is applied to a ciphertext of another type."""


class DelegationError(ValueError):
    """Raised when re-encryption metadata is inconsistent (wrong party/domain)."""


class TypeAndIdentityPre:
    """The type-and-identity-based PRE scheme over a symmetric pairing group."""

    def __init__(self, group: PairingGroup):
        self.group = group

    # ----------------------------------------------------------- H2 and H1

    def type_exponent(self, private_key: IbePrivateKey, type_label: str) -> int:
        """The per-type secret exponent ``H2(sk_id || t)`` of the paper."""
        material = (
            b"tipre-type-exp|"
            + self.group.serialize_g1(private_key.point)
            + b"|"
            + type_label.encode("utf-8")
        )
        return self.group.hash_to_scalar(material)

    def _blind_point(self, blind: Fp2Element):
        """``H1(X)``: hash the GT blinding element onto G1."""
        return self.group.hash_to_g1(b"tipre-blind|" + self.group.serialize_gt(blind))

    def _ibe(self, domain: str):
        """Boneh--Franklin in ``domain``, for the parties' algorithms.

        The proxy's :meth:`preenc` never uses it, so it is imported here
        and a re-encryption server does not load it.
        """
        from repro.ibe.boneh_franklin import BonehFranklinIbe

        return BonehFranklinIbe(self.group, domain)

    # ------------------------------------------------------------- Encrypt1

    def encrypt(
        self,
        delegator_params: IbeParams,
        delegator_key: IbePrivateKey,
        message: Fp2Element,
        type_label: str,
        rng: RandomSource | None = None,
    ) -> TypedCiphertext:
        """``Encrypt1(m, t, id)``: only the delegator himself can run this.

        Produces ``(g^r, m * e(pk_id, pk)^(r * H2(sk_id||t)), t)``.
        """
        if delegator_params.domain != delegator_key.domain:
            raise DelegationError("params and key come from different KGC domains")
        rng = rng or system_random()
        pk_id = self._ibe(delegator_key.domain).public_key_of(delegator_key.identity)
        r = self.group.random_scalar(rng)
        exponent = r * self.type_exponent(delegator_key, type_label) % self.group.order
        c1 = self.group.g1_mul(self.group.generator, r)
        mask = self.group.gt_exp(
            self.group.pair(pk_id, delegator_params.public_key), exponent
        )
        return TypedCiphertext(
            domain=delegator_key.domain,
            identity=delegator_key.identity,
            c1=c1,
            c2=self.group.gt_mul(message, mask),
            type_label=type_label,
        )

    # ------------------------------------------------------------- Decrypt1

    def decrypt(self, ciphertext: TypedCiphertext, delegator_key: IbePrivateKey) -> Fp2Element:
        """``Decrypt1``: ``m = c2 / e(sk_id, c1)^H2(sk_id||c3)``."""
        if ciphertext.domain != delegator_key.domain or ciphertext.identity != delegator_key.identity:
            raise DelegationError("ciphertext was not produced for this key")
        exponent = self.type_exponent(delegator_key, ciphertext.type_label)
        mask = self.group.gt_exp(
            self.group.pair(delegator_key.point, ciphertext.c1), exponent
        )
        return self.group.gt_div(ciphertext.c2, mask)

    # ------------------------------------------------------------- Pextract

    def pextract(
        self,
        delegator_key: IbePrivateKey,
        delegatee_identity: str,
        type_label: str,
        delegatee_params: IbeParams,
        rng: RandomSource | None = None,
    ) -> ProxyKey:
        """``Pextract(id_i, id_j, t, sk_i)``: delegator-generated proxy key.

        Non-interactive: neither the delegatee nor KGC2 participates; the
        delegator only needs KGC2's *public* parameters.
        """
        rng = rng or system_random()
        blind = self.group.random_gt(rng)
        exponent = self.type_exponent(delegator_key, type_label)
        rk_point = self.group.g1_add(
            self.group.g1_mul(delegator_key.point, -exponent % self.group.order),
            self._blind_point(blind),
        )
        encrypted_blind = self._ibe(delegatee_params.domain).encrypt(
            delegatee_params, blind, delegatee_identity, rng
        )
        return ProxyKey(
            delegator_domain=delegator_key.domain,
            delegator=delegator_key.identity,
            delegatee_domain=delegatee_params.domain,
            delegatee=delegatee_identity,
            type_label=type_label,
            rk_point=rk_point,
            encrypted_blind=encrypted_blind,
        )

    # --------------------------------------------------------------- Preenc

    def preenc(
        self,
        ciphertext: TypedCiphertext,
        proxy_key: ProxyKey,
        unchecked: bool = False,
    ) -> ReEncryptedCiphertext:
        """``Preenc``: transform a type-``t`` ciphertext for the delegatee.

        ``c_j2 = c_i2 * e(c_i1, rk)`` cancels the delegator's mask and
        replaces it with the blinding mask ``e(g^r, H1(X))``.

        With ``unchecked=True`` the metadata guard is skipped so that the
        security experiments can demonstrate (rather than assume) that a
        mismatched transformation yields garbage.

        A batch of one: the proxy key is long-lived and every request
        under it pairs against ``rk``, so its Miller precomputation is
        built on first use and cached (:meth:`preenc_batch`).  Raises
        :class:`~repro.pairing.miller.PointOrderError` when ``rk`` is not
        of order q.
        """
        return self.preenc_batch([ciphertext], proxy_key, unchecked)[0]

    def preenc_batch(
        self,
        ciphertexts: list[TypedCiphertext],
        proxy_key: ProxyKey,
        unchecked: bool = False,
    ) -> list[ReEncryptedCiphertext]:
        """``Preenc`` over many ciphertexts sharing ONE proxy key.

        Every ciphertext in a delegation group pairs against the same
        ``rk`` point, so the Miller-loop precomputation for ``rk`` is paid
        once and the final exponentiations share a batch inversion
        (:meth:`PairingGroup.pair_batch`).  Results are bit-identical to
        the paper's per-item ``c2 * e(c1, rk)`` — the pairing is symmetric,
        so ``e(c1, rk) == e(rk, c1)`` exactly.
        """
        if not unchecked:
            for ciphertext in ciphertexts:
                if proxy_key.matches(ciphertext):
                    continue
                if proxy_key.type_label != ciphertext.type_label:
                    raise TypeMismatchError(
                        "proxy key is for type %r, ciphertext has type %r"
                        % (proxy_key.type_label, ciphertext.type_label)
                    )
                raise DelegationError("proxy key does not match the ciphertext's delegator")
        masks = self.group.pair_batch(proxy_key.rk_point, [c.c1 for c in ciphertexts])
        return [
            ReEncryptedCiphertext(
                delegator_domain=proxy_key.delegator_domain,
                delegator=proxy_key.delegator,
                delegatee_domain=proxy_key.delegatee_domain,
                delegatee=proxy_key.delegatee,
                type_label=ciphertext.type_label,
                c1=ciphertext.c1,
                c2=self.group.gt_mul(ciphertext.c2, mask),
                encrypted_blind=proxy_key.encrypted_blind,
            )
            for ciphertext, mask in zip(ciphertexts, masks)
        ]

    # ------------------------------------------------- delegatee decryption

    def decrypt_reencrypted(
        self, ciphertext: ReEncryptedCiphertext, delegatee_key: IbePrivateKey
    ) -> Fp2Element:
        """Recover ``m = c_j2 / e(c_j1, H1(Decrypt2(c_j3, sk_j)))``."""
        if (
            ciphertext.delegatee_domain != delegatee_key.domain
            or ciphertext.delegatee != delegatee_key.identity
        ):
            raise DelegationError("re-encrypted ciphertext was not produced for this key")
        blind = self._ibe(delegatee_key.domain).decrypt(ciphertext.encrypted_blind, delegatee_key)
        mask = self.group.pair(ciphertext.c1, self._blind_point(blind))
        return self.group.gt_div(ciphertext.c2, mask)

    # --------------------------------------------------------------- sizing

    def ciphertext_size(self) -> int:
        """Serialized size in bytes of a :class:`TypedCiphertext` (payload only)."""
        return self.group.g1_element_size() + self.group.gt_element_size()

    def reencrypted_size(self) -> int:
        """Serialized size in bytes of a :class:`ReEncryptedCiphertext`."""
        # c1, c2 plus the embedded IBE ciphertext (c1', c2') for the blind.
        return (
            self.group.g1_element_size()
            + self.group.gt_element_size()
            + self.group.g1_element_size()
            + self.group.gt_element_size()
        )

    def proxy_key_size(self) -> int:
        """Serialized size in bytes of a :class:`ProxyKey`."""
        return (
            self.group.g1_element_size()
            + self.group.g1_element_size()
            + self.group.gt_element_size()
        )
