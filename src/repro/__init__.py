"""repro: a full reproduction of "A Type-and-Identity-based Proxy
Re-Encryption Scheme and its Application in Healthcare" (Ibraimi, Tang,
Hartel, Jonker; 2008).

The package layers, bottom to top:

* :mod:`repro.math`, :mod:`repro.ec`, :mod:`repro.pairing` -- a from-scratch
  type-A (supersingular) pairing substrate.
* :mod:`repro.ibe` -- Boneh--Franklin IBE with multi-domain KGCs.
* :mod:`repro.core` -- the paper's type-and-identity-based PRE scheme.
* :mod:`repro.baselines` -- every PRE scheme in the related-work comparison.
* :mod:`repro.security` -- executable attack games and property checks.
* :mod:`repro.hybrid`, :mod:`repro.serialization` -- KEM/DEM and wire formats.
* :mod:`repro.phr` -- the fine-grained PHR disclosure application.
* :mod:`repro.service` -- a sharded, cached re-encryption gateway with
  batching, rate limiting and metrics.

Quickstart::

    from repro import PairingGroup, TypeAndIdentityPre, KgcRegistry

    group = PairingGroup("SS512")
    registry = KgcRegistry(group)
    kgc1, kgc2 = registry.create("KGC1"), registry.create("KGC2")
    alice, bob = kgc1.extract("alice"), kgc2.extract("bob")

    pre = TypeAndIdentityPre(group)
    ct = pre.encrypt(kgc1.params, alice, group.random_gt(), "illness-history")
    rk = pre.pextract(alice, "bob", "illness-history", kgc2.params)
    m = pre.decrypt_reencrypted(pre.preenc(ct, rk), bob)
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core": ("EpochSchedule", "ProxyService", "TemporalPre", "TypeAndIdentityPre"),
        "hybrid": ("HybridPre",),
        "ibe": (
            "BonehFranklinIbe",
            "FullIdentIbe",
            "KeyGenerationCenter",
            "KgcRegistry",
            "ThresholdKgc",
        ),
        "math.drbg": ("HmacDrbg", "system_random"),
        "pairing": ("PairingGroup",),
        "phr": ("PhrSystem",),
        "service": ("ReEncryptionGateway",),
    },
)

__version__ = "1.0.0"

__all__ = [
    "PairingGroup",
    "TypeAndIdentityPre",
    "ProxyService",
    "ReEncryptionGateway",
    "BonehFranklinIbe",
    "KeyGenerationCenter",
    "KgcRegistry",
    "HybridPre",
    "PhrSystem",
    "TemporalPre",
    "EpochSchedule",
    "FullIdentIbe",
    "ThresholdKgc",
    "HmacDrbg",
    "system_random",
    "__version__",
]
