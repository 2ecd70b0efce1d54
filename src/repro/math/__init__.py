"""Number-theoretic and finite-field substrate.

Everything the elliptic-curve and pairing layers need, built from scratch:

* :mod:`repro.math.ntheory` -- gcd/inverse, Legendre/Jacobi, Tonelli--Shanks,
  CRT, byte conversion helpers.
* :mod:`repro.math.primes` -- Miller--Rabin and prime generation.
* :mod:`repro.math.fields` -- F_p and F_{p^2} arithmetic.
* :mod:`repro.math.drbg` -- seedable HMAC-DRBG and an OS-entropy source.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "backend": (
            "IntBackend",
            "active_backend",
            "available_backends",
            "backend_name",
            "set_int_backend",
        ),
        "drbg": ("HmacDrbg", "RandomSource", "SystemRandomSource", "system_random"),
        "fields": ("Fp2Element", "FpElement", "PrimeField", "QuadraticExtField"),
        "ntheory": (
            "batch_modinv",
            "bytes_to_int",
            "crt",
            "egcd",
            "int_to_bytes",
            "is_quadratic_residue",
            "jacobi_symbol",
            "legendre_symbol",
            "modinv",
            "sqrt_mod",
        ),
        "primes": ("is_probable_prime", "next_prime", "random_prime"),
        "shamir": ("Share", "reconstruct_secret", "split_secret"),
    },
)

__all__ = [
    "HmacDrbg",
    "RandomSource",
    "SystemRandomSource",
    "system_random",
    "PrimeField",
    "FpElement",
    "QuadraticExtField",
    "Fp2Element",
    "egcd",
    "modinv",
    "batch_modinv",
    "IntBackend",
    "active_backend",
    "available_backends",
    "backend_name",
    "set_int_backend",
    "jacobi_symbol",
    "legendre_symbol",
    "is_quadratic_residue",
    "sqrt_mod",
    "crt",
    "int_to_bytes",
    "bytes_to_int",
    "is_probable_prime",
    "random_prime",
    "next_prime",
    "Share",
    "split_secret",
    "reconstruct_secret",
]
