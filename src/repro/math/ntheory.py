"""Elementary number theory used by the field, curve and pairing layers.

The functions are the classical textbook algorithms (extended Euclid,
Legendre/Jacobi symbols, Tonelli--Shanks square roots, the Chinese
Remainder Theorem) implemented explicitly so the whole stack is auditable
without external dependencies.  Modular inversion and exponentiation
route through :mod:`repro.math.backend`, so a GMP-backed interpreter
accelerates every caller transparently.
"""

from __future__ import annotations

from repro.math import backend as _backend

__all__ = [
    "egcd",
    "modinv",
    "batch_modinv",
    "jacobi_symbol",
    "legendre_symbol",
    "is_quadratic_residue",
    "sqrt_mod",
    "crt",
    "int_to_bytes",
    "bytes_to_int",
    "bit_length_bytes",
]


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``g = gcd(a, b)`` and ``a*x + b*y = g``.

    Iterative extended Euclidean algorithm; works for negative inputs too.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def modinv(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m``.

    Raises :class:`ZeroDivisionError` when ``gcd(a, m) != 1`` so that callers
    treat a non-invertible element the same way they would treat ``1/0``.
    Dispatched through the active :class:`~repro.math.backend.IntBackend`.
    """
    return _backend.active_backend().modinv(a, m)


def batch_modinv(values: list[int], m: int) -> list[int]:
    """Invert every element of ``values`` modulo ``m`` with ONE inversion.

    Montgomery's trick: multiply prefix products forward, invert the total
    once, then peel inverses off backwards.  Cost is ``3(n-1)`` field
    multiplications plus a single :func:`modinv` — the building block for
    Jacobian-point normalisation and Miller-loop precomputation, where the
    naive path would pay one extended-Euclid per element.

    Raises :class:`ZeroDivisionError` if *any* element is non-invertible
    (callers filter zeros first when they are expected).
    """
    n = len(values)
    if n == 0:
        return []
    prefix = [0] * n
    acc = 1
    for i, v in enumerate(values):
        acc = acc * v % m
        prefix[i] = acc
    inv = modinv(acc, m)
    out = [0] * n
    for i in range(n - 1, 0, -1):
        out[i] = prefix[i - 1] * inv % m
        inv = inv * values[i] % m
    out[0] = inv % m
    return out


def jacobi_symbol(a: int, n: int) -> int:
    """Return the Jacobi symbol ``(a/n)`` for odd positive ``n``."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol requires odd positive n, got %d" % n)
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre_symbol(a: int, p: int) -> int:
    """Return the Legendre symbol ``(a/p)`` for an odd prime ``p``.

    The value is ``1`` for quadratic residues, ``-1`` for non-residues and
    ``0`` when ``p`` divides ``a``.  ``p`` is assumed (not checked) prime.
    """
    return jacobi_symbol(a, p)


def is_quadratic_residue(a: int, p: int) -> bool:
    """Return True when ``a`` is a non-zero square modulo the odd prime ``p``."""
    return legendre_symbol(a, p) == 1


def sqrt_mod(a: int, p: int) -> int:
    """Return a square root of ``a`` modulo the odd prime ``p``.

    Uses the fast exponentiation shortcut when ``p % 4 == 3`` and falls back
    to Tonelli--Shanks otherwise.  Raises :class:`ValueError` when ``a`` is a
    non-residue.  The returned root is the one in ``[0, p)``; the other root
    is ``p - root``.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if p % 4 == 3:
        # a^((p+1)/4) squares back to a exactly when a is a residue, so one
        # exponentiation both finds and checks the root (no Jacobi symbol).
        root = _backend.active_backend().powmod(a, (p + 1) // 4, p)
        if root * root % p != a:
            raise ValueError("%d is not a quadratic residue modulo %d" % (a, p))
        return root
    if not is_quadratic_residue(a, p):
        raise ValueError("%d is not a quadratic residue modulo %d" % (a, p))
    # Tonelli--Shanks: write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Find a non-residue z (deterministic scan keeps the function pure).
    z = 2
    while is_quadratic_residue(z, p):
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        # Find least i in (0, m) with t^(2^i) == 1.
        i = 0
        t2i = t
        while t2i != 1:
            t2i = t2i * t2i % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r


def crt(residues: list[int], moduli: list[int]) -> int:
    """Solve ``x = r_i (mod m_i)`` for pairwise-coprime moduli.

    Returns the unique solution in ``[0, prod(moduli))``.
    """
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have equal length")
    if not moduli:
        raise ValueError("crt requires at least one congruence")
    x, m = residues[0] % moduli[0], moduli[0]
    for r_i, m_i in zip(residues[1:], moduli[1:]):
        g, p, _ = egcd(m, m_i)
        if g != 1:
            raise ValueError("moduli must be pairwise coprime")
        diff = (r_i - x) % m_i
        x = (x + m * (diff * p % m_i)) % (m * m_i)
        m *= m_i
    return x


def bit_length_bytes(n: int) -> int:
    """Return the number of bytes needed to store ``n`` (at least 1)."""
    return max(1, (n.bit_length() + 7) // 8)


def int_to_bytes(n: int, length: int | None = None) -> bytes:
    """Serialise a non-negative integer big-endian, fixed width if given."""
    if n < 0:
        raise ValueError("cannot serialise negative integer %d" % n)
    if length is None:
        length = bit_length_bytes(n)
    # int() first: backend types (gmpy2.mpz) may not expose to_bytes.
    return int(n).to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Parse a big-endian byte string as a non-negative integer."""
    return int.from_bytes(data, "big")
