"""Miller-loop line-coefficient precomputation for the reduced Tate pairing.

The classic affine Miller loop pays *two* modular inversions per bit of
the group order: one for the tangent/secant slope and one hidden inside
the affine point update.  For a fixed first argument ``P`` the whole
doubling/addition chain — the points visited and the line slopes taken
at each — depends only on ``P``, so it can be computed once:

1. walk the chain in Jacobian coordinates (no inversions at all),
2. normalise every visited point with ONE Montgomery batch inversion,
3. invert every slope denominator with ONE more batch inversion,
4. store per step the pair ``(c0, c1)`` with ``c0 = slope*xt - yt`` and
   ``c1 = slope``, so the line value at the distorted evaluation point
   ``phi(Q) = (-xq, i*yq)`` is just ``(c0 + c1*xq) + yq*i`` — a single
   base-field multiplication per step.

Evaluating the Miller function at any ``Q`` then costs ~7 base-field
multiplications per bit and zero inversions, against the affine loop's
two extended-Euclids per bit.  :class:`~repro.pairing.group.PairingGroup`
caches instances for repeatedly-paired points (the generator, public
keys, re-encryption-key points) alongside its ``FixedBaseTable``.

The hot loops run on raw integers (or bigint-backend values), bypassing
the :class:`~repro.math.fields.Fp2Element` object layer; the affine
reference path in :mod:`repro.pairing.tate` plus the cross-path property
suite pin every output bit-identical.
"""

from __future__ import annotations

from repro.ec import jacobian as _jac
from repro.ec.curve import Point
from repro.ec.supersingular import SupersingularCurve
from repro.math.fields import Fp2Element
from repro.math.ntheory import batch_modinv, modinv

__all__ = [
    "MillerPrecomp",
    "PointOrderError",
    "fp2_mul_raw",
    "fp2_square_raw",
    "fp2_pow_raw",
    "final_exponentiation_raw",
    "final_exponentiation_batch",
]


def fp2_square_raw(a, b, p):
    """``(a + b*i)^2`` over F_p[i]: ``(a-b)(a+b) + 2ab*i`` (2 mults)."""
    return (a - b) * (a + b) % p, 2 * a * b % p


def fp2_mul_raw(a, b, c, d, p):
    """``(a + b*i) * (c + d*i)`` via Karatsuba (3 mults)."""
    ac = a * c
    bd = b * d
    cross = (a + b) * (c + d) - ac - bd
    return (ac - bd) % p, cross % p


def fp2_pow_raw(a, b, exponent, p):
    """``(a + b*i) ** exponent`` by left-to-right square-and-multiply."""
    if exponent == 0:
        return 1 % p, 0
    ra, rb = a % p, b % p
    for bit in bin(exponent)[3:]:
        ra, rb = fp2_square_raw(ra, rb, p)
        if bit == "1":
            ra, rb = fp2_mul_raw(ra, rb, a, b, p)
    return ra, rb


def final_exponentiation_raw(params: SupersingularCurve, fa, fb):
    """``f ** ((p^2-1)/q)`` on a raw pair: Frobenius part, then cofactor.

    ``f^(p-1) = conj(f) * f^(-1) = (a - b*i)^2 / (a^2 + b^2)`` — one
    inversion — followed by the ``(p+1)/q`` power.
    """
    p = params.base_field.p
    norm = (fa * fa + fb * fb) % p
    n_inv = modinv(norm, p)
    ga = (fa * fa - fb * fb) * n_inv % p
    gb = -2 * fa * fb * n_inv % p
    return fp2_pow_raw(ga, gb, (params.p + 1) // params.q, p)


def final_exponentiation_batch(params: SupersingularCurve, values):
    """Final-exponentiate many raw Miller values, sharing one inversion.

    The Frobenius step needs ``1 / (a_i^2 + b_i^2)`` per value; Montgomery
    batch inversion folds those into a single ``modinv``.  The per-value
    cofactor powers remain (they produce independent GT elements).
    """
    p = params.base_field.p
    norms = [(fa * fa + fb * fb) % p for fa, fb in values]
    inverses = batch_modinv(norms, p)
    cofactor = (params.p + 1) // params.q
    out = []
    for (fa, fb), n_inv in zip(values, inverses):
        ga = (fa * fa - fb * fb) * n_inv % p
        gb = -2 * fa * fb * n_inv % p
        out.append(fp2_pow_raw(ga, gb, cofactor, p))
    return out


class PointOrderError(ArithmeticError):
    """A Miller loop's point is not of order q: it lies outside G1.

    Decoding checks only that a point is on the curve, so a point taken
    from the network (a granted re-encryption key) can raise this.
    """


class MillerPrecomp:
    """Precomputed line coefficients of ``f_{q,P}`` for a fixed point ``P``.

    Construction costs one chain walk plus two batch inversions (so ~2
    ``modinv`` total); each :meth:`evaluate` is then inversion-free.
    Raises :class:`PointOrderError` when ``P`` is not of order ``q`` —
    the same condition the affine Miller loop checks at its end.
    """

    __slots__ = ("params", "p", "steps")

    def __init__(self, params: SupersingularCurve, point: Point):
        if point.is_infinity():
            raise ValueError("Miller precomputation needs a non-identity point")
        if point.curve != params.curve:
            raise ValueError("pairing inputs must be base-curve points")
        self.params = params
        p = params.base_field.p
        self.p = p
        a = params.curve.a.value
        x0, y0 = point.x.value, point.y.value

        # Pass 1: the doubling/addition chain in Jacobian coordinates.
        chain = []  # Jacobian triple at which each line is taken
        kinds = []  # True = tangent (doubling step), False = secant (addition)
        t = (x0, y0, 1)
        for bit in bin(params.q)[3:]:
            chain.append(t)
            kinds.append(True)
            t = _jac.jac_double(t, a, p)
            if bit == "1":
                chain.append(t)
                kinds.append(False)
                t = _jac.jac_add_mixed(t, x0, y0, a, p)
        if not _jac.jac_is_infinity(t):
            raise PointOrderError(
                "Miller loop did not terminate at infinity: the point is not "
                "of order q, so it lies outside G1"
            )

        # Pass 2: one batch inversion normalises every chain point.
        affine = _jac.batch_normalize(chain, p)

        # Pass 3: one batch inversion yields every slope denominator.
        denom_index = []
        denoms = []
        for i, (pt, tangent) in enumerate(zip(affine, kinds)):
            if pt is None:
                continue  # line at infinity contributes nothing
            xt, yt = pt
            denom = 2 * yt % p if tangent else (x0 - xt) % p
            if denom != 0:
                denom_index.append(i)
                denoms.append(denom)
        inverses = dict(zip(denom_index, batch_modinv(denoms, p)))

        # Pass 4: fold each line into (do_square, c0, c1) so evaluation is
        # one multiplication per step: l(phi(Q)) = (c0 + c1*xq) + yq*i.
        steps = []
        for i, (pt, tangent) in enumerate(zip(affine, kinds)):
            inv = inverses.get(i)
            if pt is None or inv is None:
                # Vertical line (value in F_p, killed by the final exp):
                # a doubling step still squares f; an addition step is a no-op.
                if tangent:
                    steps.append((True, None, None))
                continue
            xt, yt = pt
            if tangent:
                slope = (3 * xt * xt + a) * inv % p
            else:
                slope = (y0 - yt) * inv % p
            c0 = (slope * xt - yt) % p
            c1 = slope
            steps.append((tangent, c0, c1))
        self.steps = steps

    def evaluate_raw(self, xq, yq):
        """``f_{q,P}(phi(Q))`` as a raw ``(a, b)`` pair, no inversions."""
        p = self.p
        fa, fb = 1, 0
        for do_square, c0, c1 in self.steps:
            if do_square:
                fa, fb = (fa - fb) * (fa + fb) % p, 2 * fa * fb % p
            if c1 is not None:
                real = (c0 + c1 * xq) % p
                fa, fb = fp2_mul_raw(fa, fb, real, yq, p)
        return fa, fb

    def evaluate(self, xq, yq) -> Fp2Element:
        """``f_{q,P}(phi(Q))`` as an :class:`Fp2Element` (no final exp)."""
        fa, fb = self.evaluate_raw(xq, yq)
        return Fp2Element(self.params.ext_field, fa, fb)
