"""The reduced Tate pairing on type-A supersingular curves.

For ``P, Q`` in the order-``q`` subgroup G1 of ``E(F_p): y^2 = x^3 + x``,
the symmetric pairing is

    e(P, Q) = f_{q,P}(phi(Q)) ^ ((p^2 - 1) / q)

where ``phi(x, y) = (-x, i*y)`` is the distortion map and ``f_{q,P}`` is the
Miller function.  Two classic optimisations apply on this curve:

* **Denominator elimination** — vertical-line values lie in F_p, and every
  element of F_p^* is annihilated by the final exponentiation because
  ``(p^2 - 1)/q = (p - 1) * ((p + 1)/q)``; the Miller loop therefore keeps
  only the tangent/secant line numerators.
* **Frobenius-assisted final exponentiation** — ``f^(p-1)`` is computed as
  ``conj(f) / f`` (one conjugation + one inversion) before the remaining
  ``(p+1)/q`` power, which the default path takes by signed window: the
  Frobenius step lands on the norm-1 subgroup, where conjugation is the
  inverse, so negative digits are free.

The default path runs on :class:`~repro.pairing.miller.MillerPrecomp`:
the chain for the first argument follows the non-adjacent form of ``q``
in Jacobian coordinates, and every line's coefficients come out of one
batch inversion, after which evaluating at any ``Q`` is inversion-free.
Its lines are not the binary chain's, and neither are the vertical
lines it drops, so its raw Miller value differs from the affine loop's
by a factor in F_p*.  The final exponentiation maps that factor to 1,
so the pairings are bit-identical.
Callers with a repeatedly-used first argument (the
:class:`~repro.pairing.group.PairingGroup` cache) pass ``precomp=`` and
skip even that; :func:`tate_pairing_batch` additionally shares the
Frobenius-step inversion across a whole batch of second arguments.  The
original affine Miller loop, the conformance reference the property
suite and the E8 benchmark compare against, lives beside them, outside
the library.
"""

from __future__ import annotations

from repro.bench.counters import record_operation
from repro.ec.curve import Point
from repro.ec.supersingular import SupersingularCurve
from repro.math.fields import Fp2Element
from repro.pairing.miller import (
    MillerPrecomp,
    final_exponentiation_batch,
    final_exponentiation_raw,
    fp2_mul_raw,
)

__all__ = [
    "tate_pairing",
    "tate_pairing_batch",
    "miller_loop",
    "multi_tate_pairing",
]


# --------------------------------------------------------------------------
# Default path: Jacobian-chain Miller precomputation.


def miller_loop(params: SupersingularCurve, point: Point, xq: int, yq: int) -> Fp2Element:
    """``f_{q,P}(phi(Q))`` up to a factor in F_p* (no final exp).

    The value differs from the affine textbook loop's by that factor,
    which the final exponentiation maps to 1.
    """
    return MillerPrecomp(params, point).evaluate(xq, yq)


def tate_pairing(
    params: SupersingularCurve,
    p_point: Point,
    q_point: Point,
    precomp: MillerPrecomp | None = None,
) -> Fp2Element:
    """The symmetric reduced Tate pairing ``e(P, Q)`` with values in GT.

    Both inputs must lie in the order-``q`` subgroup of ``E(F_p)``.  Returns
    the GT identity when either input is the point at infinity.  Passing a
    :class:`MillerPrecomp` built for ``p_point`` skips the chain walk (the
    pairing is symmetric, so callers may swap arguments to hit one).
    """
    record_operation("pairing")
    if p_point.is_infinity() or q_point.is_infinity():
        return params.gt_identity()
    if p_point.curve != params.curve or q_point.curve != params.curve:
        raise ValueError("pairing inputs must be base-curve points")
    if precomp is None:
        precomp = MillerPrecomp(params, p_point)
    fa, fb = precomp.evaluate_raw(q_point.x.value, q_point.y.value)
    fa, fb = final_exponentiation_raw(params, fa, fb)
    return Fp2Element(params.ext_field, fa, fb)


def multi_tate_pairing(
    params: SupersingularCurve,
    pairs: list[tuple[Point, Point]],
    precomps: list[MillerPrecomp | None] | None = None,
) -> Fp2Element:
    """The product of pairings ``prod_i e(P_i, Q_i)`` with one final exponentiation.

    Classic optimisation for verification equations of the form
    ``e(A, B) * e(C, D) = ...``: the Miller values are multiplied *before*
    the (expensive) final exponentiation, which is then paid once instead
    of once per pair.  Identity inputs contribute a factor 1.  Recorded as
    a single ``pairing`` plus one ``pairing_extra`` per additional pair so
    the E1/E8 cost accounting stays honest.  ``precomps`` optionally
    supplies a :class:`MillerPrecomp` per pair (aligned with ``pairs``,
    ``None`` entries are built on the fly).
    """
    if precomps is None:
        precomps = [None] * len(pairs)
    live = [
        (p, q, pre)
        for (p, q), pre in zip(pairs, precomps)
        if not p.is_infinity() and not q.is_infinity()
    ]
    if not live:
        return params.gt_identity()
    record_operation("pairing")
    if len(live) > 1:
        record_operation("pairing_extra", len(live) - 1)
    p_mod = params.base_field.p
    fa, fb = 1, 0
    first = True
    for p_point, q_point, pre in live:
        if p_point.curve != params.curve or q_point.curve != params.curve:
            raise ValueError("pairing inputs must be base-curve points")
        if pre is None:
            pre = MillerPrecomp(params, p_point)
        ga, gb = pre.evaluate_raw(q_point.x.value, q_point.y.value)
        if first:
            fa, fb = ga, gb
            first = False
        else:
            fa, fb = fp2_mul_raw(fa, fb, ga, gb, p_mod)
    fa, fb = final_exponentiation_raw(params, fa, fb)
    return Fp2Element(params.ext_field, fa, fb)


def tate_pairing_batch(
    params: SupersingularCurve,
    fixed: Point,
    points: list[Point],
    precomp: MillerPrecomp | None = None,
) -> list[Fp2Element]:
    """``[e(fixed, Q) for Q in points]`` sharing one Miller precomputation.

    The chain walk for ``fixed`` is paid once for the whole batch and the
    Frobenius-step inversions of the final exponentiations are folded into
    a single batch inversion; each entry still gets its own cofactor power
    (the results are independent GT elements, unlike
    :func:`multi_tate_pairing`'s single product).  Recorded as one
    ``pairing`` per live entry — each result is a full pairing to callers
    even though the batch amortises most of the work.
    """
    if not points:
        return []
    identity = params.gt_identity()
    if fixed.is_infinity():
        record_operation("pairing", len(points))
        return [identity] * len(points)
    if fixed.curve != params.curve:
        raise ValueError("pairing inputs must be base-curve points")
    record_operation("pairing", len(points))
    if precomp is None:
        precomp = MillerPrecomp(params, fixed)
    live_index = []
    raw_values = []
    for i, q_point in enumerate(points):
        if q_point.is_infinity():
            continue
        if q_point.curve != params.curve:
            raise ValueError("pairing inputs must be base-curve points")
        live_index.append(i)
        raw_values.append(precomp.evaluate_raw(q_point.x.value, q_point.y.value))
    out = [identity] * len(points)
    for i, (fa, fb) in zip(live_index, final_exponentiation_batch(params, raw_values)):
        out[i] = Fp2Element(params.ext_field, fa, fb)
    return out
