"""The Miller precomputation's layout, its cost, and its point checks.

A :class:`~repro.pairing.miller.MillerPrecomp` walks the group order's
non-adjacent form and keeps one packed int per line.  These tests pin the
line count, the single batch inversion and the bytes per line, check every
pairing path against the affine reference on random TOY points, and feed
the constructor points outside G1 of every kind the curve has.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.counters import count_operations
from repro.ec import jacobian as jacobian_module
from repro.ec.params import get_params
from repro.ec.supersingular import SupersingularCurve
from repro.math import backend as int_backend
from repro.math.drbg import HmacDrbg
from repro.pairing import miller as miller_module
from repro.pairing.group import PairingGroup
from repro.pairing.miller import MillerPrecomp, PointOrderError, final_exponentiation_raw
from repro.pairing.tate import multi_tate_pairing, tate_pairing

from affine_pairing import tate_pairing_affine

# One line per doubling and per nonzero digit of q's NAF below its
# leading 1, less the last, vertical secant.  The binary chain took 59,
# 154 and 237 steps.
NAF_LINES = {"TOY": 54, "SS256": 133, "SS512": 216}

TOY = get_params("TOY")
G = TOY.generator
SCALARS = st.integers(min_value=1, max_value=TOY.q - 1)


def _deep_size(value, seen: set) -> int:
    if id(value) in seen:
        return 0
    seen.add(id(value))
    size = sys.getsizeof(value)
    if isinstance(value, (tuple, list)):
        size += sum(_deep_size(item, seen) for item in value)
    return size


def _own_bytes(precomp, other) -> int:
    """The bytes ``precomp`` holds that ``other``, of the same group, does not share."""
    seen: set = set()
    total = 0
    for slot in type(precomp).__slots__:
        value = getattr(precomp, slot)
        if slot != "params" and value is not getattr(other, slot):
            total += _deep_size(value, seen)
    return total


class TestLayout:
    @pytest.mark.parametrize("name", sorted(NAF_LINES))
    def test_one_line_per_naf_step(self, name):
        params = get_params(name)
        assert len(MillerPrecomp(params, params.generator).lines) == NAF_LINES[name]

    def test_a_build_inverts_once(self, monkeypatch):
        calls = []

        def counting(module):
            batch_modinv = module.batch_modinv

            def wrapper(values, m):
                calls.append(len(values))
                return batch_modinv(values, m)

            return wrapper

        for module in (miller_module, jacobian_module):
            monkeypatch.setattr(module, "batch_modinv", counting(module))
        MillerPrecomp(TOY, G * 5)
        assert calls == [NAF_LINES["TOY"]]

    def test_bytes_per_line_on_ss256(self):
        if int_backend.backend_name() != "python":
            pytest.skip("the bound is for CPython ints; mpz sizes differ")
        params = get_params("SS256")
        rng = HmacDrbg("miller-bytes")
        precomp, other = (MillerPrecomp(params, params.random_point(rng)) for _ in range(2))
        assert _own_bytes(precomp, other) / NAF_LINES["SS256"] <= 110

    def test_a_build_is_counted(self):
        with count_operations() as counter:
            MillerPrecomp(TOY, G * 7)
            with pytest.raises(PointOrderError):
                MillerPrecomp(TOY, TOY.curve.point(0, 0))
        assert counter.get("miller_precompute") == 1


class TestPathsAgree:
    @given(a=SCALARS, b=SCALARS)
    def test_every_path_matches_the_affine_loop(self, a, b):
        left, right = G * a, G * b
        expected = tate_pairing_affine(TOY, left, right)
        precomp = MillerPrecomp(TOY, left)
        xq, yq = right.x.value, right.y.value
        raw = final_exponentiation_raw(TOY, *precomp.evaluate_raw(xq, yq))
        assert (raw[0], raw[1]) == (expected.a, expected.b)
        assert tate_pairing(TOY, left, right, precomp=precomp) == expected
        assert PairingGroup("TOY").pair_batch(left, [right, G])[0] == expected
        assert multi_tate_pairing(TOY, [(left, right)], precomps=[precomp]) == expected
        assert multi_tate_pairing(TOY, [(left, right), (right, left)]) == expected * expected


# Points on the curve outside G1: random points R with qR != O, their
# multiples qR (order dividing the cofactor h) and the 2-torsion point.
_random_points = st.builds(
    TOY.curve.lift_x, st.integers(min_value=0, max_value=TOY.p - 1), st.integers(0, 1)
).filter(lambda point: point is not None and not (point * TOY.q).is_infinity())
OUTSIDE_G1 = st.one_of(
    _random_points,
    _random_points.map(lambda point: point * TOY.q),
    st.just(TOY.curve.point(0, 0)),
)


class TestPointsOutsideG1:
    @given(point=OUTSIDE_G1)
    def test_refused_with_point_order_error(self, point):
        assert not point.is_infinity() and not TOY.is_in_subgroup(point)
        with pytest.raises(PointOrderError, match="outside G1"):
            MillerPrecomp(TOY, point)

    def test_two_torsion_point(self):
        point = TOY.curve.point(0, 0)
        assert (point * 2).is_infinity()
        with pytest.raises(PointOrderError, match="outside G1"):
            MillerPrecomp(TOY, point)

    def test_chain_ending_on_the_added_point_itself(self):
        """x(T) = x0 at the last secant is not enough: T may be +P.

        No pinned parameter set has a point whose order divides q - 2d
        (d the last NAF digit).  On this small curve, whose q ends in the
        digit +1, a point of order 207127 does, so its chain ends at
        T = (q - 1)S = S, where the "secant" is a tangent.
        """
        params = SupersingularCurve(
            name="q-minus-2", p=83400708928871, q=16777289, h=4971048,
            generator_x=77863889157800, generator_y=14389075937749,
        )
        point = params.curve.point(3926602888238, 12984342230177)
        assert (point * (params.q - 2)).is_infinity()
        with pytest.raises(PointOrderError, match="outside G1"):
            MillerPrecomp(params, point)
        assert len(MillerPrecomp(params, params.generator).lines) > 0
