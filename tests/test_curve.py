"""Group-law tests for the elliptic-curve layer."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ec.curve import EllipticCurve, Point
from repro.ec.params import get_params
from repro.math.fields import PrimeField

PARAMS = get_params("TOY")
CURVE = PARAMS.curve
G = PARAMS.generator
Q = PARAMS.q

scalars = st.integers(min_value=0, max_value=Q - 1)


class TestCurveConstruction:
    def test_singular_rejected(self):
        field = PrimeField(1000003)
        with pytest.raises(ValueError):
            EllipticCurve(field, field(0), field(0))  # y^2 = x^3 is singular

    def test_point_validation(self):
        with pytest.raises(ValueError):
            CURVE.point(1, 1)  # almost surely not on the curve

    def test_contains_infinity(self):
        assert CURVE.contains(CURVE.infinity())

    def test_generator_on_curve(self):
        assert CURVE.contains(G)

    def test_equality(self):
        field = PrimeField(1000003)
        c1 = EllipticCurve(field, field(1), field(0))
        c2 = EllipticCurve(field, field(1), field(0))
        c3 = EllipticCurve(field, field(2), field(0))
        assert c1 == c2 and c1 != c3

    def test_lift_x_roundtrip(self):
        lifted = CURVE.lift_x(G.x, y_parity=int(G.y) & 1)
        assert lifted == G

    def test_lift_x_other_parity(self):
        lifted = CURVE.lift_x(G.x, y_parity=(int(G.y) & 1) ^ 1)
        assert lifted == -G

    @pytest.mark.parametrize("p", [1019, 1009])  # p = 3 and p = 1 (mod 4)
    def test_lift_x_agrees_with_brute_force(self, p):
        field = PrimeField(p)
        curve = EllipticCurve(field, field(2), field(3))
        roots: dict[int, list[int]] = {}
        for y in range(p):
            roots.setdefault(y * y % p, []).append(y)
        for x in range(p):
            rhs = (x**3 + 2 * x + 3) % p
            for parity in (0, 1):
                lifted = curve.lift_x(x, y_parity=parity)
                if rhs not in roots:
                    assert lifted is None
                    continue
                assert curve.contains(lifted) and int(lifted.x) == x
                assert int(lifted.y) in roots[rhs]
                assert int(lifted.y) % 2 == parity or rhs == 0

    def test_lift_x_non_residue_returns_none(self):
        # Scan for an x with no point; on a random curve about half qualify.
        field = CURVE.field
        for x in range(2, 200):
            candidate = CURVE.lift_x(field(x))
            if candidate is None:
                return
        pytest.fail("no non-liftable x found in range (vanishingly unlikely)")


class TestGroupLaw:
    def test_identity_element(self):
        infinity = CURVE.infinity()
        assert G + infinity == G
        assert infinity + G == G
        assert infinity + infinity == infinity

    def test_inverse(self):
        assert G + (-G) == CURVE.infinity()
        assert -CURVE.infinity() == CURVE.infinity()

    def test_doubling_matches_addition(self):
        assert G.double() == G * 2
        assert G + G == G * 2

    def test_two_torsion_doubles_to_infinity(self):
        # y = 0 point: x^3 + x = 0 at x = 0 on y^2 = x^3 + x.
        two_torsion = CURVE.point(0, 0)
        assert two_torsion.double().is_infinity()

    @given(scalars, scalars)
    def test_scalar_mul_distributes(self, a, b):
        assert G * a + G * b == G * ((a + b) % Q)

    @given(scalars, scalars)
    def test_scalar_mul_associates(self, a, b):
        assert (G * a) * b == G * (a * b % Q)

    @given(scalars)
    def test_negative_scalar(self, a):
        assert G * -a == -(G * a)

    def test_order(self):
        assert (G * Q).is_infinity()
        assert not (G * (Q - 1)).is_infinity()

    @given(scalars, scalars, scalars)
    def test_addition_associative(self, a, b, c):
        pa, pb, pc = G * a, G * b, G * c
        assert (pa + pb) + pc == pa + (pb + pc)

    @given(scalars, scalars)
    def test_addition_commutative(self, a, b):
        assert G * a + G * b == G * b + G * a

    def test_zero_scalar(self):
        assert (G * 0).is_infinity()

    def test_subtraction(self):
        assert G * 5 - G * 3 == G * 2


class TestPointBehaviour:
    def test_immutability(self):
        with pytest.raises(AttributeError):
            G.x = None

    def test_cross_curve_rejected(self):
        other = get_params("SS256")
        with pytest.raises(ValueError):
            G + other.generator

    def test_equality_with_non_point(self):
        assert (G == 42) is False
        assert G != 42

    def test_hash_consistency(self):
        assert hash(G * 3) == hash(G * 3)
        assert hash(CURVE.infinity()) == hash(CURVE.infinity())

    def test_repr(self):
        assert "infinity" in repr(CURVE.infinity())
        assert "Point" in repr(G)

    def test_mul_type_error(self):
        with pytest.raises(TypeError):
            G * 1.5
