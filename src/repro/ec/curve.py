"""Short Weierstrass elliptic curves ``y^2 = x^3 + a*x + b``.

The implementation is generic over the coefficient field: the same
:class:`EllipticCurve` works over F_p (the base group G1 lives there) and
over F_{p^2} (where the distortion map sends points for pairing
evaluation).  Points are immutable; the identity is represented explicitly
by :attr:`Point.infinity`.

Single additions stay affine (one field inversion each — the Miller loop
needs the slopes anyway and the code is easy to audit), but scalar
multiplication over prime fields routes through the inversion-free
Jacobian kernels in :mod:`repro.ec.jacobian` and normalises once at the
end.  :meth:`Point.mul_schoolbook` keeps the affine double-and-add ladder
as the conformance reference; property tests assert both paths produce
bit-identical points.
"""

from __future__ import annotations

from repro.ec import jacobian as _jac
from repro.math.fields import PrimeField

__all__ = ["EllipticCurve", "Point"]


class EllipticCurve:
    """The curve ``y^2 = x^3 + a*x + b`` over ``field``."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field, a, b):
        self.field = field
        self.a = a if not isinstance(a, int) else field(a)
        self.b = b if not isinstance(b, int) else field(b)
        disc = 4 * self.a * self.a * self.a + 27 * self.b * self.b
        if disc.is_zero():
            raise ValueError("singular curve: 4a^3 + 27b^2 = 0")

    def point(self, x, y) -> "Point":
        """Construct a point, verifying the curve equation."""
        x = x if not isinstance(x, int) else self.field(x)
        y = y if not isinstance(y, int) else self.field(y)
        point = Point(self, x, y)
        if not self.contains(point):
            raise ValueError("point is not on the curve")
        return point

    def infinity(self) -> "Point":
        """The identity element of the curve group."""
        return Point(self, None, None)

    def contains(self, point: "Point") -> bool:
        """Check the curve equation (the identity is always contained)."""
        if point.is_infinity():
            return point.curve == self
        lhs = point.y * point.y
        rhs = point.x * point.x * point.x + self.a * point.x + self.b
        return point.curve == self and lhs == rhs

    def lift_x(self, x, y_parity: int = 0) -> "Point | None":
        """Return a point with the given x-coordinate, or None.

        ``y_parity`` selects between the two roots by the parity of the
        y-coordinate's integer value (base-field curves only).
        """
        x = x if not isinstance(x, int) else self.field(x)
        rhs = x * x * x + self.a * x + self.b
        try:
            y = rhs.sqrt()
        except ValueError:
            return None
        if int(y) % 2 != y_parity % 2:
            y = -y
        return Point(self, x, y)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EllipticCurve)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash(("EllipticCurve", self.field, self.a, self.b))

    def __repr__(self) -> str:
        return "EllipticCurve(y^2 = x^3 + %r*x + %r over %r)" % (self.a, self.b, self.field)


class Point:
    """An affine point on an :class:`EllipticCurve`, or the identity."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: EllipticCurve, x, y):
        object.__setattr__(self, "curve", curve)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    def is_infinity(self) -> bool:
        return self.x is None

    def __neg__(self) -> "Point":
        if self.is_infinity():
            return self
        return Point(self.curve, self.x, -self.y)

    def __add__(self, other: "Point") -> "Point":
        if not isinstance(other, Point):
            return NotImplemented
        if self.curve != other.curve:
            raise ValueError("points are on different curves")
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        if self.x == other.x:
            if self.y == -other.y:
                return self.curve.infinity()
            return self._double()
        slope = (other.y - self.y) / (other.x - self.x)
        x3 = slope * slope - self.x - other.x
        y3 = slope * (self.x - x3) - self.y
        return Point(self.curve, x3, y3)

    def __sub__(self, other: "Point") -> "Point":
        return self + (-other)

    def _double(self) -> "Point":
        if self.is_infinity() or self.y.is_zero():
            return self.curve.infinity()
        slope = (3 * self.x * self.x + self.curve.a) / (2 * self.y)
        x3 = slope * slope - self.x - self.x
        y3 = slope * (self.x - x3) - self.y
        return Point(self.curve, x3, y3)

    def double(self) -> "Point":
        """Public doubling (used by the Miller loop)."""
        return self._double()

    def __mul__(self, scalar: int) -> "Point":
        if not isinstance(scalar, int):
            return NotImplemented
        if scalar < 0:
            return (-self) * (-scalar)
        if isinstance(self.curve.field, PrimeField):
            return self._mul_jacobian(scalar)
        return self.mul_schoolbook(scalar)

    __rmul__ = __mul__

    def _mul_jacobian(self, scalar: int) -> "Point":
        """Inversion-free ladder for prime-field curves (one final modinv)."""
        if scalar == 0 or self.is_infinity():
            return self.curve.infinity()
        field = self.curve.field
        affine = _jac.jac_scalar_mul(
            self.x.value, self.y.value, scalar, self.curve.a.value, field.p
        )
        if affine is None:
            return self.curve.infinity()
        return Point(self.curve, field(affine[0]), field(affine[1]))

    def mul_schoolbook(self, scalar: int) -> "Point":
        """Affine double-and-add: the conformance reference for every
        optimised multiplication path (Jacobian, wNAF, fixed-base)."""
        if not isinstance(scalar, int):
            raise TypeError("scalar must be an int")
        if scalar < 0:
            return (-self).mul_schoolbook(-scalar)
        result = self.curve.infinity()
        addend = self
        while scalar:
            if scalar & 1:
                result = result + addend
            addend = addend._double()
            scalar >>= 1
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        if self.curve != other.curve:
            return False
        if self.is_infinity() or other.is_infinity():
            return self.is_infinity() and other.is_infinity()
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        if self.is_infinity():
            return hash((self.curve, "infinity"))
        return hash((self.curve, self.x, self.y))

    def __repr__(self) -> str:
        if self.is_infinity():
            return "Point(infinity)"
        return "Point(%r, %r)" % (self.x, self.y)
