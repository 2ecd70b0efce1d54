"""Unit and property tests for repro.math.ntheory."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.math.ntheory import (
    bytes_to_int,
    crt,
    egcd,
    int_to_bytes,
    is_quadratic_residue,
    jacobi_symbol,
    legendre_symbol,
    modinv,
    sqrt_mod,
)

P_3MOD4 = 1000003  # prime, = 3 (mod 4)
P_1MOD4 = 1000033  # prime, = 1 (mod 4): exercises Tonelli--Shanks
SMALL_PRIMES = (3, 5, 7, 11, 13, 101, 65537)


class TestEgcd:
    def test_basic(self):
        g, x, y = egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == g

    def test_coprime(self):
        g, x, y = egcd(17, 31)
        assert g == 1
        assert 17 * x + 31 * y == 1

    def test_zero_operands(self):
        assert egcd(0, 5)[0] == 5
        assert egcd(5, 0)[0] == 5
        assert egcd(0, 0)[0] == 0

    @given(st.integers(min_value=-10**12, max_value=10**12),
           st.integers(min_value=-10**12, max_value=10**12))
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert a * x + b * y == g
        if a or b:
            assert a % g == 0 and b % g == 0


class TestModinv:
    def test_known(self):
        assert modinv(3, 7) == 5  # 3*5 = 15 = 1 (mod 7)

    def test_negative_input(self):
        assert modinv(-3, 7) * (-3) % 7 == 1

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            modinv(0, 7)

    def test_non_invertible_raises(self):
        with pytest.raises(ZeroDivisionError):
            modinv(6, 9)

    @given(st.integers(min_value=1, max_value=P_3MOD4 - 1))
    def test_inverse_property(self, a):
        assert a * modinv(a, P_3MOD4) % P_3MOD4 == 1


class TestJacobiLegendre:
    def test_jacobi_requires_odd_positive(self):
        with pytest.raises(ValueError):
            jacobi_symbol(3, 8)
        with pytest.raises(ValueError):
            jacobi_symbol(3, -5)

    def test_zero_when_shared_factor(self):
        assert jacobi_symbol(15, 45) == 0

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_legendre_matches_euler_criterion(self, p):
        for a in range(1, min(p, 60)):
            euler = pow(a, (p - 1) // 2, p)
            expected = 1 if euler == 1 else (-1 if euler == p - 1 else 0)
            assert legendre_symbol(a, p) == expected

    @given(st.integers(min_value=1, max_value=10**6))
    def test_squares_are_residues(self, a):
        if a % P_3MOD4 != 0:
            assert is_quadratic_residue(a * a, P_3MOD4)


class TestSqrtMod:
    @pytest.mark.parametrize("p", [P_3MOD4, P_1MOD4, 13, 17, 97])
    def test_roots_square_back(self, p):
        for a in range(1, 40):
            square = a * a % p
            root = sqrt_mod(square, p)
            assert root * root % p == square

    def test_zero(self):
        assert sqrt_mod(0, P_3MOD4) == 0

    def test_non_residue_raises(self):
        # Every non-residue below 100 takes the error path, on both the
        # exponentiation (p = 3 mod 4) and Tonelli--Shanks branches.
        for p in (P_3MOD4, P_1MOD4):
            non_residues = [a for a in range(2, 100) if not is_quadratic_residue(a, p)]
            assert non_residues
            for a in non_residues:
                with pytest.raises(ValueError):
                    sqrt_mod(a, p)

    @given(st.integers(min_value=1, max_value=P_1MOD4 - 1))
    def test_tonelli_shanks_property(self, a):
        square = a * a % P_1MOD4
        root = sqrt_mod(square, P_1MOD4)
        assert root in (a, P_1MOD4 - a)


class TestCrt:
    def test_textbook(self):
        # x = 2 (mod 3), x = 3 (mod 5), x = 2 (mod 7)  =>  x = 23
        assert crt([2, 3, 2], [3, 5, 7]) == 23

    def test_single_congruence(self):
        assert crt([4], [9]) == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            crt([1, 2], [3])

    def test_empty(self):
        with pytest.raises(ValueError):
            crt([], [])

    def test_non_coprime_raises(self):
        with pytest.raises(ValueError):
            crt([1, 2], [4, 6])

    @given(st.integers(min_value=0, max_value=3 * 5 * 7 * 11 - 1))
    def test_round_trip(self, x):
        moduli = [3, 5, 7, 11]
        residues = [x % m for m in moduli]
        assert crt(residues, moduli) == x


class TestByteConversion:
    def test_round_trip(self):
        for n in (0, 1, 255, 256, 2**64, 2**128 + 12345):
            assert bytes_to_int(int_to_bytes(n)) == n

    def test_fixed_width(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1)

    def test_zero_is_one_byte(self):
        assert int_to_bytes(0) == b"\x00"

    @given(st.integers(min_value=0, max_value=2**256))
    def test_round_trip_property(self, n):
        assert bytes_to_int(int_to_bytes(n)) == n
