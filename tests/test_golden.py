"""Tests for exact golden-field arithmetic and field literals."""

import math
import random
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from icofold.golden import (
    _gsign,
    _gsigns,
    ONE,
    TAU,
    ZERO,
    FieldParseError,
    GoldenNumber,
    format_golden,
    parse_field_expr,
    within_magnitude,
)

getcontext().prec = 80
TAU_DEC = (1 + Decimal(5).sqrt()) / 2


def golden_dec(x: GoldenNumber) -> Decimal:
    return (Decimal(x.an) + Decimal(x.bn) * TAU_DEC) / Decimal(x.den)


def rand_golden(rng: random.Random, span: int = 1000) -> GoldenNumber:
    return GoldenNumber(
        Fraction(rng.randint(-span, span), rng.randint(1, 12)),
        Fraction(rng.randint(-span, span), rng.randint(1, 12)),
    )


def fibonacci(n: int) -> list[int]:
    fib = [0, 1]
    while len(fib) <= n:
        fib.append(fib[-1] + fib[-2])
    return fib


class TestGoldenBasics:
    def test_tau_satisfies_its_equation(self):
        assert TAU * TAU == ONE + TAU
        assert TAU * TAU == GoldenNumber(1, 1)

    def test_tau_inverse_is_tau_minus_one(self):
        assert TAU.inverse() == TAU - 1
        assert ONE / TAU == GoldenNumber(-1, 1)

    def test_inverse_square_power(self):
        assert TAU ** -2 == GoldenNumber(2, -1)
        assert (TAU ** -2) * (TAU ** 2) == ONE

    def test_power_matches_fibonacci_recursion(self):
        # tau^n = F(n)*tau + F(n-1) follows by induction from tau^2 = tau+1
        fib = fibonacci(41)
        for n in range(1, 40):
            assert TAU ** n == GoldenNumber(fib[n - 1], fib[n])

    def test_float_embedding(self):
        assert math.isclose(float(TAU), 1.6180339887498949)
        assert float(ZERO) == 0.0
        x = GoldenNumber(Fraction(-8), Fraction(-16))
        assert math.isclose(float(x), -8 - 16 * float(TAU), rel_tol=1e-12)

    def test_constructor_reduces_to_canonical_form(self):
        x = GoldenNumber(Fraction(2, 4), Fraction(6, 4))
        y = GoldenNumber(Fraction(1, 2), Fraction(3, 2))
        assert x == y
        assert hash(x) == hash(y)
        assert x.key() == (1, 3, 2)
        assert GoldenNumber(Fraction(4, 2), 3).key() == (2, 3, 1)

    def test_mixed_int_fraction_operands(self):
        x = GoldenNumber(Fraction(1, 2), 0)
        assert x + x == ONE
        assert 2 * x == ONE
        assert x - Fraction(1, 2) == ZERO
        assert Fraction(3, 2) + x == GoldenNumber(2, 0)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()


class TestGoldenSign:
    def test_documented_sign_example(self):
        x = GoldenNumber(-8, -16)
        assert x.sign() == -1
        assert float(x) < -33.8

    def test_signs_of_simple_values(self):
        assert ZERO.sign() == 0
        assert TAU.sign() == 1
        assert (-TAU).sign() == -1
        assert (ONE - TAU).sign() == -1
        assert (TAU - 1).sign() == 1
        assert (2 - TAU).sign() == 1

    def test_sign_on_fibonacci_near_misses(self):
        # F(n+1) - F(n)*tau = (1-tau)^n = (-1)^n * tau^(-n): tiny but
        # exactly signed, far below float resolution for large n.
        fib = fibonacci(301)
        for n in range(1, 300):
            x = GoldenNumber(fib[n + 1], -fib[n])
            assert x.sign() == (1 if n % 2 == 0 else -1)

    def test_sign_matches_decimal_oracle(self):
        rng = random.Random(402)
        for _ in range(10_000):
            x = rand_golden(rng, 10**6)
            d = golden_dec(x)
            expected = 0 if d == 0 else (1 if d > 0 else -1)
            assert x.sign() == expected

    def test_ordering_is_consistent_with_embedding(self):
        rng = random.Random(403)
        for _ in range(2000):
            x = rand_golden(rng)
            y = rand_golden(rng)
            assert (x < y) == (golden_dec(x) < golden_dec(y))
            assert (x <= y) == (golden_dec(x) <= golden_dec(y))
            assert (x > y) == (golden_dec(x) > golden_dec(y))


class TestGoldenAlgebra:
    def test_field_axioms_on_random_values(self):
        rng = random.Random(404)
        for _ in range(2000):
            x = rand_golden(rng)
            y = rand_golden(rng)
            z = rand_golden(rng)
            assert x + y == y + x
            assert x * y == y * x
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + ZERO == x
            assert x * ONE == x
            assert x - x == ZERO
            if not x.is_zero():
                assert x * x.inverse() == ONE
                assert (y / x) * x == y

    def test_multiplication_matches_decimal_oracle(self):
        rng = random.Random(405)
        for _ in range(2000):
            x = rand_golden(rng)
            y = rand_golden(rng)
            got = golden_dec(x * y)
            want = golden_dec(x) * golden_dec(y)
            assert abs(got - want) < Decimal("1e-40")

    def test_conjugation_is_a_ring_homomorphism(self):
        def conj(x):
            """The Galois conjugate tau -> 1 - tau."""
            return GoldenNumber._make(x.an + x.bn, -x.bn, x.den)

        rng = random.Random(406)
        assert conj(TAU) == ONE - TAU
        for _ in range(2000):
            x = rand_golden(rng)
            y = rand_golden(rng)
            assert conj(x + y) == conj(x) + conj(y)
            assert conj(x * y) == conj(x) * conj(y)
            assert conj(conj(x)) == x
            norm = x * conj(x)
            assert norm.bn == 0  # x*conj(x) = a^2+ab-b^2 is rational


class TestParsing:
    def test_documented_examples(self):
        assert parse_field_expr("(7+tau)/5") == GoldenNumber(
            Fraction(7, 5), Fraction(1, 5)
        )
        assert parse_field_expr("tau^-2") == GoldenNumber(2, -1)
        assert parse_field_expr("3") == GoldenNumber(3, 0)

    def test_operators_and_whitespace(self):
        assert parse_field_expr(" 1 + 2*tau ") == GoldenNumber(1, 2)
        assert parse_field_expr("-tau") == -TAU
        assert parse_field_expr("2 - 3") == GoldenNumber(-1, 0)
        assert parse_field_expr("1/2") == GoldenNumber(Fraction(1, 2), 0)
        assert parse_field_expr("(1+tau)*(1-tau)") == -TAU  # 1 - tau^2 = -tau
        assert parse_field_expr("((2))^3") == GoldenNumber(8, 0)
        assert parse_field_expr("tau*tau") == TAU + 1
        assert parse_field_expr("2^-1") == GoldenNumber(Fraction(1, 2), 0)

    def test_parse_errors_carry_position(self):
        for text in ["", "tau+", "(1", "1/0", "foo", "1 2", "^2", "0^-1"]:
            with pytest.raises(FieldParseError) as info:
                parse_field_expr(text)
            assert info.value.position >= 0
            assert "position" in str(info.value)

    def test_power_bound(self):
        assert parse_field_expr("tau^60") == TAU ** 60
        assert parse_field_expr("tau^-4096") == TAU ** -4096
        for text in ["tau^4097", "tau^-20000", "2^2048*(2^2048)^2",
                     "((2^64)^64)^64", "1^1000000"]:
            with pytest.raises(FieldParseError, match="power too large"):
                parse_field_expr(text)

    def test_nesting_bound(self):
        assert parse_field_expr("(" * 100 + "tau" + ")" * 100) == TAU
        assert parse_field_expr("-" * 100 + "2") == 2
        assert parse_field_expr("-(" * 50 + "1" + ")" * 50) == 1
        # siblings do not add up: each group closes before the next opens
        assert parse_field_expr("+".join(["(-1)"] * 200)) == -200
        for text in ["(" * 101 + "1" + ")" * 101, "-" * 101 + "1",
                     "(-" * 51 + "1" + ")" * 51, "(" * 300 + "1",
                     "-" * 2000 + "1"]:
            with pytest.raises(FieldParseError, match="nesting deeper"):
                parse_field_expr(text)

    def test_magnitude_bounds_are_exact(self):
        big = GoldenNumber(2 ** 32)
        small = GoldenNumber(Fraction(1, 2 ** 32))
        tiny = (TAU - 1) * GoldenNumber(Fraction(1, 2 ** 70))  # > 0
        # reduced terms of up to 256 bits pass, longer ones do not
        long_256 = GoldenNumber(Fraction(2 ** 255 + 1, 2 ** 255))
        long_257 = GoldenNumber(Fraction(2 ** 256 + 1, 2 ** 256))
        inside = [ONE, -TAU, big, -big, small, -small, big - tiny,
                  small + tiny, TAU ** 46, TAU ** -46, long_256]
        outside = [ZERO, big + tiny, -(big + tiny), small - tiny,
                   TAU ** 47, TAU ** -47, GoldenNumber(10) ** 400,
                   long_257, -long_257, long_257 * TAU]
        assert all(within_magnitude(x) for x in inside)
        assert not any(within_magnitude(x) for x in outside)

    def test_sqrt_rejected_in_plain_context(self):
        for text in ("sqrt(3)", "sqrt(2+tau)", "1+(1/2)*sqrt(2+tau)"):
            with pytest.raises(FieldParseError, match="sqrt is not allowed"):
                parse_field_expr(text)

    def test_format_examples(self):
        assert format_golden(GoldenNumber(Fraction(7, 5), Fraction(1, 5))) == "7/5+1/5*tau"
        assert format_golden(GoldenNumber(2, -1)) == "2-tau"
        assert format_golden(GoldenNumber(3, 0)) == "3"
        assert format_golden(GoldenNumber(0, 1)) == "tau"
        assert format_golden(GoldenNumber(0, -1)) == "-tau"
        assert format_golden(GoldenNumber(0, -2)) == "-2*tau"
        assert format_golden(ZERO) == "0"

    def test_golden_round_trip(self):
        rng = random.Random(411)
        samples = [ZERO, ONE, TAU, -TAU, GoldenNumber(Fraction(-7, 5), Fraction(1, 5))]
        samples += [rand_golden(rng) for _ in range(500)]
        for x in samples:
            assert parse_field_expr(format_golden(x)) == x


@pytest.mark.parametrize("bound", [3, 2 ** 28, 2 ** 29, 2 ** 40, 2 ** 100])
def test_vectorised_signs_match_the_scalar_rule(bound):
    """_gsigns gives _gsign's answer entry for entry, on int64 arrays
    below and past the 2^29 bound where it turns to Python ints, and on
    object arrays; Fibonacci pairs put a + b*tau within 10^-17 of 0."""
    rng = random.Random(bound)
    pairs = [(rng.randint(-bound, bound), rng.randint(-bound, bound))
             for _ in range(500)]
    fib = fibonacci(90)
    pairs += [(0, 0), (3, 0), (0, -2), (-3, 2), (3, -2)]
    pairs += [(s * -fib[k], s * fib[k - 1]) for k in (40, 41, 80, 89)
              for s in (1, -1)]
    an, bn = zip(*pairs)
    want = [_gsign(a, b) for a, b in pairs]
    dtypes = (np.int64, object) if bound < 2 ** 62 else (object,)
    for dtype in dtypes:
        got = _gsigns(np.array(an, dtype=dtype), np.array(bn, dtype=dtype))
        assert got.dtype == np.int64
        assert got.tolist() == want
