"""Exact arithmetic in the golden field Q(tau).

tau = (1 + sqrt 5)/2 satisfies tau^2 = tau + 1, so the numbers a + b*tau
with rational a, b form a field, closed under all four operations.  Every
3D point, squared radius and group-matrix entry lies in Q(tau) and is a
GoldenNumber, the package's one exact number type.  The planar pentagon
needs sqrt(2+tau) only as a fixed factor of its x coordinates, which
`pentagon` keeps outside the number (see `pentagon.Vec2E`).

Everything is stored as arbitrary-precision integer numerators over a
single reduced positive denominator, and every decision (equality, sign,
ordering) is made in integer arithmetic.  Floats appear only through
float(x), which is an explicitly approximate embedding for export and
display.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd, lcm

import numpy as np

__all__ = [
    "FieldParseError",
    "GoldenNumber",
    "ZERO",
    "ONE",
    "TAU",
    "parse_field_expr",
    "within_magnitude",
]

_TAU_FLOAT = (1.0 + math.sqrt(5.0)) / 2.0


class FieldParseError(ValueError):
    """Malformed field-literal text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _sgn(n: int) -> int:
    return (n > 0) - (n < 0)


def _gmul(a1: int, b1: int, a2: int, b2: int) -> tuple[int, int]:
    # (a1 + b1*tau)(a2 + b2*tau) reduced with tau^2 = tau + 1
    bb = b1 * b2
    return a1 * a2 + bb, a1 * b2 + b1 * a2 + bb


def _gsign(an: int, bn: int) -> int:
    # sign of (an + bn*tau): s = 2a+b and b carry the answer unless they
    # disagree, in which case s^2 vs 5 b^2 decides (s^2 = 5 b^2 only at 0).
    s = 2 * an + bn
    ss = _sgn(s)
    sb = _sgn(bn)
    if ss == 0:
        return sb
    if sb == 0 or ss == sb:
        return ss
    return ss if s * s > 5 * bn * bn else sb


def _gsigns(an: np.ndarray, bn: np.ndarray) -> np.ndarray:
    """_gsign of every (an, bn) of two integer arrays of one shape.

    int64 entries below 2^29 keep s^2 and 5 b^2 below 2^63; larger ones
    are decided in Python ints (dtype=object), as object input is.
    """
    if an.dtype != object and max(int(abs(an).max(initial=0)),
                                  int(abs(bn).max(initial=0))) >= 2 ** 29:
        an, bn = an.astype(object), bn.astype(object)
    s = 2 * an + bn
    ss, sb = np.sign(s), np.sign(bn)
    return np.where(ss * sb < 0, np.where(s * s > 5 * bn * bn, ss, sb),
                    np.where(ss == 0, sb, ss)).astype(np.int64)


class GoldenNumber:
    """An element a + b*tau of Q(tau).

    Stored as (an + bn*tau)/den with integer an, bn and den > 0,
    gcd(an, bn, den) = 1.  The reduced triple is the canonical form:
    two values are equal iff their triples are equal.
    """

    __slots__ = ("an", "bn", "den")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0) -> None:
        if isinstance(a, int) and isinstance(b, int):
            an, bn, den = a, b, 1
        else:
            fa = a if isinstance(a, Fraction) else Fraction(a)
            fb = b if isinstance(b, Fraction) else Fraction(b)
            den = lcm(fa.denominator, fb.denominator)
            an = fa.numerator * (den // fa.denominator)
            bn = fb.numerator * (den // fb.denominator)
        g = gcd(an, bn, den)
        if g > 1:
            an //= g
            bn //= g
            den //= g
        self.an = an
        self.bn = bn
        self.den = den

    @classmethod
    def _make(cls, an: int, bn: int, den: int) -> "GoldenNumber":
        if den < 0:
            an, bn, den = -an, -bn, -den
        g = gcd(an, bn, den)
        if g > 1:
            an //= g
            bn //= g
            den //= g
        self = object.__new__(cls)
        self.an = an
        self.bn = bn
        self.den = den
        return self

    @property
    def a(self) -> Fraction:
        """Unit part as a reduced Fraction."""
        return Fraction(self.an, self.den)

    @property
    def b(self) -> Fraction:
        """tau part as a reduced Fraction."""
        return Fraction(self.bn, self.den)

    def key(self) -> tuple[int, int, int]:
        """Canonical integer triple; equal values have equal keys."""
        return (self.an, self.bn, self.den)

    # -- ring/field operations -------------------------------------------

    @staticmethod
    def _lift(other) -> "GoldenNumber | None":
        if isinstance(other, GoldenNumber):
            return other
        if isinstance(other, int):
            return GoldenNumber._make(other, 0, 1)
        if isinstance(other, Fraction):
            return GoldenNumber._make(other.numerator, 0, other.denominator)
        return None

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GoldenNumber._make(
            self.an * o.den + o.an * self.den,
            self.bn * o.den + o.bn * self.den,
            self.den * o.den,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return GoldenNumber._make(
            self.an * o.den - o.an * self.den,
            self.bn * o.den - o.bn * self.den,
            self.den * o.den,
        )

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "GoldenNumber":
        return GoldenNumber._make(-self.an, -self.bn, self.den)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        an, bn = _gmul(self.an, self.bn, o.an, o.bn)
        return GoldenNumber._make(an, bn, self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "GoldenNumber":
        # x * conj(x) = a^2 + ab - b^2 is rational, so
        # 1/x = den*((a+b) - b*tau) / (an^2 + an*bn - bn^2).
        norm = self.an * self.an + self.an * self.bn - self.bn * self.bn
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(tau)")
        return GoldenNumber._make(
            self.den * (self.an + self.bn), -self.den * self.bn, norm
        )

    def __truediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int) -> "GoldenNumber":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates and order --------------------------------------------

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}, decided in integer arithmetic."""
        return _gsign(self.an, self.bn)

    def is_zero(self) -> bool:
        return self.an == 0 and self.bn == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return self.an == o.an and self.bn == o.bn and self.den == o.den

    def __hash__(self) -> int:
        return hash(self.key())

    def __lt__(self, other) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __le__(self, other) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() <= 0

    def __gt__(self, other) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() > 0

    def __ge__(self, other) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() >= 0

    # -- embedding and text ----------------------------------------------

    def __float__(self) -> float:
        return (self.an + self.bn * _TAU_FLOAT) / self.den

    def __str__(self) -> str:
        return format_golden(self)

    def __repr__(self) -> str:
        return f"GoldenNumber({self.a!r}, {self.b!r})"


ZERO = GoldenNumber(0, 0)
ONE = GoldenNumber(1, 0)
TAU = GoldenNumber(0, 1)

# ---------------------------------------------------------------------------
# Field-literal grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | atom ('^' SINT)*
#   atom   := INT | 'tau' | '(' expr ')'
#
# A power x^n is refused when |n| times the bit length of x's largest
# numerator or denominator passes _MAX_POWER_BITS, so no power builds a
# number much longer than that (tau^60 counts 60 bits and passes;
# tau^1000000 would take seconds).  Parentheses and unary minus nest at
# most _MAX_NESTING deep, which keeps the recursive descent (at most four
# frames a level) well inside Python's recursion limit.  'sqrt' is a name
# the grammar refuses: Q(tau) has no square roots to offer.
# Formatting emits the same grammar, normalized, e.g. "(7+1*tau)/5" prints
# back as "7/5+1/5*tau".
# ---------------------------------------------------------------------------

_MAX_POWER_BITS = 4096
_MAX_NESTING = 100

# Translation lengths and nonzero seed coordinates must lie within
# 2^-32 <= |x| <= 2^32, far past every catalogued value, and their reduced
# numerators and denominator may not pass _MAX_LITERAL_BITS bits.  The
# power bound alone admits values such as tau^1400 or (2^2000+1)/2^2000,
# whose float terms overflow.
_MAGNITUDE_MAX = GoldenNumber(2 ** 32)
_MAGNITUDE_MIN = GoldenNumber(Fraction(1, 2 ** 32))
_MAX_LITERAL_BITS = 256


def within_magnitude(x: GoldenNumber) -> bool:
    """True when 2^-32 <= |x| <= 2^32 and no reduced term of x passes
    256 bits, decided exactly."""
    if max(abs(x.an), abs(x.bn), x.den).bit_length() > _MAX_LITERAL_BITS:
        return False
    size = x if x.sign() >= 0 else -x
    return _MAGNITUDE_MIN <= size <= _MAGNITUDE_MAX


def _fmt_fraction(n: int, d: int) -> str:
    return str(n) if d == 1 else f"{n}/{d}"


def format_golden(x: GoldenNumber) -> str:
    """Render as a field literal, e.g. 'tau', '2-tau', '7/5+1/5*tau'."""
    if x.bn == 0:
        return _fmt_fraction(x.an, x.den)
    if abs(x.bn) == x.den:  # unit coefficient: 'tau', not '1*tau'
        tau_part = "tau"
    else:
        tau_part = _fmt_fraction(abs(x.bn), x.den) + "*tau"
    if x.an == 0:
        return ("-" if x.bn < 0 else "") + tau_part
    head = _fmt_fraction(x.an, x.den)
    return head + ("+" if x.bn > 0 else "-") + tau_part


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str) -> FieldParseError:
        return FieldParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def nested(self, parse) -> GoldenNumber:
        """`parse()` one nesting level deeper."""
        if self.depth == _MAX_NESTING:
            raise self.error(f"nesting deeper than {_MAX_NESTING} levels")
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> GoldenNumber:
        value = self.expr()
        if self.peek():
            raise self.error("unexpected trailing input")
        return value

    def expr(self) -> GoldenNumber:
        value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self) -> GoldenNumber:
        value = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                value = value * self.factor()
            elif ch == "/":
                self.pos += 1
                divisor = self.factor()
                if divisor.is_zero():
                    raise self.error("division by zero")
                value = value / divisor
            else:
                return value

    def factor(self) -> GoldenNumber:
        if self.peek() == "-":
            self.pos += 1
            return -self.nested(self.factor)
        value = self.atom()
        while self.peek() == "^":
            self.pos += 1
            exponent = self.signed_int()
            if exponent < 0 and value.is_zero():
                raise self.error("division by zero")
            bits = max(abs(n).bit_length()
                       for n in (value.an, value.bn, value.den))
            if abs(exponent) * bits > _MAX_POWER_BITS:
                raise self.error(
                    f"power too large: exponent {exponent} on a "
                    f"{bits}-bit value passes {_MAX_POWER_BITS} bits")
            value = value ** exponent
        return value

    def atom(self) -> GoldenNumber:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.nested(self.expr)
            self.expect(")")
            return value
        if ch.isdigit():
            return GoldenNumber._make(self.integer(), 0, 1)
        if ch.isalpha():
            name = self.name()
            if name == "tau":
                return TAU
            if name == "sqrt":
                raise self.error("sqrt is not allowed in Q(tau) literals")
            raise self.error(f"unknown name '{name}'")
        raise self.error("expected a number, 'tau', or '('")

    def name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def signed_int(self) -> int:
        negative = False
        if self.peek() == "-":
            self.pos += 1
            negative = True
        n = self.integer()
        return -n if negative else n


def parse_field_expr(text: str) -> GoldenNumber:
    """Parse a Q(tau) literal such as '(7+tau)/5' or 'tau^-2'."""
    return _Parser(text).parse()
