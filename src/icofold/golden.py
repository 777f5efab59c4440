"""Exact arithmetic in the golden field Q(tau) and its quadratic extensions.

tau = (1 + sqrt 5)/2 satisfies tau^2 = tau + 1, so the numbers a + b*tau
with rational a, b form a field, closed under all four operations.  Every
3D point, squared radius and group-matrix entry lies in Q(tau) itself and
is a GoldenNumber.  ExtNumber represents p + q*sqrt(k) for one fixed
radicand k; it is needed only where a square root is real: the planar
pentagon, whose sin 72 is sqrt(2+tau)/2, and extension literals such as
2D CSV cells.  Combining values with different radicands is an error
rather than a tower extension.

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

__all__ = [
    "FieldParseError",
    "RadicandMismatchError",
    "GoldenNumber",
    "ExtNumber",
    "ZERO",
    "ONE",
    "TAU",
    "K_FIVEFOLD",
    "parse_field_expr",
    "parse_ext_expr",
    "within_magnitude",
]

_TAU_FLOAT = (1.0 + math.sqrt(5.0)) / 2.0


class FieldParseError(ValueError):
    """Malformed field-literal text; carries the offending position."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RadicandMismatchError(ValueError):
    """Two ExtNumbers with different radicands were combined."""


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


class GoldenNumber:
    """An element a + b*tau of Q(tau).

    Stored as (an + bn*tau)/den with integer an, bn and den > 0,
    gcd(an, bn, den) = 1.  The reduced triple is the canonical form:
    two values are equal iff their triples are equal.
    """

    __slots__ = ("an", "bn", "den", "_hash")

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
        self._hash = -1

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
        self._hash = -1
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

    def conj(self) -> "GoldenNumber":
        """Galois conjugate tau -> 1 - tau (a ring homomorphism)."""
        return GoldenNumber._make(self.an + self.bn, -self.bn, self.den)

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
        h = self._hash
        if h == -1:
            h = hash((self.an, self.bn, self.den))
            if h == -1:
                h = -2
            self._hash = h
        return h

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

# The radicand of the planar pentagon: sin 72 = sqrt(2+tau)/2.
K_FIVEFOLD = GoldenNumber(2, 1)


class ExtNumber:
    """p + q*sqrt(k) with p, q in Q(tau) and a fixed positive radicand k.

    The radicand must be 1 or not a square in Q(tau); for k = 1 the radical
    part is folded into p at construction so canonical forms stay unique.
    Operands with different radicands raise RadicandMismatchError.
    """

    __slots__ = ("pa", "pb", "qa", "qb", "den", "k", "_hash")

    def __init__(self, p=0, q=0, k: GoldenNumber = ONE) -> None:
        gp = GoldenNumber._lift(p)
        gq = GoldenNumber._lift(q)
        if gp is None or gq is None:
            raise TypeError("ExtNumber parts must be GoldenNumber, int, or Fraction")
        new = ExtNumber._make(
            gp.an * gq.den, gp.bn * gq.den, gq.an * gp.den, gq.bn * gp.den,
            gp.den * gq.den, k,
        )
        self.pa = new.pa
        self.pb = new.pb
        self.qa = new.qa
        self.qb = new.qb
        self.den = new.den
        self.k = new.k
        self._hash = -1

    @classmethod
    def _make(cls, pa: int, pb: int, qa: int, qb: int, den: int,
              k: GoldenNumber) -> "ExtNumber":
        if k.an == 1 and k.bn == 0 and k.den == 1 and (qa or qb):
            pa += qa
            pb += qb
            qa = 0
            qb = 0
        if den < 0:
            pa, pb, qa, qb, den = -pa, -pb, -qa, -qb, -den
        g = gcd(pa, pb, qa, qb, den)
        if g > 1:
            pa //= g
            pb //= g
            qa //= g
            qb //= g
            den //= g
        self = object.__new__(cls)
        self.pa = pa
        self.pb = pb
        self.qa = qa
        self.qb = qb
        self.den = den
        self.k = k
        self._hash = -1
        return self

    @classmethod
    def from_golden(cls, g: GoldenNumber, k: GoldenNumber) -> "ExtNumber":
        return cls._make(g.an, g.bn, 0, 0, g.den, k)

    @classmethod
    def sqrt_of(cls, k: GoldenNumber) -> "ExtNumber":
        """The value sqrt(k) itself (k must be positive)."""
        if k.sign() <= 0:
            raise ValueError("radicand must be positive")
        return cls._make(0, 0, 1, 0, 1, k)

    @property
    def p(self) -> GoldenNumber:
        return GoldenNumber._make(self.pa, self.pb, self.den)

    @property
    def q(self) -> GoldenNumber:
        return GoldenNumber._make(self.qa, self.qb, self.den)

    def key(self) -> tuple:
        """Canonical integer tuple (includes the radicand's triple)."""
        return (self.pa, self.pb, self.qa, self.qb, self.den,
                self.k.an, self.k.bn, self.k.den)

    def _same_k(self, other: "ExtNumber") -> None:
        ks, ko = self.k, other.k
        if ks is ko:
            return
        if ks.an == ko.an and ks.bn == ko.bn and ks.den == ko.den:
            return
        raise RadicandMismatchError(
            f"radicand mismatch: sqrt({ks}) vs sqrt({ko})"
        )

    def _lift(self, other) -> "ExtNumber | None":
        if isinstance(other, ExtNumber):
            self._same_k(other)
            return other
        g = GoldenNumber._lift(other)
        if g is None:
            return None
        return ExtNumber._make(g.an, g.bn, 0, 0, g.den, self.k)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        return ExtNumber._make(
            self.pa * d2 + o.pa * d1,
            self.pb * d2 + o.pb * d1,
            self.qa * d2 + o.qa * d1,
            self.qb * d2 + o.qb * d1,
            d1 * d2,
            self.k,
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        return ExtNumber._make(
            self.pa * d2 - o.pa * d1,
            self.pb * d2 - o.pb * d1,
            self.qa * d2 - o.qa * d1,
            self.qb * d2 - o.qb * d1,
            d1 * d2,
            self.k,
        )

    def __rsub__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "ExtNumber":
        return ExtNumber._make(-self.pa, -self.pb, -self.qa, -self.qb,
                               self.den, self.k)

    def __mul__(self, other):
        o = self._lift(other)
        if o is None:
            return NotImplemented
        k = self.k
        # (p1 + q1 rk)(p2 + q2 rk) = (p1 p2 + q1 q2 k) + (p1 q2 + q1 p2) rk,
        # assembled over the common denominator d1*d2*k.den.
        ppa, ppb = _gmul(self.pa, self.pb, o.pa, o.pb)
        qqa, qqb = _gmul(self.qa, self.qb, o.qa, o.qb)
        qqka, qqkb = _gmul(qqa, qqb, k.an, k.bn)
        c1a, c1b = _gmul(self.pa, self.pb, o.qa, o.qb)
        c2a, c2b = _gmul(self.qa, self.qb, o.pa, o.pb)
        return ExtNumber._make(
            ppa * k.den + qqka,
            ppb * k.den + qqkb,
            (c1a + c2a) * k.den,
            (c1b + c2b) * k.den,
            self.den * o.den * k.den,
            k,
        )

    __rmul__ = __mul__

    def mul_golden(self, g: GoldenNumber) -> "ExtNumber":
        """Fast multiplication by a pure Q(tau) scalar."""
        pa, pb = _gmul(g.an, g.bn, self.pa, self.pb)
        qa, qb = _gmul(g.an, g.bn, self.qa, self.qb)
        return ExtNumber._make(pa, pb, qa, qb, self.den * g.den, self.k)

    def inverse(self) -> "ExtNumber":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(tau)(sqrt k)")
        p, q, k = self.p, self.q, self.k
        norm = p * p - q * q * k
        if norm.is_zero():
            raise ValueError(
                "radicand is a square in Q(tau); representation not unique"
            )
        inv = norm.inverse()
        return ExtNumber(p * inv, -(q * inv), k)

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

    def __pow__(self, exponent: int) -> "ExtNumber":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = ExtNumber._make(1, 0, 0, 0, 1, self.k)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- predicates, order, embedding --------------------------------------

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(k) for k > 0."""
        sp = _gsign(self.pa, self.pb)
        sq = _gsign(self.qa, self.qb)
        if sq == 0:
            return sp
        if sp == 0 or sp == sq:
            return sq
        # opposite signs: compare p^2 against q^2 * k
        ppa, ppb = _gmul(self.pa, self.pb, self.pa, self.pb)
        qqa, qqb = _gmul(self.qa, self.qb, self.qa, self.qb)
        qqka, qqkb = _gmul(qqa, qqb, self.k.an, self.k.bn)
        diff = _gsign(ppa * self.k.den - qqka, ppb * self.k.den - qqkb)
        if diff == 0:
            return 0
        return sp if diff > 0 else sq

    def is_zero(self) -> bool:
        return self.pa == 0 and self.pb == 0 and self.qa == 0 and self.qb == 0

    def is_golden(self) -> bool:
        """True when the radical part vanishes (value lies in Q(tau))."""
        return self.qa == 0 and self.qb == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtNumber):
            return self.key() == other.key()
        g = GoldenNumber._lift(other)
        if g is None:
            return NotImplemented
        return (self.qa == 0 and self.qb == 0 and self.pa == g.an
                and self.pb == g.bn and self.den == g.den)

    def __hash__(self) -> int:
        h = self._hash
        if h == -1:
            h = hash(self.key())
            if h == -1:
                h = -2
            self._hash = h
        return h

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

    def __float__(self) -> float:
        pf = (self.pa + self.pb * _TAU_FLOAT) / self.den
        if self.qa == 0 and self.qb == 0:
            return pf
        qf = (self.qa + self.qb * _TAU_FLOAT) / self.den
        return pf + qf * math.sqrt(float(self.k))

    def __str__(self) -> str:
        return format_ext(self)

    def __repr__(self) -> str:
        return f"ExtNumber({self.p!r}, {self.q!r}, k={self.k!r})"


# ---------------------------------------------------------------------------
# Field-literal grammar
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | atom ('^' SINT)*
#   atom   := INT | 'tau' | '(' expr ')' | 'sqrt' '(' expr ')'
#
# 'sqrt' is accepted only when parsing extension literals, and its argument
# must equal the literal's radicand.  A power x^n is refused when |n| times
# the bit length of x's largest numerator or denominator passes
# _MAX_POWER_BITS, so no power builds a number much longer than that
# (tau^60 counts 60 bits and passes; tau^1000000 would take seconds).
# Formatting emits the same grammar, normalized, e.g. "(7+1*tau)/5" prints
# back as "7/5+1/5*tau".
# ---------------------------------------------------------------------------

_MAX_POWER_BITS = 4096

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


def format_ext(x: ExtNumber) -> str:
    """Render as a field literal with an explicit sqrt(k) factor."""
    if x.qa == 0 and x.qb == 0:
        return format_golden(x.p)
    radical = f"({format_golden(x.q)})*sqrt({format_golden(x.k)})"
    if x.pa == 0 and x.pb == 0:
        return radical
    return f"{format_golden(x.p)}+{radical}"


class _Parser:
    def __init__(self, text: str, radicand: GoldenNumber, allow_sqrt: bool):
        self.text = text
        self.pos = 0
        self.k = radicand
        self.allow_sqrt = allow_sqrt

    def error(self, message: str) -> FieldParseError:
        return FieldParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected '{ch}'")
        self.pos += 1

    def parse(self) -> ExtNumber:
        value = self.expr()
        if self.peek():
            raise self.error("unexpected trailing input")
        return value

    def expr(self) -> ExtNumber:
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

    def term(self) -> ExtNumber:
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

    def factor(self) -> ExtNumber:
        if self.peek() == "-":
            self.pos += 1
            return -self.factor()
        value = self.atom()
        while self.peek() == "^":
            self.pos += 1
            exponent = self.signed_int()
            if exponent < 0 and value.is_zero():
                raise self.error("division by zero")
            bits = max(abs(n).bit_length() for n in (
                value.pa, value.pb, value.qa, value.qb, value.den))
            if abs(exponent) * bits > _MAX_POWER_BITS:
                raise self.error(
                    f"power too large: exponent {exponent} on a "
                    f"{bits}-bit value passes {_MAX_POWER_BITS} bits")
            value = value ** exponent
        return value

    def atom(self) -> ExtNumber:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            value = self.expr()
            self.expect(")")
            return value
        if ch.isdigit():
            return ExtNumber._make(self.integer(), 0, 0, 0, 1, self.k)
        if ch.isalpha():
            name = self.name()
            if name == "tau":
                return ExtNumber._make(0, 1, 0, 0, 1, self.k)
            if name == "sqrt":
                if not self.allow_sqrt:
                    raise self.error("sqrt is not allowed in Q(tau) literals")
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                if not (arg.is_golden() and arg.p == self.k):
                    raise self.error(
                        f"sqrt argument must equal the radicand {self.k}"
                    )
                return ExtNumber.sqrt_of(self.k)
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
    value = _Parser(text, ONE, allow_sqrt=False).parse()
    return value.p


def parse_ext_expr(text: str, radicand: GoldenNumber) -> ExtNumber:
    """Parse an extension literal; sqrt(...) must match the radicand."""
    return _Parser(text, radicand, allow_sqrt=True).parse()
