"""Reference arithmetic in Q(tau)(sqrt k): the number type that icofold
used before every exact value became a GoldenNumber.

`ExtNumber` and `format_ext` are the package's former implementation,
kept method for method but only with the methods the differential tests
call: test_engine rebuilds the old 3D workspaces on it, test_pentagon the
old plane pentagon, whose x coordinates carried sqrt(2+tau) as part of
the number.  Both compare keys, floats and printed text bit for bit.
"""

import math
from math import gcd

from icofold.golden import (ONE, _TAU_FLOAT, GoldenNumber, _gmul, _gsign,
                            format_golden)


class ExtNumber:
    """p + q*sqrt(k) with p, q in Q(tau) and a fixed positive radicand k.

    The radicand must be 1 or not a square in Q(tau); for k = 1 the radical
    part is folded into p at construction so canonical forms stay unique.
    This reference copy does not check that two operands share one
    radicand; callers keep to one radicand per computation.
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

    def _lift(self, other) -> "ExtNumber | None":
        if isinstance(other, ExtNumber):
            return other
        g = GoldenNumber._lift(other)
        if g is None:
            return None
        return ExtNumber._make(g.an, g.bn, 0, 0, g.den, self.k)

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

    def is_golden(self) -> bool:
        """True when the radical part vanishes (value lies in Q(tau))."""
        return self.qa == 0 and self.qb == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, ExtNumber):
            return self.key() == other.key()
        g = GoldenNumber._lift(other)
        if g is None:
            return NotImplemented
        return (self.qa == 0 and self.qb == 0 and self.pa == g.an
                and self.pb == g.bn and self.den == g.den)

    def __lt__(self, other) -> bool:
        o = self._lift(other)
        if o is None:
            return NotImplemented
        return (self - o).sign() < 0

    def __float__(self) -> float:
        pf = (self.pa + self.pb * _TAU_FLOAT) / self.den
        if self.qa == 0 and self.qb == 0:
            return pf
        qf = (self.qa + self.qb * _TAU_FLOAT) / self.den
        return pf + qf * math.sqrt(float(self.k))


def format_ext(x: ExtNumber) -> str:
    """Render as a field literal with an explicit sqrt(k) factor."""
    if x.qa == 0 and x.qb == 0:
        return format_golden(x.p)
    radical = f"({format_golden(x.q)})*sqrt({format_golden(x.k)})"
    if x.pa == 0 and x.pb == 0:
        return radical
    return f"{format_golden(x.p)}+{radical}"
