"""Exact arithmetic in the coefficient field.

Coefficients are fractions of integer Laurent polynomials in two variables:
the deformation parameter q and the central half-power u, where u**2 stands
for the central element gamma.  All integer arithmetic is arbitrary
precision, nothing is ever rounded, and equality of fractions is decided by
cross-multiplication, so no multivariate gcd is needed.

Most coefficients the engine meets are polynomials, and most of those are
one term, +-q^a u^b (every coefficient of an el_mul bracket of family
members is).  A polynomial coefficient holds the shared ``P_ONE`` as its
denominator, so the arithmetic tells it apart by identity.  A one-term
polynomial is a shared value from the bounded memo ``one_term``: products,
negations and q-shifts of one-term polynomials look it up, with no
polynomial product, no normalization and, on a hit, no allocation.  Identity
is only a shortcut: an evicted value is rebuilt as an equal fresh object.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd


class PoleError(ZeroDivisionError):
    """An evaluation point makes a denominator vanish."""


# exponent pairs are (power of q, power of u)


class LaurentPoly:
    """Sparse integer Laurent polynomial in (q, u).

    ``terms`` maps (eq, eu) exponent pairs to nonzero integers; the zero
    polynomial is the empty map.  Instances are never mutated after
    construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for e, c in terms.items():
                if c:
                    t[e] = c
        self.terms = t

    @classmethod
    def const(cls, n: int) -> "LaurentPoly":
        return cls({(0, 0): n})

    @classmethod
    def monomial(cls, c: int, eq: int, eu: int) -> "LaurentPoly":
        return cls({(eq, eu): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __neg__(self):
        return _lp({e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return _lp(t)

    def __sub__(self, other):
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) - c
            if s:
                t[e] = s
            else:
                t.pop(e, None)
        return _lp(t)

    def __mul__(self, other):
        if len(self.terms) == 1:
            ((aq, au), ca), = self.terms.items()
            return _lp({(aq + bq, au + bu): ca * cb for (bq, bu), cb in other.terms.items()})
        if len(other.terms) == 1:
            return other * self
        t = {}
        for (aq, au), ca in self.terms.items():
            for (bq, bu), cb in other.terms.items():
                e = (aq + bq, au + bu)
                s = t.get(e, 0) + ca * cb
                if s:
                    t[e] = s
                else:
                    t.pop(e, None)
        return _lp(t)

    def scale(self, n: int) -> "LaurentPoly":
        if n == 0:
            return LaurentPoly()
        return _lp({e: c * n for e, c in self.terms.items()})

    def scale_div(self, n: int) -> "LaurentPoly":
        # exact division of every coefficient
        return _lp({e: c // n for e, c in self.terms.items()})

    def shift(self, dq: int, du: int) -> "LaurentPoly":
        if dq == 0 and du == 0:
            return self
        return _lp({(eq + dq, eu + du): c for (eq, eu), c in self.terms.items()})

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def subst_u_inverse(self) -> "LaurentPoly":
        return _lp({(eq, -eu): c for (eq, eu), c in self.terms.items()})

    def evaluate(self, q0: Fraction, u0: Fraction) -> Fraction:
        total = Fraction(0)
        for (eq, eu), c in self.terms.items():
            total += c * q0 ** eq * u0 ** eu
        return total

    def __repr__(self):
        return f"LaurentPoly({self.terms!r})"


_new = object.__new__


def _lp(terms: dict) -> LaurentPoly:
    """A LaurentPoly holding ``terms``, which has no zero coefficient."""
    p = _new(LaurentPoly)
    p.terms = terms
    return p


P_ZERO = LaurentPoly()
P_ONE = LaurentPoly.const(1)
_QMINUS = LaurentPoly({(1, 0): 1, (-1, 0): -1})  # q - q^-1


def _is_one(p: LaurentPoly) -> bool:
    return p.terms == P_ONE.terms


def _div_qminus(p: LaurentPoly):
    """Exact quotient p/(q - q^-1), or None when not divisible.

    Divisibility is pre-checked by evaluating at q = 1 and q = -1 column by
    column (both must vanish since q^2 - 1 is monic); the division itself is
    a linear running-sum recurrence per u-column.
    """
    if p.is_zero():
        return P_ZERO
    s1 = {}
    s2 = {}
    for (eq, eu), c in p.terms.items():
        s1[eu] = s1.get(eu, 0) + c
        s2[eu] = s2.get(eu, 0) + (c if eq % 2 == 0 else -c)
    if any(s1.values()) or any(s2.values()):
        return None
    cols = {}
    for (eq, eu), c in p.terms.items():
        cols.setdefault(eu, {})[eq] = c
    out = {}
    for eu, col in cols.items():
        top = max(col)
        bot = min(col)
        # p_e = t_(e-1) - t_(e+1)  =>  t_(e-1) = p_e + t_(e+1)
        t = {}
        for e in range(top, bot - 1, -1):
            v = col.get(e, 0) + t.get(e + 1, 0)
            if v:
                t[e - 1] = v
        for eq, c in t.items():
            out[(eq, eu)] = c
    return _lp(out)


def _divide_exact(num: LaurentPoly, den: LaurentPoly):
    """Exact quotient num/den in the Laurent ring, or None.

    Plain single-divisor division against the lex-leading term of ``den``;
    since the lex order on exponent pairs is multiplicative this succeeds
    exactly when den divides num over the integers.  Cheap rejections come
    first; the full loop runs mostly when the division will succeed.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return P_ZERO
    nq = [e[0] for e in num.terms]
    nu = [e[1] for e in num.terms]
    dq = [e[0] for e in den.terms]
    du = [e[1] for e in den.terms]
    span_q = max(nq) - min(nq) - (max(dq) - min(dq))
    span_u = max(nu) - min(nu) - (max(du) - min(du))
    if span_q < 0 or span_u < 0:
        return None
    lead = max(den.terms)
    lead_c = den.terms[lead]
    if num.terms[max(num.terms)] % lead_c:
        return None
    if num.terms[min(num.terms)] % den.terms[min(den.terms)]:
        return None
    # numeric gate at (q, u) = (2, 3) after shifting to true polynomials
    dv = sum(c * 2 ** (eq - min(dq)) * 3 ** (eu - min(du)) for (eq, eu), c in den.terms.items())
    if dv:
        nv = sum(
            c * 2 ** (eq - min(nq)) * 3 ** (eu - min(nu)) for (eq, eu), c in num.terms.items()
        )
        if nv % dv:
            return None
    budget = (span_q + 1) * (span_u + 1)
    rem = dict(num.terms)
    quo = {}
    while rem:
        if budget <= 0:
            return None
        budget -= 1
        re = max(rem)
        c, r = divmod(rem[re], lead_c)
        if r:
            return None
        qe = (re[0] - lead[0], re[1] - lead[1])
        quo[qe] = c
        for (eq, eu), dc in den.terms.items():
            e = (qe[0] + eq, qe[1] + eu)
            s = rem.get(e, 0) - c * dc
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return _lp(quo)


class RatFunc:
    """Fraction of two integer Laurent polynomials in (q, u).

    Kept canonical enough for decidable equality: the denominator never
    vanishes, its minimal exponents are anchored at (0, 0), its lex-leading
    coefficient is positive, and numerator and denominator share no integer
    content.  Zero is exactly num = 0, den = 1.  Instances are immutable.

    A coefficient equal to a polynomial holds the shared ``P_ONE`` object as
    its denominator, never another copy of 1, so ``den is P_ONE`` decides
    "is a polynomial".  Products of two such coefficients skip
    normalization, and one-term ones come from ``one_term``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = P_ONE):
        r = RatFunc.make(num, den)
        self.num = r.num
        self.den = r.den

    @classmethod
    def make(cls, num: LaurentPoly, den: LaurentPoly) -> "RatFunc":
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return RF_ZERO
        if _is_one(den):
            return _rf(num, P_ONE)
        if len(den.terms) == 1:
            return cls._make_monomial_den(num, den)
        gn = num.content()
        gd = den.content()
        g = gcd(gn, gd)
        if g > 1:
            num = num.scale_div(g)
            den = den.scale_div(g)
        # the (q - q^-1) factor is ubiquitous; cancel common powers of it
        num_blocked = False
        while True:
            n2 = _div_qminus(num)
            if n2 is None:
                num_blocked = True
                break
            d2 = _div_qminus(den)
            if d2 is None:
                break
            num, den = n2, d2
        if len(den.terms) == 1:
            return cls._make_monomial_den(num, den)
        aq = min(e[0] for e in den.terms)
        au = min(e[1] for e in den.terms)
        if aq or au:
            num = num.shift(-aq, -au)
            den = den.shift(-aq, -au)
        # exotic denominators (only reachable through explicit inversion) may
        # still divide the numerator outright; a den that kept a (q - q^-1)
        # factor the num lacks cannot
        if not (num_blocked and _div_qminus(den) is not None):
            quo = _divide_exact(num, den)
            if quo is not None:
                return _rf(quo, P_ONE)
        if den.terms[max(den.terms)] < 0:
            num = -num
            den = -den
        return _rf(num, den)

    @classmethod
    def _make_monomial_den(cls, num: LaurentPoly, den: LaurentPoly) -> "RatFunc":
        ((eq, eu), c), = den.terms.items()
        num = num.shift(-eq, -eu)
        if c < 0:
            num = -num
            c = -c
        if c == 1:
            return _rf(num, P_ONE)
        g = gcd(num.content(), c)
        if g > 1:
            num = num.scale_div(g)
            c //= g
        if c == 1:
            return _rf(num, P_ONE)
        return _rf(num, LaurentPoly.const(c))

    @classmethod
    def from_int(cls, n: int) -> "RatFunc":
        if n == 0:
            return RF_ZERO
        return _rf(LaurentPoly.const(n), P_ONE)

    @classmethod
    def from_fraction(cls, fr: Fraction) -> "RatFunc":
        if fr.denominator == 1:
            return cls.from_int(fr.numerator)
        return _rf(LaurentPoly.const(fr.numerator), LaurentPoly.const(fr.denominator))

    def is_zero(self) -> bool:
        return not self.num.terms

    def is_one(self) -> bool:
        return _is_one(self.num) and _is_one(self.den)

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RatFunc):
            return NotImplemented
        if self.den is other.den or self.den.terms == other.den.terms:
            return self.num.terms == other.num.terms
        return (self.num * other.den).terms == (other.num * self.den).terms

    def __neg__(self):
        t = self.num.terms
        if self.den is P_ONE and len(t) == 1:
            ((eq, eu), c), = t.items()
            return one_term(-c, eq, eu)
        return _rf(_lp({e: -c for e, c in t.items()}), self.den)

    def __add__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        sd = self.den
        if sd is other.den or sd.terms == other.den.terms:
            # shared denominator (P_ONE for polynomials): no
            # cross-multiplication, canonical shape of the denominator is
            # untouched
            s = self.num + other.num
            if not s.terms:
                return RF_ZERO
            return _rf(s, sd)
        return RatFunc.make(self.num * other.den + other.num * sd, sd * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.den is P_ONE and other.den is P_ONE:
            s = self.num - other.num
            if not s.terms:
                return RF_ZERO
            return _rf(s, P_ONE)
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if other is RF_ONE:
            return self
        if other.__class__ is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self is RF_ONE:
            return other
        a = self.num.terms
        b = other.num.terms
        if not a or not b:
            return RF_ZERO
        sd = self.den
        od = other.den
        if sd is P_ONE and od is P_ONE:
            if len(a) == 1 and len(b) == 1:
                # +-q^i u^j times +-q^k u^l, the whole of el_mul's work on
                # family brackets: one shared term, nothing to normalize
                ((aq, au), ca), = a.items()
                ((bq, bu), cb), = b.items()
                return one_term(ca * cb, aq + bq, au + bu)
            return _rf(self.num * other.num, P_ONE)
        return RatFunc.make(self.num * other.num, sd * od)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc.make(self.den, self.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inv() ** (-n)
        out = RF_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def mul_q_pow(self, k: int) -> "RatFunc":
        """self * q^k, by shifting the numerator's q-exponents.  q^k is a
        unit, so the fraction stays normalized and keeps its denominator;
        this is how a K-power passing x's scales a coefficient."""
        if not k:
            return self
        t = self.num.terms
        if self.den is P_ONE and len(t) == 1:
            ((eq, eu), c), = t.items()
            return one_term(c, eq + k, eu)
        return _rf(_lp({(eq + k, eu): c for (eq, eu), c in t.items()}), self.den)

    def canonical(self) -> "RatFunc":
        """Fully normalized copy (fast arithmetic paths may leave a shared
        factor between num and den; rendering wants it gone).  A polynomial
        is already normalized and is returned as it is."""
        if self.den is P_ONE:
            return self
        return RatFunc.make(self.num, self.den)

    def subst_u_inverse(self) -> "RatFunc":
        return RatFunc.make(self.num.subst_u_inverse(), self.den.subst_u_inverse())

    def evaluate(self, q0, u0) -> Fraction:
        q0 = Fraction(q0)
        u0 = Fraction(u0)
        if q0 == 0 or u0 == 0:
            raise ValueError("evaluation requires nonzero q0 and u0")
        dv = self.den.evaluate(q0, u0)
        if dv == 0:
            raise PoleError(f"denominator vanishes at q={q0}, u={u0}")
        return self.num.evaluate(q0, u0) / dv

    def __repr__(self):
        return f"RatFunc({self.num.terms!r}, {self.den.terms!r})"


def _rf(num: LaurentPoly, den: LaurentPoly) -> RatFunc:
    """The RatFunc num/den, taken as normalized: den is P_ONE itself when
    it is 1."""
    r = _new(RatFunc)
    r.num = num
    r.den = den
    return r


RF_ZERO = _rf(P_ZERO, P_ONE)
RF_ONE = _rf(P_ONE, P_ONE)


def _coerce(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, int):
        return RatFunc.from_int(x)
    if isinstance(x, Fraction):
        return RatFunc.from_fraction(x)
    return NotImplemented


@lru_cache(maxsize=4096)
def one_term(c: int, eq: int, eu: int) -> RatFunc:
    """The one-term polynomial c q^eq u^eu, for a nonzero integer c, as a
    shared value; 1 is ``RF_ONE`` itself."""
    if c == 1 and not eq and not eu:
        return RF_ONE
    return _rf(_lp({(eq, eu): c}), P_ONE)


@lru_cache(maxsize=256)
def q_pow(k: int) -> RatFunc:
    return one_term(1, k, 0)


@lru_cache(maxsize=256)
def u_pow(k: int) -> RatFunc:
    return one_term(1, 0, k)


@lru_cache(maxsize=1)
def qminus() -> RatFunc:
    """q - q^-1, the denominator of most relations."""
    return _rf(LaurentPoly({(1, 0): 1, (-1, 0): -1}), P_ONE)


@lru_cache(maxsize=256)
def qint(n: int) -> RatFunc:
    """Quantum integer [n] = (q^n - q^-n)/(q - q^-1).

    Always a plain Laurent polynomial in q: q^(n-1) + q^(n-3) + ... + q^(1-n).
    """
    if n == 0:
        return RF_ZERO
    if n < 0:
        return -qint(-n)
    return _rf(LaurentPoly({(n - 1 - 2 * i, 0): 1 for i in range(n)}), P_ONE)

