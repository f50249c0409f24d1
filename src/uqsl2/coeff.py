"""Exact arithmetic on coefficients.

Coefficients are integer Laurent polynomials in two variables, the
deformation parameter q and the central half-power u, where u**2 stands for
the central element gamma, divided by the denominators the algebra makes.
All integer arithmetic is arbitrary precision and nothing is ever rounded.
A Laurent polynomial is a plain dict {(eq, eu): c} from the exponents of q
and u to nonzero integers, zero the empty dict, added by ``_padd`` and
multiplied by ``_pmul``.  A dict that a coefficient holds is never changed:
one-term values and ``P_ONE`` are shared.

Every denominator is an integer (the 1/prod(mult!) of psi and phi) times a
power of Q = q - q^-1 (from the relations), so a coefficient is stored as
num / (den Q^d) with den a positive int.  That stored form is unique, so
equality compares fields, and no polynomial gcd is ever needed.  Division
accepts only the divisors that keep it so: c q^a u^b Q^k with c a nonzero
integer.

Most coefficients are polynomials, and most of those are one term,
+-q^a u^b (every coefficient of an el_mul bracket of family members is).  A
polynomial has den = 1 and d = 0.  A one-term polynomial carries its term
in the derived slot ``single`` = (c, eq, eu), which is None for every other
value, and is usually the shared value from the bounded memo ``one_term``:
products (``mul_shifted``, which el_mul calls with the q-shift of its
K-passing), negations and q-shifts of one-term polynomials read ``single``
and look the result up, with no polynomial product, no normalization and,
on a hit, no allocation.  Only this module reads ``single``.  Identity is only a shortcut: an
evicted value is rebuilt as an equal fresh object.

An int or any other rational number (``numbers.Rational``, a
``fractions.Fraction`` say) is an operand of the ring's arithmetic.  The
engine divides by integers through the ring, and ``fractions`` is imported
only by ``evaluate``, which no command calls.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, gcd
from numbers import Rational


class PoleError(ZeroDivisionError):
    """An evaluation point makes a denominator vanish."""


def _padd(a: dict, b: dict) -> dict:
    """The polynomial a + b."""
    t = dict(a)
    for e, c in b.items():
        s = t.get(e, 0) + c
        if s:
            t[e] = s
        else:
            del t[e]
    return t


def _pmul(a: dict, b: dict) -> dict:
    """The polynomial a b; a one-term factor shifts the other's terms."""
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((aq, au), ca), = a.items()
        return {(aq + bq, au + bu): ca * cb for (bq, bu), cb in b.items()}
    t = {}
    for (aq, au), ca in a.items():
        for (bq, bu), cb in b.items():
            e = (aq + bq, au + bu)
            s = t.get(e, 0) + ca * cb
            if s:
                t[e] = s
            else:
                del t[e]
    return t


_new = object.__new__

# the polynomial 1: the numerator of RF_ONE and the display denominator of
# every polynomial, which the printer recognizes by identity
P_ONE = {(0, 0): 1}


def _div_qminus(p: dict):
    """Exact quotient p/(q - q^-1), or None when not divisible.

    A p that does not vanish at (q, u) = (1, 1) is refused at once.  Each
    u-column of the rest is divided in one pass, by the running-sum
    recurrence t_(e-1) = p_e + t_(e+1) from the column's top q-exponent
    down to its lowest, bot.  A quotient's exponents lie strictly between
    bot and the top, so p is divisible exactly when the two values the
    recurrence leaves at bot and bot - 1 are 0.
    """
    if sum(p.values()):
        return None
    cols = {}
    for (eq, eu), c in p.items():
        cols.setdefault(eu, {})[eq] = c
    out = {}
    for eu, col in cols.items():
        bot = min(col)
        # p_e = t_(e-1) - t_(e+1)  =>  t_(e-1) = p_e + t_(e+1)
        t = {}
        for e in range(max(col), bot - 1, -1):
            v = col.get(e, 0) + t.get(e + 1, 0)
            if v:
                t[e - 1] = v
        if bot in t or bot - 1 in t:
            return None
        for eq, c in t.items():
            out[(eq, eu)] = c
    return out


def _lift(p: dict, m: int, k: int) -> dict:
    """p m (q - q^-1)^k, the power expanded by the binomial theorem."""
    if k:
        return _pmul(p, {(k - 2 * i, 0): m * comb(k, i) * (-1) ** i for i in range(k + 1)})
    return p if m == 1 else {e: c * m for e, c in p.items()}


def _reduced(num: dict, den: int, d: int) -> "RatFunc":
    """num / (den (q - q^-1)^d) in normal form, for a nonzero num and a
    positive integer den: the content gcd, then (q - q^-1) peeled off num
    while d > 0."""
    if den != 1:
        g = gcd(den, *num.values())
        if g > 1:
            num = {e: c // g for e, c in num.items()}
            den //= g
    while d and (n2 := _div_qminus(num)) is not None:
        num, d = n2, d - 1
    return _rf(num, den, d)


class RatFunc:
    """The fraction num / (den (q - q^-1)^d) of an integer Laurent
    polynomial num in (q, u), an exponent dict {(eq, eu): c}, over a
    positive integer den, immutable and kept in normal form:

    - d >= 0, and when d > 0, (q - q^-1) does not divide num;
    - den is coprime to the integer content of num;
    - zero is num = {}, den = 1, d = 0.

    q - q^-1 is primitive, so these make the stored form unique: equal
    values have identical (num, den, d), and equality compares fields; the
    hash agrees with it, so a value can key a memo.  A product multiplies numerators and dens and adds the d's, a sum of equal
    (den, d) adds numerators, and a difference adds the negation.  The
    invertible values are exactly c q^a u^b (q - q^-1)^k for a nonzero
    integer c; ``inv`` refuses any other, so no denominator is ever a
    general polynomial.

    ``single`` is derived from (num, den, d) by ``_rf``, the one
    constructor: the term (c, eq, eu) when the value is the polynomial
    c q^eq u^eu, and None otherwise.  The ring's one-term fast paths and
    ``mul_shifted`` read it instead of unpacking num.
    """

    __slots__ = ("num", "den", "d", "single")

    @classmethod
    def from_int(cls, n: int) -> "RatFunc":
        return _rf({(0, 0): n}, 1) if n else RF_ZERO

    @classmethod
    def from_fraction(cls, fr: Rational) -> "RatFunc":
        if fr.denominator == 1:
            return cls.from_int(fr.numerator)
        return _rf({(0, 0): fr.numerator}, fr.denominator)

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return not self.d and self.den == 1 and self.num == P_ONE

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.d == other.d and self.den == other.den and self.num == other.num

    def __hash__(self):
        # agrees with the field equality above: a one-term value hashes its
        # stored term, any other the set of its exponents, which builds no
        # item tuples; values that share it are told apart by __eq__
        s = self.single
        if s is not None:
            return hash(s)
        return hash(frozenset(self.num))

    def __neg__(self):
        s = self.single
        if s is not None:
            return one_term(-s[0], s[1], s[2])
        return _rf({e: -c for e, c in self.num.items()}, self.den, self.d)

    def __add__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        sd, od, d, e = self.den, other.den, self.d, other.d
        if d == e and sd == od:
            s = _padd(self.num, other.num)
            if not s:
                return RF_ZERO
            return _reduced(s, sd, d)
        # over the lcm of the dens, with the smaller d lifted
        top = max(d, e)
        m = sd * od // gcd(sd, od)
        s = _padd(_lift(self.num, m // sd, top - d), _lift(other.num, m // od, top - e))
        if not s:
            return RF_ZERO
        return _reduced(s, m, top)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not RatFunc:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
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
        if self.single is not None and other.single is not None:
            return mul_shifted(self, other, 0)
        a = self.num
        b = other.num
        if not a or not b:
            return RF_ZERO
        sd = self.den
        od = other.den
        d = self.d + other.d
        if sd == 1 and od == 1:
            num = _pmul(a, b)
            if not d or len(a) == 1 and other.d or len(b) == 1 and self.d:
                # a polynomial product, or a unit times a num free of
                # (q - q^-1): already normal
                return _rf(num, 1, d)
            return _reduced(num, 1, d)
        return _reduced(_pmul(a, b), sd * od, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def inv(self) -> "RatFunc":
        """1/self, for self = c q^a u^b (q - q^-1)^k / (den (q - q^-1)^d)
        with c a nonzero integer; any other value raises ValueError."""
        num = self.num
        if not num:
            raise ZeroDivisionError("inverse of zero")
        k = 0
        while len(num) > 1 and (n2 := _div_qminus(num)) is not None:
            num, k = n2, k + 1
        if len(num) > 1:
            raise ValueError(
                "can only divide by c*q^a*u^b*(q - q^-1)^k with c a nonzero integer"
            )
        ((eq, eu), c), = num.items()
        top = {(-eq, -eu): self.den if c > 0 else -self.den}
        if k >= self.d:
            return _reduced(top, abs(c), k - self.d)
        return _reduced(_lift(top, 1, self.d - k), abs(c), 0)

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
        unit, so the fraction stays normalized and keeps its den and d;
        this is how a K-power passing x's scales a coefficient."""
        if not k:
            return self
        s = self.single
        if s is not None:
            return one_term(s[0], s[1] + k, s[2])
        return _rf({(eq + k, eu): c for (eq, eu), c in self.num.items()}, self.den, self.d)

    def canonical(self) -> tuple:
        """The display pair (num q^d, den (q^2 - 1)^d) of exponent dicts,
        numerator and denominator as they print; the denominator is the
        shared ``P_ONE`` when the value is a polynomial."""
        d = self.d
        if not d:
            return self.num, P_ONE if self.den == 1 else {(0, 0): self.den}
        # q^d (q - q^-1)^d = (q^2 - 1)^d
        return (
            {(eq + d, eu): c for (eq, eu), c in self.num.items()},
            {(2 * (d - i), 0): self.den * comb(d, i) * (-1) ** i for i in range(d + 1)},
        )

    def subst_u_inverse(self) -> "RatFunc":
        # u -> 1/u fixes the integer den and q - q^-1, so the form stays normal
        return _rf({(eq, -eu): c for (eq, eu), c in self.num.items()}, self.den, self.d)

    def evaluate(self, q0, u0):
        """The value at nonzero rational q0, u0, as a Fraction."""
        from fractions import Fraction

        q0 = Fraction(q0)
        u0 = Fraction(u0)
        if q0 == 0 or u0 == 0:
            raise ValueError("evaluation requires nonzero q0 and u0")
        dv = self.den * (q0 - 1 / q0) ** self.d
        if dv == 0:
            raise PoleError(f"denominator vanishes at q={q0}, u={u0}")
        return sum(c * q0**eq * u0**eu for (eq, eu), c in self.num.items()) / dv

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den}, d={self.d})"


def _rf(num: dict, den: int, d: int = 0) -> RatFunc:
    """The RatFunc num / (den (q - q^-1)^d), taken as in normal form, with
    its ``single`` derived here and nowhere else."""
    r = _new(RatFunc)
    r.num = num
    r.den = den
    r.d = d
    if den == 1 and not d and len(num) == 1:
        ((eq, eu), c), = num.items()
        r.single = (c, eq, eu)
    else:
        r.single = None
    return r


RF_ZERO = _rf({}, 1)
RF_ONE = _rf(P_ONE, 1)


def _coerce(x):
    """x as a RatFunc when it is one, an int or another rational number;
    NotImplemented otherwise."""
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, int):
        return RatFunc.from_int(x)
    if isinstance(x, Rational):
        return RatFunc.from_fraction(x)
    return NotImplemented


def mul_shifted(a: RatFunc, b: RatFunc, k: int) -> RatFunc:
    """a * b * q^k, the product of two coefficients shifted by the unit
    q^k, as el_mul needs it when a K-power passes x's.  Two one-term
    polynomials +-q^i u^j and +-q^m u^n make it in one ``one_term`` lookup,
    nothing to normalize; any other pair is a ring product, then shifted."""
    s = a.single
    if s is not None:
        t = b.single
        if t is not None:
            return one_term(s[0] * t[0], s[1] + t[1] + k, s[2] + t[2])
    return (a * b).mul_q_pow(k)


@lru_cache(maxsize=4096)
def one_term(c: int, eq: int, eu: int) -> RatFunc:
    """The one-term polynomial c q^eq u^eu, for a nonzero integer c, as a
    shared value; 1 is ``RF_ONE`` itself."""
    if c == 1 and not eq and not eu:
        return RF_ONE
    return _rf({(eq, eu): c}, 1)


def q_pow(k: int) -> RatFunc:
    return one_term(1, k, 0)


def u_pow(k: int) -> RatFunc:
    return one_term(1, 0, k)


_QMINUS = _rf({(1, 0): 1, (-1, 0): -1}, 1)


def qminus() -> RatFunc:
    """q - q^-1, the denominator of most relations."""
    return _QMINUS


def qint(n: int) -> RatFunc:
    """Quantum integer [n] = (q^n - q^-n)/(q - q^-1).

    Always a plain Laurent polynomial in q: q^(n-1) + q^(n-3) + ... + q^(1-n).
    """
    if n == 0:
        return RF_ZERO
    if n < 0:
        return -qint(-n)
    return _rf({(n - 1 - 2 * i, 0): 1 for i in range(n)}, 1)
