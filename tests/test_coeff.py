import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl2 import coeff
from uqsl2.coeff import (
    P_ONE,
    LaurentPoly,
    PoleError,
    RF_ONE,
    RF_ZERO,
    RatFunc,
    one_term,
    q_pow,
    qint,
    qminus,
    u_pow,
)

from helpers import rand_poly, rand_ratfunc

HALF = RatFunc.from_fraction(Fraction(1, 2))


def test_add_identity_and_inverse():
    x = q_pow(2) / qminus()
    assert RF_ZERO + x == x
    a = q_pow(1) / qminus()
    assert a + (-a) == RF_ZERO
    assert HALF + HALF == RF_ONE


def test_mul_examples():
    assert u_pow(2) * u_pow(-2) == RF_ONE
    assert qminus() * qminus().inv() == RF_ONE
    assert qint(2) * qminus() == q_pow(2) - q_pow(-2)


def test_inv_examples():
    assert RF_ONE.inv() == RF_ONE
    assert qminus().inv() * qminus() == RF_ONE
    with pytest.raises(ZeroDivisionError):
        RF_ZERO.inv()


def test_qint_values():
    assert qint(0) == RF_ZERO
    assert qint(1) == RF_ONE
    assert qint(2) == q_pow(1) + q_pow(-1)
    for n in range(-6, 7):
        assert qint(-n) == -qint(n)


def test_qint_is_polynomial():
    for n in range(1, 8):
        v = qint(n)
        assert v.den.terms == {(0, 0): 1}
        # q^(n-1) + q^(n-3) + ... + q^(1-n)
        assert v.num.terms == {(n - 1 - 2 * i, 0): 1 for i in range(n)}


def test_qint_addition_expansion():
    # [m+n] as a Laurent polynomial, for several decompositions
    for m in range(0, 5):
        for n in range(1 - m, 5):
            if m + n < 1:
                continue
            expect = RatFunc(LaurentPoly({(m + n - 1 - 2 * i, 0): 1 for i in range(m + n)}))
            assert qint(m + n) == expect


def test_eval_examples():
    assert qint(2).evaluate(2, 1) == Fraction(5, 2)
    assert u_pow(2).evaluate(5, 3) == 9
    with pytest.raises(PoleError):
        qminus().inv().evaluate(1, 1)
    with pytest.raises(ValueError):
        qint(2).evaluate(0, 1)


def test_zero_is_canonical():
    z = qminus() - qminus()
    assert z.num.terms == {}
    assert z.den.terms == {(0, 0): 1}
    assert z.is_zero()


def test_denominator_anchoring():
    # monomial denominators always collapse into the numerator
    r = RatFunc.make(LaurentPoly({(2, 0): 1}), LaurentPoly({(1, 1): 3}))
    assert r.den.terms == {(0, 0): 3}
    assert r.num.terms == {(1, -1): 1}
    # multi-term denominators are anchored with positive leading coefficient
    r = RatFunc.make(LaurentPoly({(0, 0): 1}), LaurentPoly({(1, 0): -1, (-1, 0): 1}))
    assert min(e[0] for e in r.den.terms) == 0
    assert min(e[1] for e in r.den.terms) == 0
    assert r.den.terms[max(r.den.terms)] > 0


_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-6, 6),
    max_size=4,
).map(LaurentPoly)

_nonzero_polys = _polys.filter(lambda p: not p.is_zero())

_ratfuncs = st.builds(lambda n, d: RatFunc.make(n, d), _polys, _nonzero_polys)


@settings(max_examples=100, deadline=None)
@given(_ratfuncs, _ratfuncs, _ratfuncs)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if not a.is_zero():
        assert a * a.inv() == RF_ONE


@settings(max_examples=60, deadline=None)
@given(_ratfuncs, _ratfuncs, st.integers(0, 10_000))
def test_numeric_consistency(a, b, seed):
    rng = random.Random(seed)
    done = 0
    while done < 3:
        q0 = Fraction(rng.randrange(2, 9), rng.randrange(1, 5))
        u0 = Fraction(rng.randrange(2, 9), rng.randrange(1, 5))
        try:
            va = a.evaluate(q0, u0)
            vb = b.evaluate(q0, u0)
            vab = (a * b).evaluate(q0, u0)
            vs = (a + b).evaluate(q0, u0)
        except PoleError:
            continue
        assert vab == va * vb
        assert vs == va + vb
        done += 1


def test_canonical_is_idempotent():
    rng = random.Random(7)
    from helpers import rand_ratfunc

    for _ in range(100):
        r = rand_ratfunc(rng)
        c = r.canonical()
        c2 = c.canonical()
        assert c.num.terms == c2.num.terms and c.den.terms == c2.den.terms


# --- coefficients of the shapes the arithmetic treats differently ----------


def _one_term(rng):
    c = rng.choice([-3, -2, -1, 1, 2, 3])
    return RatFunc(LaurentPoly.monomial(c, rng.randrange(-3, 4), rng.randrange(-3, 4)))


def _polynomial(rng):
    return RatFunc(rand_poly(rng, nterms=4))


def _qminus_power_den(rng):
    return RatFunc(rand_poly(rng, nterms=4)) / qminus() ** rng.randrange(1, 3)


def _rational_number(rng):
    return RatFunc.from_fraction(Fraction(rng.randrange(-4, 5), rng.randrange(1, 4)))


_SHAPES = (_one_term, _polynomial, _qminus_power_den, rand_ratfunc, _rational_number)


def _shaped_pairs(seed, count):
    """Pairs whose shapes are drawn independently, so that every fast path
    meets every other and the general path; every fifth pair is equal in
    value but built another way."""
    rng = random.Random(seed)
    for i in range(count):
        a = rng.choice(_SHAPES)(rng)
        b = rng.choice(_SHAPES)(rng)
        if i % 5 == 4:
            b = (a * qint(3) + RF_ONE) / qint(3) - RF_ONE / qint(3)
        yield a, b


def _results(a, b):
    out = {"*": a * b, "+": a + b, "-": a - b, "neg": -a}
    if not b.is_zero():
        out["/"] = a / b
    return out


def test_ring_operations_agree_with_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    q, u = sympy.symbols("q u")

    def sym(r):
        def poly(p):
            return sum(sympy.Integer(c) * q**eq * u**eu for (eq, eu), c in p.terms.items())

        r = r.canonical()
        return poly(r.num) / poly(r.den)

    for a, b in _shaped_pairs(seed=2335, count=100):
        sa, sb = sym(a), sym(b)
        expected = {"*": sa * sb, "+": sa + sb, "-": sa - sb, "neg": -sa, "/": sa / sb}
        for op, got in _results(a, b).items():
            assert sympy.cancel(sym(got) - expected[op]) == 0, (op, a, b, got)
        assert (a == b) == (sympy.cancel(sa - sb) == 0), (a, b)


def test_polynomial_results_hold_the_shared_denominator():
    # the arithmetic tells polynomials apart by `den is P_ONE`
    for value in (RatFunc.from_fraction(Fraction(3)), RatFunc.from_fraction(Fraction(-6, 2))):
        assert value.den is P_ONE
    seen = 0
    for a, b in _shaped_pairs(seed=7, count=400):
        for got in (a, b, a.canonical(), *_results(a, b).values()):
            if got.den.terms == {(0, 0): 1}:
                assert got.den is P_ONE, got
                seen += 1
    assert seen > 500


def test_one_term_results_are_shared_values():
    assert q_pow(2) * u_pow(1) is one_term(1, 2, 1)
    assert -one_term(3, 1, 0) is one_term(-3, 1, 0)
    assert one_term(1, 0, 0) is RF_ONE
    assert q_pow(3).mul_q_pow(2) is q_pow(5)


def test_mul_q_pow_is_the_product_with_q_pow():
    # a K-power passing x's scales a coefficient by q^k through this shift
    seen = 0
    for a, b in _shaped_pairs(seed=2335, count=100):
        for c in (a, b):
            for k in (-4, -2, 0, 1, 2, 6):
                got = c.mul_q_pow(k)
                want = c * q_pow(k)
                assert got == want, (c, k)
                # and prints alike: both have the same display form
                got, want = got.canonical(), want.canonical()
                assert got.num.terms == want.num.terms and got.den.terms == want.den.terms
                if c.as_poly() is not None:
                    assert got.as_poly() is not None
                    seen += 1
    assert c.mul_q_pow(0) is c
    assert seen > 300


# --- the stored form num / (den (q - q^-1)^d) --------------------------------


def _assert_normal(r):
    num, den, d = r.num, r.den, r.d
    assert d >= 0
    if d:
        assert coeff._div_qminus(num) is None, r
    assert min(e[0] for e in den.terms) == 0 and min(e[1] for e in den.terms) == 0, r
    assert den.terms[max(den.terms)] > 0, r
    if len(den.terms) > 1:
        assert coeff._div_qminus(den) is None, r
    assert math.gcd(*num.terms.values(), *den.terms.values()) == 1 or not num.terms, r
    assert (den is P_ONE) == (den.terms == {(0, 0): 1}), r


def test_every_result_is_in_normal_form():
    for a, b in _shaped_pairs(seed=11, count=300):
        for got in (a, b, *_results(a, b).values()):
            _assert_normal(got)


def test_equal_values_over_an_integer_den_have_identical_fields():
    # so __eq__ on the rewriting's coefficients is a field compare
    rng = random.Random(13)
    seen = 0
    for _ in range(400):
        a = rng.choice(_SHAPES)(rng) / qminus() ** rng.randrange(4)
        b = rng.choice(_SHAPES)(rng) / qminus() ** rng.randrange(4)
        k = rng.randrange(4)
        for other in (
            b,
            (a * qint(3) + RF_ONE) / qint(3) - RF_ONE / qint(3),
            a * qminus() ** k * 6 / (qminus() ** k * 6),
            (a + b / qminus()) - b / qminus(),
            a.mul_q_pow(k) * q_pow(-k),
        ):
            if len(a.den.terms) == 1 and len(other.den.terms) == 1 and a == other:
                assert (a.num.terms, a.den.terms, a.d) == (other.num.terms, other.den.terms, other.d)
                seen += 1
    assert seen > 800


def test_product_over_qminus_powers_multiplies_only_the_numerators(monkeypatch):
    x = RatFunc(LaurentPoly({(2, 0): 1, (0, 1): 3})) / qminus()
    y = RatFunc(LaurentPoly({(1, 0): 2, (0, -1): -1})) / qminus() ** 2
    calls = {"mul": 0, "divide": 0}
    mul = LaurentPoly.__mul__
    divide = coeff._divide_exact

    def counting_mul(p, other):
        calls["mul"] += 1
        return mul(p, other)

    def counting_divide(num, den):
        calls["divide"] += 1
        return divide(num, den)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting_mul)
    monkeypatch.setattr(coeff, "_divide_exact", counting_divide)
    z = x * y
    assert calls == {"mul": 1, "divide": 0}
    assert z.den is P_ONE and z.d == 3
    assert z.num.terms == {(3, 0): 2, (2, -1): -1, (1, 1): 6, (0, 0): -3}


def test_as_poly_answers_is_it_a_polynomial():
    v = qint(3)
    assert v.as_poly() is v.num
    assert RF_ZERO.as_poly().is_zero()
    # 1/(q - q^-1) stores the numerator 1 over the den 1
    assert qminus().inv().as_poly() is None
    assert (q_pow(1) / qminus() * qminus()).as_poly() == LaurentPoly({(1, 0): 1})
    assert RatFunc.from_fraction(Fraction(1, 2)).as_poly() is None
    assert RatFunc.make(LaurentPoly({(2, 0): 1, (0, 0): -1}), LaurentPoly({(1, 0): 1, (0, 0): 1})).as_poly() == (
        LaurentPoly({(1, 0): 1, (0, 0): -1})
    )
