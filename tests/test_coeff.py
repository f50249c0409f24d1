import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqsl2 import coeff
from uqsl2.coeff import (
    P_ONE,
    RF_ONE,
    RF_ZERO,
    RatFunc,
    mul_shifted,
    one_term,
    q_pow,
    qint,
    qminus,
    u_pow,
)
from uqsl2.expr import EvalError, evaluate
from uqsl2.render import print_element
from uqsl2.rewrite import normal_form

from helpers import (
    PoleError,
    admissible_den,
    as_poly,
    evaluate_at,
    power,
    rand_poly,
    rand_ratfunc,
    ratfunc,
)

HALF = RatFunc.from_int(1) / RatFunc.from_int(2)


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
        assert v.den == 1
        # q^(n-1) + q^(n-3) + ... + q^(1-n)
        assert v.num == {(n - 1 - 2 * i, 0): 1 for i in range(n)}


def test_qint_addition_expansion():
    # [m+n] as a Laurent polynomial, for several decompositions
    for m in range(0, 5):
        for n in range(1 - m, 5):
            if m + n < 1:
                continue
            num = {(m + n - 1 - 2 * i, 0): 1 for i in range(m + n)}
            expect = ratfunc(num, P_ONE)
            assert qint(m + n) == expect


def test_eval_examples():
    assert evaluate_at(qint(2), 2, 1) == Fraction(5, 2)
    assert evaluate_at(u_pow(2), 5, 3) == 9
    with pytest.raises(PoleError):
        evaluate_at(qminus().inv(), 1, 1)
    with pytest.raises(ValueError):
        evaluate_at(qint(2), 0, 1)


def test_zero_is_canonical():
    z = qminus() - qminus()
    assert z.num == {}
    assert z.den == 1
    assert z.is_zero()


def test_denominator_anchoring():
    # monomial denominators collapse into the numerator, all but their
    # integer part
    r = ratfunc({(2, 0): 1}, {(1, 1): 3})
    assert r.den == 3
    assert r.num == {(1, -1): 1}
    # the sign and the (q - q^-1) factors of a denominator go to num and d
    r = ratfunc({(0, 0): 1}, {(1, 0): -1, (-1, 0): 1})
    assert (r.num, r.den, r.d) == ({(0, 0): -1}, 1, 1)


_polys = st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.integers(-6, 6).filter(bool),
    max_size=4,
)

_dens = st.builds(
    admissible_den,
    st.integers(-6, 6).filter(bool),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(0, 3),
)

_ratfuncs = st.builds(ratfunc, _polys, _dens)


def _inverse(r):
    """1/r, or None when r is not invertible."""
    try:
        return r.inv()
    except (ZeroDivisionError, ValueError):
        return None


@settings(max_examples=100, deadline=None)
@given(_ratfuncs, _ratfuncs, _ratfuncs)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    inv = _inverse(a)
    if inv is not None:
        assert a * inv == RF_ONE


@settings(max_examples=60, deadline=None)
@given(_ratfuncs, _ratfuncs, st.integers(0, 10_000))
def test_numeric_consistency(a, b, seed):
    rng = random.Random(seed)
    done = 0
    while done < 3:
        q0 = Fraction(rng.randrange(2, 9), rng.randrange(1, 5))
        u0 = Fraction(rng.randrange(2, 9), rng.randrange(1, 5))
        try:
            va = evaluate_at(a, q0, u0)
            vb = evaluate_at(b, q0, u0)
            vab = evaluate_at(a * b, q0, u0)
            vs = evaluate_at(a + b, q0, u0)
        except PoleError:
            continue
        assert vab == va * vb
        assert vs == va + vb
        done += 1


def test_canonical_is_idempotent():
    # the display pair read back is the same value, with the same pair
    rng = random.Random(7)
    for _ in range(100):
        r = rand_ratfunc(rng)
        num, den = r.canonical()
        back = ratfunc(num, den)
        assert back == r
        assert back.canonical() == (num, den)


def test_inv_accepts_exactly_the_admissible_values():
    # c q^a u^b (q - q^-1)^k over any stored den inverts; a divisor with
    # any other factor is refused
    rng = random.Random(9)
    for _ in range(200):
        c = rng.choice([-6, -3, -2, -1, 1, 2, 5])
        top = admissible_den(c, rng.randrange(-3, 4), rng.randrange(-3, 4), rng.randrange(4))
        x = ratfunc(top, rand_ratfunc(rng).canonical()[1])
        inv = x.inv()
        assert x * inv == RF_ONE and inv.inv() == x
        q0, u0 = Fraction(rng.randrange(2, 9), 9), Fraction(rng.randrange(2, 9), 5)
        assert evaluate_at(x, q0, u0) * evaluate_at(inv, q0, u0) == 1
    q = q_pow(1)
    one = RF_ONE
    for bad in (
        q + one,
        q * q + one,
        u_pow(2) - one,
        (q + one) * qminus(),
        q * u_pow(1) + one,
        HALF * (q + one),
    ):
        with pytest.raises(ValueError, match="c\\*q\\^a\\*u\\^b"):
            bad.inv()
        with pytest.raises(ValueError):
            RF_ONE / bad
    with pytest.raises(ValueError):
        ratfunc({(2, 0): 1, (0, 0): -1}, {(1, 0): 1, (0, 0): 1})


# --- coefficients of the shapes the arithmetic treats differently ----------


def _one_term(rng):
    c = rng.choice([-3, -2, -1, 1, 2, 3])
    return ratfunc({(rng.randrange(-3, 4), rng.randrange(-3, 4)): c}, P_ONE)


def _polynomial(rng):
    return ratfunc(rand_poly(rng, nterms=4), P_ONE)


def _qminus_power_den(rng):
    return ratfunc(rand_poly(rng, nterms=4), P_ONE) / power(qminus(), rng.randrange(1, 3))


def _rational_number(rng):
    return RatFunc.from_int(rng.randrange(-4, 5)) / RatFunc.from_int(rng.randrange(1, 4))


_SHAPES = (_one_term, _polynomial, _qminus_power_den, rand_ratfunc, _rational_number)


# an admissible divisor with an integer part and a factor q - q^-1
_D = RatFunc.from_int(6) * qminus()


def _shaped_pairs(seed, count):
    """Pairs whose shapes are drawn independently, so that every fast path
    meets every other and the general path; every fifth pair is equal in
    value but built another way."""
    rng = random.Random(seed)
    for i in range(count):
        a = rng.choice(_SHAPES)(rng)
        b = rng.choice(_SHAPES)(rng)
        if i % 5 == 4:
            b = (a * _D + RF_ONE) / _D - RF_ONE / _D
        yield a, b


def _results(a, b):
    out = {"*": a * b, "+": a + b, "-": a - b, "neg": -a}
    if _inverse(b) is not None:
        out["/"] = a / b
    return out


def test_ring_operations_agree_with_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    q, u = sympy.symbols("q u")

    def sym(r):
        def poly(p):
            return sum(sympy.Integer(c) * q**eq * u**eu for (eq, eu), c in p.items())

        num, den = r.canonical()
        return poly(num) / poly(den)

    for a, b in _shaped_pairs(seed=2335, count=100):
        sa, sb = sym(a), sym(b)
        expected = {"*": sa * sb, "+": sa + sb, "-": sa - sb, "neg": -sa, "/": sa / sb}
        for op, got in _results(a, b).items():
            assert sympy.cancel(sym(got) - expected[op]) == 0, (op, a, b, got)
        assert (a == b) == (sympy.cancel(sa - sb) == 0), (a, b)


def test_polynomial_results_hold_the_shared_denominator():
    # the arithmetic tells polynomials apart by `den == 1` and d = 0, and
    # the printer by the shared den ``P_ONE`` of the display pair
    for value in (RatFunc.from_int(3), RatFunc.from_int(-6) / RatFunc.from_int(2)):
        assert value.den == 1 and as_poly(value) is value.num
    seen = 0
    for a, b in _shaped_pairs(seed=7, count=400):
        for got in (a, b, *_results(a, b).values()):
            den = got.canonical()[1]
            if den == {(0, 0): 1}:
                assert den is P_ONE and as_poly(got) is got.num, got
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
                # and prints alike: both have the same display pair
                assert got.canonical() == want.canonical()
                if as_poly(c) is not None:
                    assert as_poly(got) is not None
                    seen += 1
    assert c.mul_q_pow(0) is c
    assert seen > 300


# --- the stored form num / (den (q - q^-1)^d) --------------------------------


def _assert_normal(r):
    num, den, d = r.num, r.den, r.d
    assert d >= 0
    if d:
        assert coeff._div_qminus(num) is None, r
    assert type(den) is int and den > 0, r
    if num:
        assert math.gcd(den, *num.values()) == 1, r
    else:
        assert den == 1 and d == 0, r


def test_every_result_is_in_normal_form():
    for a, b in _shaped_pairs(seed=11, count=300):
        for got in (a, b, *_results(a, b).values()):
            _assert_normal(got)


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-6, 6), st.integers(-3, 3)),
        st.integers(-50, 50).filter(bool),
        min_size=2,
        max_size=12,
    ).filter(lambda t: len({eu for _, eu in t}) > 1)
)
def test_div_qminus_returns_the_quotient_of_a_multiple(terms):
    assert coeff._div_qminus(coeff._pmul(terms, qminus().num)) == terms


@pytest.mark.parametrize(
    "terms",
    [
        {(1, 0): 1, (0, 1): -1},  # q - u
        {(1, 1): 1, (0, 0): -1},  # q u - 1
        {(1, 0): 1, (0, 0): -1},  # q - 1: vanishes at q = 1, not at q = -1
        # (q^2 + q - 1)(1 - u): each u-column's recurrence leaves 0 below
        # its lowest exponent and 1 or -1 at it
        {(2, 0): 1, (1, 0): 1, (0, 0): -1, (2, 1): -1, (1, 1): -1, (0, 1): 1},
    ],
)
def test_div_qminus_refuses_what_vanishes_at_one_but_is_not_divisible(terms):
    assert sum(terms.values()) == 0
    assert coeff._div_qminus(terms) is None


def test_a_wide_exponent_gap_is_refused_without_walking_it():
    # neither q^1000001 - 1 nor its inverse's candidate vanishes at q = -1,
    # so (q - q^-1) divides neither, and the refusal builds nothing the size
    # of the gap: one pass over the terms, not over a million exponents
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        text = print_element(normal_form(evaluate("(q^1000001 - 1)/(q - q^-1)")), "text")
        assert tracemalloc.get_traced_memory()[1] < 2**20
        tracemalloc.reset_peak()
        with pytest.raises(EvalError, match="can only divide"):
            evaluate("1/(q^1000001 - 1)")
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert text == "(q^1000002 - q)/(q^2 - 1)"


def test_equal_values_over_an_integer_den_have_identical_fields():
    # so __eq__ on the rewriting's coefficients is a field compare
    rng = random.Random(13)
    six = RatFunc.from_int(6)
    seen = 0
    for _ in range(400):
        a = rng.choice(_SHAPES)(rng) / power(qminus(), rng.randrange(4))
        b = rng.choice(_SHAPES)(rng) / power(qminus(), rng.randrange(4))
        k = rng.randrange(4)
        for other in (
            b,
            (a * _D + RF_ONE) / _D - RF_ONE / _D,
            a * power(qminus(), k) * six / (power(qminus(), k) * six),
            (a + b / qminus()) - b / qminus(),
            a.mul_q_pow(k) * q_pow(-k),
        ):
            # equal in value, by a subtraction and not by __eq__
            if (a - other).is_zero():
                assert (a.num, a.den, a.d) == (other.num, other.den, other.d)
                seen += 1
    assert seen > 800


def test_product_over_qminus_powers_multiplies_only_the_numerators(monkeypatch):
    x = ratfunc({(2, 0): 1, (0, 1): 3}, P_ONE) / qminus()
    y = ratfunc({(1, 0): 2, (0, -1): -1}, P_ONE) / power(qminus(), 2)
    calls = [0]
    mul = coeff._pmul

    def counting_mul(a, b):
        calls[0] += 1
        return mul(a, b)

    monkeypatch.setattr(coeff, "_pmul", counting_mul)
    z = x * y
    assert calls == [1]
    assert z.den == 1 and z.d == 3
    assert z.num == {(3, 0): 2, (2, -1): -1, (1, 1): 6, (0, 0): -3}


def test_as_poly_answers_is_it_a_polynomial():
    v = qint(3)
    assert as_poly(v) is v.num
    assert as_poly(RF_ZERO) == {}
    # 1/(q - q^-1) stores the numerator 1 over the den 1
    assert as_poly(qminus().inv()) is None
    assert as_poly(q_pow(1) / qminus() * qminus()) == {(1, 0): 1}
    assert as_poly(HALF) is None
    assert as_poly(ratfunc({(2, 0): 1, (0, 0): -1}, {(1, 0): 1, (-1, 0): -1})) == {(1, 0): 1}


# --- the derived slot ``single`` ---------------------------------------------


def _assert_single(r):
    p = as_poly(r)
    if p is not None and len(p) == 1:
        ((eq, eu), c), = p.items()
        assert r.single == (c, eq, eu), r
    else:
        assert r.single is None, r


def test_single_is_the_one_term_of_the_value():
    # the fast paths of the ring and el_mul trust ``single``, so it holds
    # (c, eq, eu) exactly when the value is the polynomial c q^eq u^eu
    q = q_pow(1)
    collapsed = (q + RF_ONE) + RatFunc.from_int(-1)
    assert collapsed.single == (1, 1, 0)
    values = [
        collapsed,
        (q * q - RF_ONE) - q * q,
        qminus() - q,
        q / qminus() * qminus(),
        ratfunc({(2, 0): 1, (0, 0): -1}, admissible_den(1, 0, 0, 1)),
        ratfunc({(1, 2): -4}, {(0, 0): 2}),
        ratfunc({(1, 2): -4}, {(0, 0): 8}),
        ratfunc({(-2, 1): 3}, P_ONE),
        ratfunc({(1, 0): 2, (-1, 0): -2}, {(0, 0): 2}),
        ratfunc(P_ONE, P_ONE),
        one_term(-2, 1, -3).inv(),
        (RatFunc.from_int(2) * qminus()).inv(),
        one_term(5, 2, 3).subst_u_inverse(),
        (q + u_pow(1)).subst_u_inverse(),
        RF_ZERO,
        RF_ONE,
        qint(1),
        qint(2),
        HALF,
        RatFunc.from_int(-7),
        power(q, -3),
    ]
    for v in values:
        _assert_single(v)
    seen = 0
    for a, b in _shaped_pairs(seed=18, count=400):
        for got in (a, b, *_results(a, b).values(), a.mul_q_pow(3), a + RatFunc.from_int(-a.num.get((0, 0), 0))):
            _assert_single(got)
            seen += got.single is not None
    assert seen > 200


def test_mul_shifted_is_the_product_times_a_power_of_q():
    # el_mul's one step per term pair: the one-term pairs take one lookup,
    # every other pair the ring product, and both agree with a * b * q^k
    one_term_pairs = 0
    for a, b in _shaped_pairs(seed=19, count=300):
        for k in range(-3, 4):
            got = mul_shifted(a, b, k)
            assert got == a * b * q_pow(k), (a, b, k)
            _assert_single(got)
        one_term_pairs += a.single is not None and b.single is not None
    assert one_term_pairs > 20
    assert mul_shifted(one_term(-3, 1, 2), one_term(2, -4, 1), 5) is one_term(-6, 2, 3)
