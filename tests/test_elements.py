import random

import pytest

from uqsl2.coeff import RF_ONE, LaurentPoly, RatFunc, q_pow, u_pow
from uqsl2.elements import (
    Element,
    Monomial,
    agen,
    el_mul,
    mono_sort_key,
    omega,
    project_x_free,
    xminus,
    xplus,
)
from uqsl2.family import expand_general_commutator, family_E_neg, family_E_pos

from helpers import rand_element

K = Element.k_power(1)
KINV = Element.k_power(-1)


def test_agen_zero_rejected():
    with pytest.raises(ValueError):
        agen(0)


def test_product_drops_cancelled_terms():
    # (1 + x+[0])(1 - x+[0]): the two x+[0] terms of the product cancel
    x = Element.from_gen(xplus(0))
    one = Element.unit()
    r = el_mul(one + x, one - x)
    assert r == one - el_mul(x, x)
    assert set(r.terms) == {Monomial((), 0), Monomial((xplus(0), xplus(0)), 0)}


def test_k_passes_xplus():
    r = el_mul(K, Element.from_gen(xplus(0)))
    assert r == Element({Monomial((xplus(0),), 1): q_pow(2)})


def test_kinv_passes_xminus():
    r = el_mul(KINV, Element.from_gen(xminus(0)))
    assert r == Element({Monomial((xminus(0),), -1): q_pow(2)})


def test_k_commutes_with_a():
    r = el_mul(K, Element.from_gen(agen(1)))
    assert r == Element({Monomial((agen(1),), 1): RF_ONE})


def test_el_mul_is_associative():
    rng = random.Random(11)
    for _ in range(50):
        a, b, c = (rand_element(rng, max_len=3) for _ in range(3))
        assert el_mul(el_mul(a, b), c) == el_mul(a, el_mul(b, c))


def test_omega_generator_images():
    assert omega(Element.from_gen(xplus(2))) == Element.from_gen(xminus(-2))
    assert omega(K) == KINV
    assert omega(Element.from_coeff(u_pow(2))) == Element.from_coeff(u_pow(-2))
    assert omega(Element.from_gen(agen(3))) == -Element.from_gen(agen(-3))


def test_omega_involution():
    rng = random.Random(23)
    for _ in range(200):
        e = rand_element(rng)
        assert omega(omega(e)) == e


def test_omega_is_multiplicative():
    rng = random.Random(5)
    for _ in range(100):
        a = rand_element(rng, max_len=3)
        b = rand_element(rng, max_len=3)
        assert omega(el_mul(a, b)) == el_mul(omega(a), omega(b))


def test_project_x_free():
    e = Element(
        {
            Monomial((xplus(0), agen(1)), 0): RF_ONE,
            Monomial((), 1): RF_ONE * 3,
        }
    )
    assert project_x_free(e) == Element({Monomial((), 1): RF_ONE * 3})
    assert project_x_free(Element.zero()).is_zero()


def test_sorted_terms_deterministic():
    rng = random.Random(3)
    for _ in range(50):
        e = rand_element(rng, nterms=5)
        keys = [m for m, _ in e.sorted_terms()]
        assert keys == sorted(keys, key=mono_sort_key)
        # rebuilding from shuffled items gives the same iteration order
        items = list(e.terms.items())
        rng.shuffle(items)
        e2 = Element(dict(items))
        assert [m for m, _ in e2.sorted_terms()] == keys


def test_element_algebra_basics():
    rng = random.Random(9)
    for _ in range(50):
        a = rand_element(rng)
        b = rand_element(rng)
        assert a + b == b + a
        assert a - a == Element.zero()
        assert (a + b) - b == a
        assert a * 0 == Element.zero()


def test_family_brackets_make_no_polynomial_products(monkeypatch):
    # criterion 4's grid: every coefficient is one term, +-q^a u^b, so the
    # el_mul chains and the group-by-group expansion multiply no polynomials
    calls = 0
    laurent_mul = LaurentPoly.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return laurent_mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counted)
    rng = random.Random(4)
    R = range(-2, 3)
    for _ in range(1000):
        sign = rng.choice("+-")
        n, k = rng.randrange(4), rng.randrange(4)
        m, l, eta, theta, p = (rng.choice(R) for _ in range(5))
        a = family_E_pos(n, m, eta, sign)
        b = family_E_neg(k, l, theta, sign)
        kp = Element.k_power(p)
        raw = el_mul(el_mul(a, kp), b) - el_mul(el_mul(b, kp), a)
        assert raw == expand_general_commutator(n, k, m, l, eta, theta, p, sign)
    assert calls == 0


def test_k_passing_makes_no_second_coefficient_product(monkeypatch):
    # a K-power passing x's shifts q-exponents (RatFunc.mul_q_pow), so each
    # chain makes one coefficient product per term pair: 2 + 4 per chain
    calls = 0
    ratfunc_mul = RatFunc.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return ratfunc_mul(self, other)

    monkeypatch.setattr(RatFunc, "__mul__", counted)
    rng = random.Random(4)
    R = range(-2, 3)
    brackets = 1000
    for _ in range(brackets):
        sign = rng.choice("+-")
        n, k = rng.randrange(4), rng.randrange(4)
        m, l, eta, theta, p = (rng.choice(R) for _ in range(5))
        a = family_E_pos(n, m, eta, sign)
        b = family_E_neg(k, l, theta, sign)
        kp = Element.k_power(p)
        el_mul(el_mul(a, kp), b)
        el_mul(el_mul(b, kp), a)
    assert calls <= 12 * brackets
