import random

import pytest

from uqsl2 import coeff
from uqsl2.coeff import RF_ONE, RatFunc, q_pow, u_pow
from uqsl2.elements import (
    Element,
    Monomial,
    agen,
    el_mul,
    omega,
    xminus,
    xplus,
)
from uqsl2.family import (
    SIGNS,
    expand_general_commutator,
    family_E,
    family_E_neg,
    family_E_pos,
)
from uqsl2.rewrite import RelationMode, deformed_commutator, normal_form
from uqsl2.verify import sweep_params

from helpers import mono_sort_key, project_x_free, rand_element, sorted_terms
from test_render import _shaped_elements

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
    minus_one = RatFunc.from_int(-1)
    assert omega(Element.from_gen(agen(3))) == Element.from_gen(agen(-3)).scale(minus_one)


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
            Monomial((), 1): RatFunc.from_int(3),
        }
    )
    assert project_x_free(e) == Element({Monomial((), 1): RatFunc.from_int(3)})
    assert project_x_free(Element.zero()).is_zero()


def test_sorted_terms_deterministic():
    rng = random.Random(3)
    for _ in range(50):
        e = rand_element(rng, nterms=5)
        keys = [m for m, _ in sorted_terms(e)]
        assert keys == sorted(keys, key=mono_sort_key)
        # rebuilding from shuffled items gives the same iteration order
        items = list(e.terms.items())
        rng.shuffle(items)
        e2 = Element(dict(items))
        assert [m for m, _ in sorted_terms(e2)] == keys


def test_element_algebra_basics():
    rng = random.Random(9)
    for _ in range(50):
        a = rand_element(rng)
        b = rand_element(rng)
        assert a + b == b + a
        assert a - a == Element.zero()
        assert (a + b) - b == a
        assert a.scale(RatFunc.from_int(0)) == Element.zero()


def test_family_brackets_make_no_polynomial_products(monkeypatch):
    # criterion 4's grid: every coefficient is one term, +-q^a u^b, so the
    # el_mul chains and the group-by-group expansion multiply no polynomials
    calls = 0
    pmul = coeff._pmul

    def counted(a, b):
        nonlocal calls
        calls += 1
        return pmul(a, b)

    monkeypatch.setattr(coeff, "_pmul", counted)
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
    # every coefficient of a family chain is one term, +-q^a u^b, K^p's
    # included: el_mul fuses each product and its K-passing shift into one
    # ``one_term`` lookup, so no RatFunc product or q-shift is called at all
    calls = {"__mul__": 0, "mul_q_pow": 0}

    def counting(name):
        method = getattr(RatFunc, name)

        def counted(self, other):
            calls[name] += 1
            return method(self, other)

        return counted

    for name in calls:
        monkeypatch.setattr(RatFunc, name, counting(name))
    rng = random.Random(4)
    R = range(-2, 3)
    for _ in range(1000):
        sign = rng.choice("+-")
        n, k = rng.randrange(4), rng.randrange(4)
        m, l, eta, theta, p = (rng.choice(R) for _ in range(5))
        a = family_E_pos(n, m, eta, sign)
        b = family_E_neg(k, l, theta, sign)
        kp = Element.k_power(p)
        el_mul(el_mul(a, kp), b)
        el_mul(el_mul(b, kp), a)
    assert calls == {"__mul__": 0, "mul_q_pow": 0}


def test_a_bare_k_power_on_the_right_only_adds_k_exponents():
    # K^e on the right passes no x: the K-exponents add and the
    # coefficients stay; checked against K^e with the coefficient 2, halved
    rng = random.Random(18)
    half = RatFunc.from_int(1) / RatFunc.from_int(2)
    for _ in range(300):
        a = rand_element(rng, nterms=4)
        for e in range(-3, 4):
            got = el_mul(a, Element.k_power(e))
            assert got == el_mul(a, Element.k_power(e).scale(RatFunc.from_int(2))).scale(half)
            assert sorted(m.kexp for m in got.terms) == sorted(m.kexp + e for m in a.terms)
    assert el_mul(Element.zero(), K).is_zero()


def test_one_pass_product_is_the_product_through_a_k_power():
    # el_mul(a, b, k) raises each left K-power by k before it passes b's
    # word; the reference builds K^k and makes two products.  Every
    # coefficient shape, every kind of generator and bare K-powers
    rng = random.Random(33)
    els = _shaped_elements(rng) + [Element.unit(), Element.zero(), K, KINV]
    for _ in range(150):
        a, b = rng.choice(els), rng.choice(els)
        for k in range(-3, 4):
            assert el_mul(a, b, k) == el_mul(el_mul(a, Element.k_power(k)), b)


def test_deformed_commutator_is_the_four_product_reference():
    # a K^p b - b K^p a in two one-pass products equals the normal form of
    # four plain products through the K-power element, on the EP/EM grid
    cfg = {"n_max": 3, "k_max": 3, "m_range": (-1, 1), "p_range": (-1, 1)}
    for mode in RelationMode:
        for claim, sign in zip(("EP", "EM"), SIGNS):
            for t in sweep_params(claim, cfg):
                n, k, m, p = t["n"], t["k"], t["m"], t["p"]
                a, b = family_E(sign, p, m, n), family_E(sign, p, m, -k - 1)
                kp = Element.k_power(p)
                ref = normal_form(el_mul(el_mul(a, kp), b) - el_mul(el_mul(b, kp), a), mode)
                assert deformed_commutator(a, b, p, mode) == ref, (claim, t, mode)
