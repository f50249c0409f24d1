import random
from fractions import Fraction

from uqsl2.coeff import RF_ONE, q_pow, qint, qminus, u_pow
from uqsl2.currents import phi, psi
from uqsl2.elements import (
    Element,
    Monomial,
    agen,
    el_mul,
    omega,
    project_x_free,
    xminus,
    xplus,
)
from uqsl2.rewrite import (
    RelationMode,
    commutator,
    deformed_commutator,
    equals,
    is_central,
    normal_form,
    normal_form_random,
    relation_instances,
)

from helpers import assert_coeffs_match_numerically, rand_element, rand_word

S = RelationMode.STRICT
AX = RelationMode.ABELIAN_X
K = Element.k_power(1)
KINV = Element.k_power(-1)


def g(x):
    return Element.from_gen(x)


def test_r3_single_step():
    # a_1 x+_0 -> x+_0 a_1 + [2] u^-1 x+_1
    got = normal_form(el_mul(g(agen(1)), g(xplus(0))), S)
    want = el_mul(g(xplus(0)), g(agen(1))) + g(xplus(1)).scale(qint(2) * u_pow(-1))
    assert got == want


def test_r2_single_step():
    # a_1 a_-1 -> a_-1 a_1 + [2](u^2 - u^-2)/(q - q^-1)
    got = normal_form(el_mul(g(agen(1)), g(agen(-1))), S)
    want = el_mul(g(agen(-1)), g(agen(1))) + Element.from_coeff(
        qint(2) * (u_pow(2) - u_pow(-2)) / qminus()
    )
    assert got == want


def test_r4_single_step():
    # x-_0 x+_0 -> x+_0 x-_0 - (K - K^-1)/(q - q^-1)
    got = normal_form(el_mul(g(xminus(0)), g(xplus(0))), S)
    want = el_mul(g(xplus(0)), g(xminus(0))) - (K - KINV).scale(qminus().inv())
    assert got == want


def test_normal_input_is_fixed():
    e = el_mul(g(xplus(1)), el_mul(g(xminus(0)), g(agen(2))))
    assert normal_form(e, S) == e
    assert normal_form(e, AX) == e


def test_idempotence():
    rng = random.Random(17)
    for _ in range(60):
        e = rand_element(rng, max_len=4)
        for mode in (S, AX):
            nf = normal_form(e, mode)
            assert normal_form(nf, mode) == nf


def test_diamond_small():
    rng = random.Random(101)
    for _ in range(60):
        w = rand_word(rng, max_len=5)
        e = Element.from_monomial(Monomial(w, rng.randrange(-1, 2)))
        for mode in (S, AX):
            det = normal_form(e, mode)
            assert normal_form_random(e, mode, random.Random(1)) == det
            assert normal_form_random(e, mode, random.Random(2)) == det


def test_relations_rewrite_to_zero():
    for rel in relation_instances(3):
        assert normal_form(rel, S).is_zero()


def test_omega_maps_relations_to_zero():
    for rel in relation_instances(3):
        assert normal_form(omega(rel), S).is_zero()


def test_commutator_examples():
    # [a_1, a_-1]
    got = commutator(g(agen(1)), g(agen(-1)), S)
    assert got == Element.from_coeff(qint(2) * (u_pow(2) - u_pow(-2)) / qminus())
    # [K, a_5] = 0
    assert commutator(K, g(agen(5)), S).is_zero()
    # [a, a] = 0
    rng = random.Random(2)
    for _ in range(10):
        a = rand_element(rng, max_len=3)
        assert commutator(a, a, S).is_zero()


def test_deformed_commutator_examples():
    rng = random.Random(31)
    # p = 0 reduces to the ordinary commutator
    for _ in range(20):
        a = rand_element(rng, max_len=3)
        b = rand_element(rng, max_len=3)
        assert deformed_commutator(a, b, 0, S) == commutator(a, b, S)
    # [a, a]_{K^p} = 0
    for p in (-2, 1, 3):
        a = rand_element(rng, max_len=3)
        assert deformed_commutator(a, a, p, S).is_zero()
    # [K, x+_0]_{K^p} = (q^(2(p+1)) - 1) x+_0 K^(p+1)
    for p in range(-2, 3):
        got = deformed_commutator(K, g(xplus(0)), p, S)
        want = Element({Monomial((xplus(0),), p + 1): q_pow(2 * (p + 1)) - RF_ONE})
        assert got == want


def test_equals_and_modes():
    a = el_mul(g(xminus(0)), g(xplus(0))) + (K - KINV).scale(qminus().inv())
    b = el_mul(g(xplus(0)), g(xminus(0)))
    assert equals(a, b, S)
    xx = el_mul(g(xplus(0)), g(xplus(1)))
    yy = el_mul(g(xplus(1)), g(xplus(0)))
    assert not equals(xx, yy, S)
    assert equals(xx, yy, AX)
    rng = random.Random(4)
    for _ in range(10):
        a = rand_element(rng)
        assert equals(a, a, S)


def test_is_central():
    assert is_central(Element.from_coeff(u_pow(4)), S)
    assert not is_central(K, S)
    assert not is_central(g(xplus(0)), S)
    assert not is_central(g(agen(1)), S)


def test_multiplicativity_under_normal_form():
    rng = random.Random(77)
    for _ in range(40):
        a = rand_element(rng, max_len=3, nterms=2)
        b = rand_element(rng, max_len=3, nterms=2)
        for mode in (S, AX):
            assert equals(el_mul(normal_form(a, mode), normal_form(b, mode)), el_mul(a, b), mode)


def test_numeric_cross_check_on_equal_elements():
    rng = random.Random(55)
    for _ in range(20):
        e = rand_element(rng, max_len=4)
        a = normal_form(e, S)
        b = normal_form_random(e, S, random.Random(rng.randrange(1000)))
        assert a == b
        assert_coeffs_match_numerically(a, b, rng)


def test_kexp_commutes_with_normal_form():
    # nf(w * K^e) = nf(w) * K^e
    rng = random.Random(66)
    for _ in range(30):
        w = rand_word(rng, max_len=4)
        e = rng.randrange(-2, 3)
        lhs = normal_form(Element.from_monomial(Monomial(w, e)), S)
        rhs = el_mul(normal_form(Element.from_monomial(Monomial(w, 0)), S), Element.k_power(e))
        assert lhs == rhs


def test_clear_caches_leaves_every_memo_empty():
    from uqsl2 import coeff, currents, rewrite

    w = el_mul(
        el_mul(g(xminus(0)), g(xminus(1))), el_mul(g(xplus(0)), g(xplus(-1)))
    )
    before = normal_form(w, S)
    memos = (
        rewrite._word_moves,
        rewrite._replacement,
        rewrite._cross_commutator,
        rewrite._ax_coeff,
        rewrite._aa_central,
        rewrite._probe_set,
        currents.psi,
        currents.phi,
        coeff.qint,
        coeff.q_pow,
        coeff.u_pow,
        coeff.qminus,
    )
    is_central(K, S)  # fills _probe_set
    assert rewrite._NF_CACHE
    rewrite.clear_caches()
    assert not rewrite._NF_CACHE
    assert [m.cache_info().currsize for m in memos] == [0] * len(memos)
    assert normal_form(w, S) == before
