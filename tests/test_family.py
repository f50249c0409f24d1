import itertools
import random

import pytest

from uqsl2.coeff import RF_ONE, q_pow, qminus, u_pow
from uqsl2.elements import Element, Monomial, el_mul, omega, xminus, xplus
from uqsl2.family import (
    central_c,
    expand_general_commutator,
    expand_specialized_commutator,
    family_E,
    family_E_neg,
    family_E_pos,
)
from uqsl2.rewrite import RelationMode, deformed_commutator, normal_form

from helpers import (
    clear_caches,
    equals,
    general_display_fixture,
    is_central,
    is_same_sign_residual,
    project_x_free,
)

S = RelationMode.STRICT
F = RelationMode.FULL


def test_family_pos_examples():
    assert family_E_pos(0, 0, 0, "+") == Element(
        {Monomial((xplus(0),), 0): u_pow(1), Monomial((xminus(1),), 0): RF_ONE}
    )
    assert family_E_pos(1, 2, -4, "-") == Element(
        {Monomial((xplus(1),), 2): u_pow(-3), Monomial((xminus(2),), -4): RF_ONE}
    )
    assert family_E_pos(0, 0, 0, "-") == Element(
        {Monomial((xplus(0),), 0): u_pow(-1), Monomial((xminus(1),), 0): RF_ONE}
    )
    with pytest.raises(ValueError):
        family_E_pos(-1, 0, 0, "+")


def test_family_neg_examples():
    assert family_E_neg(0, 0, -2, "+") == Element(
        {Monomial((xplus(-1),), 0): RF_ONE, Monomial((xminus(0),), -2): u_pow(1)}
    )
    assert family_E_neg(2, 1, 1, "-") == Element(
        {Monomial((xplus(-3),), 1): RF_ONE, Monomial((xminus(-2),), 1): u_pow(-5)}
    )
    with pytest.raises(ValueError):
        family_E_neg(-2, 0, 0, "-")


def test_family_dispatch():
    assert family_E("+", 0, 0, 0) == family_E_pos(0, 0, 0, "+")
    assert family_E("+", 1, 0, -1) == family_E_neg(0, 0, -2, "+")
    # eta = -m - 2p = 0 here
    assert family_E("-", -1, 2, 0) == Element(
        {Monomial((xplus(0),), 2): u_pow(-1), Monomial((xminus(1),), 0): RF_ONE}
    )


# criterion 4's member grid: n in [0, 11], m/l and eta/theta in [-2, 2]
_R = range(-2, 3)
_MEMBER_GRID = list(itertools.product(range(12), _R, _R, "+-"))


@pytest.mark.parametrize("member", [family_E_pos, family_E_neg])
def test_a_member_is_one_shared_value_equal_to_a_fresh_build(member):
    for args in _MEMBER_GRID:
        e = member(*args)
        assert e == member.__wrapped__(*args)
        assert member(*args) is e


@pytest.mark.parametrize("member", [family_E_pos, family_E_neg])
@pytest.mark.parametrize("args", [(-1, 0, 0, "+"), (0, 0, 0, "x")])
def test_a_bad_member_raises_on_every_call(member, args):
    # lru_cache stores no exception, so the second call checks again
    for _ in range(2):
        with pytest.raises(ValueError):
            member(*args)


def test_a_bracket_grid_offset_builds_each_member_once():
    # one n-offset of the 100,000-bracket grid asks 20,000 times per
    # branch for 200 distinct members
    clear_caches()
    nk = range(5, 9)
    for sign, n, k, m, l, eta, theta in itertools.product("+-", nk, nk, _R, _R, _R, _R):
        family_E_pos(n, m, eta, sign)
        family_E_neg(k, l, theta, sign)
    for member in (family_E_pos, family_E_neg):
        info = member.cache_info()
        assert (info.misses, info.hits) == (200, 20_000 - 200)


def test_central_c_examples():
    assert central_c(0, 1, "+") == Element.from_coeff((u_pow(2) - RF_ONE) / qminus())
    assert central_c(0, 0, "-") == Element.from_coeff(
        q_pow(-2) * u_pow(-2) * (u_pow(4) - RF_ONE) / qminus()
    )
    with pytest.raises(ValueError):
        central_c(-1, 0, "+")


def test_central_c_is_central():
    for n in range(0, 5):
        for m in (-2, 0, 2):
            for sign in "+-":
                assert is_central(central_c(n, m, sign), S)


def _raw_bracket(n, k, m, l, eta, theta, p, sign):
    a = family_E_pos(n, m, eta, sign)
    b = family_E_neg(k, l, theta, sign)
    kp = Element.k_power(p)
    return el_mul(el_mul(a, kp), b) - el_mul(el_mul(b, kp), a)


def test_expansion_matches_product_structurally():
    rng = random.Random(87)
    for _ in range(300):
        n, k = rng.randrange(4), rng.randrange(4)
        m, l, eta, theta, p = (rng.randrange(-2, 3) for _ in range(5))
        sign = rng.choice("+-")
        raw = _raw_bracket(n, k, m, l, eta, theta, p, sign)
        assert raw == expand_general_commutator(n, k, m, l, eta, theta, p, sign)


def test_expansion_equals_deformed_commutator():
    rng = random.Random(88)
    for _ in range(30):
        n, k = rng.randrange(3), rng.randrange(3)
        m, l, eta, theta, p = (rng.randrange(-2, 3) for _ in range(5))
        sign = rng.choice("+-")
        a = family_E_pos(n, m, eta, sign)
        b = family_E_neg(k, l, theta, sign)
        exp = expand_general_commutator(n, k, m, l, eta, theta, p, sign)
        for mode in (S, F):
            assert equals(deformed_commutator(a, b, p, mode), exp, mode)


def _product_built_groups(n, k, m, l, eta, theta, p, sign, printed):
    # the expansion written with q_pow/u_pow products and negations
    s = 1 if sign == "+" else -1
    kpp = eta + theta + p if printed else m + l + p
    g1 = u_pow(2 * s * (n + k + 1))
    gn = u_pow(s * (2 * n + 1))
    gk = u_pow(s * (2 * k + 1))
    return Element(
        {
            Monomial((xplus(n), xminus(-k)), m + theta + p): g1 * q_pow(-2 * (m + p)),
            Monomial((xminus(-k), xplus(n)), m + theta + p): -(g1 * q_pow(2 * (theta + p))),
            Monomial((xminus(n + 1), xplus(-k - 1)), eta + l + p): q_pow(2 * (eta + p)),
            Monomial((xplus(-k - 1), xminus(n + 1)), eta + l + p): -q_pow(-2 * (l + p)),
            Monomial((xplus(n), xplus(-k - 1)), kpp): gn * q_pow(2 * (m + p)),
            Monomial((xplus(-k - 1), xplus(n)), kpp): -(gn * q_pow(2 * (l + p))),
            Monomial((xminus(n + 1), xminus(-k)), eta + theta + p): gk * q_pow(-2 * (eta + p)),
            Monomial((xminus(-k), xminus(n + 1)), eta + theta + p): -(
                gk * q_pow(-2 * (theta + p))
            ),
        }
    )


def test_expansion_and_fixture_match_the_product_built_formulas():
    R = (-1, 0, 2)
    for n, k, m, l, eta, theta, p in itertools.product(range(3), range(3), R, R, R, R, R):
        for sign in "+-":
            args = (n, k, m, l, eta, theta, p, sign)
            for built, printed in (
                (expand_general_commutator(*args), False),
                (general_display_fixture(*args), True),
            ):
                assert built == _product_built_groups(*args, printed)
                assert all(c.den == 1 for c in built.terms.values())
    assert family_E_pos(2, 1, -1, "-") == Element(
        {Monomial((xplus(2),), 1): u_pow(-5), Monomial((xminus(3),), -1): RF_ONE}
    )
    assert family_E_neg(2, 1, -1, "+") == Element(
        {Monomial((xplus(-3),), 1): RF_ONE, Monomial((xminus(-2),), -1): u_pow(5)}
    )


def test_same_sign_group_coefficients_match_when_weights_agree():
    # for l = m the two x+x+ word orders carry the same coefficient
    for n, k, m, p in ((0, 1, 0, 0), (1, 2, -1, 1), (0, 3, 2, -2)):
        e = expand_general_commutator(n, k, m, m, 0, 0, p, "+")
        c1 = e.terms[Monomial((xplus(n), xplus(-k - 1)), 2 * m + p)]
        c2 = e.terms[Monomial((xplus(-k - 1), xplus(n)), 2 * m + p)]
        assert c1 == -c2


def test_cross_group_k_exponent():
    # engine bookkeeping puts K^(m+theta+p) on the x+ x- group
    n, k, m, l, eta, theta, p = 1, 2, 1, -1, 2, 0, 1
    e = expand_general_commutator(n, k, m, l, eta, theta, p, "+")
    assert Monomial((xplus(n), xminus(-k)), m + theta + p) in e.terms
    # the stated display parks its x+x+ group at K^(eta+theta+p) instead
    fix = general_display_fixture(n, k, m, l, eta, theta, p, "+")
    assert Monomial((xplus(n), xplus(-k - 1)), eta + theta + p) in fix.terms
    assert Monomial((xplus(n), xplus(-k - 1)), m + l + p) in e.terms
    diff = normal_form(e - fix, S)
    assert not diff.is_zero()  # eta + theta != m + l here


def test_display_and_expansion_agree_exactly_when_their_k_powers_do():
    # the stated display differs from the K-passing expansion only in its
    # x+x+ group's K-power, eta + theta + p for m + l + p; eta + theta =
    # m + l makes the two coincide, in normal form as well
    agree = 0
    for n, k, m, l, eta, theta, p in itertools.product((0, 1), repeat=7):
        for sign in "+-":
            args = (n, k, m, l, eta, theta, p, sign)
            diff = normal_form(expand_general_commutator(*args) - general_display_fixture(*args), S)
            assert diff.is_zero() == (eta + theta == m + l), args
            agree += diff.is_zero()
    assert agree == 96


def test_specialized_fixture_against_the_bracket():
    # in the vanishing regime (n < k) the stated closed form normal-forms to
    # zero in full mode too, while the bracket is the EP same-sign residual:
    # the bracket minus the closed form is the bracket itself
    n, k, m, p = 0, 2, 0, 1
    bracket = deformed_commutator(family_E("+", p, m, n), family_E("+", p, m, -k - 1), p, F)
    fixture = expand_specialized_commutator(n, k, m, p, "+")
    assert normal_form(fixture, F).is_zero()
    assert is_same_sign_residual(bracket)
    assert normal_form(bracket - fixture, F) == bracket
    # at n = k the printed overall K-power disagrees with the derived one,
    # which shows in the x-free part of the difference
    n = k = 1
    bracket = deformed_commutator(family_E("+", p, m, n), family_E("+", p, m, -k - 1), p, F)
    fixture = expand_specialized_commutator(n, k, m, p, "+")
    assert not project_x_free(normal_form(bracket - fixture, F)).is_zero()


def test_specialized_fixture_vanishes_in_regime():
    for n in range(0, 3):
        for k in range(n + 1, 4):
            for m in (-1, 0, 2):
                for p in (-1, 0, 1):
                    assert normal_form(expand_specialized_commutator(n, k, m, p, "+"), S).is_zero()
                    assert normal_form(expand_specialized_commutator(k, n, m, p, "-"), S).is_zero()


def test_specialized_fixture_k_power_mismatch():
    # at n = k the stated closed form carries K^p while the direct bracket
    # gives K^(-p); the discrepancy has an x-free part for p != 0.  The
    # closed form leaves out the bracket's same-sign residual, which full
    # mode keeps, so at p = 0 the two differ by that residual alone.
    n = k = 0
    m, p, sign = 0, 1, "+"
    a = family_E(sign, p, m, n)
    b = family_E(sign, p, m, -k - 1)
    engine = deformed_commutator(a, b, p, F)
    fixture = normal_form(expand_specialized_commutator(n, k, m, p, sign), F)
    assert not project_x_free(engine - fixture).is_zero()
    # same bracket with p = 0: printed and derived forms coincide up to the
    # same-sign residual
    a0 = family_E(sign, 0, m, n)
    b0 = family_E(sign, 0, m, -k - 1)
    diff = normal_form(
        deformed_commutator(a0, b0, 0, F) - expand_specialized_commutator(n, k, m, 0, sign),
        F,
    )
    assert is_same_sign_residual(diff)


def test_omega_of_family_pos():
    # omega image of the positive branch lands on the negative branch
    for n, m, eta in ((0, 0, 0), (1, 2, -1)):
        img = omega(family_E_pos(n, m, eta, "+"))
        want = Element(
            {
                Monomial((xminus(-n),), -m): u_pow(-(2 * n + 1)),
                Monomial((xplus(-n - 1),), -eta): RF_ONE,
            }
        )
        assert img == want
