import pytest

from uqsl2.coeff import P_ONE, RF_ONE, one_term, q_pow, qminus, u_pow
from uqsl2.elements import Element, Monomial, el_mul, project_x_free, xminus, xplus
from uqsl2.family import FamilyParams, family_E
from uqsl2.rewrite import RelationMode, clear_caches, normal_form
from uqsl2.verify import (
    RegimeError,
    check_index_reflection_identity,
    check_omega_family_identity,
    classify,
    expectation_met,
    sweep_claim,
    verify_claim,
)

from helpers import is_same_sign_residual

S = RelationMode.STRICT
F = RelationMode.FULL


def test_classify():
    assert classify(Element.zero()).kind == "exact_zero"
    assert classify(Element.from_coeff(u_pow(2))).kind == "central"
    assert classify(Element.k_power(1)).kind == "residual"


def test_ep_base_case_full():
    # EP is false in U_q(sl2-hat): the bracket is a sum of same-sign pairs
    # whose coefficients vanish at q = 1, and it has no x-free term
    r = verify_claim("EP", {"n": 0, "k": 1, "m": 0, "p": 0}, F)
    assert r.verdict.kind == "residual"
    assert is_same_sign_residual(r.verdict.value)
    assert not r.paper_match
    assert expectation_met(r)


def test_ep_base_case_strict_residual():
    r = verify_claim("EP", {"n": 0, "k": 1, "m": 0, "p": 0}, S)
    assert r.verdict.kind == "residual"
    assert project_x_free(r.verdict.value).is_zero()
    assert not r.paper_match
    assert expectation_met(r)


def test_regime_errors():
    with pytest.raises(RegimeError):
        verify_claim("EP", {"n": 1, "k": 1, "m": 0, "p": 0}, F)
    with pytest.raises(RegimeError):
        verify_claim("EM", {"n": 0, "k": 2, "m": 0, "p": 0}, F)
    with pytest.raises(RegimeError):
        verify_claim("COMMC", {"n": -1, "m": 0, "sign": "+", "convention": "literal"}, F)
    with pytest.raises(RegimeError):
        verify_claim("COMMC", {"n": 0, "m": 0, "sign": "+", "convention": "bogus"}, F)


def test_em_mirror():
    r = verify_claim("EM", {"n": 3, "k": 1, "m": -1, "p": 2}, F)
    assert r.verdict.kind == "residual"
    assert is_same_sign_residual(r.verdict.value)
    r = verify_claim("EM", {"n": 3, "k": 1, "m": -1, "p": 2}, S)
    assert project_x_free(r.verdict.value).is_zero()


def test_commc_literal_is_residual():
    r = verify_claim("COMMC", {"n": 0, "m": 0, "sign": "+", "convention": "literal"}, F)
    assert r.verdict.kind == "residual"
    assert not r.paper_match
    assert r.params["bracket"] == -1 and r.params["p"] == 1


def test_commc_matching_is_central_but_differs():
    # the x-free part of the bracket is central:
    # q^(-2(m+1)) (gamma^(3n+1) - gamma^(-n-1)) / (q - q^-1) for sign +,
    # and it differs from the stated c+ in prefactor and exponent.  In full
    # mode the bracket also keeps a same-sign residual, so its verdict is
    # "residual": for n = m = 0, sign +, that residual is
    # (q^4 - q^2) u x+_-1 x+_0 K + (1 - q^2) u x-_0 x-_1 K^-3.
    for sign, cases in (("+", ((0, 0), (2, 1), (4, -2))), ("-", ((0, 0), (1, 2)))):
        for n, m in cases:
            r = verify_claim("COMMC", {"n": n, "m": m, "sign": sign, "convention": "matching"}, F)
            assert r.verdict.kind == "residual"
            if sign == "+":
                gam = u_pow(2 * (3 * n + 1)) - u_pow(-2 * (n + 1))
                want = q_pow(-2 * (m + 1)) * gam / qminus()
            else:
                gam = u_pow(2 * (n + 1)) - u_pow(-2 * (3 * n + 1))
                want = q_pow(-2 * (m - 1)) * gam / qminus()
            central = project_x_free(r.verdict.value)
            assert central == Element.from_coeff(want)
            assert is_same_sign_residual(r.verdict.value - central)
            assert not r.paper_match
    r = verify_claim("COMMC", {"n": 0, "m": 0, "sign": "+", "convention": "matching"}, F)
    assert r.verdict.value - project_x_free(r.verdict.value) == Element(
        {
            Monomial((xplus(-1), xplus(0)), 1): (q_pow(4) - q_pow(2)) * u_pow(1),
            Monomial((xminus(0), xminus(1)), -3): (RF_ONE - q_pow(2)) * u_pow(1),
        }
    )


def test_commc_reports_are_deterministic():
    params = {"n": 1, "m": -1, "sign": "-", "convention": "literal"}
    a = verify_claim("COMMC", params, F)
    b = verify_claim("COMMC", params, F)
    assert a.verdict == b.verdict
    assert a.paper_match == b.paper_match
    assert a.discrepancy == b.discrepancy
    assert a.params == b.params


def test_omega_family_base_cases():
    for p in (0, 1):
        for n in (0, 1):
            r = check_omega_family_identity(FamilyParams("+", p, 0, n))
            assert r.paper_match
            assert expectation_met(r)


def test_omega_family_full_sweep_matches():
    for sign in "+-":
        for n in range(0, 5):
            for m in (-2, 0, 2):
                for p in (-2, -1, 1, 2):
                    r = check_omega_family_identity(FamilyParams(sign, p, m, n))
                    assert r.paper_match, (sign, n, m, p)


def test_reflection_verifies_same_sign():
    for sign in "+-":
        for n, m, eta in ((0, 0, 0), (1, 2, -1), (3, -2, 2)):
            r = check_index_reflection_identity(n, m, eta, sign)
            assert r.params["matched_sign"] == sign
            assert not r.paper_match  # the stated form flips the sign
            assert not expectation_met(r)


def test_proof_display_1_report():
    # eta + theta = m + l makes the printed and derived displays coincide
    r = verify_claim(
        "PROOF_DISPLAY_1",
        {"n": 0, "k": 0, "m": 1, "l": 1, "eta": 1, "theta": 1, "p": 0, "sign": "+"},
        S,
    )
    assert r.paper_match
    r = verify_claim(
        "PROOF_DISPLAY_1",
        {"n": 0, "k": 0, "m": 1, "l": 1, "eta": 0, "theta": 0, "p": 0, "sign": "+"},
        S,
    )
    assert not r.paper_match
    assert not r.discrepancy.is_zero()


def test_proof_display_2_report():
    # in the vanishing regime the stated closed form is zero, but the
    # bracket is the EP same-sign residual, so the discrepancy is exactly
    # that residual and has no x-free term
    r = verify_claim("PROOF_DISPLAY_2", {"n": 0, "k": 2, "m": 0, "p": 1, "sign": "+"}, F)
    assert r.verdict.kind == "residual"
    assert not r.paper_match
    assert r.discrepancy == r.verdict.value
    assert is_same_sign_residual(r.discrepancy)
    # at n = k the printed overall K-power disagrees with the derived one,
    # which shows in the x-free part of the discrepancy
    r = verify_claim("PROOF_DISPLAY_2", {"n": 1, "k": 1, "m": 0, "p": 1, "sign": "+"}, F)
    assert not r.paper_match
    assert not project_x_free(r.discrepancy).is_zero()


def test_sweep_claim_shapes():
    cfg = {"n_max": 1, "k_max": 2, "m_range": (0, 0), "p_range": (0, 0)}
    reports = sweep_claim("EP", cfg, F)
    assert [(r.params["n"], r.params["k"]) for r in reports] == [(0, 1), (0, 2), (1, 2)]
    reports = sweep_claim("EM", cfg, F)
    assert [(r.params["n"], r.params["k"]) for r in reports] == [(1, 0)]
    reports = sweep_claim("COMMC", {"n_max": 0, "k_max": 0, "m_range": (0, 0), "p_range": (0, 0)}, F)
    assert len(reports) == 4  # both signs x both conventions

    # full parameter order of every sweepable claim
    cfg = {"n_max": 1, "k_max": 2, "m_range": (0, 1), "p_range": (-1, 0)}
    ms, ps, ns = (0, 1), (-1, 0), (0, 1)

    def order(claim, keys):
        return [tuple(r.params[x] for x in keys) for r in sweep_claim(claim, cfg, F)]

    assert order("EP", "nkmp") == [
        (n, k, m, p) for n in ns for k in range(3) if n < k for m in ms for p in ps
    ]
    assert order("EM", "nkmp") == [
        (n, k, m, p) for n in ns for k in range(3) if n > k for m in ms for p in ps
    ]
    assert order("COMMC", ("n", "m", "sign", "convention")) == [
        (n, m, s, c) for n in ns for m in ms for s in "+-" for c in ("literal", "matching")
    ]
    assert order("OMEGA_E", ("n", "m", "p", "sign")) == [
        (n, m, p, s) for n in ns for m in ms for p in ps for s in "+-"
    ]
    assert order("REFLECT", ("n", "m", "eta", "sign")) == [
        (n, m, eta, s) for n in ns for m in ms for eta in ms for s in "+-"
    ]


def _some_scalar_kills(x, y):
    """Whether x - lam*y is zero for some scalar lam (x, y in normal form)."""
    if x.is_zero():
        return True
    if x.terms.keys() != y.terms.keys():
        return False
    mono = next(iter(x.terms))
    return (x - y.scale(x.terms[mono] / y.terms[mono])).is_zero()


def test_ep_has_no_q_commutator_repair():
    # the x+x+ group of a K^p' bracket is a q-commutator of x+_n and
    # x+_(-k-1), index gap n+k+1 >= 2, which R6 rewrites into other PBW
    # words for every lam: no exponent p' and no scalar lam make
    # a K^p' b - lam b K^p' a vanish in the full algebra
    pairs = 0
    for n, k in ((0, 1), (0, 2), (1, 2), (1, 3)):
        for m in (-1, 0, 1):
            for p in (-1, 0, 1):
                a = family_E(FamilyParams("+", p, m, n))
                b = family_E(FamilyParams("+", p, m, -k - 1))
                for p2 in range(-3, 4):
                    kp = Element.k_power(p2)
                    x = normal_form(el_mul(el_mul(a, kp), b), F)
                    y = normal_form(el_mul(el_mul(b, kp), a), F)
                    assert not _some_scalar_kills(x, y), (n, k, m, p, p2)
                    pairs += 1
    assert pairs == 252
    assert _some_scalar_kills(x, x.scale(q_pow(3))) and _some_scalar_kills(Element.zero(), x)


def _shared_values():
    return {
        (c, eq, eu): one_term(c, eq, eu)
        for c in (-2, -1, 1, 2)
        for eq in range(-6, 7)
        for eu in range(-6, 7)
    }


def test_values_built_after_clear_caches_equal_those_before():
    # identity between shared values is only a shortcut: fresh objects
    # built after the memos are emptied compare equal to the old ones
    params = {"n": 0, "k": 2, "m": 1, "p": -1}
    before = _shared_values()
    products = [q_pow(2) * u_pow(1), -one_term(3, 1, 0), q_pow(3).mul_q_pow(2)]
    bracket = verify_claim("EP", params, F).verdict.value
    clear_caches()
    after = _shared_values()
    assert all(after[key] == v for key, v in before.items())
    assert [key for key, v in before.items() if after[key] is v] == [(1, 0, 0)]  # RF_ONE
    assert [q_pow(2) * u_pow(1), -one_term(3, 1, 0), q_pow(3).mul_q_pow(2)] == products
    assert verify_claim("EP", params, F).verdict.value == bracket


def test_sweeps_leave_shared_values_unchanged():
    # every one-term result of the arithmetic is one of these objects, so a
    # caller that changed one in place would change every coefficient
    values = _shared_values()
    cfg = {"n_max": 3, "k_max": 3, "m_range": (-1, 1), "p_range": (-1, 1)}
    for mode in (S, F):
        for claim in ("EP", "EM", "COMMC", "OMEGA_E", "REFLECT"):
            sweep_claim(claim, cfg, mode)
    for (c, eq, eu), v in values.items():
        assert v.num.terms == {(eq, eu): c} and v.den is P_ONE
        assert one_term(c, eq, eu) is v
