from itertools import product

import pytest

from uqsl2.coeff import RF_ONE, one_term, q_pow, qminus, u_pow
from uqsl2.elements import Element, Monomial, el_mul, omega, xminus, xplus
from uqsl2.family import family_E
from uqsl2 import rewrite, verify
from uqsl2.cli import SuiteConfig
from uqsl2.rewrite import RelationMode, normal_form
from uqsl2.verify import (
    CLAIMS,
    RegimeError,
    classify,
    expectation_met,
    sweep_params,
    verify_claim,
)

from helpers import clear_caches, is_same_sign_residual, project_x_free, sweep_claim

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
    outside = [
        ("EP", {"n": 1, "k": 1, "m": 0, "p": 0}),
        ("EP", {"n": -1, "k": 1, "m": 0, "p": 0}),
        ("EM", {"n": 0, "k": 2, "m": 0, "p": 0}),
        ("EM", {"n": 2, "k": -1, "m": 0, "p": 0}),
        ("COMMC", {"n": -1, "m": 0, "sign": "+", "convention": "literal"}),
        ("COMMC", {"n": 0, "m": 0, "sign": "+", "convention": "bogus"}),
        ("OMEGA_E", {"n": -1, "m": 0, "p": 0, "sign": "+"}),
        ("REFLECT", {"n": -1, "m": 0, "eta": 0, "sign": "-"}),
    ]
    assert {claim for claim, _ in outside} == set(CLAIMS)
    for claim, params in outside:
        with pytest.raises(RegimeError, match=f"^{claim} is stated for "):
            verify_claim(claim, params, F)


def test_the_sweep_and_verify_claim_share_each_regime():
    # sweep_params yields exactly the grid tuples that verify_claim accepts:
    # both read the one regime predicate in the claim's row
    cfg = {"n_max": 2, "k_max": 2, "m_range": (-1, 0), "p_range": (0, 0)}
    axes = verify._axes(cfg)
    assert list(CLAIMS) == ["EP", "EM", "COMMC", "OMEGA_E", "REFLECT"]
    for claim in CLAIMS:
        grid = CLAIMS[claim].grid
        kept = list(sweep_params(claim, cfg))
        assert kept
        for values in product(*(axes[x] for x in grid)):
            params = dict(zip(grid, values))
            if params in kept:
                assert verify_claim(claim, params, F).params.items() >= params.items()
            else:
                with pytest.raises(RegimeError):
                    verify_claim(claim, params, F)


def test_em_mirror():
    r = verify_claim("EM", {"n": 3, "k": 1, "m": -1, "p": 2}, F)
    assert r.verdict.kind == "residual"
    assert is_same_sign_residual(r.verdict.value)
    r = verify_claim("EM", {"n": 3, "k": 1, "m": -1, "p": 2}, S)
    assert project_x_free(r.verdict.value).is_zero()


@pytest.mark.parametrize("mode", [S, F])
def test_em_is_the_omega_image_of_ep(mode):
    # omega(E+_n(m; p)) = E-_(-n-1)(m + 2p; -p), so the EP bracket maps to
    # minus an EM bracket: nf(omega(EP(n, k, m, p))) = -EM(k, n, m + 2p, -p)
    # on all 375 instances with 0 <= n < k <= 5, m, p in [-2, 2]
    count = 0
    for n, k, m, p in product(range(6), range(6), range(-2, 3), range(-2, 3)):
        if n < k:
            ep = CLAIMS["EP"].instance({"n": n, "k": k, "m": m, "p": p}, mode)[0]
            em = CLAIMS["EM"].instance({"n": k, "k": n, "m": m + 2 * p, "p": -p}, mode)[0]
            assert (normal_form(omega(ep), mode) + em).is_zero(), (n, k, m, p)
            count += 1
    assert count == 375


@pytest.mark.parametrize("mode", [S, F])
def test_ep_em_discrepancy_is_the_result_normal_formed_once(monkeypatch, mode):
    # the stated value is 0, so the normal-formed bracket is its own
    # discrepancy, and normal_form runs once per instance: for the bracket
    calls = []

    def counted(a, mode=S):
        calls.append(a)
        return normal_form(a, mode)

    monkeypatch.setattr(rewrite, "normal_form", counted)
    monkeypatch.setattr(verify, "normal_form", counted)
    cfg = {"n_max": 3, "k_max": 3, "m_range": (-1, 1), "p_range": (-1, 1)}
    for claim in ("EP", "EM"):
        calls.clear()
        reports = sweep_claim(claim, cfg, mode)
        assert len(calls) == len(reports) == 54
        for r in reports:
            assert r.discrepancy is r.verdict.value
            assert not r.paper_match


@pytest.mark.parametrize("mode", [S, F])
def test_every_stated_value_is_its_own_normal_form(mode):
    # verify_claim's discrepancy is the plain difference of the engine's
    # value and the stated one, which is a normal form because both are
    ranges = SuiteConfig(claims=list(CLAIMS)).ranges()
    count = 0
    for claim, entry in CLAIMS.items():
        for params in sweep_params(claim, ranges):
            result, expected, _ = entry.instance(params, mode)
            assert normal_form(expected, mode) == expected, (claim, params)
            assert normal_form(result, mode) == result, (claim, params)
            count += 1
    assert count == 1100


@pytest.mark.parametrize("mode", [S, F])
def test_reflect_normal_forms_nothing(monkeypatch, mode):
    # both candidates are single-letter normal forms, so matched_sign is
    # found by comparing terms, and the discrepancy is their difference
    calls = []

    def counted(a, mode=S):
        calls.append(a)
        return normal_form(a, mode)

    monkeypatch.setattr(rewrite, "normal_form", counted)
    monkeypatch.setattr(verify, "normal_form", counted)
    cfg = {"n_max": 2, "k_max": 0, "m_range": (-1, 1), "p_range": (0, 0)}
    reports = sweep_claim("REFLECT", cfg, mode)
    assert (len(calls), len(reports)) == (0, 54)
    assert all(r.params["matched_sign"] == r.params["sign"] for r in reports)


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
            r = verify_claim("OMEGA_E", {"sign": "+", "p": p, "m": 0, "n": n})
            assert r.paper_match
            assert expectation_met(r)


def test_omega_family_full_sweep_matches():
    for sign in "+-":
        for n in range(0, 5):
            for m in (-2, 0, 2):
                for p in (-2, -1, 1, 2):
                    r = verify_claim("OMEGA_E", {"sign": sign, "p": p, "m": m, "n": n})
                    assert r.paper_match, (sign, n, m, p)


def test_reflection_verifies_same_sign():
    for sign in "+-":
        for n, m, eta in ((0, 0, 0), (1, 2, -1), (3, -2, 2)):
            r = verify_claim("REFLECT", {"n": n, "m": m, "eta": eta, "sign": sign})
            assert r.params["matched_sign"] == sign
            assert not r.paper_match  # the stated form flips the sign
            assert not expectation_met(r)


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
                a = family_E("+", p, m, n)
                b = family_E("+", p, m, -k - 1)
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
        assert v.num == {(eq, eu): c} and v.den == 1
        assert one_term(c, eq, eu) is v
