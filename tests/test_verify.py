import pytest

from uqsl2.coeff import q_pow, qminus, u_pow
from uqsl2.elements import Element, project_x_free
from uqsl2.family import FamilyParams
from uqsl2.rewrite import RelationMode
from uqsl2.verify import (
    RegimeError,
    check_index_reflection_identity,
    check_omega_family_identity,
    classify,
    expectation_met,
    sweep_claim,
    verify_claim,
)

S = RelationMode.STRICT
AX = RelationMode.ABELIAN_X


def test_classify():
    assert classify(Element.zero()).kind == "exact_zero"
    assert classify(Element.from_coeff(u_pow(2))).kind == "central"
    assert classify(Element.k_power(1)).kind == "residual"


def test_ep_base_case_abelianx():
    r = verify_claim("EP", {"n": 0, "k": 1, "m": 0, "p": 0}, AX)
    assert r.verdict.kind == "exact_zero"
    assert r.paper_match
    assert expectation_met(r)


def test_ep_base_case_strict_residual():
    r = verify_claim("EP", {"n": 0, "k": 1, "m": 0, "p": 0}, S)
    assert r.verdict.kind == "residual"
    assert project_x_free(r.verdict.value).is_zero()
    assert not r.paper_match
    assert expectation_met(r)


def test_regime_errors():
    with pytest.raises(RegimeError):
        verify_claim("EP", {"n": 1, "k": 1, "m": 0, "p": 0}, AX)
    with pytest.raises(RegimeError):
        verify_claim("EM", {"n": 0, "k": 2, "m": 0, "p": 0}, AX)
    with pytest.raises(RegimeError):
        verify_claim("COMMC", {"n": -1, "m": 0, "sign": "+", "convention": "literal"}, AX)
    with pytest.raises(RegimeError):
        verify_claim("COMMC", {"n": 0, "m": 0, "sign": "+", "convention": "bogus"}, AX)


def test_em_mirror():
    r = verify_claim("EM", {"n": 3, "k": 1, "m": -1, "p": 2}, AX)
    assert r.verdict.kind == "exact_zero"
    r = verify_claim("EM", {"n": 3, "k": 1, "m": -1, "p": 2}, S)
    assert project_x_free(r.verdict.value).is_zero()


def test_commc_literal_is_residual():
    r = verify_claim("COMMC", {"n": 0, "m": 0, "sign": "+", "convention": "literal"}, AX)
    assert r.verdict.kind == "residual"
    assert not r.paper_match
    assert r.params["bracket"] == -1 and r.params["p"] == 1


def test_commc_matching_is_central_but_differs():
    # engine value: q^(-2(m+1)) (gamma^(3n+1) - gamma^(-n-1)) / (q - q^-1)
    for n, m in ((0, 0), (2, 1), (4, -2)):
        r = verify_claim("COMMC", {"n": n, "m": m, "sign": "+", "convention": "matching"}, AX)
        assert r.verdict.kind == "central"
        want = Element.from_coeff(
            q_pow(-2 * (m + 1)) * (u_pow(2 * (3 * n + 1)) - u_pow(-2 * (n + 1))) / qminus()
        )
        assert r.verdict.value == want
        assert not r.paper_match  # differs from the stated c+ in prefactor and exponent
    for n, m in ((0, 0), (1, 2)):
        r = verify_claim("COMMC", {"n": n, "m": m, "sign": "-", "convention": "matching"}, AX)
        assert r.verdict.kind == "central"
        want = Element.from_coeff(
            q_pow(-2 * (m - 1)) * (u_pow(2 * (n + 1)) - u_pow(-2 * (3 * n + 1))) / qminus()
        )
        assert r.verdict.value == want
        assert not r.paper_match


def test_commc_reports_are_deterministic():
    params = {"n": 1, "m": -1, "sign": "-", "convention": "literal"}
    a = verify_claim("COMMC", params, AX)
    b = verify_claim("COMMC", params, AX)
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
    # in the vanishing regime both sides are zero, so the report matches
    r = verify_claim("PROOF_DISPLAY_2", {"n": 0, "k": 2, "m": 0, "p": 1, "sign": "+"}, AX)
    assert r.verdict.kind == "exact_zero"
    assert r.paper_match
    # at n = k the printed overall K-power disagrees with the derived one
    r = verify_claim("PROOF_DISPLAY_2", {"n": 1, "k": 1, "m": 0, "p": 1, "sign": "+"}, AX)
    assert not r.paper_match


def test_sweep_claim_shapes():
    cfg = {"n_max": 1, "k_max": 2, "m_range": (0, 0), "p_range": (0, 0)}
    reports = sweep_claim("EP", cfg, AX)
    assert [(r.params["n"], r.params["k"]) for r in reports] == [(0, 1), (0, 2), (1, 2)]
    reports = sweep_claim("EM", cfg, AX)
    assert [(r.params["n"], r.params["k"]) for r in reports] == [(1, 0)]
    reports = sweep_claim("COMMC", {"n_max": 0, "k_max": 0, "m_range": (0, 0), "p_range": (0, 0)}, AX)
    assert len(reports) == 4  # both signs x both conventions

    # full parameter order of every sweepable claim
    cfg = {"n_max": 1, "k_max": 2, "m_range": (0, 1), "p_range": (-1, 0)}
    ms, ps, ns = (0, 1), (-1, 0), (0, 1)

    def order(claim, keys):
        return [tuple(r.params[x] for x in keys) for r in sweep_claim(claim, cfg, AX)]

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
