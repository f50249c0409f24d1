"""Acceptance suite: one test per criterion, each printing a pass/fail line
with its runtime against the stated budget.  Everything asserted here is an
exact (zero-tolerance) statement."""

import json
import random
import time

from uqsl2.coeff import qint, qminus, u_pow
from uqsl2.currents import phi, psi
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
    central_c,
    expand_general_commutator,
    expand_specialized_commutator,
    family_E_neg,
    family_E_pos,
)
from uqsl2.rewrite import RelationMode, deformed_commutator, normal_form
from uqsl2.verify import verify_claim

from helpers import (
    is_central,
    is_same_sign_residual,
    json_to_element,
    oracle_current,
    project_x_free,
    rand_element,
    rand_word,
    random_order_normal_form,
    relation_instances,
)

S = RelationMode.STRICT
F = RelationMode.FULL


def _report(num, desc, t0, limit, ok):
    elapsed = time.perf_counter() - t0
    in_time = elapsed < limit
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[{status}] criterion {num}: {desc} ({elapsed:.1f}s / limit {limit}s)")
    assert ok, f"criterion {num} failed"
    assert in_time, f"criterion {num} exceeded {limit}s ({elapsed:.1f}s)"


def test_criterion_1_rewriting_soundness():
    t0 = time.perf_counter()
    g = Element.from_gen
    K, KINV = Element.k_power(1), Element.k_power(-1)
    ok = normal_form(el_mul(g(agen(1)), g(xplus(0))), S) == el_mul(
        g(xplus(0)), g(agen(1))
    ) + g(xplus(1)).scale(qint(2) * u_pow(-1))
    ok = ok and normal_form(el_mul(g(agen(1)), g(agen(-1))), S) == el_mul(
        g(agen(-1)), g(agen(1))
    ) + Element.from_coeff(qint(2) * (u_pow(2) - u_pow(-2)) / qminus())
    ok = ok and normal_form(el_mul(g(xminus(0)), g(xplus(0))), S) == el_mul(
        g(xplus(0)), g(xminus(0))
    ) - (K - KINV).scale(qminus().inv())

    rng = random.Random(20240)
    count = 0
    for _ in range(500):
        w = rand_word(rng, max_len=6, max_idx=3)
        e = Element.from_monomial(Monomial(w, 0))
        for mode in (S, F):
            det = normal_form(e, mode)
            r1 = random_order_normal_form(e, mode, random.Random(count * 2 + 1))
            r2 = random_order_normal_form(e, mode, random.Random(count * 2 + 2))
            ok = ok and det == r1 == r2
            count += 1
        if not ok:
            break
    _report(1, "rewrite rules exact, diamond on 500 words in both modes", t0, 60, ok)


def test_criterion_2_currents():
    t0 = time.perf_counter()
    ok = psi(0) == Element.k_power(1) and phi(0) == Element.k_power(-1)
    ok = ok and all(psi(m).is_zero() for m in range(-6, 0))
    ok = ok and all(phi(m).is_zero() for m in range(1, 7))
    for m in range(-6, 7):
        ok = ok and psi(m) == oracle_current(m, upper=True)
        ok = ok and phi(m) == oracle_current(m, upper=False)
    _report(2, "psi/phi boundaries, vanishing, series oracle |m| <= 6", t0, 10, ok)


def test_criterion_3_ep_em_sweep():
    # the finding: EP/EM are false in U_q(sl2-hat).  In full mode every
    # bracket is a nonzero sum of same-sign pairs with no x-free term, and
    # every coefficient vanishes at q = 1; in Strict mode the same-sign words
    # stay unreduced and the residual has no x-free term either
    t0 = time.perf_counter()
    ok = True
    count = 0
    for m in range(-2, 3):
        for p in range(-2, 3):
            for n in range(0, 5):
                for k in range(0, 5):
                    if n == k:
                        continue
                    claim = "EP" if n < k else "EM"
                    params = {"n": n, "k": k, "m": m, "p": p}
                    r_f = verify_claim(claim, params, F)
                    r_s = verify_claim(claim, params, S)
                    ok = ok and r_f.verdict.kind == "residual"
                    ok = ok and is_same_sign_residual(r_f.verdict.value)
                    ok = ok and project_x_free(r_s.verdict.value).is_zero()
                    count += 1
            if not ok:
                break
    ok = ok and count == 500
    _report(3, "EP/EM sweeps n,k <= 4, m,p in [-2,2]: same-sign residual vanishing at q = 1 in full, x-only residual in Strict", t0, 300, ok)


def test_criterion_4_proof_display_consistency():
    t0 = time.perf_counter()
    ok = True
    rng = random.Random(4242)
    kp_cache = {p: Element.k_power(p) for p in range(-2, 3)}
    subsample = []
    for sign in "+-":
        for n in range(0, 4):
            for k in range(0, 4):
                for m in range(-2, 3):
                    for l in range(-2, 3):
                        for eta in range(-2, 3):
                            for theta in range(-2, 3):
                                for p in range(-2, 3):
                                    a = family_E_pos(n, m, eta, sign)
                                    b = family_E_neg(k, l, theta, sign)
                                    kp = kp_cache[p]
                                    raw = el_mul(el_mul(a, kp), b) - el_mul(
                                        el_mul(b, kp), a
                                    )
                                    exp = expand_general_commutator(
                                        n, k, m, l, eta, theta, p, sign
                                    )
                                    if raw != exp:
                                        ok = False
                                    elif rng.random() < 0.003:
                                        subsample.append((a, b, p, exp))
        if not ok:
            break
    # the raw products agree term by term, so the normal forms agree in any
    # mode; exercise the documented operation on a subsample anyway
    for a, b, p, exp in subsample:
        for mode in (S, F):
            ok = ok and deformed_commutator(a, b, p, mode) == normal_form(exp, mode)
    # specialized closed form vanishes in the stated regimes
    for m in range(-2, 3):
        for p in range(-2, 3):
            for n in range(0, 4):
                for k in range(0, 4):
                    if n < k:
                        ok = ok and normal_form(
                            expand_specialized_commutator(n, k, m, p, "+"), S
                        ).is_zero()
                    elif n > k:
                        ok = ok and normal_form(
                            expand_specialized_commutator(n, k, m, p, "-"), S
                        ).is_zero()
    _report(4, "bracket expansion agrees with products; specialized form vanishes in regime", t0, 300, ok)


def test_criterion_5_commc_reporting():
    t0 = time.perf_counter()
    ok = True
    flagged = False
    for n in range(0, 5):
        for m in range(-2, 3):
            for sign in "+-":
                for convention in ("literal", "matching"):
                    params = {"n": n, "m": m, "sign": sign, "convention": convention}
                    r1 = verify_claim("COMMC", params, F)
                    r2 = verify_claim("COMMC", params, F)
                    ok = ok and r1.verdict == r2.verdict
                    ok = ok and r1.paper_match == r2.paper_match
                    ok = ok and r1.discrepancy == r2.discrepancy
                    if not r1.paper_match:
                        flagged = True
                ok = ok and is_central(central_c(n, m, sign), F)
    # the gamma-exponent discrepancy against the stated c+ must be flagged
    # under at least one convention
    ok = ok and flagged
    _report(5, "COMMC reports deterministic, central fixtures central, discrepancy flagged", t0, 120, ok)


def test_criterion_6_omega():
    t0 = time.perf_counter()
    rng = random.Random(606)
    ok = all((lambda e: omega(omega(e)) == e)(rand_element(rng)) for _ in range(200))
    ok = ok and all(normal_form(omega(rel), F).is_zero() for rel in relation_instances(3))
    for p in (0, 1):
        for n in (0, 1):
            ok = ok and verify_claim("OMEGA_E", {"sign": "+", "p": p, "m": 0, "n": n}).paper_match
    for sign in "+-":
        for n in range(0, 5):
            for m in range(-2, 3):
                for p in range(-2, 3):
                    r = verify_claim("OMEGA_E", {"sign": sign, "p": p, "m": m, "n": n})
                    ok = ok and r.paper_match
    _report(6, "omega involution, relation preservation, family identity sweep", t0, 60, ok)


def test_criterion_7_parser_serialization():
    t0 = time.perf_counter()
    from uqsl2.expr import evaluate
    from uqsl2.render import print_element
    from uqsl2.cli import main
    import contextlib, io

    rng = random.Random(707)
    ok = True
    for _ in range(200):
        e = rand_element(rng)
        ok = ok and evaluate(print_element(e, "text")) == e
        ok = ok and json_to_element(json.loads(print_element(e, "json"))) == e

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            return main(argv)

    base = ["--n-max", "1", "--k-max", "2", "--m-range", "0:0", "--p-range", "0:0"]
    ok = ok and run(["verify", "--claims", "ep", "--mode", "full", *base]) == 0
    ok = ok and run(["verify", "--claims", "commc", "--mode", "full", *base]) == 1
    ok = ok and run(["verify", "--claims", "ep", "--n-max", "2", "--k-max", "0"]) == 2
    _report(7, "round-trips on 200 random elements, exit-code contract", t0, 30, ok)
