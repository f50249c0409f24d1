"""Claim verification with exact residuals and discrepancy reporting.

Every check computes the engine-derived object from first principles,
classifies it (exact zero / central value / residual), and diffs it against
the stated value kept as a literal fixture.  The report is the deliverable:
stated values are never assumed correct, and a mismatch is recorded, not
patched over.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable

from .elements import Element, Monomial, el_mul, omega, project_x_free, xminus, xplus
from .coeff import u_pow
from .family import (
    SIGNS,
    _sgn,
    central_c,
    expand_general_commutator,
    expand_specialized_commutator,
    family_E,
    family_E_neg,
    general_display_fixture,
)
from .rewrite import RelationMode, deformed_commutator, normal_form

EXACT_ZERO, CENTRAL, RESIDUAL = "exact_zero", "central", "residual"
CONVENTIONS = ("literal", "matching")


class RegimeError(ValueError):
    """Parameters outside the index regime a claim is stated for."""


@dataclass(frozen=True)
class Verdict:
    kind: str
    value: Element


def classify(el: Element) -> Verdict:
    """Exact zero, a pure gamma-power coefficient (hence central), or a
    nonzero residual."""
    if el.is_zero():
        return Verdict(EXACT_ZERO, el)
    if all(not m.word and m.kexp == 0 for m in el.terms):
        return Verdict(CENTRAL, el)
    return Verdict(RESIDUAL, el)


@dataclass
class VerdictReport:
    claim: str
    params: dict
    mode: RelationMode
    verdict: Verdict
    paper_match: bool
    paper_expected: Element
    discrepancy: Element


def _report(claim, params, mode, result, expected) -> VerdictReport:
    """The report on ``result``, which must be a normal form, against the
    stated value ``expected``.  When the stated value is zero, ``result``
    itself is the discrepancy: normal_form is idempotent, so normal-forming
    it again would give the same terms."""
    if expected.is_zero():
        disc = result
    else:
        disc = normal_form(result - expected, mode)
    return VerdictReport(
        claim=claim,
        params=params,
        mode=mode,
        verdict=classify(result),
        paper_match=disc.is_zero(),
        paper_expected=expected,
        discrepancy=disc,
    )


def _verify_ep_em(claim, params, mode):
    n, k, m, p = params["n"], params["k"], params["m"], params["p"]
    if n < 0 or k < 0:
        raise RegimeError(f"{claim} needs n, k >= 0, got n={n}, k={k}")
    if claim == "EP":
        sign = "+"
        if not n < k:
            raise RegimeError(f"EP is stated for n < k, got n={n}, k={k}")
    else:
        sign = "-"
        if not n > k:
            raise RegimeError(f"EM is stated for n > k, got n={n}, k={k}")
    a = family_E(sign, p, m, n)
    b = family_E(sign, p, m, -k - 1)
    result = deformed_commutator(a, b, p, mode)
    full = dict(params)
    full["sign"] = sign
    return _report(claim, full, mode, result, Element.zero())


def _verify_commc(params, mode):
    n, m, sign = params["n"], params["m"], params["sign"]
    convention = params["convention"]
    if n < 0:
        raise RegimeError(f"COMMC needs n >= 0, got {n}")
    if convention not in CONVENTIONS:
        raise RegimeError(f"unknown convention {convention!r}")
    p_fam = _sgn(sign)
    # literal: family subscript +-1 is paired with bracket exponent -+1;
    # matching: the bracket exponent equals the family's p
    b = -p_fam if convention == "literal" else p_fam
    a = family_E(sign, p_fam, m, n)
    c = family_E(sign, p_fam, m, -n - 1)
    result = deformed_commutator(a, c, b, mode)
    full = dict(params)
    full["p"] = p_fam
    full["bracket"] = b
    return _report("COMMC", full, mode, result, central_c(n, m, sign))


def _verify_omega_e(params, mode):
    n, m, p, sign = params["n"], params["m"], params["p"], params["sign"]
    if n < 0:
        raise RegimeError(f"OMEGA_E needs index n >= 0, got {n}")
    flip = "-" if sign == "+" else "+"
    result = normal_form(omega(family_E(sign, p, m, n)), mode)
    expected = el_mul(family_E(flip, p, m, -n - 1), Element.k_power(2 * p))
    return _report("OMEGA_E", dict(params), mode, result, expected)


def _verify_reflect(params, mode):
    n, m, eta, sign = params["n"], params["m"], params["eta"], params["sign"]
    if n < 0:
        raise RegimeError(f"REFLECT needs n >= 0, got {n}")
    s = _sgn(sign)
    # E_n with n formally replaced by -n-1: the gamma power flips sign
    substituted = Element(
        {
            Monomial((xplus(-n - 1),), m): u_pow(-s * (2 * n + 1)),
            Monomial((xminus(-n),), eta): u_pow(0),
        }
    )
    candidates = {
        sigma: family_E_neg(n, m, eta, sigma).scale(u_pow(-s * (2 * n + 1)))
        for sigma in SIGNS
    }
    full = dict(params)
    reports = {
        sigma: _report("REFLECT", full, mode, substituted, candidates[sigma])
        for sigma in SIGNS
    }
    matched = [sigma for sigma in SIGNS if reports[sigma].paper_match]
    full["matched_sign"] = matched[0] if len(matched) == 1 else None
    return reports["-" if sign == "+" else "+"]


def _verify_display1(params, mode):
    args = tuple(params[x] for x in ("n", "k", "m", "l", "eta", "theta", "p", "sign"))
    if args[0] < 0 or args[1] < 0:
        raise RegimeError("PROOF_DISPLAY_1 needs n, k >= 0")
    result = normal_form(expand_general_commutator(*args), mode)
    expected = general_display_fixture(*args)
    return _report("PROOF_DISPLAY_1", dict(params), mode, result, expected)


def _verify_display2(params, mode):
    n, k, m, p, sign = (params[x] for x in ("n", "k", "m", "p", "sign"))
    if n < 0 or k < 0:
        raise RegimeError("PROOF_DISPLAY_2 needs n, k >= 0")
    a = family_E(sign, p, m, n)
    b = family_E(sign, p, m, -k - 1)
    result = deformed_commutator(a, b, p, mode)
    expected = expand_specialized_commutator(n, k, m, p, sign)
    return _report("PROOF_DISPLAY_2", dict(params), mode, result, expected)


@dataclass(frozen=True)
class Claim:
    """One claim: its ``uqsl2 verify --claims`` name (None when the claim is
    not offered there), its check ``(params, mode) -> VerdictReport``, and
    its sweep grid (None when it is not sweepable).  A grid is a tuple of
    parameter names, each ranging over ``_axes``; ``keep`` drops the tuples
    outside the claim's index regime."""

    cli_name: str | None
    check: Callable
    grid: tuple | None = None
    keep: Callable | None = None


CLAIMS = {
    "EP": Claim(
        "ep", partial(_verify_ep_em, "EP"), ("n", "k", "m", "p"), lambda t: t["n"] < t["k"]
    ),
    "EM": Claim(
        "em", partial(_verify_ep_em, "EM"), ("n", "k", "m", "p"), lambda t: t["n"] > t["k"]
    ),
    "COMMC": Claim("commc", _verify_commc, ("n", "m", "sign", "convention")),
    "OMEGA_E": Claim("omega", _verify_omega_e, ("n", "m", "p", "sign")),
    "REFLECT": Claim("reflect", _verify_reflect, ("n", "m", "eta", "sign")),
    "PROOF_DISPLAY_1": Claim(None, _verify_display1),
    "PROOF_DISPLAY_2": Claim(None, _verify_display2),
}


def verify_claim(
    claim: str, params: dict, mode: RelationMode = RelationMode.FULL
) -> VerdictReport:
    """Check one claim instance exactly and report the verdict, the stated
    value, and the normal-formed discrepancy between the two."""
    entry = CLAIMS.get(claim)
    if entry is None:
        raise ValueError(f"unknown claim {claim!r}")
    return entry.check(params, mode)


def expectation_met(report: VerdictReport) -> bool:
    """Success rule used for exit codes, the same in full mode (the
    default) and in Strict mode.

    EP/EM state that the bracket is 0, and it is not: in U_q(sl2-hat), that
    is in full mode, the residual is a nonzero sum of same-sign x pairs
    whose coefficients all vanish at q = 1; in Strict mode the same-sign x
    words stay unreduced.  The rule checks what holds in both: the residual
    has no x-free term.  No q-commutator repairs EP in full mode either: for
    (n,k) in {(0,1),(0,2),(1,2),(1,3)} and m, p in {-1,0,1}, no exponent
    p' in [-3,3] and no scalar lam make a K^p' b - lam b K^p' a vanish.
    All other claims are in-or-out comparisons against the stated value.
    """
    if report.claim in ("EP", "EM"):
        return project_x_free(report.verdict.value).is_zero()
    return report.paper_match


def _axes(cfg: dict) -> dict:
    ms = range(cfg["m_range"][0], cfg["m_range"][1] + 1)
    return {
        "n": range(cfg["n_max"] + 1),
        "k": range(cfg["k_max"] + 1),
        "m": ms,
        "eta": ms,
        "p": range(cfg["p_range"][0], cfg["p_range"][1] + 1),
        "sign": SIGNS,
        "convention": CONVENTIONS,
    }


def sweep_params(claim: str, cfg: dict):
    """The parameter dicts of one claim's sweep over inclusive ranges, in
    sweep order: the claim's grid with its last parameter varying fastest.

    cfg keys: n_max, k_max, m_range=(lo, hi), p_range=(lo, hi).
    """
    entry = CLAIMS.get(claim)
    if entry is None or entry.grid is None:
        raise ValueError(f"claim {claim!r} is not sweepable")
    axes = _axes(cfg)
    for values in product(*(axes[name] for name in entry.grid)):
        params = dict(zip(entry.grid, values))
        if entry.keep is None or entry.keep(params):
            yield params


def sweep_claim(claim: str, cfg: dict, mode: RelationMode) -> list:
    """All reports for one claim over the ranges of ``cfg``, in the order
    of ``sweep_params``."""
    return [verify_claim(claim, params, mode) for params in sweep_params(claim, cfg)]
