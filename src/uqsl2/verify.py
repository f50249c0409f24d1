"""Claim verification with exact residuals and discrepancy reporting.

A claim is one row of ``CLAIMS``, a claim that ``uqsl2 verify`` sweeps:
its instance, its index regime and its sweep grid.  ``verify_claim`` is the
one path that checks any of them: it refuses params outside the row's
regime, computes the engine-derived object from first principles,
classifies it (exact zero / central value / residual), and diffs it against
the stated value kept as a literal fixture.  Every stated value is a normal
form already, so the discrepancy is the plain difference.  The report is
the deliverable: stated values are never assumed correct, and a mismatch is
recorded, not patched over.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from itertools import product

from .elements import AGEN, Element, Monomial, el_mul, omega, xminus, xplus
from .coeff import u_pow
from .family import SIGNS, _sgn, central_c, family_E, family_E_neg
from .rewrite import RelationMode, deformed_commutator, normal_form

EXACT_ZERO, CENTRAL, RESIDUAL = "exact_zero", "central", "residual"
CONVENTIONS = ("literal", "matching")


class RegimeError(ValueError):
    """Parameters outside the index regime a claim is stated for."""


Verdict = namedtuple("Verdict", ("kind", "value"))


def classify(el: Element) -> Verdict:
    """Exact zero, a pure gamma-power coefficient (hence central), or a
    nonzero residual."""
    if el.is_zero():
        return Verdict(EXACT_ZERO, el)
    if all(not m.word and m.kexp == 0 for m in el.terms):
        return Verdict(CENTRAL, el)
    return Verdict(RESIDUAL, el)


VerdictReport = namedtuple(
    "VerdictReport",
    ("claim", "params", "mode", "verdict", "paper_match", "paper_expected", "discrepancy"),
)


def _bracket(sign, p, m, n, k, b, mode) -> Element:
    """[E^sign_(p,n)(m), E^sign_(p,-k-1)(m)]_{K^b}, normal-formed."""
    return deformed_commutator(family_E(sign, p, m, n), family_E(sign, p, m, -k - 1), b, mode)


def _ep_em(sign, t, mode):
    p = t["p"]
    return _bracket(sign, p, t["m"], t["n"], t["k"], p, mode), Element.zero(), {"sign": sign}


def _commc(t, mode):
    n, m, sign = t["n"], t["m"], t["sign"]
    p = _sgn(sign)
    # literal: family subscript +-1 is paired with bracket exponent -+1;
    # matching: the bracket exponent equals the family's p
    b = -p if t["convention"] == "literal" else p
    return _bracket(sign, p, m, n, n, b, mode), central_c(n, m, sign), {"p": p, "bracket": b}


def _omega_e(t, mode):
    n, m, p, sign = t["n"], t["m"], t["p"], t["sign"]
    flip = "-" if sign == "+" else "+"
    result = normal_form(omega(family_E(sign, p, m, n)), mode)
    return result, el_mul(family_E(flip, p, m, -n - 1), Element.k_power(2 * p)), {}


def _reflect(t, mode):
    n, m, eta, sign = t["n"], t["m"], t["eta"], t["sign"]
    gamma = u_pow(-_sgn(sign) * (2 * n + 1))
    # E_n with n formally replaced by -n-1: the gamma power flips sign
    substituted = Element(
        {Monomial((xplus(-n - 1),), m): gamma, Monomial((xminus(-n),), eta): u_pow(0)}
    )
    candidates = {sigma: family_E_neg(n, m, eta, sigma).scale(gamma) for sigma in SIGNS}
    # both sides are single-letter normal forms, so equal terms is equal values
    matched = [sigma for sigma in SIGNS if candidates[sigma] == substituted]
    stated = candidates["-" if sign == "+" else "+"]
    return substituted, stated, {"matched_sign": matched[0] if len(matched) == 1 else None}


class Claim(namedtuple("Claim", ("cli_name", "instance", "regime", "regime_text", "grid"))):
    """One claim, whole: its ``uqsl2 verify --claims`` name ``cli_name``;
    its ``instance(params, mode)``, which returns (the engine's value, the
    stated value, the params it adds to the report), both values in normal
    form; the index regime the claim is stated for, as a predicate
    ``regime`` on the params and as ``regime_text``; and its sweep
    ``grid``, a tuple of parameter names, each ranging over ``_axes``,
    whose tuples outside the regime the sweep skips.  A claim is
    immutable: a variant is ``claim._replace(instance=...)``."""

    __slots__ = ()


CLAIMS = {
    "EP": Claim(
        "ep", partial(_ep_em, "+"), lambda t: 0 <= t["n"] < t["k"], "0 <= n < k",
        ("n", "k", "m", "p"),
    ),
    "EM": Claim(
        "em", partial(_ep_em, "-"), lambda t: 0 <= t["k"] < t["n"], "0 <= k < n",
        ("n", "k", "m", "p"),
    ),
    "COMMC": Claim(
        "commc", _commc, lambda t: t["n"] >= 0 and t["convention"] in CONVENTIONS,
        f"n >= 0 and a convention in {CONVENTIONS}", ("n", "m", "sign", "convention"),
    ),
    "OMEGA_E": Claim(
        "omega", _omega_e, lambda t: t["n"] >= 0, "n >= 0", ("n", "m", "p", "sign")
    ),
    "REFLECT": Claim(
        "reflect", _reflect, lambda t: t["n"] >= 0, "n >= 0", ("n", "m", "eta", "sign")
    ),
}


def verify_claim(
    claim: str, params: dict, mode: RelationMode = RelationMode.FULL
) -> VerdictReport:
    """Check one claim instance exactly and report the verdict, the stated
    value, and the normal-formed discrepancy between the two; raise
    RegimeError for params outside the claim's regime."""
    entry = CLAIMS.get(claim)
    if entry is None:
        raise ValueError(f"unknown claim {claim!r}")
    if not entry.regime(params):
        raise RegimeError(f"{claim} is stated for {entry.regime_text}, got {params}")
    result, expected, added = entry.instance(params, mode)
    # both are normal forms, so their difference is one; when the stated
    # value is zero, the result is itself the discrepancy
    disc = result if expected.is_zero() else result - expected
    return VerdictReport(
        claim=claim,
        params={**params, **added},
        mode=mode,
        verdict=classify(result),
        paper_match=disc.is_zero(),
        paper_expected=expected,
        discrepancy=disc,
    )


def expectation_met(report: VerdictReport) -> bool:
    """Success rule used for exit codes, the same in full mode (the
    default) and in Strict mode.

    EP/EM state that the bracket is 0, and it is not: in U_q(sl2-hat), that
    is in full mode, the residual is a nonzero sum of same-sign x pairs
    whose coefficients all vanish at q = 1; in Strict mode the same-sign x
    words stay unreduced.  The rule checks what holds in both: the residual
    has no x-free term, that is every term's word has an x letter.  No
    q-commutator repairs EP in full mode either: for (n,k) in
    {(0,1),(0,2),(1,2),(1,3)} and m, p in {-1,0,1}, no exponent p' in
    [-3,3] and no scalar lam make a K^p' b - lam b K^p' a vanish.
    All other claims are in-or-out comparisons against the stated value.
    """
    if report.claim in ("EP", "EM"):
        return all(
            any(g.kind != AGEN for g in mono.word) for mono in report.verdict.value.terms
        )
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
    entry = CLAIMS[claim]
    axes = _axes(cfg)
    for values in product(*(axes[name] for name in entry.grid)):
        params = dict(zip(entry.grid, values))
        if entry.regime(params):
            yield params
