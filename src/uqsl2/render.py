"""Printers and serialization for elements.

Text output parses back through expr.parse; JSON follows the schema
{"terms":[{"coeff":{"num":...,"den":...},"word":[{"g":"x+","k":0},...],
"kexp":0},...]} with polynomials as canonical text.  In human-facing text
even powers of u print as powers of gamma; JSON keeps raw u powers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .coeff import P_ONE, LaurentPoly, RatFunc, _is_one
from .elements import (
    AGEN,
    XMINUS,
    XPLUS,
    Element,
    Gen,
    Monomial,
)
from . import expr as _expr

_GEN_TEXT = {XPLUS: "x+", XMINUS: "x-", AGEN: "a"}
_GEN_FROM_TEXT = {"x+": XPLUS, "x-": XMINUS, "a": AGEN}


@dataclass(frozen=True)
class _Style:
    """Spelling of one output format.  ``power``, ``gen``, ``paren`` and
    ``frac`` are str.format templates; ``gamma`` is None where even u powers
    stay u powers; ``frac_parens`` parenthesizes a composite numerator or
    denominator inside ``frac``."""

    power: str
    join: str
    gamma: str | None
    gen: dict
    paren: str
    frac: str
    frac_parens: bool


_TEXT = _Style(
    power="{}^{}",
    join="*",
    gamma="gamma",
    gen={XPLUS: "x+[{}]", XMINUS: "x-[{}]", AGEN: "a[{}]"},
    paren="({})",
    frac="{}/{}",
    frac_parens=True,
)
_TEXT_U = replace(_TEXT, gamma=None)
_LATEX = _Style(
    power="{}^{{{}}}",
    join=" ",
    gamma="\\gamma",
    gen={XPLUS: "x^{{+}}_{{{}}}", XMINUS: "x^{{-}}_{{{}}}", AGEN: "a_{{{}}}"},
    paren="\\left({}\\right)",
    frac="\\frac{{{}}}{{{}}}",
    frac_parens=False,
)
_STYLES = {"text": _TEXT, "latex": _LATEX}


def _pow(st: _Style, base: str, e: int) -> str:
    return base if e == 1 else st.power.format(base, e)


def _poly(p: LaurentPoly, st: _Style) -> str:
    if p is P_ONE:
        # the denominator of every polynomial coefficient
        return "1"
    if p.is_zero():
        return "0"
    out = []
    for (eq, eu), c in sorted(p.terms.items(), reverse=True):
        bits = []
        if eq:
            bits.append(_pow(st, "q", eq))
        if eu:
            if st.gamma and eu % 2 == 0:
                bits.append(_pow(st, st.gamma, eu // 2))
            else:
                bits.append(_pow(st, "u", eu))
        mag = abs(c)
        if mag != 1 or not bits:
            bits = [str(mag)] + bits
        body = st.join.join(bits)
        if not out:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out)


def poly_text(p: LaurentPoly, use_gamma: bool = True) -> str:
    return _poly(p, _TEXT if use_gamma else _TEXT_U)


def _coeff(rf: RatFunc, st: _Style) -> str:
    """Coefficient as a term factor: a composite one is grouped."""
    num = _poly(rf.num, st)
    whole = _is_one(rf.den)
    if len(rf.num.terms) > 1 and (whole or st.frac_parens):
        num = st.paren.format(num)
    if whole:
        return num
    den = _poly(rf.den, st)
    if len(rf.den.terms) > 1 and st.frac_parens:
        den = st.paren.format(den)
    return st.frac.format(num, den)


def _word(mono: Monomial, st: _Style) -> str:
    bits = [st.gen[g.kind].format(g.idx) for g in mono.word]
    if mono.kexp:
        bits.append(_pow(st, "K", mono.kexp))
    return st.join.join(bits)


def _element(e: Element, st: _Style) -> str:
    if e.is_zero():
        return "0"
    parts = []
    for mono, c in e.sorted_terms():
        c = c.canonical()
        word = _word(mono, st)
        if not word:
            parts.append(_coeff(c, st))
        elif c.is_one():
            parts.append(word)
        elif (-c).is_one():
            parts.append("-" + word)
        else:
            parts.append(_coeff(c, st) + st.join + word)
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def element_text(e: Element) -> str:
    return _element(e, _TEXT)


# --- JSON --------------------------------------------------------------


def element_to_obj(e: Element) -> dict:
    terms = []
    for mono, c in e.sorted_terms():
        c = c.canonical()
        terms.append(
            {
                "coeff": {
                    "num": poly_text(c.num, use_gamma=False),
                    "den": poly_text(c.den, use_gamma=False),
                },
                "word": [{"g": _GEN_TEXT[g.kind], "k": g.idx} for g in mono.word],
                "kexp": mono.kexp,
            }
        )
    return {"terms": terms}


def element_json(e: Element) -> str:
    return json.dumps(element_to_obj(e), separators=(",", ":"))


def _poly_from_text(text: str) -> LaurentPoly:
    el = _expr.eval_ast(_expr.parse(text))
    if el.is_zero():
        return LaurentPoly()
    if len(el.terms) != 1:
        raise ValueError(f"not a polynomial: {text!r}")
    mono, c = next(iter(el.terms.items()))
    if mono != Monomial((), 0) or not _is_one(c.den):
        raise ValueError(f"not a polynomial: {text!r}")
    return c.num


def element_from_obj(obj: dict) -> Element:
    terms = {}
    for t in obj["terms"]:
        num = _poly_from_text(t["coeff"]["num"])
        den = _poly_from_text(t["coeff"]["den"])
        word = tuple(Gen(_GEN_FROM_TEXT[g["g"]], g["k"]) for g in t["word"])
        mono = Monomial(word, t["kexp"])
        coeff = RatFunc.make(num, den)
        acc = terms.get(mono)
        terms[mono] = coeff if acc is None else acc + coeff
    return Element(terms)


def element_from_json(s: str) -> Element:
    return element_from_obj(json.loads(s))


def print_element(e: Element, format: str = "text") -> str:
    """Deterministic rendering in the requested format; text output parses
    back to an equal element."""
    if format == "json":
        return element_json(e)
    style = _STYLES.get(format)
    if style is None:
        raise ValueError(f"unknown format {format!r}")
    return _element(e, style)
