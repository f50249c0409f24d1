"""Printers and serialization for elements.

Text output reads back through expr.evaluate; JSON follows the schema
{"terms":[{"coeff":{"num":...,"den":...},"word":[{"g":"x+","k":0},...],
"kexp":0},...]} with polynomials as canonical text.  A coefficient stored as
num / (den (q - q^-1)^d), num an exponent dict and den an integer, prints
its display pair ``canonical()``: num q^d over den (q^2 - 1)^d.  In
human-facing text even powers of u print as powers of gamma; JSON keeps raw
u powers.

A ``Printer`` renders each distinct coefficient, keyed by its value, and
each distinct word once, and reuses the text.  Its memos are plain dicts
that live as long as the printer, and a caller makes one printer per
document, or per chunk of a ``verify`` sweep: the reports repeat a few
thousand coefficients and words tens of thousands of times, while a memo
kept for the whole process would hold every document's fragments, which
costs memory that nothing bounds or clears.

JSON fragments are built as strings, with no encoder call per fragment:
generator names and integers need no escaping, and neither does a
polynomial's text, whose alphabet is digits, q, u, ^, *, +, - and space.
So this module imports no ``json``.  The reference the JSON printer is
checked against, a JSON object built term by term and dumped by the
``json`` module, is ``element_to_obj`` in ``tests/helpers.py``.
"""

from __future__ import annotations

from collections import namedtuple

from .coeff import P_ONE, RatFunc
from .elements import AGEN, GEN_NAMES, XMINUS, XPLUS, Element, word_sort_key


class _Style(
    namedtuple("_Style", ("power", "join", "gamma", "gen", "paren", "frac", "frac_parens"))
):
    """Spelling of one output format.  ``power``, ``gen``, ``paren`` and
    ``frac`` are str.format templates; ``gamma`` is None where even u powers
    stay u powers; ``frac_parens`` parenthesizes a composite numerator or
    denominator inside ``frac``."""

    __slots__ = ()


_TEXT = _Style(
    power="{}^{}",
    join="*",
    gamma="gamma",
    gen={kind: name + "[{}]" for kind, name in GEN_NAMES.items()},
    paren="({})",
    frac="{}/{}",
    frac_parens=True,
)
_TEXT_U = _TEXT._replace(gamma=None)
_LATEX = _Style(
    power="{}^{{{}}}",
    join=" ",
    gamma="\\gamma",
    gen={XPLUS: "x^{{+}}_{{{}}}", XMINUS: "x^{{-}}_{{{}}}", AGEN: "a_{{{}}}"},
    paren="\\left({}\\right)",
    frac="\\frac{{{}}}{{{}}}",
    frac_parens=False,
)
# the output formats; JSON spells polynomials as text with raw u powers
FORMATS = {"text": _TEXT, "latex": _LATEX, "json": _TEXT_U}


def _pow(st: _Style, base: str, e: int) -> str:
    return base if e == 1 else st.power.format(base, e)


def _poly(p: dict, st: _Style) -> str:
    if p is P_ONE:
        # the denominator of every polynomial coefficient
        return "1"
    if not p:
        return "0"
    out = []
    for (eq, eu), c in sorted(p.items(), reverse=True):
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
            bits = [_digits(mag)] + bits
        body = st.join.join(bits)
        if not out:
            out.append(body if c > 0 else "-" + body)
        else:
            out.append(("+ " if c > 0 else "- ") + body)
    return " ".join(out)


def _digits(n: int) -> str:
    """The decimal digits of n >= 0.  Past the interpreter's limit on
    int-to-str conversion (4,300 digits by default) ``str`` refuses, and the
    digits are made by blocks of 4,000."""
    try:
        return str(n)
    except ValueError:
        block = 10**4000
        parts = []
        while n:
            n, r = divmod(n, block)
            parts.append(r)
        return str(parts.pop()) + "".join([str(r).zfill(4000) for r in reversed(parts)])


def _coeff(rf: RatFunc, st: _Style) -> str:
    """Coefficient as a term factor: a composite one is grouped."""
    num, den = rf.canonical()
    text = _poly(num, st)
    whole = den is P_ONE
    if len(num) > 1 and (whole or st.frac_parens):
        text = st.paren.format(text)
    if whole:
        return text
    den_text = _poly(den, st)
    if len(den) > 1 and st.frac_parens:
        den_text = st.paren.format(den_text)
    return st.frac.format(text, den_text)


def _signed(text: str) -> tuple:
    """A term that begins with ``text``, as the first term of a sum and as
    a later one."""
    if text.startswith("-"):
        return text, " - " + text[1:]
    return text, " + " + text


# --- JSON --------------------------------------------------------------

# the JSON of a generator up to its index, {"g":"x+","k":0} say
_JSON_GEN = {kind: '{"g":"' + name + '","k":' for kind, name in GEN_NAMES.items()}


class Printer:
    """Prints elements in one of the ``FORMATS``.

    A coefficient is rendered once per distinct value, the memo keyed on
    the ``RatFunc`` itself, from its display pair ``canonical()``; a word
    once per distinct tuple of generators, together with its
    ``word_sort_key``.  A JSON fragment is a string built from fixed
    pieces and text that needs no escaping (see ``_coeff_fragment``), so
    no fragment calls an encoder; a term is its coefficient's fragment, its
    word's and its K-power, which gives the bytes of
    ``json.dumps(element_to_obj(e), separators=(",", ":"))`` for the
    reference serializer ``element_to_obj`` of ``tests/helpers.py``.
    """

    __slots__ = ("_json", "_style", "_coeffs", "_words")

    def __init__(self, format: str = "text"):
        self._json = format == "json"
        self._style = FORMATS.get(format)
        if self._style is None:
            raise ValueError(f"unknown format {format!r}")
        self._coeffs = {}
        self._words = {}

    def element(self, e: Element) -> str:
        coeffs, words = self._coeffs, self._words
        terms = []
        for (word, kexp), c in e.terms.items():
            w = words.get(word)
            if w is None:
                w = words[word] = (word_sort_key(word), self._word_fragment(word))
            cf = coeffs.get(c)
            if cf is None:
                cf = coeffs[c] = self._coeff_fragment(c)
            terms.append((w[0], kexp, word, cf, w[1]))
        # the first three items (word_sort_key, K-power, word) are unique
        # per term, so the sort never compares fragments
        terms.sort()
        if self._json:
            return (
                '{"terms":['
                + ",".join([f'{cf}{wf},"kexp":{kexp}}}' for _, kexp, _, cf, wf in terms])
                + "]}"
            )
        if not terms:
            return "0"
        st = self._style
        out = []
        for _, kexp, _, cf, wf in terms:
            later = 1 if out else 0
            if kexp:
                k = _pow(st, "K", kexp)
                wf = wf + st.join + k if wf else k
            if wf:
                out += (cf[later], wf)
            else:
                out.append(cf[2 + later])
        return "".join(out)

    def _coeff_fragment(self, c: RatFunc):
        """JSON: the term's text up to its word.  The polynomial texts are
        quoted as they are: ``_poly`` writes only digits, q, u, ^, *, +, -
        and space, none of which JSON escapes.  Otherwise the lead and
        later prefixes of a term with a word, then the lead and later text
        of a term without one (see ``_signed``)."""
        st = self._style
        if self._json:
            num, den = c.canonical()
            num, den = _poly(num, st), _poly(den, st)
            return '{"coeff":{"num":"' + num + '","den":"' + den + '"},"word":'
        alone = _coeff(c, st)
        if c.is_one():
            prefix = ""
        elif (-c).is_one():
            prefix = "-"
        else:
            prefix = alone + st.join
        return _signed(prefix) + _signed(alone)

    def _word_fragment(self, word: tuple) -> str:
        if self._json:
            return "[" + ",".join([_JSON_GEN[g.kind] + str(g.idx) + "}" for g in word]) + "]"
        return self._style.join.join([self._style.gen[g.kind].format(g.idx) for g in word])


def print_element(e: Element, format: str = "text") -> str:
    """Deterministic rendering in the requested format; text output parses
    back to an equal element."""
    return Printer(format).element(e)
