"""A small expression language over the algebra, read and evaluated in one
pass.

Grammar (whitespace-insensitive):

    expr    := ["+"|"-"] term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := atom ("^" int)?
    atom    := gen "[" int "]" | name | int | "(" expr ")" | call "(" args ")"
    args    := slot ("," slot)*
    slot    := "+" | "-" | int | expr

A gen is a spelling of ``elements.GEN_NAMES`` (x+, x-, a), a name a key of
``NAMES`` (K, gamma, u, q) and a call a key of ``CALLS``, which also names
the kind of each of a call's slots: a sign, an integer or an element.  An
int is a decimal literal, signed where "^", an index or a slot reads it.
"/" requires an invertible right operand: one bare K-power term whose
coefficient is c q^a u^b (q - q^-1)^k, c a nonzero integer, the only
denominators the algebra makes.  So 1/2, 1/(q^2 - 1) and x+[0]/(3*u)
work, and 1/(q + 1) is an error.

This module is the one reader of text in the package, and ``evaluate``
the one way from text to an Element; the JSON output is for other
programs, and no code of the package reads it back.  Each production of
the parser returns the Element it denotes as soon as it has read it, so
no syntax tree is built, and of two faults in one text the first in
reading order is reported.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .coeff import RatFunc, q_pow, u_pow
from .currents import phi as phi_el
from .currents import psi as psi_el
from .elements import AGEN, GEN_KINDS, Element, Gen, Monomial, el_mul, omega
from .family import central_c, family_E
from .rewrite import RelationMode, deformed_commutator, normal_form


class ParseError(ValueError):
    def __init__(self, message: str, offset: int, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = tuple(expected)


class EvalError(ValueError):
    pass


# --- Lexer -------------------------------------------------------------

# optional whitespace, then one token: an integer, a name (a generator
# spelling such as x+ is one only before "[", spaces allowed between, and is
# tried first) or an operator; any other character is an error
_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>(?:%s)(?=\s*\[)|[^\W\d_]+)|(?P<op>[-+*/^()[\],])|(?P<bad>\S))"
    % "|".join(map(re.escape, GEN_KINDS))
)


def _tokenize(text: str):
    """The (kind, text, offset) tokens of ``text``, then an "end" token."""
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        toks.append((kind, m[kind], m.start(kind)))
    toks.append(("end", "", len(text)))
    return toks


def _int(digits: str) -> int:
    """The integer a run of decimal digits spells, the inverse of
    ``render._digits``.  Past the interpreter's limit on str-to-int
    conversion ``int`` refuses, and the value is built from blocks of 4,000
    digits."""
    try:
        return int(digits)
    except ValueError:
        n = 0
        for i in range(0, len(digits), 4000):
            block = digits[i : i + 4000]
            n = n * 10 ** len(block) + int(block)
        return n


# --- Parser ------------------------------------------------------------


class _Parser:
    """Reads the tokens of one text; each ``parse_*`` method returns the
    value of what it reads, calls evaluated in ``mode``."""

    def __init__(self, text: str, mode: RelationMode):
        self.toks = _tokenize(text)
        self.i = 0
        self.mode = mode

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        self.i += 1

    def take_op(self, ops: str):
        """Read the next token if it is one of the operators ``ops`` and
        return its text; else read nothing and return None."""
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.advance()
            return text
        return None

    def fail(self, expected):
        kind, text, pos = self.peek()
        shown = text or "end of input"
        raise ParseError(f"expected {' or '.join(expected)}, found {shown!r}", pos, expected)

    def expect_op(self, ch):
        if not self.take_op(ch):
            self.fail((f"'{ch}'",))

    def parse_int(self) -> int:
        sign = -1 if self.take_op("+-") == "-" else 1
        kind, text, _ = self.peek()
        if kind != "int":
            self.fail(("integer",))
        self.advance()
        return sign * _int(text)

    def parse_expr(self) -> Element:
        out = Element.zero()
        op = self.take_op("+-") or "+"
        while op:
            v = self.parse_term()
            out = out + v if op == "+" else out - v
            op = self.take_op("+-")
        return out

    def parse_term(self) -> Element:
        out = Element.unit()
        op = "*"
        while op:
            v = self.parse_factor()
            out = el_mul(out, v if op == "*" else _invert(v))
            op = self.take_op("*/")
        return out

    def parse_factor(self) -> Element:
        atom = self.parse_atom()
        if self.take_op("^"):
            return _power(atom, self.parse_int())
        return atom

    def parse_atom(self) -> Element:
        kind, text, pos = self.peek()
        if kind == "int":
            self.advance()
            return Element.from_coeff(RatFunc.from_int(_int(text)))
        if self.take_op("("):
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "name":
            self.advance()
            if text in GEN_KINDS and self.take_op("["):
                idx = self.parse_int()
                self.expect_op("]")
                if GEN_KINDS[text] == AGEN and idx == 0:
                    raise EvalError("a[0] is not a generator")
                return Element.from_gen(Gen(GEN_KINDS[text], idx))
            if self.take_op("("):
                return self.parse_call(text)
            if text in NAMES:
                return NAMES[text]
            raise ParseError(f"unknown name {text!r}", pos, (*NAMES, "call"))
        self.fail(("atom",))

    def parse_call(self, name: str) -> Element:
        """The value of the call ``name(args)``, its "(" already read.  Each
        argument is read as the kind its slot names: a sign as one + or -
        token, an integer as a signed integer literal, an element as an
        expression."""
        spec = CALLS.get(name)
        if spec is None:
            raise EvalError(f"unknown function {name!r}")
        args = []
        for slot in spec.args:
            if args:
                self.expect_op(",")
            if slot == "sign":
                sign = self.take_op("+-")
                if sign is None:
                    self.fail(("sign",))
                args.append(sign)
            elif slot in ELEMENT_ARGS:
                args.append(self.parse_expr())
            else:
                args.append(self.parse_int())
        self.expect_op(")")
        return spec.fn(self.mode, *args)


def evaluate(text: str, mode: RelationMode = RelationMode.FULL) -> Element:
    """The Element ``text`` denotes; its calls normal-order in ``mode``."""
    p = _Parser(text, mode)
    value = p.parse_expr()
    kind, tok_text, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {tok_text!r}", pos, ("end of input",))
    return value


# --- Values ------------------------------------------------------------

# the constants: u is the central half-power and gamma = u^2
NAMES = {
    "K": Element.k_power(1),
    "gamma": Element.from_coeff(u_pow(2)),
    "u": Element.from_coeff(u_pow(1)),
    "q": Element.from_coeff(q_pow(1)),
}

# the argument names of a call that take an element
ELEMENT_ARGS = ("expr", "left", "right")


class CallSpec(namedtuple("CallSpec", ("help", "args", "fn"))):
    """A call of the language, which is also a CLI command: its help text,
    its argument names and a function of (mode, *arguments).  An argument
    named in ``ELEMENT_ARGS`` is an element, "sign" is a bare + or -, and
    any other is a signed integer literal; a name that begins with "--" is
    an option of the CLI command, defaulting to 0."""

    __slots__ = ()


CALLS = {
    "nf": CallSpec(
        "normal form of an expression", ("expr",), lambda mode, x: normal_form(x, mode)
    ),
    "comm": CallSpec(
        "commutator of two expressions",
        ("left", "right"),
        lambda mode, a, b: deformed_commutator(a, b, 0, mode),
    ),
    "dcomm": CallSpec(
        "K^p-deformed commutator",
        ("left", "right", "--p"),
        lambda mode, a, b, p: deformed_commutator(a, b, p, mode),
    ),
    "psi": CallSpec("current component psi_m", ("m",), lambda mode, m: psi_el(m)),
    "phi": CallSpec("current component phi_m", ("m",), lambda mode, m: phi_el(m)),
    "E": CallSpec(
        "family element E(sign, p, m, index)",
        ("sign", "p", "m", "index"),
        lambda mode, *params: family_E(*params),
    ),
    "c": CallSpec(
        "stated central value c(sign, n, m)",
        ("sign", "n", "m"),
        lambda mode, sign, n, m: central_c(n, m, sign),
    ),
    "omega": CallSpec("apply the automorphism omega", ("expr",), lambda mode, x: omega(x)),
}


def _invert(el: Element) -> Element:
    if el.is_zero():
        raise EvalError("division by zero element")
    if len(el.terms) != 1:
        raise EvalError("can only divide by a single-term element")
    mono, c = next(iter(el.terms.items()))
    if mono.word:
        raise EvalError("cannot divide by an element with generator words")
    try:
        return Element({Monomial((), -mono.kexp): c.inv()})
    except ValueError as err:
        raise EvalError(str(err)) from None


def _power(el: Element, n: int) -> Element:
    if n < 0:
        return _power(_invert(el), -n)
    # by squaring: at most 2 log2(n) + 2 products
    out = Element.unit()
    while n:
        if n & 1:
            out = el_mul(out, el)
        n >>= 1
        if n:
            el = el_mul(el, el)
    return out

