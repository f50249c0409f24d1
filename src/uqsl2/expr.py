"""A small expression language over the algebra.

Grammar (whitespace-insensitive):

    expr    := ["+"|"-"] term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := atom ("^" int)?
    atom    := gen "[" int "]" | name | int | "(" expr ")" | call "(" args ")"
    args    := arg ("," arg)* ;  arg := expr | "+" | "-"

A gen is a spelling of ``elements.GEN_NAMES`` (x+, x-, a), a name a key of
``NAMES`` (K, gamma, u, q) and a call a key of ``CALLS``, which also lists
each call's arguments.  "/" requires an invertible right operand (an
element with a single bare K-power term), which also makes rational
literals like 1/2 work.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .coeff import RatFunc, q_pow, u_pow
from .currents import phi as phi_el
from .currents import psi as psi_el
from .elements import AGEN, GEN_KINDS, Element, Gen, Monomial, el_mul, omega
from .family import FamilyParams, central_c, family_E
from .rewrite import RelationMode, commutator, deformed_commutator, normal_form


class ParseError(ValueError):
    def __init__(self, message: str, offset: int, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = tuple(expected)


class EvalError(ValueError):
    pass


# --- AST ---------------------------------------------------------------


@dataclass(frozen=True)
class Sum:
    parts: tuple  # of (sign, node) with sign in {+1, -1}


@dataclass(frozen=True)
class Product:
    parts: tuple  # of (op, node) with op in {"*", "/"}; first op is "*"


@dataclass(frozen=True)
class Power:
    base: object
    exp: int


@dataclass(frozen=True)
class GenAtom:
    kind: str  # a key of GEN_KINDS
    idx: int


@dataclass(frozen=True)
class NameAtom:
    name: str  # a key of NAMES


@dataclass(frozen=True)
class RationalLiteral:
    value: Fraction


@dataclass(frozen=True)
class SignLit:
    sign: str


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple


# --- Lexer -------------------------------------------------------------

_PUNCT = "+-*/^()[],"


def _tokenize(text: str):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if text[i : i + 2] in GEN_KINDS and text[i + 2 : i + 3] == "[":
            # x+ and x- before '[' lex as names, as "a" does
            toks.append(("name", text[i : i + 2], i))
            i += 2
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _PUNCT:
            toks.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i, expected=())
    toks.append(("end", "", n))
    return toks


# --- Parser ------------------------------------------------------------


def _int(digits: str) -> int:
    """The integer a run of decimal digits spells.  Past the interpreter's
    limit on str-to-int conversion (4,300 digits by default) ``int``
    refuses, and the value is built from blocks of 4,000 digits."""
    try:
        return int(digits)
    except ValueError:
        n = 0
        for i in range(0, len(digits), 4000):
            block = digits[i : i + 4000]
            n = n * 10 ** len(block) + int(block)
        return n


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, expected):
        kind, text, pos = self.peek()
        shown = text or "end of input"
        raise ParseError(f"expected {' or '.join(expected)}, found {shown!r}", pos, expected)

    def expect_op(self, ch):
        kind, text, pos = self.peek()
        if kind == "op" and text == ch:
            return self.advance()
        self.fail((f"'{ch}'",))

    def parse_int(self) -> int:
        sign = 1
        kind, text, pos = self.peek()
        if kind == "op" and text in "+-":
            sign = -1 if text == "-" else 1
            self.advance()
            kind, text, pos = self.peek()
        if kind != "int":
            self.fail(("integer",))
        self.advance()
        return sign * _int(text)

    def parse_expr(self):
        parts = []
        sign = 1
        kind, text, _ = self.peek()
        if kind == "op" and text in "+-":
            sign = -1 if text == "-" else 1
            self.advance()
        parts.append((sign, self.parse_term()))
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                parts.append((-1 if text == "-" else 1, self.parse_term()))
            else:
                return Sum(tuple(parts))

    def parse_term(self):
        parts = [("*", self.parse_factor())]
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                parts.append((text, self.parse_factor()))
            else:
                return Product(tuple(parts))

    def parse_factor(self):
        atom = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return Power(atom, self.parse_int())
        return atom

    def parse_atom(self):
        kind, text, pos = self.peek()
        if kind == "int":
            self.advance()
            return RationalLiteral(Fraction(_int(text)))
        if kind == "op" and text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "name":
            self.advance()
            nxt = self.peek()
            if text in GEN_KINDS and nxt[0] == "op" and nxt[1] == "[":
                self.advance()
                idx = self.parse_int()
                self.expect_op("]")
                return GenAtom(text, idx)
            if nxt[0] == "op" and nxt[1] == "(":
                self.advance()
                args = self.parse_args()
                self.expect_op(")")
                return Call(text, args)
            if text in NAMES:
                return NameAtom(text)
            raise ParseError(f"unknown name {text!r}", pos, (*NAMES, "call"))
        self.fail(("atom",))

    def parse_args(self):
        args = []
        while True:
            kind, text, _ = self.peek()
            # a lone +/- followed by ',' or ')' is a sign literal
            if kind == "op" and text in "+-":
                nxt = self.toks[self.i + 1]
                if nxt[0] == "op" and nxt[1] in ",)":
                    self.advance()
                    args.append(SignLit(text))
                else:
                    args.append(self.parse_expr())
            else:
                args.append(self.parse_expr())
            kind, text, _ = self.peek()
            if kind == "op" and text == ",":
                self.advance()
                continue
            return tuple(args)


def parse(text: str):
    p = _Parser(text)
    ast = p.parse_expr()
    kind, tok_text, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {tok_text!r}", pos, ("end of input",))
    return ast


# --- Evaluator ---------------------------------------------------------

# the constants: u is the central half-power and gamma = u^2
NAMES = {
    "K": Element.k_power(1),
    "gamma": Element.from_coeff(u_pow(2)),
    "u": Element.from_coeff(u_pow(1)),
    "q": Element.from_coeff(q_pow(1)),
}

# the argument names of a call that take an element
ELEMENT_ARGS = ("expr", "left", "right")


class CallSpec(NamedTuple):
    """A call of the language, which is also a CLI command: its help text,
    its argument names and a function of (mode, *arguments).  An argument
    named in ``ELEMENT_ARGS`` is an element, "sign" is a bare + or -, and
    any other is an integer; a name that begins with "--" is an option of
    the CLI command, defaulting to 0."""

    help: str
    args: tuple
    fn: Callable


def _central_c(mode, sign, n, m):
    if n < 0:
        raise EvalError("c index must be nonnegative")
    return central_c(n, m, sign)


CALLS = {
    "nf": CallSpec(
        "normal form of an expression", ("expr",), lambda mode, x: normal_form(x, mode)
    ),
    "comm": CallSpec(
        "commutator of two expressions",
        ("left", "right"),
        lambda mode, a, b: commutator(a, b, mode),
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
        lambda mode, *params: family_E(FamilyParams(*params)),
    ),
    "c": CallSpec("stated central value c(sign, n, m)", ("sign", "n", "m"), _central_c),
    "omega": CallSpec("apply the automorphism omega", ("expr",), lambda mode, x: omega(x)),
}


def _as_int(el: Element, what: str) -> int:
    if el.is_zero():
        return 0
    if len(el.terms) == 1:
        mono, c = next(iter(el.terms.items()))
        p = c.as_poly()
        if mono == Monomial((), 0) and p is not None and list(p.terms) == [(0, 0)]:
            return p.terms[(0, 0)]
    raise EvalError(f"{what} must be an integer literal")


def _invert(el: Element) -> Element:
    if el.is_zero():
        raise EvalError("division by zero element")
    if len(el.terms) != 1:
        raise EvalError("can only divide by a single-term element")
    mono, c = next(iter(el.terms.items()))
    if mono.word:
        raise EvalError("cannot divide by an element with generator words")
    return Element({Monomial((), -mono.kexp): c.inv()})


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


def eval_ast(ast, mode: RelationMode = RelationMode.STRICT) -> Element:
    """Evaluate a parsed expression to an Element."""
    if isinstance(ast, Sum):
        out = Element.zero()
        for sign, node in ast.parts:
            v = eval_ast(node, mode)
            out = out + v if sign > 0 else out - v
        return out
    if isinstance(ast, Product):
        out = Element.unit()
        for op, node in ast.parts:
            v = eval_ast(node, mode)
            out = el_mul(out, v) if op == "*" else el_mul(out, _invert(v))
        return out
    if isinstance(ast, Power):
        return _power(eval_ast(ast.base, mode), ast.exp)
    if isinstance(ast, GenAtom):
        kind = GEN_KINDS[ast.kind]
        if kind == AGEN and ast.idx == 0:
            raise EvalError("a[0] is not a generator")
        return Element.from_gen(Gen(kind, ast.idx))
    if isinstance(ast, NameAtom):
        return NAMES[ast.name]
    if isinstance(ast, RationalLiteral):
        return Element.from_coeff(RatFunc.from_fraction(ast.value))
    if isinstance(ast, SignLit):
        raise EvalError("a bare sign is only valid as a call argument")
    if isinstance(ast, Call):
        return _eval_call(ast, mode)
    raise EvalError(f"cannot evaluate node {ast!r}")


def _eval_call(call: Call, mode: RelationMode) -> Element:
    spec = CALLS.get(call.name)
    if spec is None:
        raise EvalError(f"unknown function {call.name!r}")
    if len(call.args) != len(spec.args):
        raise EvalError(f"{call.name} takes {len(spec.args)} argument(s), got {len(call.args)}")
    args = [_argument(call.name, n, node, mode) for n, node in zip(spec.args, call.args)]
    return spec.fn(mode, *args)


def _argument(call: str, name: str, node, mode: RelationMode):
    """The value of one call argument, of the kind its name says."""
    what = f"{call} {name.lstrip('-')}"
    if name == "sign":
        if isinstance(node, SignLit):
            return node.sign
        raise EvalError(f"{what} must be a bare + or - sign")
    value = eval_ast(node, mode)
    return value if name in ELEMENT_ARGS else _as_int(value, what)
