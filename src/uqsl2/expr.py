"""A small expression language over the algebra.

Grammar (whitespace-insensitive):

    expr    := ["+"|"-"] term (("+"|"-") term)*
    term    := factor (("*"|"/") factor)*
    factor  := atom ("^" int)?
    atom    := "x+[" int "]" | "x-[" int "]" | "a[" int "]"
             | "K" | "gamma" | "u" | "q" | int | "(" expr ")" | name "(" args ")"
    args    := arg ("," arg)* ;  arg := expr | "+" | "-"

"/" requires an invertible right operand (an element with a single bare
K-power term), which also makes rational literals like 1/2 work.
Built-in calls: nf, comm, dcomm, psi, phi, E, c, omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import RatFunc, u_pow
from .currents import phi as phi_el
from .currents import psi as psi_el
from .elements import Element, Monomial, agen, el_mul, omega, xminus, xplus
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
    kind: str  # "x+", "x-", "a"
    idx: int


@dataclass(frozen=True)
class KAtom:
    pass


@dataclass(frozen=True)
class GammaAtom:
    pass


@dataclass(frozen=True)
class UAtom:
    pass


@dataclass(frozen=True)
class QAtom:
    pass


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
        if ch == "x" and i + 2 < n and text[i + 1] in "+-" and text[i + 2] == "[":
            # generator opener, '[' included
            toks.append(("xgen", "x" + text[i + 1], i))
            i += 3
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
        if kind == "xgen":
            self.advance()
            idx = self.parse_int()
            self.expect_op("]")
            return GenAtom(text, idx)
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
            if text == "a" and nxt[0] == "op" and nxt[1] == "[":
                self.advance()
                idx = self.parse_int()
                self.expect_op("]")
                return GenAtom("a", idx)
            if nxt[0] == "op" and nxt[1] == "(":
                self.advance()
                args = self.parse_args()
                self.expect_op(")")
                return Call(text, args)
            if text == "K":
                return KAtom()
            if text == "gamma":
                return GammaAtom()
            if text == "u":
                return UAtom()
            if text == "q":
                return QAtom()
            raise ParseError(f"unknown name {text!r}", pos, ("K", "gamma", "u", "q", "call"))
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

_CALL_ARITY = {
    "nf": 1,
    "comm": 2,
    "dcomm": 3,
    "psi": 1,
    "phi": 1,
    "E": 4,
    "c": 3,
    "omega": 1,
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


def _as_sign(node, what: str) -> str:
    if isinstance(node, SignLit):
        return node.sign
    raise EvalError(f"{what} must be a bare + or - sign")


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
    """Evaluate a parsed expression to an Element.  ``gamma`` means u^2 and
    ``u`` the central half-power itself."""
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
        if ast.kind == "x+":
            return Element.from_gen(xplus(ast.idx))
        if ast.kind == "x-":
            return Element.from_gen(xminus(ast.idx))
        if ast.idx == 0:
            raise EvalError("a[0] is not a generator")
        return Element.from_gen(agen(ast.idx))
    if isinstance(ast, KAtom):
        return Element.k_power(1)
    if isinstance(ast, GammaAtom):
        return Element.from_coeff(u_pow(2))
    if isinstance(ast, UAtom):
        return Element.from_coeff(u_pow(1))
    if isinstance(ast, QAtom):
        from .coeff import q_pow

        return Element.from_coeff(q_pow(1))
    if isinstance(ast, RationalLiteral):
        return Element.from_coeff(RatFunc.from_fraction(ast.value))
    if isinstance(ast, SignLit):
        raise EvalError("a bare sign is only valid as a call argument")
    if isinstance(ast, Call):
        return _eval_call(ast, mode)
    raise EvalError(f"cannot evaluate node {ast!r}")


def _eval_call(call: Call, mode: RelationMode) -> Element:
    arity = _CALL_ARITY.get(call.name)
    if arity is None:
        raise EvalError(f"unknown function {call.name!r}")
    if len(call.args) != arity:
        raise EvalError(
            f"{call.name} takes {arity} argument(s), got {len(call.args)}"
        )
    args = call.args
    if call.name == "nf":
        return normal_form(eval_ast(args[0], mode), mode)
    if call.name == "comm":
        return commutator(eval_ast(args[0], mode), eval_ast(args[1], mode), mode)
    if call.name == "dcomm":
        p = _as_int(eval_ast(args[2], mode), "dcomm power")
        return deformed_commutator(
            eval_ast(args[0], mode), eval_ast(args[1], mode), p, mode
        )
    if call.name == "psi":
        return psi_el(_as_int(eval_ast(args[0], mode), "psi index"))
    if call.name == "phi":
        return phi_el(_as_int(eval_ast(args[0], mode), "phi index"))
    if call.name == "E":
        sign = _as_sign(args[0], "E sign")
        p = _as_int(eval_ast(args[1], mode), "E power")
        m = _as_int(eval_ast(args[2], mode), "E weight")
        index = _as_int(eval_ast(args[3], mode), "E index")
        return family_E(FamilyParams(sign, p, m, index))
    if call.name == "c":
        sign = _as_sign(args[0], "c sign")
        n = _as_int(eval_ast(args[1], mode), "c index")
        m = _as_int(eval_ast(args[2], mode), "c weight")
        if n < 0:
            raise EvalError("c index must be nonnegative")
        return central_c(n, m, sign)
    if call.name == "omega":
        return omega(eval_ast(args[0], mode))
    raise EvalError(f"unknown function {call.name!r}")
