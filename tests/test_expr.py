import math
import random

import pytest

from uqsl2.coeff import RF_ONE, LaurentPoly, RatFunc, one_term, q_pow, qminus, u_pow
from uqsl2.currents import phi, psi
from uqsl2.elements import Element, Monomial, agen, el_mul, xminus, xplus
from uqsl2.expr import Call, EvalError, GenAtom, ParseError, eval_ast, parse
from uqsl2.family import FamilyParams, central_c, family_E
from uqsl2.render import (
    _poly_from_text,
    element_from_json,
    element_from_obj,
    element_to_obj,
    print_element,
)
from uqsl2.rewrite import RelationMode, normal_form

from helpers import rand_element, rand_poly, rand_word

S = RelationMode.STRICT


def _atom(ast):
    # unwrap Sum(Product(single factor))
    ((sign, prod),) = ast.parts
    assert sign == 1
    ((op, node),) = prod.parts
    assert op == "*"
    return node


def test_parse_single_atom():
    node = _atom(parse("x+[0]"))
    assert node == GenAtom("x+", 0)
    assert _atom(parse("x-[-3]")) == GenAtom("x-", -3)
    assert _atom(parse("a[2]")) == GenAtom("a", 2)


def test_parse_call_tree():
    node = _atom(parse("dcomm(E(+,1,0,0), E(+,1,0,-1), -1)"))
    assert isinstance(node, Call)
    assert node.name == "dcomm"
    assert len(node.args) == 3


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse("x+[")
    assert err.value.offset == 3
    assert err.value.expected
    with pytest.raises(ParseError):
        parse("2 +")
    with pytest.raises(ParseError):
        parse("nf(x+[0]")


def test_eval_examples():
    assert eval_ast(parse("psi(0)")) == Element.k_power(1)
    assert eval_ast(parse("phi(0)")) == Element.k_power(-1)
    e = eval_ast(parse("nf(q^2*x+[0]*K - K*x+[0])"))
    assert e.is_zero()
    with pytest.raises(EvalError):
        eval_ast(parse("a[0]"))
    with pytest.raises(EvalError):
        eval_ast(parse("psi(1, 2)"))
    with pytest.raises(EvalError):
        eval_ast(parse("nope(1)"))


def test_eval_builtins_agree_with_api():
    assert eval_ast(parse("E(+,1,0,-1)")) == family_E(FamilyParams("+", 1, 0, -1))
    assert eval_ast(parse("c(-,2,1)")) == central_c(2, 1, "-")
    assert eval_ast(parse("psi(3)")) == psi(3)
    assert eval_ast(parse("omega(x+[2])")) == Element.from_gen(xminus(-2))
    assert eval_ast(parse("gamma")) == Element.from_coeff(u_pow(2))
    assert eval_ast(parse("u^2")) == Element.from_coeff(u_pow(2))
    assert eval_ast(parse("1/2 + 1/2")) == Element.unit()
    assert eval_ast(parse("K^-2")) == Element.k_power(-2)
    assert eval_ast(parse("(q - q^-1)^-1")) == Element.from_coeff(qminus().inv())


def test_power_by_squaring(monkeypatch):
    # q^(10^6) in at most 2 log2(n) + 2 products, not one per unit of n
    from uqsl2 import expr

    calls = [0]

    def counting(a, b):
        calls[0] += 1
        return el_mul(a, b)

    monkeypatch.setattr(expr, "el_mul", counting)
    n = 10**6
    assert eval_ast(parse(f"q^{n}")) == Element.from_coeff(one_term(1, n, 0))
    assert 0 < calls[0] <= 2 * math.log2(n) + 2
    monkeypatch.undo()
    # and the same element as repeated products, on a non-commuting sum
    src = "x+[0] + 2*a[1]*K - q^-1*x-[1]/(q + 1)"
    x = eval_ast(parse(src))
    want = Element.unit()
    for k in range(8):
        assert eval_ast(parse(f"({src})^{k}")) == want
        want = el_mul(want, x)


def test_division_restrictions():
    with pytest.raises(EvalError):
        eval_ast(parse("1/x+[0]"))
    with pytest.raises(EvalError):
        eval_ast(parse("q/(K + 1)"))
    with pytest.raises(EvalError):
        eval_ast(parse("1/0"))


def test_print_examples():
    assert print_element(psi(1)) == "(q - q^-1)*a[1]*K"
    assert print_element(Element.k_power(-1)) == "K^-1"
    assert print_element(Element.zero()) == "0"
    assert print_element(Element.zero(), "json") == '{"terms":[]}'
    assert "\\gamma" in print_element(central_c(1, 0, "+"), "latex")


@pytest.mark.parametrize(
    "src, text, latex",
    [
        # composite numerator: parenthesized / \left( \right)
        ("(1 + q)*x+[0]*x-[1]*K", "(q + 1)*x+[0]*x-[1]*K", "\\left(q + 1\\right) x^{+}_{0} x^{-}_{1} K"),
        # composite denominators, negative numerator first
        (
            "x-[1]/(q - q^-1) - 1/(q^2+1)*a[2]",
            "-1/(q^2 + 1)*a[2] + q/(q^2 - 1)*x-[1]",
            "\\frac{-1}{q^{2} + 1} a_{2} + \\frac{q}{q^{2} - 1} x^{-}_{1}",
        ),
        (
            "(q^2 - 1 + q*u)/(1 - q)*x+[0]",
            "(-q^2 - q*u + 1)/(q - 1)*x+[0]",
            "\\frac{-q^{2} - q u + 1}{q - 1} x^{+}_{0}",
        ),
        # integer denominators
        (
            "1/2*a[-1]*K^-2 + 3/(2*q)",
            "3*q^-1/2 + 1/2*a[-1]*K^-2",
            "\\frac{3 q^{-1}}{2} + \\frac{1}{2} a_{-1} K^{-2}",
        ),
        # bare K powers and a bare coefficient
        ("K + K^-2 + 3", "K^-2 + 3 + K", "K^{-2} + 3 + K"),
        ("q + 1", "(q + 1)", "\\left(q + 1\\right)"),
        ("-3 - x+[0]", "-3 - x+[0]", "-3 - x^{+}_{0}"),
        # negative leading term, single u and gamma
        (
            "-a[1]*K + gamma*x+[0] + u*x-[0]",
            "-a[1]*K + u*x-[0] + gamma*x+[0]",
            "-a_{1} K + u x^{-}_{0} + \\gamma x^{+}_{0}",
        ),
        # odd u power, negative gamma power
        (
            "u^3*x+[2] - gamma^-2*a[1]*K^-1",
            "-gamma^-2*a[1]*K^-1 + u^3*x+[2]",
            "-\\gamma^{-2} a_{1} K^{-1} + u^{3} x^{+}_{2}",
        ),
    ],
)
def test_print_text_and_latex_literals(src, text, latex):
    e = eval_ast(parse(src))
    assert print_element(e, "text") == text
    assert print_element(e, "latex") == latex


def test_text_round_trip_random():
    rng = random.Random(40)
    for _ in range(200):
        e = rand_element(rng)
        text = print_element(e, "text")
        assert eval_ast(parse(text)) == e


def test_text_round_trip_normal_forms():
    rng = random.Random(41)
    from helpers import rand_word

    for _ in range(40):
        e = normal_form(Element.from_monomial(Monomial(rand_word(rng, 4), 0)), S)
        assert eval_ast(parse(print_element(e, "text"))) == e


def test_json_round_trip():
    rng = random.Random(42)
    for _ in range(200):
        e = rand_element(rng)
        assert element_from_json(print_element(e, "json")) == e


def test_json_round_trip_bit_exact_on_canonical_forms():
    rng = random.Random(43)
    for _ in range(100):
        e = rand_element(rng)
        canon = element_from_json(print_element(e, "json"))
        again = element_from_json(print_element(canon, "json"))
        assert set(again.terms) == set(canon.terms)
        for mono, c in canon.terms.items():
            c2 = again.terms[mono]
            assert c.num.terms == c2.num.terms
            assert c.den.terms == c2.den.terms
        assert print_element(canon, "json") == print_element(again, "json")


def test_output_determinism():
    rng = random.Random(44)
    for _ in range(50):
        e = rand_element(rng, nterms=5)
        shuffled = list(e.terms.items())
        rng.shuffle(shuffled)
        e2 = Element(dict(shuffled))
        assert print_element(e, "text") == print_element(e2, "text")
        assert print_element(e, "json") == print_element(e2, "json")


def test_integer_arguments_are_polynomials_not_fractions():
    # 1/(q - q^-1) stores the numerator 1 over a power of q - q^-1; it is
    # not the integer 1
    for src in ("psi(1/(q-q^-1))", "phi(q/(q^2-1))", "E(+, 1, 0, 1/(q-q^-1))"):
        with pytest.raises(EvalError):
            eval_ast(parse(src))
    with pytest.raises(ValueError):
        _poly_from_text("1/(q-q^-1)")
    assert _poly_from_text("(q^2-1)/(q-q^-1)") == LaurentPoly({(1, 0): 1})


def test_obj_round_trip_over_powers_of_qminus():
    rng = random.Random(45)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            mono = Monomial(rand_word(rng, max_len=3), rng.randrange(-2, 3))
            terms[mono] = RatFunc(rand_poly(rng, nterms=4)) / qminus() ** rng.randrange(4)
        e = Element(terms)
        assert element_from_obj(element_to_obj(e)) == e
