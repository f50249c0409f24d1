import json
import math
import random

import pytest

from uqsl2.coeff import P_ONE, one_term, qminus, u_pow
from uqsl2.currents import psi
from uqsl2.elements import Element, Monomial, agen, el_mul, xminus, xplus
from uqsl2.expr import EvalError, ParseError, _tokenize, evaluate
from uqsl2.family import central_c, family_E
from uqsl2.render import print_element
from uqsl2.rewrite import RelationMode, deformed_commutator, normal_form

from helpers import element_to_obj, json_to_element, rand_element, rand_poly, rand_word, ratfunc

S = RelationMode.STRICT


def test_parse_single_atom():
    assert evaluate("x+[0]") == Element.from_gen(xplus(0))
    assert evaluate("x-[-3]") == Element.from_gen(xminus(-3))
    assert evaluate("a[2]") == Element.from_gen(agen(2))


def test_space_before_index_bracket():
    # "a [1]" reads as a[1]; x+ and x- take the same space
    assert evaluate("x+ [1]") == Element.from_gen(xplus(1))
    assert evaluate("x- [2]") == Element.from_gen(xminus(2))
    assert evaluate("a [1]") == Element.from_gen(agen(1))
    assert evaluate("x+\t[1]*x-  [2]") == el_mul(
        Element.from_gen(xplus(1)), Element.from_gen(xminus(2))
    )


def test_parse_call_tree():
    left = family_E("+", 1, 0, 0)
    right = family_E("+", 1, 0, -1)
    assert evaluate("dcomm(E(+,1,0,0), E(+,1,0,-1), -1)", S) == deformed_commutator(
        left, right, -1, S
    )


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        evaluate("x+[")
    assert err.value.offset == 3
    assert err.value.expected
    with pytest.raises(ParseError):
        evaluate("2 +")
    with pytest.raises(ParseError):
        evaluate("nf(x+[0]")


@pytest.mark.parametrize("src, offset", [("x+[²]", 3), ("K^²", 2), ("2²", 1)])
def test_a_digit_that_is_not_decimal_is_a_parse_error(src, offset):
    # "²" is a digit to str.isdigit, but int() refuses it: only decimal
    # digits lex as an integer
    with pytest.raises(ParseError) as err:
        evaluate(src)
    assert err.value.offset == offset


def test_tokens_are_the_text_without_its_whitespace():
    rng = random.Random(2335)
    alphabet = [*"+-*/^()[],0123456789xaKqué ßΩ٣²½", "x+", "x-", "gamma", "_", "$", "\t", "\u2003"]
    lexed = 0
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(16)))
        try:
            toks = _tokenize(text)
        except ParseError:
            continue
        lexed += 1
        assert "".join(tok for _, tok, _ in toks) == "".join(text.split())
        offsets = [offset for _, _, offset in toks]
        assert all(a < b for a, b in zip(offsets, offsets[1:]))
        assert all(text.startswith(tok, offset) for _, tok, offset in toks)
        assert all(tok.isdecimal() for kind, tok, _ in toks if kind == "int")
    assert lexed > 1000


@pytest.mark.parametrize(
    "src, error, message",
    [
        ("+", ParseError, "expected atom, found 'end of input' at offset 1"),
        ("(+)", ParseError, "expected atom, found ')' at offset 2"),
        ("psi(+)", ParseError, "expected integer, found ')' at offset 5"),
        ("E(1,1,0,0)", ParseError, "expected sign, found '1' at offset 2"),
        ("E(+,1,0,0,-)", ParseError, "expected ')', found ',' at offset 9"),
        ("E(+, 1+1, 0, 0)", ParseError, "expected ',', found '+' at offset 6"),
        ("dcomm(x+[0], x-[0], q^0)", ParseError, "expected integer, found 'q' at offset 20"),
        ("psi()", ParseError, "expected integer, found ')' at offset 4"),
        ("c(+, 1)", ParseError, "expected ',', found ')' at offset 6"),
        ("nope(1)", EvalError, "unknown function 'nope'"),
    ],
)
def test_error_messages(src, error, message):
    with pytest.raises(error) as err:
        evaluate(src)
    assert str(err.value) == message


def test_eval_examples():
    assert evaluate("psi(0)") == Element.k_power(1)
    assert evaluate("phi(0)") == Element.k_power(-1)
    e = evaluate("nf(q^2*x+[0]*K - K*x+[0])")
    assert e.is_zero()
    with pytest.raises(EvalError):
        evaluate("a[0]")
    with pytest.raises(ParseError, match="expected '\\)', found ','"):
        evaluate("psi(1, 2)")
    with pytest.raises(EvalError):
        evaluate("nope(1)")


def test_eval_builtins_agree_with_api():
    assert evaluate("E(+,1,0,-1)") == family_E("+", 1, 0, -1)
    assert evaluate("c(-,2,1)") == central_c(2, 1, "-")
    assert evaluate("psi(3)") == psi(3)
    assert evaluate("omega(x+[2])") == Element.from_gen(xminus(-2))
    assert evaluate("gamma") == Element.from_coeff(u_pow(2))
    assert evaluate("u^2") == Element.from_coeff(u_pow(2))
    assert evaluate("1/2 + 1/2") == Element.unit()
    assert evaluate("K^-2") == Element.k_power(-2)
    assert evaluate("(q - q^-1)^-1") == Element.from_coeff(qminus().inv())


def test_power_by_squaring(monkeypatch):
    # q^(10^6) in at most 2 log2(n) + 2 products, not one per unit of n
    from uqsl2 import expr

    calls = [0]

    def counting(a, b):
        calls[0] += 1
        return el_mul(a, b)

    monkeypatch.setattr(expr, "el_mul", counting)
    n = 10**6
    assert evaluate(f"q^{n}") == Element.from_coeff(one_term(1, n, 0))
    assert 0 < calls[0] <= 2 * math.log2(n) + 2
    monkeypatch.undo()
    # and the same element as repeated products, on a non-commuting sum
    src = "x+[0] + 2*a[1]*K - q^-1*x-[1]/(q - q^-1)"
    x = evaluate(src)
    want = Element.unit()
    for k in range(8):
        assert evaluate(f"({src})^{k}") == want
        want = el_mul(want, x)


def test_division_restrictions():
    with pytest.raises(EvalError):
        evaluate("1/x+[0]")
    with pytest.raises(EvalError):
        evaluate("q/(K + 1)")
    with pytest.raises(EvalError):
        evaluate("1/0")
    # a coefficient divides only when it is c q^a u^b (q - q^-1)^k; the
    # divisor is inverted before the product, so (q^2-1)/(q+1) is refused
    for src in (
        "1/(q+1)",
        "(q+1)^-2",
        "1/(gamma-1)",
        "(q^2-1)/(q+1)",
        "x-[1]/(q - q^-1) - 1/(q^2+1)*a[2]",
        "(q^2 - 1 + q*u)/(1 - q)*x+[0]",
    ):
        with pytest.raises(EvalError, match="c\\*q\\^a\\*u\\^b\\*\\(q - q\\^-1\\)\\^k"):
            evaluate(src)


@pytest.mark.parametrize(
    "src, text",
    [
        ("1/(q^2-1)", "1/(q^2 - 1)"),
        ("q^-1/(q-q^-1)^2", "q/(q^4 - 2*q^2 + 1)"),
        ("1/(2*q-2*q^-1)", "q/(2*q^2 - 2)"),
        ("x+[0]/(3*q^2*u - 3*u)", "u^-1/(3*q^2 - 3)*x+[0]"),
        ("2/4", "1/2"),
        ("K^-2/K", "K^-3"),
    ],
)
def test_division_by_the_denominators_of_the_algebra(src, text):
    e = evaluate(src)
    assert print_element(e) == text
    assert evaluate(text) == e
    assert json_to_element(json.loads(print_element(e, "json"))) == e


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
            "x-[1]/(q - q^-1) - 1/(q^2-1)*a[2]",
            "-1/(q^2 - 1)*a[2] + q/(q^2 - 1)*x-[1]",
            "\\frac{-1}{q^{2} - 1} a_{2} + \\frac{q}{q^{2} - 1} x^{-}_{1}",
        ),
        (
            "(q^2 - 1 + q*u)/(1 - q^2)*x+[0]",
            "(-q^2 - q*u + 1)/(q^2 - 1)*x+[0]",
            "\\frac{-q^{2} - q u + 1}{q^{2} - 1} x^{+}_{0}",
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
    e = evaluate(src)
    assert print_element(e, "text") == text
    assert print_element(e, "latex") == latex


def test_text_round_trip_random():
    rng = random.Random(40)
    for _ in range(200):
        e = rand_element(rng)
        text = print_element(e, "text")
        assert evaluate(text) == e


def test_text_round_trip_normal_forms():
    rng = random.Random(41)
    from helpers import rand_word

    for _ in range(40):
        e = normal_form(Element.from_monomial(Monomial(rand_word(rng, 4), 0)), S)
        assert evaluate(print_element(e, "text")) == e


def test_json_round_trip():
    rng = random.Random(42)
    for _ in range(200):
        e = rand_element(rng)
        assert json_to_element(json.loads(print_element(e, "json"))) == e


def test_json_round_trip_bit_exact_on_canonical_forms():
    rng = random.Random(43)
    for _ in range(100):
        e = rand_element(rng)
        canon = json_to_element(json.loads(print_element(e, "json")))
        again = json_to_element(json.loads(print_element(canon, "json")))
        assert set(again.terms) == set(canon.terms)
        for mono, c in canon.terms.items():
            c2 = again.terms[mono]
            assert (c.num, c.den, c.d) == (c2.num, c2.den, c2.d)
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
    # an integer slot reads a signed literal, so a fraction such as
    # 1/(q - q^-1) is refused at its "/" (or its q), before it is evaluated
    for src, offset in (
        ("psi(1/(q-q^-1))", 5),
        ("phi(q/(q^2-1))", 4),
        ("E(+, 1, 0, 1/(q-q^-1))", 12),
    ):
        with pytest.raises(ParseError) as err:
            evaluate(src)
        assert err.value.offset == offset


def test_obj_round_trip_over_powers_of_qminus():
    rng = random.Random(45)
    for _ in range(100):
        terms = {}
        for _ in range(rng.randrange(1, 4)):
            mono = Monomial(rand_word(rng, max_len=3), rng.randrange(-2, 3))
            coeff = ratfunc(rand_poly(rng, nterms=4), P_ONE)
            terms[mono] = coeff / qminus() ** rng.randrange(4)
        e = Element(terms)
        assert json_to_element(element_to_obj(e)) == e
