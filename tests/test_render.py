"""The per-document printer against the reference serialization."""

import json
import random
import re

import pytest

from uqsl2 import render
from uqsl2.coeff import RF_ONE, RatFunc, q_pow, qminus, u_pow
from uqsl2.elements import Element, Monomial, agen, xminus, xplus
from uqsl2.render import Printer
from uqsl2.rewrite import normal_form

from helpers import element_to_obj, rand_word
from test_coeff import _SHAPES

# the five long mixed words of the nf-long-words benchmark workload
_TEMPLATES = (
    ((xminus, 0), (xminus, 1), (xminus, 2), (xminus, 3), (xplus, 0), (xplus, -1), (xplus, -2), (xplus, -3)),
    ((xminus, 3), (xminus, 1), (xminus, 0), (xminus, 2), (xplus, -2), (xplus, 0), (xplus, -3), (xplus, -1)),
    ((xminus, 2), (agen, -1), (xminus, 0), (xminus, 1), (agen, 2), (xplus, -1), (xplus, -2), (xplus, 0)),
    ((agen, 2), (agen, -1), (xminus, 0), (xminus, 1), (xminus, 2), (xplus, 0), (xplus, -1), (xplus, -2)),
    ((agen, 3), (agen, -2), (agen, 1), (xminus, 0), (xminus, 1), (xminus, 2), (xplus, -1), (xplus, 0)),
)


def _shaped_elements(rng):
    """For every coefficient shape: elements on words with negative indices,
    on bare K powers and on the unit word; some coefficients are equal in
    value to another one but stored another way."""
    out = []
    for shape in _SHAPES:
        for _ in range(12):
            terms = {}
            for _ in range(rng.randrange(1, 6)):
                if rng.random() < 0.3:
                    mono = Monomial((), rng.randrange(-2, 3))
                else:
                    mono = Monomial(rand_word(rng, max_len=4, max_idx=3), rng.randrange(-2, 3))
                c = shape(rng)
                if rng.random() < 0.2:
                    d = RatFunc.from_int(6) * qminus()
                    c = (c * d + RF_ONE) / d - RF_ONE / d
                terms[mono] = c
            out.append(Element(terms))
    return out


@pytest.fixture(scope="module")
def elements():
    rng = random.Random(12)
    small = [Element.zero(), Element.k_power(-3), Element.k_power(1)]
    small += _shaped_elements(rng)
    # an integer past the interpreter's 4,300-digit limit on str(): its
    # digits are made by _digits' blocks
    huge = RatFunc.from_int(10**4400 + 7) * q_pow(2) - u_pow(1)
    small.append(Element({Monomial((xplus(-1), agen(2)), 1): huge / qminus()}))
    long = [
        normal_form(Element.from_monomial(Monomial(tuple(make(k) for make, k in word), 0)))
        for word in _TEMPLATES
    ]
    # the small ones again, in another order, for the memos to hit
    return small + long + rng.sample(small, len(small))


def test_json_printer_prints_the_reference_serialization(elements):
    # one printer for all: the next test shows that a fresh one per element
    # prints the same
    printer = Printer("json")
    for e in elements:
        assert printer.element(e) == json.dumps(element_to_obj(e), separators=(",", ":"))


def test_json_polynomial_texts_need_no_escaping(elements, monkeypatch):
    # the JSON printer quotes each polynomial's text as it is, so every text
    # it prints must lie in an alphabet that JSON does not escape
    texts = []
    poly = render._poly

    def recording(p, st):
        texts.append(poly(p, st))
        return texts[-1]

    monkeypatch.setattr(render, "_poly", recording)
    printer = Printer("json")
    for e in elements:
        printer.element(e)
    assert [t for t in texts if not re.fullmatch(r"[0-9qu^*+\- ]*", t)] == []
    assert max(map(len, texts)) > 4300


@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
def test_one_printer_prints_what_a_fresh_printer_prints(elements, fmt):
    shared = Printer(fmt)
    assert [shared.element(e) for e in elements] == [Printer(fmt).element(e) for e in elements]


def test_unknown_format_is_refused():
    with pytest.raises(ValueError):
        Printer("xml")
