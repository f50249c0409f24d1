"""The engine against a representation: the level-0 evaluation module
V_3(5) at q = 3 (``helpers.level0_action``), acting by x, a and K
letters."""

import random
from collections import Counter

from uqsl2.coeff import q_pow
from uqsl2.elements import AGEN, XMINUS, XPLUS, Element, Monomial, el_mul, xminus, xplus
from uqsl2.family import family_E
from uqsl2.rewrite import normal_form
from uqsl2.verify import verify_claim

from helpers import drinfeld_r6, level0_action, rand_element, relation_instances


def _is_zero(matrix):
    return not any(any(row) for row in matrix)


def test_every_r6_instance_acts_as_zero():
    # x_(k+1) x_l - s x_l x_(k+1) - s x_k x_(l+1) + x_(l+1) x_k with
    # s = q^(+-2) for x+-, both signs, k, l in [-3, 2]: 72 instances
    count = 0
    for mk, s in ((xplus, q_pow(2)), (xminus, q_pow(-2))):
        for k in range(-3, 3):
            for l in range(-3, 3):
                assert _is_zero(level0_action(drinfeld_r6(mk, s, k, l))), (mk, k, l)
                count += 1
    assert count == 72


def test_normal_forms_of_same_sign_words_act_as_the_words():
    rng = random.Random(2335)
    for _ in range(100):
        mk = rng.choice((xplus, xminus))
        word = tuple(mk(rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 4)))
        e = Element.from_monomial(Monomial(word, rng.randrange(-2, 3)))
        action = level0_action(e)
        assert not _is_zero(action)
        assert level0_action(normal_form(e)) == action, e


def _mixed_words():
    # sums of up to three words in x+, x- and a letters, with K-powers
    rng = random.Random(901)
    words = [rand_element(rng) for _ in range(60)]
    assert sum(any(g.kind == AGEN for m in w.terms for g in m.word) for w in words) > 30
    return words


def _rule(rel):
    # which rule a relation_instances row states, read off its letters
    letters = {gen.kind for mono in rel.terms for gen in mono.word}
    if XPLUS in letters and XMINUS in letters:
        return "R4"
    if XPLUS in letters or XMINUS in letters:
        return "R3" if AGEN in letters else "R6"
    return "R2"


def test_every_relation_instance_acts_as_zero():
    # every move of every two-letter word at indices up to 3, a-letters
    # included: the engine's rewrite table against the module, with no
    # rewriting
    instances = relation_instances()
    assert len(instances) == 190
    assert Counter(map(_rule, instances)) == {"R2": 15, "R3": 84, "R4": 49, "R6": 42}
    for rel in instances:
        assert _is_zero(level0_action(rel)), rel


def test_normal_forms_of_mixed_words_act_as_the_words():
    for e in _mixed_words():
        action = level0_action(e)
        assert not _is_zero(action)
        assert level0_action(normal_form(e)) == action, e


def _under_a_wrong_rule(monkeypatch, name, value):
    """(relation_instances rows that act as 0, mixed words whose normal
    form acts as the word) with rewrite.<name> patched to ``value``."""
    from uqsl2 import rewrite

    words = _mixed_words()
    rewrite.clear_caches()
    monkeypatch.setattr(rewrite, name, value)
    try:
        zero = sum(_is_zero(level0_action(rel)) for rel in relation_instances())
        agree = sum(level0_action(normal_form(e)) == level0_action(e) for e in words)
    finally:
        monkeypatch.undo()
        rewrite.clear_caches()
    return zero, agree, len(words)


def test_the_wrong_r3_sign_fails_the_relations_and_the_words(monkeypatch):
    # a_n x+-_k - x+-_k a_n with the sign of its x+-_(n+k) term flipped
    from uqsl2.rewrite import _ax_coeff

    zero, agree, n_words = _under_a_wrong_rule(
        monkeypatch, "_ax_coeff", lambda n, kind: -_ax_coeff(n, kind)
    )
    # every one of the 84 R3 instances fails, and only those
    assert zero == 190 - 84
    assert agree < n_words


def test_the_wrong_r6_convention_fails_the_relations_and_the_words(monkeypatch):
    # R6 with s = q^(-+2) in place of q^(+-2), as in
    # test_no_ep_em_normal_form_acts_as_its_bracket_under_the_wrong_r6
    zero, agree, n_words = _under_a_wrong_rule(monkeypatch, "q_pow", lambda k: q_pow(-k))
    # every one of the 42 R6 instances fails, and only those
    assert zero == 190 - 42
    assert agree < n_words


def _ep_em_brackets():
    """(claim, params, unreduced bracket) for the 108 EP/EM instances at
    n, k <= 3 and m, p in {-1, 0, 1}."""
    out = []
    for claim, sign, regime in (("EP", "+", lambda n, k: n < k), ("EM", "-", lambda n, k: k < n)):
        for n in range(4):
            for k in range(4):
                if not regime(n, k):
                    continue
                for m in (-1, 0, 1):
                    for p in (-1, 0, 1):
                        a, b = family_E(sign, p, m, n), family_E(sign, p, m, -k - 1)
                        kp = Element.k_power(p)
                        bracket = el_mul(el_mul(a, kp), b) - el_mul(el_mul(b, kp), a)
                        out.append((claim, {"n": n, "k": k, "m": m, "p": p}, bracket))
    return out


def _acts_as_its_bracket(claim, params, bracket) -> bool:
    value = verify_claim(claim, params).verdict.value
    assert not any(gen.kind == AGEN for mono in value.terms for gen in mono.word)
    return level0_action(value) == level0_action(bracket)


def test_ep_em_brackets_act_nonzero():
    # the paper states each bracket is 0; on V_3(5) none is, with no
    # rewriting on the bracket's side, and each full normal form (the
    # residual verify reports) acts as its bracket
    brackets = _ep_em_brackets()
    assert len(brackets) == 108
    for claim, params, bracket in brackets:
        assert not _is_zero(level0_action(bracket)), (claim, params)
        assert _acts_as_its_bracket(claim, params, bracket), (claim, params)


def test_no_ep_em_normal_form_acts_as_its_bracket_under_the_wrong_r6(monkeypatch):
    # R6 with s = q^(-+2) in place of q^(+-2), as in
    # test_diamond_detects_the_wrong_r6_convention
    from uqsl2 import rewrite

    brackets = _ep_em_brackets()
    rewrite.clear_caches()
    monkeypatch.setattr(rewrite, "q_pow", lambda k: q_pow(-k))
    try:
        agree = sum(_acts_as_its_bracket(*b) for b in brackets)
    finally:
        monkeypatch.undo()
        rewrite.clear_caches()
    assert agree == 0
