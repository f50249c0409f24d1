import random

from uqsl2.coeff import RF_ONE, q_pow, qint, qminus, u_pow
from uqsl2.currents import phi, psi
from uqsl2.elements import (
    Element,
    Monomial,
    agen,
    el_mul,
    omega,
    xminus,
    xplus,
)
from uqsl2.rewrite import RelationMode, commutator, deformed_commutator, normal_form

from helpers import (
    assert_coeffs_match_numerically,
    carry_one_letter_at_a_time,
    drinfeld_r6,
    equals,
    is_central,
    rand_element,
    rand_word,
    random_order_normal_form,
    relation_instances,
    sweep_claim,
)

S = RelationMode.STRICT
F = RelationMode.FULL
K = Element.k_power(1)
KINV = Element.k_power(-1)


def g(x):
    return Element.from_gen(x)


def test_r3_single_step():
    # a_1 x+_0 -> x+_0 a_1 + [2] u^-1 x+_1
    got = normal_form(el_mul(g(agen(1)), g(xplus(0))), S)
    want = el_mul(g(xplus(0)), g(agen(1))) + g(xplus(1)).scale(qint(2) * u_pow(-1))
    assert got == want


def test_r2_single_step():
    # a_1 a_-1 -> a_-1 a_1 + [2](u^2 - u^-2)/(q - q^-1)
    got = normal_form(el_mul(g(agen(1)), g(agen(-1))), S)
    want = el_mul(g(agen(-1)), g(agen(1))) + Element.from_coeff(
        qint(2) * (u_pow(2) - u_pow(-2)) / qminus()
    )
    assert got == want


def test_r4_single_step():
    # x-_0 x+_0 -> x+_0 x-_0 - (K - K^-1)/(q - q^-1)
    got = normal_form(el_mul(g(xminus(0)), g(xplus(0))), S)
    want = el_mul(g(xplus(0)), g(xminus(0))) - (K - KINV).scale(qminus().inv())
    assert got == want


def test_normal_input_is_fixed():
    e = el_mul(g(xplus(1)), el_mul(g(xminus(0)), g(agen(2))))
    assert normal_form(e, S) == e
    assert normal_form(e, F) == e


def test_idempotence():
    rng = random.Random(17)
    for _ in range(60):
        e = rand_element(rng, max_len=4)
        for mode in (S, F):
            nf = normal_form(e, mode)
            assert normal_form(nf, mode) == nf


def test_diamond_small():
    rng = random.Random(101)
    for _ in range(60):
        w = rand_word(rng, max_len=5)
        e = Element.from_monomial(Monomial(w, rng.randrange(-1, 2)))
        for mode in (S, F):
            det = normal_form(e, mode)
            assert random_order_normal_form(e, mode, random.Random(1)) == det
            assert random_order_normal_form(e, mode, random.Random(2)) == det


def test_relations_rewrite_to_zero():
    # each row is g h minus the table's own replacement of g h, so what
    # this still checks is that the rewrite loop's R4 block step (its
    # correction summed into a block and expanded at the end) agrees with
    # the R4 row.  Full mode, for the R6 rows; the R2-R4 rows have no
    # same-sign pair, so they mean the same in Strict.
    for rel in relation_instances(3):
        assert normal_form(rel, F).is_zero()


def test_omega_maps_relations_to_zero():
    for rel in relation_instances(3):
        assert normal_form(omega(rel), F).is_zero()


def test_r6_instances_and_their_omega_images_rewrite_to_zero():
    # Drinfeld's same-sign relation as stated, for every k, l; omega swaps
    # the two signs
    count = 0
    for mk, s in ((xplus, q_pow(2)), (xminus, q_pow(-2))):
        for k in range(-3, 4):
            for l in range(-3, 4):
                rel = drinfeld_r6(mk, s, k, l)
                assert normal_form(rel, F).is_zero()
                assert normal_form(omega(rel), F).is_zero()
                count += not rel.is_zero()
    assert count == 2 * 7 * 7


def test_commutator_examples():
    # [a_1, a_-1]
    got = commutator(g(agen(1)), g(agen(-1)), S)
    assert got == Element.from_coeff(qint(2) * (u_pow(2) - u_pow(-2)) / qminus())
    # [K, a_5] = 0
    assert commutator(K, g(agen(5)), S).is_zero()
    # [a, a] = 0
    rng = random.Random(2)
    for _ in range(10):
        a = rand_element(rng, max_len=3)
        assert commutator(a, a, S).is_zero()


def test_deformed_commutator_examples():
    rng = random.Random(31)
    # p = 0 reduces to the ordinary commutator
    for _ in range(20):
        a = rand_element(rng, max_len=3)
        b = rand_element(rng, max_len=3)
        assert deformed_commutator(a, b, 0, S) == commutator(a, b, S)
    # [a, a]_{K^p} = 0
    for p in (-2, 1, 3):
        a = rand_element(rng, max_len=3)
        assert deformed_commutator(a, a, p, S).is_zero()
    # [K, x+_0]_{K^p} = (q^(2(p+1)) - 1) x+_0 K^(p+1)
    for p in range(-2, 3):
        got = deformed_commutator(K, g(xplus(0)), p, S)
        want = Element({Monomial((xplus(0),), p + 1): q_pow(2 * (p + 1)) - RF_ONE})
        assert got == want


def test_equals_and_modes():
    a = el_mul(g(xminus(0)), g(xplus(0))) + (K - KINV).scale(qminus().inv())
    b = el_mul(g(xplus(0)), g(xminus(0)))
    assert equals(a, b, S)
    xx = el_mul(g(xplus(0)), g(xplus(1)))
    yy = el_mul(g(xplus(1)), g(xplus(0)))
    assert not equals(xx, yy, S)
    # same-sign x's do not commute in U_q(sl2-hat): x+_1 x+_0 = q^2 x+_0 x+_1
    # (R6 at gap 1), and Strict leaves both words as they are
    assert not equals(xx, yy, F)
    assert equals(yy, xx.scale(q_pow(2)), F)
    assert not equals(yy, xx.scale(q_pow(2)), S)
    rng = random.Random(4)
    for _ in range(10):
        a = rand_element(rng)
        assert equals(a, a, S)


def test_is_central():
    # is_central's five probes decide centrality: each of x+-_k (|k| <= 2),
    # a_(+-1), a_(+-2), K and K^-1 is found non-central, in both modes
    from uqsl2.family import central_c

    generators = [g(mk(k)) for k in range(-2, 3) for mk in (xplus, xminus)]
    generators += [g(agen(n)) for n in (-2, -1, 1, 2)] + [K, KINV]
    for mode in (S, F):
        assert is_central(Element.from_coeff(u_pow(4)), mode)
        assert is_central(central_c(1, 0, "+"), mode)
        for x in generators:
            assert not is_central(x, mode), (x, mode)


def test_multiplicativity_under_normal_form():
    rng = random.Random(77)
    for _ in range(40):
        a = rand_element(rng, max_len=3, nterms=2)
        b = rand_element(rng, max_len=3, nterms=2)
        for mode in (S, F):
            assert equals(el_mul(normal_form(a, mode), normal_form(b, mode)), el_mul(a, b), mode)


def test_numeric_cross_check_on_equal_elements():
    rng = random.Random(55)
    for _ in range(20):
        e = rand_element(rng, max_len=4)
        a = normal_form(e, S)
        b = random_order_normal_form(e, S, random.Random(rng.randrange(1000)))
        assert a == b
        assert_coeffs_match_numerically(a, b, rng)


def test_kexp_commutes_with_normal_form():
    # nf(w * K^e) = nf(w) * K^e
    rng = random.Random(66)
    for _ in range(30):
        w = rand_word(rng, max_len=4)
        e = rng.randrange(-2, 3)
        lhs = normal_form(Element.from_monomial(Monomial(w, e)), S)
        rhs = el_mul(normal_form(Element.from_monomial(Monomial(w, 0)), S), Element.k_power(e))
        assert lhs == rhs


def test_clear_caches_leaves_every_memo_empty():
    from uqsl2 import coeff, currents, family, rewrite

    w = el_mul(
        el_mul(g(xminus(0)), g(xminus(1))), el_mul(g(xplus(0)), g(xplus(-1)))
    )
    before = normal_form(w, S)
    memos = (
        rewrite._replacement,
        coeff.one_term,
        currents.psi,
        currents.phi,
        family.family_E_pos,
        family.family_E_neg,
    )
    assert set(memos) == set(_package_memos().values())
    rewrite.clear_caches()
    assert [m.cache_info().currsize for m in memos] == [0] * len(memos)
    assert normal_form(w, S) == before


def test_long_commuting_word_normal_forms_without_recursion():
    # 19,900 one-letter swaps, far more than the recursion limit of frames
    # (the loop makes them as 199 run moves)
    word = tuple(agen(i) for i in range(200, 0, -1))
    got = normal_form(Element.from_monomial(Monomial(word, 0)), S)
    assert got.terms == {Monomial(word[::-1], 0): RF_ONE}


def test_no_monomial_is_rewritten_twice(monkeypatch):
    # the worklist takes the largest pending word first, so every
    # contribution to a monomial is summed before it is rewritten
    from uqsl2 import rewrite

    rewritten = []
    expand = rewrite._expand_redex

    def spy(word, kexp, i, tag):
        rewritten.append((word, kexp))
        return expand(word, kexp, i, tag)

    monkeypatch.setattr(rewrite, "_expand_redex", spy)
    word = tuple(map(xminus, range(4))) + tuple(map(xplus, range(0, -4, -1)))
    normal_form(Element.from_monomial(Monomial(word, 0)), S)
    assert rewritten
    assert len(rewritten) == len(set(rewritten))


def test_run_move_equals_the_one_letter_chain():
    # a_n carried across a whole run in one move (R3 over x's of both
    # kinds, R2 over smaller a's, a_-n among them) sums to the chain of
    # one-letter rows; the run stops at the first letter that is no redex
    # with a_n, and the prefix and the rest of the word stay as they are
    from uqsl2.rewrite import _R2, _R3, _expand_redex

    rng = random.Random(3232)
    for _ in range(120):
        tag = rng.choice((_R2, _R3))
        n = rng.choice((1, 2, 3, 4)) if tag == _R2 else rng.choice((-3, -2, -1, 1, 2, 3))
        size = rng.randrange(1, 7)
        if tag == _R3:
            run = tuple(rng.choice((xplus, xminus))(rng.randrange(-3, 4)) for _ in range(size))
            stop = agen(rng.choice((-2, 1, 3)))
        else:
            smaller = [-n] + [l for l in range(-4, n) if l]
            run = tuple(agen(rng.choice(smaller)) for _ in range(size))
            stop = rng.choice((xplus(1), agen(n), agen(n + 1)))
        prefix = rand_word(rng, max_len=2)
        # the word ends with the run, or goes on from a letter that stops it
        rest = rng.choice(((), (stop,) + rand_word(rng, max_len=2)))
        word = prefix + (agen(n),) + run + rest
        outer = [Element.from_monomial(Monomial(w, 0)) for w in (prefix, rest)]
        want = el_mul(el_mul(outer[0], carry_one_letter_at_a_time(agen(n), run, tag)), outer[1])
        got = Element.zero()
        for mono, c in _expand_redex(word, 0, len(prefix), tag):
            got = got + Element({mono: c})
        assert got == want, word


def test_run_moves_sort_a_falling_a_word_in_one_move_per_letter(monkeypatch):
    # a[50]*...*a[1]: each a_n crosses the sorted run of smaller a's after
    # it at once, so 49 moves where one-letter swaps take 1,225
    from uqsl2 import rewrite

    calls = []
    expand = rewrite._expand_redex

    def spy(word, kexp, i, tag):
        calls.append(tag)
        return expand(word, kexp, i, tag)

    monkeypatch.setattr(rewrite, "_expand_redex", spy)
    word = tuple(agen(i) for i in range(50, 0, -1))
    got = normal_form(Element.from_monomial(Monomial(word, 0)), S)
    assert got.terms == {Monomial(word[::-1], 0): RF_ONE}
    assert len(calls) == 49


def test_normal_form_retains_no_words():
    # the rewrite loop keeps nothing between calls: once the result of a
    # long normal form is dropped, only the bounded rule, coefficient and
    # current memos hold what it built (a word memo held megabytes here)
    import gc
    import tracemalloc

    from uqsl2 import rewrite

    # the second 8-letter template of the nf-long-words benchmark
    word = tuple(map(xminus, (3, 1, 0, 2))) + tuple(map(xplus, (-2, 0, -3, -1)))
    for mode in (S, F):
        rewrite.clear_caches()
        tracemalloc.start()
        try:
            result = normal_form(Element.from_monomial(Monomial(word, 0)), mode)
            assert result.terms
            del result
            # a full collection also empties the interpreter's free lists
            # of tuples and dicts, which tracemalloc counts as in use
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 0.5 * 2**20, (mode, retained)


def test_diamond_detects_the_wrong_r6_convention(monkeypatch):
    # R6 with s = q^(-+2) in place of q^(+-2) is not confluent (module
    # docstring); the diamond check on criterion 1's words must see it
    from uqsl2 import rewrite

    rewrite.clear_caches()
    monkeypatch.setattr(rewrite, "q_pow", lambda k: q_pow(-k))
    rng = random.Random(20240)
    try:
        for n in range(500):
            e = Element.from_monomial(Monomial(rand_word(rng, max_len=6, max_idx=3), 0))
            if normal_form(e, F) != random_order_normal_form(e, F, random.Random(n)):
                return
    finally:
        monkeypatch.undo()
        rewrite.clear_caches()
    raise AssertionError("no word tells the two rewrite orders apart")


def test_diamond_shares_no_loop_with_normal_form(monkeypatch):
    # a fault in the rewrite loop alone, a run move that drops the
    # corrections of every letter after its first, leaves the random-order
    # rewriter's normal form as it was (it never calls _expand_redex) and
    # sets the two sides of criterion 1's diamond apart on its words
    from uqsl2 import rewrite

    expand = rewrite._expand_redex

    def faulty(word, kexp, i, tag):
        out = expand(word, kexp, i, tag)
        if tag in (rewrite._R2, rewrite._R3):
            # the swap comes first, then the corrections letter by letter;
            # the first letter's row holds its swap and its corrections
            return out[: len(rewrite._replacement(word[i], word[i + 1], tag).terms)]
        return out

    rng = random.Random(20240)
    for n in range(500):
        e = Element.from_monomial(Monomial(rand_word(rng, max_len=6, max_idx=3), 0))
        for mode in (S, F):
            right = normal_form(e, mode)
            with monkeypatch.context() as patch:
                patch.setattr(rewrite, "_expand_redex", faulty)
                wrong = normal_form(e, mode)
                other = random_order_normal_form(e, mode, random.Random(n))
            assert other == right, (e, mode)
            if wrong != other:
                return
    raise AssertionError("no word tells the faulty loop from the random-order rewriter")


def test_quadratic_relation_holds_in_full_mode_only():
    # x_(k+1) x_l - s x_l x_(k+1) - s x_k x_(l+1) + x_(l+1) x_k with
    # s = q^(+-2) for x+-: Drinfeld's same-sign relation, both signs,
    # k, l in [-3, 2], 72 instances
    for mk, s in ((xplus, q_pow(2)), (xminus, q_pow(-2))):
        for k in range(-3, 3):
            for l in range(-3, 3):
                rel = (
                    el_mul(g(mk(k + 1)), g(mk(l)))
                    - el_mul(g(mk(l)), g(mk(k + 1))).scale(s)
                    - el_mul(g(mk(k)), g(mk(l + 1))).scale(s)
                    + el_mul(g(mk(l + 1)), g(mk(k)))
                )
                assert normal_form(rel, F).is_zero()
                assert normal_form(omega(rel), F).is_zero()
                assert not normal_form(rel, S).is_zero()


# --- terminal R4 corrections kept as blocks until the loop ends ----------


def _bracket(j, i):
    # [x+_j, x-_i] = (u^(j-i) psi_(i+j) - u^(i-j) phi_(i+j)) / (q - q^-1),
    # from the current components themselves
    diff = psi(i + j).scale(u_pow(j - i)) - phi(i + j).scale(u_pow(i - j))
    return diff.scale(qminus().inv())


def _normal_prefix(rng):
    # an a-free word in normal position for both modes: sorted x+ block,
    # then sorted x- block
    xp = sorted(rng.randrange(-3, 4) for _ in range(rng.randrange(3)))
    xm = sorted(rng.randrange(-3, 4) for _ in range(rng.randrange(3)))
    return tuple(map(xplus, xp)) + tuple(map(xminus, xm))


def test_terminal_r4_correction_matches_the_bracket():
    # nf(P x-_i x+_j) = nf(P x+_j x-_i) - P [x+_j, x-_i] for a normal,
    # a-free prefix P, with i + j < 0, = 0 and > 0
    rng = random.Random(606)
    for i, j in ((-2, 1), (0, -3), (1, -1), (-2, 2), (0, 0), (2, 1), (-1, 3)):
        for _ in range(4):
            pre = Element.from_monomial(Monomial(_normal_prefix(rng), rng.randrange(-1, 2)))
            pre = pre.scale(u_pow(rng.randrange(-2, 3)) / qminus())
            word = el_mul(pre, el_mul(g(xminus(i)), g(xplus(j))))
            swap = el_mul(pre, el_mul(g(xplus(j)), g(xminus(i))))
            for mode in (S, F):
                want = normal_form(swap, mode) - el_mul(pre, _bracket(j, i))
                assert normal_form(word, mode) == want
                assert random_order_normal_form(word, mode, random.Random(i - j)) == want


def test_terminal_r4_at_index_sum_zero_feeds_psi_0_and_phi_0():
    # psi_0 = K and phi_0 = K^-1 are both nonzero, so x-_i x+_-i must leave
    # both K-terms: -u^(-2i)/(q - q^-1) P K and +u^(2i)/(q - q^-1) P K^-1
    for prefix in ((), (xplus(1),), (xplus(-2), xplus(2))):
        for i in (-2, 0, 1):
            word = prefix + (xminus(i), xplus(-i))
            for mode in (S, F):
                got = normal_form(Element.from_monomial(Monomial(word, 0)), mode)
                assert got.terms[Monomial(prefix, 1)] == -(u_pow(-2 * i) / qminus())
                assert got.terms[Monomial(prefix, -1)] == u_pow(2 * i) / qminus()


def test_cancelling_cartan_part_is_never_expanded(monkeypatch):
    # the Cartan parts of an EP bracket cancel, so psi_16/phi_-16 (231
    # a-words each) must not be multiplied out term by term
    from uqsl2.coeff import RatFunc
    from uqsl2.verify import verify_claim

    params = {"n": 0, "k": 16, "m": 1, "p": 1}
    products = [0]
    mul = RatFunc.__mul__

    def counting(self, other):
        products[0] += 1
        return mul(self, other)

    # full mode also sorts the same-sign pairs x+_0 x+_-17 and x-_1 x-_-16
    # by R6: each step shrinks the index gap 17 by 2, so each pair takes 9
    # steps, and a step scales at most 3 words.  That bound stays far below
    # the 231 products of expanding one psi_16.
    gap = params["n"] + params["k"] + 1
    bounds = {S: 60, F: 60 + 2 * ((gap + 1) // 2) * 3}
    for mode in (S, F):
        verify_claim("EP", params, mode)  # warm the memos
        monkeypatch.setattr(RatFunc, "__mul__", counting)
        monkeypatch.setattr(RatFunc, "__rmul__", counting)
        products[0] = 0
        verify_claim("EP", params, mode)
        monkeypatch.undo()
        assert 0 < products[0] < bounds[mode], (mode, products[0])


def _package_memos():
    import importlib
    import pkgutil

    import uqsl2

    memos = {}
    for info in pkgutil.iter_modules(uqsl2.__path__):
        mod = importlib.import_module(f"uqsl2.{info.name}")
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info"):
                memos[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return memos


def test_every_memo_is_bounded():
    # no unbounded caches: every memo of the package has a finite maxsize,
    # and clear_caches() reaches every one of them
    from uqsl2 import rewrite

    memos = _package_memos()
    assert "uqsl2.currents.psi" in memos and "uqsl2.rewrite._replacement" in memos
    assert [n for n, m in memos.items() if m.cache_info().maxsize is None] == []
    normal_form(el_mul(g(xminus(0)), el_mul(g(agen(1)), g(xplus(0)))), S)
    is_central(K, S)
    rewrite.clear_caches()
    assert [n for n, m in memos.items() if m.cache_info().currsize] == []


def test_every_memo_gets_hits_on_a_small_representative_run():
    # a memo that a run of every kind of work never hits only costs memory
    # and a line in clear_caches(): EP/EM sweeps in both modes, one long
    # mixed word (an nf benchmark template) and 100 family brackets
    from uqsl2 import rewrite
    from uqsl2.family import expand_general_commutator, family_E_neg, family_E_pos

    rewrite.clear_caches()
    cfg = {"n_max": 3, "k_max": 3, "m_range": (0, 1), "p_range": (0, 1)}
    for mode in (S, F):
        for claim in ("EP", "EM"):
            sweep_claim(claim, cfg, mode)
    word = (agen(2), agen(-1)) + tuple(map(xminus, (0, 1, 2))) + tuple(map(xplus, (0, -1, -2)))
    normal_form(Element.from_monomial(Monomial(word, 0)), S)
    rng = random.Random(100)
    for _ in range(100):
        n, k = rng.randrange(4), rng.randrange(4)
        m, l, eta, theta, p = (rng.randrange(-2, 3) for _ in range(5))
        sign = rng.choice("+-")
        a, b = family_E_pos(n, m, eta, sign), family_E_neg(k, l, theta, sign)
        kp = Element.k_power(p)
        raw = el_mul(el_mul(a, kp), b) - el_mul(el_mul(b, kp), a)
        assert raw == expand_general_commutator(n, k, m, l, eta, theta, p, sign)
    memos = _package_memos()
    assert [n for n, m in memos.items() if not m.cache_info().hits] == []
