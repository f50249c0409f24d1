"""Shared test utilities: random value generators, Drinfeld's same-sign
relation as stated, the independent power-series oracle for the current
components, the level-0 representation oracle, and numeric cross-checks.

It also holds what only tests call, so that the package holds only what
its commands run: equality and centrality in the algebra, the engine's
relation instances, a random-order rewriter for the diamond tests, the
reference JSON serializer, a coefficient's polynomial form and the x-free
part of an element."""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial

from uqsl2.coeff import RF_ONE, PoleError, RatFunc, _rf, one_term, q_pow, qminus, u_pow
from uqsl2.elements import (
    AGEN,
    GEN_NAMES,
    XPLUS,
    Element,
    Monomial,
    agen,
    el_mul,
    xminus,
    xplus,
)
from uqsl2.expr import evaluate
from uqsl2.render import FORMATS, _poly
from uqsl2.rewrite import RelationMode, _replacement, _word_moves, commutator, normal_form
from uqsl2.verify import sweep_params, verify_claim


def rand_gen(rng, max_idx=3):
    kind = rng.randrange(3)
    if kind == 2:
        return agen(rng.choice([i for i in range(-max_idx, max_idx + 1) if i]))
    idx = rng.randrange(-max_idx, max_idx + 1)
    return xplus(idx) if kind == 0 else xminus(idx)


def rand_word(rng, max_len=6, max_idx=3):
    return tuple(rand_gen(rng, max_idx) for _ in range(rng.randrange(0, max_len + 1)))


def rand_coeff(rng):
    c = q_pow(rng.randrange(-2, 3)) * u_pow(rng.randrange(-2, 3)) * rng.randrange(1, 5)
    if rng.random() < 0.3:
        c = c / qminus()
    if rng.random() < 0.5:
        c = -c
    return c


def rand_element(rng, nterms=3, max_len=4, max_idx=3, max_kexp=2):
    terms = {}
    for _ in range(rng.randrange(1, nterms + 1)):
        mono = Monomial(rand_word(rng, max_len, max_idx), rng.randrange(-max_kexp, max_kexp + 1))
        terms[mono] = rand_coeff(rng)
    return Element(terms)


def rand_poly(rng, nterms=3, max_exp=3):
    terms = {}
    for _ in range(rng.randrange(0, nterms + 1)):
        e = (rng.randrange(-max_exp, max_exp + 1), rng.randrange(-max_exp, max_exp + 1))
        terms[e] = rng.randrange(-5, 6)
    return {e: c for e, c in terms.items() if c}


def as_poly(c: RatFunc) -> dict | None:
    """The value as a Laurent polynomial, its exponent dict, or None when
    it is not one."""
    if c.den == 1 and not c.d:
        return c.num
    return None


def admissible_den(c, eq, eu, k) -> dict:
    """c q^eq u^eu (q - q^-1)^k as a polynomial: the denominators the
    coefficient arithmetic divides by, for a nonzero integer c."""
    return as_poly(one_term(c, eq, eu) * qminus() ** k)


def ratfunc(num: dict, den: dict) -> RatFunc:
    """num / den for zero-free exponent dicts, den = c q^a u^b (q - q^-1)^k;
    any other den raises ValueError (see ``RatFunc.inv``)."""
    return _rf(num, 1) * _rf(den, 1).inv()


def rand_ratfunc(rng):
    c = rng.choice([-6, -4, -3, -2, -1, 1, 2, 3, 4, 6])
    den = admissible_den(c, rng.randrange(-2, 3), rng.randrange(-2, 3), rng.randrange(4))
    return ratfunc(rand_poly(rng), den)


def project_x_free(a: Element) -> Element:
    """Sub-sum of terms whose words contain no x generators."""
    return Element({m: c for m, c in a.terms.items() if all(g.kind == AGEN for g in m.word)})


# --- the algebra, checked through the engine ------------------------------


def equals(a: Element, b: Element, mode: RelationMode = RelationMode.FULL) -> bool:
    """Whether a - b normal-forms to zero: in full mode, the default, this
    is equality in U_q(sl2-hat).

    In Strict mode it is equality in the quotient by R2-R4 only: the
    quadratic same-sign x relation is never imposed, so a nonzero
    difference there may still vanish in U_q(sl2-hat).
    """
    return normal_form(a - b, mode).is_zero()


_PROBES = (
    Element.from_gen(xplus(0)),
    Element.from_gen(xminus(0)),
    Element.from_gen(xminus(1)),
    Element.from_gen(xplus(-1)),
    Element.k_power(1),
)


def is_central(a: Element, mode: RelationMode = RelationMode.FULL) -> bool:
    """Whether ``a`` commutes with x+_0, x-_0, x-_1, x+_-1 and K, which is
    exactly centrality.  Expects ``a`` in normal form.

    The five generate the algebra over Q(q, u), so nothing else need be
    probed.  Whatever commutes with K commutes with K^-1.  R4 gives
    [x+_0, x-_1] = u^-1 psi_1 / (q - q^-1) and
    [x+_-1, x-_0] = -u phi_-1 / (q - q^-1), where psi_1 = (q - q^-1) K a_1
    and phi_-1 = -(q - q^-1) K^-1 a_-1; so a_1 and a_-1.  R3 gives
    a_n x+-_k - x+-_k a_n as a nonzero multiple of x+-_(n+k), so a_1 and
    a_-1 carry x+-_0 to every x+-_k.  R4 then gives every psi_n and
    phi_-n, as [x+_n, x-_0] and [x+_0, x-_-n], and psi_n is
    (q - q^-1) K a_n plus a polynomial in K and a_1 ... a_(n-1), and
    phi_-n likewise in a_-n; so every a_n.  Only R3 and R4 are used, so
    the argument holds in full and in Strict mode alike.
    """
    return all(commutator(a, g, mode).is_zero() for g in _PROBES)


def relation_instances(bound: int = 3):
    """Elements that the rewrite system must send to zero: g h minus its
    replacement, for each move of each two-letter word g h in x+-_i and a_i
    (i != 0 for a) with |i| <= ``bound``.  These are the engine's own rules,
    R2-R4 and R6, read off its table.  Used by the homomorphism tests for
    omega, and as the input of the level-0 representation oracle, on which
    each must act as 0."""
    span = range(-bound, bound + 1)
    gens = [mk(i) for i in span for mk in (xplus, xminus)] + [agen(i) for i in span if i]
    return [
        Element.from_monomial(Monomial((g, h), 0)) - _replacement(g, h, tag)
        for g in gens
        for h in gens
        for _, tag in _word_moves((g, h), True)
    ]


def random_order_normal_form(e: Element, mode: RelationMode, rng) -> Element:
    """The normal form of ``e`` reached by rewriting in random order, the
    other side of the diamond tests.

    Each step picks a random monomial that has a move (from a dict of them
    in insertion order, so a seed reproduces the run) and a random one of
    its moves from ``_word_moves``, and replaces the pair g h at the move by
    its row of the rule table: c prefix g h suffix K^e becomes
    c prefix * _replacement(g, h, tag) * suffix K^e, multiplied by
    ``el_mul``.  A monomial is rewritten with whatever coefficient it has
    when it is picked.  There is no worklist, no run move, no R4 block step
    and no summing before a rewrite, so this shares no loop with
    ``normal_form``: the two meet only in the rule table and the scanner."""
    moves_of = cache(partial(_word_moves, full=mode is RelationMode.FULL))
    terms = dict(e.terms)
    pending = {m: None for m in terms if moves_of(m.word)}
    while pending:
        mono = list(pending)[rng.randrange(len(pending))]
        del pending[mono]
        word = mono.word
        moves = moves_of(word)
        i, tag = moves[rng.randrange(len(moves))]
        prefix = Element.from_monomial(Monomial(word[:i], 0), terms.pop(mono))
        suffix = Element.from_monomial(Monomial(word[i + 2 :], mono.kexp))
        step = el_mul(el_mul(prefix, _replacement(word[i], word[i + 1], tag)), suffix)
        for m, c in step.terms.items():
            if m in terms:
                c = terms[m] + c
            if c:
                terms[m] = c
                if moves_of(m.word):
                    pending[m] = None
            else:
                del terms[m]
                pending.pop(m, None)
    return Element(terms)


# --- JSON ------------------------------------------------------------------


def element_to_obj(e: Element) -> dict:
    """The JSON object of ``e``, built term by term: the reference the JSON
    ``render.Printer`` is checked against, as
    ``json.dumps(element_to_obj(e), separators=(",", ":"))``."""
    st = FORMATS["json"]
    terms = []
    for mono, c in e.sorted_terms():
        num, den = c.canonical()
        terms.append(
            {
                "coeff": {"num": _poly(num, st), "den": _poly(den, st)},
                "word": [{"g": GEN_NAMES[g.kind], "k": g.idx} for g in mono.word],
                "kexp": mono.kexp,
            }
        )
    return {"terms": terms}


def json_to_element(obj: dict) -> Element:
    """The element a JSON object of ``element_to_obj``'s schema spells,
    which is what the JSON printer writes, read back by
    ``expr.evaluate``: each term is the text (num)/(den)*gen[k]*...*K^kexp,
    and the terms are summed."""
    terms = [
        "*".join(
            [f"({t['coeff']['num']})/({t['coeff']['den']})"]
            + [f"{g['g']}[{g['k']}]" for g in t["word"]]
            + [f"K^{t['kexp']}"]
        )
        for t in obj["terms"]
    ]
    return evaluate("+".join(terms) or "0")


def rand_point(rng):
    q0 = Fraction(rng.randrange(2, 9), rng.randrange(1, 5))
    u0 = Fraction(rng.randrange(2, 9), rng.randrange(1, 5))
    return q0, u0


def assert_coeffs_match_numerically(a: Element, b: Element, rng, points=3):
    """Independent oracle on coefficient canonicalization: matched monomials
    of two equal elements must evaluate identically at random rational
    points."""
    assert set(a.terms) == set(b.terms)
    for mono in a.terms:
        done = 0
        while done < points:
            q0, u0 = rand_point(rng)
            try:
                va = a.terms[mono].evaluate(q0, u0)
                vb = b.terms[mono].evaluate(q0, u0)
            except PoleError:
                continue
            assert va == vb, (mono, q0, u0)
            done += 1


def drinfeld_r6(mk, s, k, l) -> Element:
    """Drinfeld's same-sign relation, unsolved, with x = mk (xplus or
    xminus) and s = q^(+-2) its convention:

        x_(k+1) x_l - s x_l x_(k+1) - s x_k x_(l+1) + x_(l+1) x_k.

    Built from the relation as stated, not from the engine's rewrite
    table, so it is the independent statement the table is checked
    against."""

    def pair(i, j):
        return el_mul(Element.from_gen(mk(i)), Element.from_gen(mk(j)))

    return pair(k + 1, l) - pair(l, k + 1).scale(s) - pair(k, l + 1).scale(s) + pair(l + 1, k)


def carry_one_letter_at_a_time(g, run: tuple, tag) -> Element:
    """g h_1 ... h_r with g carried right across the run one letter at a
    time: step t replaces the pair g h_t by the table's row
    _replacement(g, h_t, tag) and rewrites only the word in which g moved
    on.  The reference for the rewrite loop's one-move R2/R3."""
    word = (g,) + run
    out = Element.from_monomial(Monomial(word, 0))
    for t, h in enumerate(run):
        left, right = (Element.from_monomial(Monomial(w, 0)) for w in (word[:t], word[t + 2 :]))
        out = out - Element.from_monomial(Monomial(word, 0))
        out = out + el_mul(el_mul(left, _replacement(g, h, tag)), right)
        word = word[:t] + (h, g) + word[t + 2 :]
    return out


def sweep_claim(claim: str, cfg: dict, mode) -> list:
    """All reports for one claim over the ranges of ``cfg``, in the order
    of ``verify.sweep_params``."""
    return [verify_claim(claim, params, mode) for params in sweep_params(claim, cfg)]


def is_same_sign_residual(el: Element, u0=Fraction(3)) -> bool:
    """Nonzero, every word a pair x+-_i x+-_j of one sign, and every
    coefficient zero at q = 1 (u = u0): the shape of an EP/EM bracket in
    full mode."""
    return bool(el.terms) and all(
        len(m.word) == 2
        and m.word[0].kind == m.word[1].kind != AGEN
        and c.evaluate(1, u0) == 0
        for m, c in el.terms.items()
    )


# --- independent series oracle for the current components ---------------


def _series_mul(a, b, m_max):
    out = [dict() for _ in range(m_max + 1)]
    for i, da in enumerate(a):
        if not da:
            continue
        for j, db in enumerate(b):
            if i + j > m_max or not db:
                continue
            tgt = out[i + j]
            for ka, ca in da.items():
                for kb, cb in db.items():
                    key = tuple(sorted(ka + kb))
                    c = ca * cb
                    acc = tgt.get(key)
                    tgt[key] = c if acc is None else acc + c
    return out


def series_exponential(m_max: int, coeff: RatFunc, index_sign: int):
    """Coefficients of exp(coeff * sum_{k>=1} a_(index_sign*k) z^k) through
    z^m_max, in commuting a variables: a list of {sorted index tuple:
    RatFunc} by z power.  Brute force, independent of the partition code."""
    x = [dict() for _ in range(m_max + 1)]
    for k in range(1, m_max + 1):
        x[k][(index_sign * k,)] = coeff
    result = [dict() for _ in range(m_max + 1)]
    result[0][()] = RF_ONE
    term = [dict() for _ in range(m_max + 1)]
    term[0][()] = RF_ONE
    for j in range(1, m_max + 1):
        term = _series_mul(term, x, m_max)
        inv_j = RatFunc.from_fraction(Fraction(1, j))
        term = [{k: c * inv_j for k, c in d.items()} for d in term]
        for i, d in enumerate(term):
            tgt = result[i]
            for k, c in d.items():
                acc = tgt.get(k)
                tgt[k] = c if acc is None else acc + c
    return result


def oracle_current(m: int, upper: bool) -> Element:
    """psi_m (upper) or phi_m (not upper) via the series oracle."""
    if upper:
        if m < 0:
            return Element.zero()
        coeffs = series_exponential(m, qminus(), +1)[m]
        kexp = 1
    else:
        if m > 0:
            return Element.zero()
        coeffs = series_exponential(-m, -qminus(), -1)[-m]
        kexp = -1
    terms = {}
    for key, c in coeffs.items():
        word = tuple(agen(i) for i in key)
        terms[Monomial(word, kexp)] = c
    return Element(terms)


# --- level-0 representation oracle ---------------------------------------


def level0_action(el: Element, m=3, q=Fraction(3), a=Fraction(5)) -> list:
    """The matrix of ``el`` on the evaluation module V_m(a) at gamma = 1
    (so u = 1), a list of rows over the basis v_0..v_m.  With
    lambda_r = a q^(-2r):

        K v_r = q^(m-2r) v_r,
        x+_k v_r = [r] lambda_r^k v_(r-1),
        x-_k v_r = [m-r] lambda_(r+1)^k v_(r+1),
        a_k v_r = alpha_k(r) v_r.

    alpha_k(r), k != 0, comes from the exact series log of K^-1 psi(z)
    (k > 0) or K phi(z) (k < 0).  With s the sign of k and
    b_n(r) = [m-r][r+1] lambda_(r+1)^n - [r][m-r+1] lambda_r^n, the
    eigenvalue of [x+_j, x-_(n-j)] on v_r,

        alpha_k(r) = s [w^|k|] log(1 + sum_(n>=1) c_n w^n) / (q - q^-1),
        c_n = s (q - q^-1) b_(s n)(r) q^(-s(m-2r)),

    the log taken by k L_k = k c_k - sum_(j<k) j L_j c_(k-j).  A monomial
    applies its K-power first, then its letters from right to left.
    Chari-Pressley, A Guide to Quantum Groups, ch. 12."""

    def qint(n):
        return (q**n - q**-n) / (q - 1 / q)

    def lam(t):
        return a * q ** (-2 * t)

    def alpha(k, r):
        def b(n):
            return qint(m - r) * qint(r + 1) * lam(r + 1) ** n - qint(r) * qint(m - r + 1) * lam(r) ** n

        s, top = (1, k) if k > 0 else (-1, -k)
        c = [None] + [s * (q - 1 / q) * b(s * n) * q ** (-s * (m - 2 * r)) for n in range(1, top + 1)]
        log = [None]
        for n in range(1, top + 1):
            log.append((n * c[n] - sum(j * log[j] * c[n - j] for j in range(1, n))) / n)
        return s * log[top] / (q - 1 / q)

    out = [[Fraction(0)] * (m + 1) for _ in range(m + 1)]
    for mono, c in el.terms.items():
        value = c.evaluate(q, 1)
        for col in range(m + 1):
            r, s = col, q ** (mono.kexp * (m - 2 * col))
            for g in reversed(mono.word):
                if g.kind == XPLUS:
                    s *= qint(r) * lam(r) ** g.idx
                    r -= 1
                elif g.kind == AGEN:
                    s *= alpha(g.idx, r)
                else:
                    s *= qint(m - r) * lam(r + 1) ** g.idx
                    r += 1
                if not s:
                    break
            else:
                out[r][col] += value * s
    return out
