"""Normal ordering: a terminating rewrite system on generator words.

Canonical word shape: x+ block, x- block, a block sorted ascending, K-power.
The rules, read off the defining relations:

  R1  K-powers pass x generators during multiplication (done in el_mul);
  R2  a_k a_l -> a_l a_k + delta_{k,-l} [2k]/k (u^2k - u^-2k)/(q - q^-1)
      for k > l;
  R3  a_n x+-_k -> x+-_k a_n  +-  [2n]/n u^(-+|n|) x+-_(n+k);
  R4  x-_i x+_j -> x+_j x-_i - (u^(j-i) psi_(i+j) - u^(i-j) phi_(i+j))/(q - q^-1);
  R5  (AbelianX mode only) same-sign x pairs sorted ascending, no correction.

Neither mode imposes Drinfeld's quadratic same-sign x relation, and that is
a choice, not a termination problem.  Ordered by index, with s = q^(+-2) for
x+-, it gives the rules

  x_i x_j -> s x_j x_i + s x_(i-1) x_(j+1) - x_(j+1) x_(i-1)    for i > j + 1,
  x_(j+1) x_j -> s x_j x_(j+1),

and every step shrinks the index gap, so they terminate.  Strict mode leaves
it out and computes in the quotient of the free algebra by R2-R4 and the
K/gamma relations only; AbelianX sorts same-sign x's instead (R5).

R5 is applied only to words that have no R2-R4 redex left.  Interleaving it
freely with R4 is not order-independent: commuting x+_1 x+_0 before or
after resolving an x-_0 to their left changes which current corrections
arise, and the results differ.  With R5 restricted this way both modes are
empirically confluent (see the diamond tests), but AbelianX's normal form is
not multiplicative, so it names no quotient algebra.  Witness: AbelianX sets
x+[0]*x+[-1] = x+[-1]*x+[0], yet

    nf(x-[-1]*x+[0]*x+[-1] - x-[-1]*x+[-1]*x+[0])

is a nonzero sum of x+ a K^-1 words whose coefficients all vanish at q = 1.
The R4 corrections carry psi/phi terms (K-powers and a's) that do not
commute with x+, so the commutation R5 imposes is not compatible with R4;
no restriction of R5 repairs that.  Only Drinfeld's quadratic same-sign
relation itself is compatible with R2-R4.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache

from .coeff import RF_ONE, RatFunc, q_pow, qint, qminus, u_pow
from .currents import phi, psi
from .elements import (
    AGEN,
    XMINUS,
    XPLUS,
    Element,
    Gen,
    Monomial,
    agen,
    el_mul,
    project_x_free,
    xminus,
    xplus,
)


class RelationMode(enum.Enum):
    STRICT = "strict"
    ABELIAN_X = "abelianx"


_R2, _R3, _R4, _R5 = 2, 3, 4, 5


@lru_cache(maxsize=None)
def _aa_central(k: int) -> RatFunc:
    # [a_k, a_-k] for k > 0
    return qint(2 * k) * Fraction(1, k) * (u_pow(2 * k) - u_pow(-2 * k)) / qminus()


@lru_cache(maxsize=None)
def _ax_coeff(n: int, kind: int) -> RatFunc:
    # coefficient of x+-_(n+k) in a_n x+-_k - x+-_k a_n
    c = qint(2 * n) * Fraction(1, n)
    if kind == XPLUS:
        return c * u_pow(-abs(n))
    return -(c * u_pow(abs(n)))


@lru_cache(maxsize=None)
def _cross_commutator(j: int, i: int) -> Element:
    # [x+_j, x-_i] = (u^(j-i) psi_(i+j) - u^(i-j) phi_(i+j)) / (q - q^-1)
    diff = psi(i + j).scale(u_pow(j - i)) - phi(i + j).scale(u_pow(i - j))
    return diff.scale(qminus().inv())


@lru_cache(maxsize=None)
def _replacement(g: Gen, h: Gen, tag: int) -> Element:
    if tag == _R2:
        terms = {Monomial((h, g), 0): RF_ONE}
        if g.idx == -h.idx:
            terms[Monomial((), 0)] = _aa_central(g.idx)
        return Element(terms)
    if tag == _R3:
        return Element(
            {
                Monomial((h, g), 0): RF_ONE,
                Monomial((Gen(h.kind, g.idx + h.idx),), 0): _ax_coeff(g.idx, h.kind),
            }
        )
    # R4: g = x-_i, h = x+_j
    swapped = Element.from_monomial(Monomial((h, g), 0))
    return swapped - _cross_commutator(h.idx, g.idx)


def _first_redex(word):
    # rightmost redex: corrections then have the shortest suffix to pass,
    # which keeps the intermediate expansion markedly smaller
    for i in range(len(word) - 2, -1, -1):
        g = word[i]
        h = word[i + 1]
        if g.kind == AGEN:
            if h.kind != AGEN:
                return i, _R3
            if g.idx > h.idx:
                return i, _R2
        elif g.kind == XMINUS and h.kind == XPLUS:
            return i, _R4
    return None


def _sort_x_blocks(mono: Monomial) -> Monomial:
    # only called on R2-R4-normal words: x+ block, x- block, a block
    xp = sorted(g.idx for g in mono.word if g.kind == XPLUS)
    xm = sorted(g.idx for g in mono.word if g.kind == XMINUS)
    tail = tuple(g for g in mono.word if g.kind == AGEN)
    word = tuple(xplus(i) for i in xp) + tuple(xminus(i) for i in xm) + tail
    if word == mono.word:
        return mono
    return Monomial(word, mono.kexp)


def _expand_redex(word, kexp: int, i: int, tag: int):
    """One rewrite at position i: (monomial, coefficient) pairs for
    prefix * replacement * suffix, with replacement K-powers passed over
    the suffix."""
    repl = _replacement(word[i], word[i + 1], tag)
    prefix = word[:i]
    suffix = word[i + 2 :]
    net = 0
    for g in suffix:
        if g.kind == XPLUS:
            net += 1
        elif g.kind == XMINUS:
            net -= 1
    out = []
    for m2, c2 in repl.terms.items():
        e2 = m2.kexp
        if e2 and net:
            c2 = c2 * q_pow(2 * e2 * net)
        out.append((Monomial(prefix + m2.word + suffix, kexp + e2), c2))
    return out


_NF_CACHE = {}
_NF_CACHE_MAX = 400_000


def clear_caches():
    """Empty every memo the engine keeps, so the next computation is cold."""
    _NF_CACHE.clear()
    for memo in (
        _word_moves,
        _replacement,
        _cross_commutator,
        _ax_coeff,
        _aa_central,
        _probe_set,
        psi,
        phi,
        qint,
        q_pow,
        u_pow,
        qminus,
    ):
        memo.cache_clear()


def _nf_word(word, abelian: bool) -> Element:
    """Normal form of a bare word, memoized.

    Termination: every R2-R4 application strictly decreases the measure
    (#x generators, #a generators, #disordered adjacent pairs) and the
    final AbelianX sort is a plain permutation.
    """
    key = (word, abelian)
    cached = _NF_CACHE.get(key)
    if cached is not None:
        return cached
    if len(_NF_CACHE) >= _NF_CACHE_MAX:
        _NF_CACHE.clear()
    hit = _first_redex(word)
    if hit is None:
        mono = Monomial(word, 0)
        if abelian:
            mono = _sort_x_blocks(mono)
        out = Element.from_monomial(mono)
        _NF_CACHE[key] = out
        return out
    terms = {}
    for m2, c2 in _expand_redex(word, 0, *hit):
        sub = _nf_word(m2.word, abelian)
        e2 = m2.kexp
        for m3, c3 in sub.terms.items():
            mono = Monomial(m3.word, m3.kexp + e2)
            cc = c3 * c2
            acc = terms.get(mono)
            s = cc if acc is None else acc + cc
            if s:
                terms[mono] = s
            else:
                terms.pop(mono, None)
    out = Element()
    out.terms = terms
    _NF_CACHE[key] = out
    return out


def normal_form(a: Element, mode: RelationMode = RelationMode.STRICT) -> Element:
    """Fixpoint of the rewrite system; idempotent."""
    abelian = mode is RelationMode.ABELIAN_X
    out = {}
    for mono, c in a.terms.items():
        base = _nf_word(mono.word, abelian)
        e = mono.kexp
        for m2, c2 in base.terms.items():
            # appending K^e reorders nothing: everything it would cross is
            # already to its left
            m3 = Monomial(m2.word, m2.kexp + e) if e else m2
            cc = c2 * c
            acc = out.get(m3)
            s = cc if acc is None else acc + cc
            if s:
                out[m3] = s
            else:
                out.pop(m3, None)
    el = Element()
    el.terms = out
    return el


@lru_cache(maxsize=1 << 16)
def _word_moves(word, abelian: bool):
    """All admissible moves for one word: every R2-R4 redex, and if none
    exist and same-sign sorting is on, every out-of-order same-sign x pair."""
    moves = []
    for i in range(len(word) - 1):
        g = word[i]
        h = word[i + 1]
        if g.kind == AGEN:
            if h.kind != AGEN:
                moves.append((i, _R3))
            elif g.idx > h.idx:
                moves.append((i, _R2))
        elif g.kind == XMINUS and h.kind == XPLUS:
            moves.append((i, _R4))
    if not moves and abelian:
        for i in range(len(word) - 1):
            g = word[i]
            h = word[i + 1]
            if g.kind == h.kind and g.kind != AGEN and g.idx > h.idx:
                moves.append((i, _R5))
    return tuple(moves)


def normal_form_random(a: Element, mode: RelationMode, rng) -> Element:
    """Normal form computed by applying admissible rules in random order.

    Exists for the diamond tests: the result must coincide with
    normal_form for every random order.
    """
    abelian = mode is RelationMode.ABELIAN_X
    done = {}
    active = {}
    pool = []  # keys of active, possibly stale; avoids rebuilding a list per step
    for mono, c in a.terms.items():
        if _word_moves(mono.word, abelian):
            active[mono] = c
            pool.append(mono)
        else:
            done[mono] = c
    while active:
        j = rng.randrange(len(pool))
        mono = pool[j]
        if mono not in active:
            pool[j] = pool[-1]
            pool.pop()
            continue
        pool[j] = pool[-1]
        pool.pop()
        c = active.pop(mono)
        if c.is_zero():
            continue
        moves = _word_moves(mono.word, abelian)
        i, tag = moves[rng.randrange(len(moves))]
        if tag == _R5:
            w = list(mono.word)
            w[i], w[i + 1] = w[i + 1], w[i]
            pieces = [(Monomial(tuple(w), mono.kexp), RF_ONE)]
        else:
            pieces = _expand_redex(mono.word, mono.kexp, i, tag)
        for m2, c2 in pieces:
            cc = c * c2
            if _word_moves(m2.word, abelian):
                acc = active.get(m2)
                if acc is None:
                    active[m2] = cc
                    pool.append(m2)
                else:
                    s = acc + cc
                    if s:
                        active[m2] = s
                    else:
                        del active[m2]
            else:
                acc = done.get(m2)
                s = cc if acc is None else acc + cc
                if s:
                    done[m2] = s
                else:
                    done.pop(m2, None)
    out = Element()
    out.terms = {m: c for m, c in done.items() if c}
    return out


def commutator(a: Element, b: Element, mode: RelationMode = RelationMode.STRICT) -> Element:
    return normal_form(el_mul(a, b) - el_mul(b, a), mode)


def deformed_commutator(
    a: Element, b: Element, p: int, mode: RelationMode = RelationMode.STRICT
) -> Element:
    """[a, b]_{K^p} = a K^p b - b K^p a, normal-formed; the ordinary
    commutator at p = 0."""
    kp = Element.k_power(p)
    return normal_form(el_mul(el_mul(a, kp), b) - el_mul(el_mul(b, kp), a), mode)


def equals(a: Element, b: Element, mode: RelationMode = RelationMode.STRICT) -> bool:
    """Whether a - b normal-forms to zero.

    Sound for Strict mode's quotient only: the quadratic same-sign x
    relation is never imposed, so this does not decide equality in the full
    quantized enveloping algebra (a further quotient).  Under AbelianX it is
    not sound at all: that normal form is not multiplicative (see the module
    docstring), so a zero here is not equality in any algebra.
    """
    return normal_form(a - b, mode).is_zero()


@lru_cache(maxsize=None)
def _probe_set():
    probes = []
    for k in range(-2, 3):
        probes.append(Element.from_gen(xplus(k)))
        probes.append(Element.from_gen(xminus(k)))
    for n in (-2, -1, 1, 2):
        probes.append(Element.from_gen(agen(n)))
    probes.append(Element.k_power(1))
    return tuple(probes)


def is_central(a: Element, mode: RelationMode = RelationMode.STRICT) -> bool:
    """Commutes with every probe generator (x+-_k for |k| <= 2, a_(+-1),
    a_(+-2), and K).  Expects ``a`` in normal form."""
    return all(commutator(a, g, mode).is_zero() for g in _probe_set())


def relation_instances(bound: int = 3):
    """Elements that the rewrite system must send to zero: lhs - rhs for
    every implemented relation with generator indices up to ``bound``.
    Used by the homomorphism tests for omega."""
    out = []
    idxs = [i for i in range(-bound, bound + 1) if i]
    for k in idxs:
        for l in idxs:
            lhs = el_mul(Element.from_gen(agen(k)), Element.from_gen(agen(l)))
            rhs = el_mul(Element.from_gen(agen(l)), Element.from_gen(agen(k)))
            if k == -l and k > 0:
                rhs = rhs + Element.from_coeff(_aa_central(k))
            elif k == -l and k < 0:
                rhs = rhs - Element.from_coeff(_aa_central(-k))
            out.append(lhs - rhs)
    for n in idxs:
        for k in range(-bound, bound + 1):
            for kind, mk in ((XPLUS, xplus), (XMINUS, xminus)):
                lhs = el_mul(Element.from_gen(agen(n)), Element.from_gen(mk(k)))
                rhs = el_mul(Element.from_gen(mk(k)), Element.from_gen(agen(n)))
                rhs = rhs + Element.from_gen(mk(n + k)).scale(_ax_coeff(n, kind))
                out.append(lhs - rhs)
    for i in range(-bound, bound + 1):
        for j in range(-bound, bound + 1):
            lhs = el_mul(Element.from_gen(xminus(i)), Element.from_gen(xplus(j)))
            rhs = el_mul(Element.from_gen(xplus(j)), Element.from_gen(xminus(i)))
            rhs = rhs - _cross_commutator(j, i)
            out.append(lhs - rhs)
    return out
