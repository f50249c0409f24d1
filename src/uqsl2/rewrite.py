"""Normal ordering: a terminating rewrite system on generator words.

Canonical word shape: x+ block, x- block (each sorted ascending in full
mode), a block sorted ascending, K-power.
The rules, read off the defining relations:

  R1  K-powers pass x generators during multiplication (done in el_mul);
  R2  a_k a_l -> a_l a_k + delta_{k,-l} [2k]/k (u^2k - u^-2k)/(q - q^-1)
      for k > l;
  R3  a_n x+-_k -> x+-_k a_n  +-  [2n]/n u^(-+|n|) x+-_(n+k);
  R4  x-_i x+_j -> x+_j x-_i - (u^(j-i) psi_(i+j) - u^(i-j) phi_(i+j))/(q - q^-1);
  R6  (full mode only) x+-_i x+-_j -> s x_j x_i + s x_(i-1) x_(j+1) - x_(j+1) x_(i-1)
      for i > j + 1, and x+-_(j+1) x+-_j -> s x_j x_(j+1), with s = q^(+-2).

R6 is Drinfeld's quadratic same-sign relation

  x_(k+1) x_l - s x_l x_(k+1) = s x_k x_(l+1) - x_(l+1) x_k,

solved for its word with the larger first index.  Every step shrinks the
index gap, so it terminates.  Confluence fixes its convention: with
s = q^(-+2) instead, two rewrite orders of one word can reach different
normal forms, and the diamond tests see it.  Full mode, the default,
offers R6 beside R2-R4 in one pass and computes in U_q(sl2-hat).  Strict
mode leaves R6 out: it computes in the quotient of the free algebra by
R2-R4 and the K/gamma relations only, where same-sign x words are not
reordered.

R2 and R3 act on a run: a move carries a_n across the whole run of x's
(R3) or of smaller a's (R2) after it in one step, where one-letter swaps
would take one step per letter.  By the diamond lemma (Bergman 1978) a
composite of the rules that is an identity and lowers the order of
_order_key is itself a rule, and leaves the normal forms as they are.
The move reads only the two-letter rows of _replacement, which stays the
one statement of the rules.

normal_form is the one rewrite loop, and it has one order: it always
rewrites a word's rightmost redex.  The package has no random-order entry.
The diamond tests rewrite in random order with a rewriter of their own,
which has only the rule table (_replacement) and the redex scanner
(_word_moves) in common with this loop.

The rewrite loop does not expand an R4 correction that lands in normal
position: the redex is the word's last two letters and the prefix before it
has no a's and no move.  Each term of such a correction is prefix * (sorted
a-word) * K^(+-1), already normal, so by linearity the loop may sum the
scalars of all such corrections per (prefix, K-power, psi or phi, index)
and expand each block once, at the end.  The Cartan parts of an EP/EM
bracket cancel in these sums and are never expanded.  Corrections inside a
word are expanded at once: they rarely share a block.
"""

from __future__ import annotations

import enum
import heapq
from functools import lru_cache

from .coeff import RF_ONE, RatFunc, q_pow, qint, qminus, u_pow
from .currents import phi, psi
from .elements import AGEN, XMINUS, XPLUS, Element, Gen, Monomial, _element, el_mul


class RelationMode(enum.Enum):
    STRICT = "strict"
    FULL = "full"


_R2, _R3, _R4, _R6 = 2, 3, 4, 6


def _aa_central(k: int) -> RatFunc:
    # [a_k, a_-k] for k > 0
    return qint(2 * k) / RatFunc.from_int(k) * (u_pow(2 * k) - u_pow(-2 * k)) / qminus()


def _ax_coeff(n: int, kind: int) -> RatFunc:
    # coefficient of x+-_(n+k) in a_n x+-_k - x+-_k a_n
    c = qint(2 * n) / RatFunc.from_int(n)
    if kind == XPLUS:
        return c * u_pow(-abs(n))
    return -(c * u_pow(abs(n)))


def _r4_parts(i: int, j: int) -> list:
    """R4's correction of x-_i x+_j as (current, index, scalar) parts:
    x-_i x+_j = x+_j x-_i + sum of scalar current(index) / (q - q^-1),
    that is -(u^(j-i) psi_(i+j) - u^(i-j) phi_(i+j)) / (q - q^-1).  A part
    that is 0 is left out: psi_m = 0 for m < 0 and phi_m = 0 for m > 0."""
    parts = []
    if i + j >= 0:
        parts.append((psi, i + j, -u_pow(j - i)))
    if i + j <= 0:
        parts.append((phi, i + j, u_pow(i - j)))
    return parts


@lru_cache(maxsize=1 << 12)
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
    if tag == _R6:
        # g = x_i, h = x_j, i > j; at i = j + 1 the relation reads
        # x_(j+1) x_j = s x_j x_(j+1)
        s = q_pow(2 if g.kind == XPLUS else -2)
        out = Element({Monomial((h, g), 0): s})
        if g.idx > h.idx + 1:
            hi, lo = Gen(g.kind, g.idx - 1), Gen(g.kind, h.idx + 1)
            out = out + Element({Monomial((hi, lo), 0): s})
            out = out - Element.from_monomial(Monomial((lo, hi), 0))
        return out
    # R4: g = x-_i, h = x+_j
    out = Element.from_monomial(Monomial((h, g), 0))
    for current, m, s in _r4_parts(g.idx, h.idx):
        out = out + current(m).scale(s / qminus())
    return out


def _expand_redex(word, kexp: int, i: int, tag: int):
    """One rewrite at position i: (monomial, coefficient) pairs for
    prefix * replacement * suffix, with replacement K-powers passed over
    the suffix.

    An R3 or R2 move carries g = a_n = word[i] across the whole run after
    it in one step: the maximal run of x's (R3) or of a's smaller than a_n
    (R2).  The chain of one-letter swaps across the run h_1 ... h_r sums
    to h_1 ... h_r a_n plus, for each h_t, the non-swap terms of g h_t's
    row put at h_t's place; neither rule has a K-power, so nothing passes
    the suffix.  One monomial may occur in two pairs; the caller sums them."""
    g = word[i]
    prefix = word[:i]
    if tag == _R3 or tag == _R2:
        j = i + 2
        if tag == _R3:
            while j < len(word) and word[j].kind != AGEN:
                j += 1
        else:
            while j < len(word) and word[j].kind == AGEN and word[j].idx < g.idx:
                j += 1
        run = word[i + 1 : j]
        suffix = word[j:]
        out = [(Monomial(prefix + run + (g,) + suffix, kexp), RF_ONE)]
        for t, h in enumerate(run):
            for m2, c2 in _replacement(g, h, tag).terms.items():
                if m2.word != (h, g):
                    word2 = prefix + run[:t] + m2.word + run[t + 1 :] + suffix
                    out.append((Monomial(word2, kexp), c2))
        return out
    repl = _replacement(g, word[i + 1], tag)
    suffix = word[i + 2 :]
    net = 0
    for h in suffix:
        if h.kind == XPLUS:
            net += 1
        elif h.kind == XMINUS:
            net -= 1
    out = []
    for m2, c2 in repl.terms.items():
        e2 = m2.kexp
        if e2 and net:
            c2 = c2.mul_q_pow(2 * e2 * net)
        out.append((Monomial(prefix + m2.word + suffix, kexp + e2), c2))
    return out


def _word_moves(word, full: bool):
    """All admissible moves for one word, left to right: every R2-R4 redex
    and, in full mode, every out-of-order same-sign x pair (R6)."""
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
        elif full and g.kind == h.kind and g.idx > h.idx:
            moves.append((i, _R6))
    return tuple(moves)


def _order_key(word):
    """Heap key of a pending word: the smallest key is the largest word.

    Words are ordered by (#x generators, #a generators, the word itself
    compared lexicographically, generators compared as (kind, idx)).  Every
    rule strictly lowers this order: a swap (R2-R4, R6) keeps both counts
    and puts a smaller generator first at its position; an R2/R3 correction
    drops an a and keeps the x's; an R4 correction drops two x's; an R6
    correction keeps both counts and puts x_(i-1) or x_(j+1) where x_i was.
    A run move of R2/R3 lowers it too: its swap term puts the run's first
    letter, an x or a smaller a, where a_n was, and each of its other terms
    is an R2/R3 correction, which keeps the x's and drops one or two a's.
    Words of equal counts have equal length, so the lexicographic part
    compares like with like.  No rule raises the number of x's or the sum
    of the |indices| (an R4 correction may lengthen a word, into the
    a-words of psi or phi), and every a has |index| >= 1, so everything
    reachable from a finite element lies in a finite set of words and
    rewriting terminates; and a word taken off the heap largest-first can
    never be produced again.  The key is O(length), which matters: a key
    that counts inversions is quadratic in the length.
    """
    nx = 0
    neg = []
    for kind, idx in word:
        if kind != AGEN:
            nx += 1
        neg.append((-kind, -idx))
    return (-nx, nx - len(word), tuple(neg))


def normal_form(a: Element, mode: RelationMode = RelationMode.FULL) -> Element:
    """Fixpoint of the rewrite system; idempotent.

    The rewrite loop: a worklist of pending monomials, largest first under
    _order_key, so each is rewritten once, after every contribution to its
    coefficient has been summed.  It always applies a word's rightmost move
    (the last one _word_moves lists): corrections then have the shortest
    suffix to pass, which keeps the intermediate expansion markedly smaller.
    It takes no other order (see the module docstring).

    Each monomial is scanned once per call, when it first appears: its
    moves ride on its heap entry (key, monomial, moves), and a monomial
    already pending or done is only summed into.  A (key, monomial) pair
    is unique, so the heap never compares moves.  The loop keeps nothing
    between calls: what it builds is freed when it returns.

    An R4 step whose correction lands in normal position (the redex is the
    word's last two letters and the prefix before it has no a's and no
    move: the word's first move starts at i - 1 or later) sends its swap
    to the worklist as usual, but does not expand the correction.  It adds
    one scalar to a block keyed by (prefix, K-power, psi or phi, index),
    and each block whose scalar sums to nonzero is expanded once when the
    worklist is empty.  That is sound by linearity: every term of a
    block's expansion is prefix * (sorted a-word) * K^e, already normal, so
    nothing could have rewritten it.  Corrections that cancel, such as the
    Cartan part of an EP/EM bracket, are never expanded at all.
    """
    full = mode is RelationMode.FULL
    done = {}
    pending = {}
    heap = []
    blocks = {}

    def bump(table, key, c):
        acc = table.get(key)
        table[key] = c if acc is None else acc + c

    def add(mono, c):
        acc = pending.get(mono)
        if acc is not None:
            pending[mono] = acc + c
            return
        acc = done.get(mono)
        if acc is not None:
            done[mono] = acc + c
            return
        moves = _word_moves(mono.word, full)
        if moves:
            pending[mono] = c
            heapq.heappush(heap, (_order_key(mono.word), mono, moves))
        else:
            done[mono] = c

    for mono, c in a.terms.items():
        add(mono, c)
    while heap:
        _, mono, moves = heapq.heappop(heap)
        c = pending.pop(mono)
        if not c:
            continue
        word = mono.word
        i, tag = moves[-1]
        if (
            tag == _R4
            and i == len(word) - 2
            and moves[0][0] >= i - 1
            and all(g.kind != AGEN for g in word)
        ):
            prefix = word[:i]
            for current, m, s in _r4_parts(word[i].idx, word[i + 1].idx):
                bump(blocks, (prefix, mono.kexp, current, m), c * s)
            add(Monomial(prefix + (word[i + 1], word[i]), mono.kexp), c)
            continue
        for m2, c2 in _expand_redex(word, mono.kexp, i, tag):
            add(m2, c * c2)
    for (prefix, kexp, current, m), s in blocks.items():
        if s:
            s = s / qminus()
            for m2, c2 in current(m).terms.items():
                bump(done, Monomial(prefix + m2.word, kexp + m2.kexp), s * c2)
    return _element({m: c for m, c in done.items() if c})


def deformed_commutator(
    a: Element, b: Element, p: int, mode: RelationMode = RelationMode.FULL
) -> Element:
    """[a, b]_{K^p} = a K^p b - b K^p a, normal-formed; the ordinary
    commutator at p = 0, which is how ``comm`` calls it.  Each side is one
    ``el_mul`` pass, a K^p b, with no K-power element built."""
    return normal_form(el_mul(a, b, p) - el_mul(b, a, p), mode)
