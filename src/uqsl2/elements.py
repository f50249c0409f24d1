"""Generator words with K-powers and exact linear combinations.

Generators are x+_k, x-_k (k in Z) and a_n (n in Z, n != 0).  A monomial is
a word of generators together with an integer power of K; the central
gamma-powers live in the coefficients as even powers of u.  Multiplication
only concatenates words and passes K-powers to the right; all other
reordering is done by the rewrite module.
"""

from __future__ import annotations

from collections import namedtuple

from .coeff import RF_ONE, RatFunc, _coerce, mul_shifted

XPLUS, XMINUS, AGEN = 0, 1, 2
# how each kind of generator is spelled in text and JSON, and back
GEN_NAMES = {XPLUS: "x+", XMINUS: "x-", AGEN: "a"}
GEN_KINDS = {name: kind for kind, name in GEN_NAMES.items()}


Gen = namedtuple("Gen", ("kind", "idx"))

# tuple.__new__ builds a Gen or Monomial without the namedtuple's
# Python-level __new__; the hot constructors below use it
_tuple_new = tuple.__new__
_object_new = object.__new__


def xplus(k: int) -> Gen:
    return _tuple_new(Gen, (XPLUS, k))


def xminus(k: int) -> Gen:
    return _tuple_new(Gen, (XMINUS, k))


def agen(n: int) -> Gen:
    if n == 0:
        raise ValueError("a[0] is not a generator")
    return Gen(AGEN, n)


Monomial = namedtuple("Monomial", ("word", "kexp"))
UNIT_MONO = Monomial((), 0)


def word_sort_key(word: tuple):
    """The part of ``mono_sort_key`` that the word fixes: x+ indices, then
    x- indices, then a indices."""
    xp = tuple(g.idx for g in word if g.kind == XPLUS)
    xm = tuple(g.idx for g in word if g.kind == XMINUS)
    aa = tuple(g.idx for g in word if g.kind == AGEN)
    return (xp, xm, aa)


def mono_sort_key(m: Monomial):
    """Total order: x+ indices, then x- indices, then a indices, then the
    K-power, with the raw word breaking ties between interleavings."""
    return (word_sort_key(m.word), m.kexp, m.word)


class Element:
    """Finite linear combination of monomials with RatFunc coefficients.

    Zero coefficients are never stored; the zero element has no terms.
    Elements are value-like: operations return new instances and nothing
    mutates ``terms`` after construction, so they are safe to share across
    workers.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for mono, c in terms.items():
                if c.num:
                    t[mono] = c
        self.terms = t

    @classmethod
    def zero(cls) -> "Element":
        return cls()

    @classmethod
    def unit(cls) -> "Element":
        return cls({UNIT_MONO: RF_ONE})

    @classmethod
    def from_monomial(cls, mono: Monomial, coeff: RatFunc = RF_ONE) -> "Element":
        return cls({mono: coeff})

    @classmethod
    def from_gen(cls, g: Gen) -> "Element":
        return cls({Monomial((g,), 0): RF_ONE})

    @classmethod
    def from_coeff(cls, coeff: RatFunc) -> "Element":
        return cls({UNIT_MONO: coeff})

    @classmethod
    def k_power(cls, e: int) -> "Element":
        return cls({Monomial((), e): RF_ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __neg__(self):
        return _element({m: -c for m, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        t = dict(self.terms)
        for m, c in other.terms.items():
            acc = t.get(m)
            s = c if acc is None else acc + c
            if s:
                t[m] = s
            else:
                t.pop(m, None)
        return _element(t)

    def __sub__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        t = dict(self.terms)
        for m, c in other.terms.items():
            acc = t.get(m)
            if acc is None:
                t[m] = -c
                continue
            s = acc - c
            if s.num:
                t[m] = s
            else:
                del t[m]
        return _element(t)

    def __mul__(self, other):
        if isinstance(other, Element):
            return el_mul(self, other)
        c = _coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return self.scale(c)

    def __rmul__(self, other):
        c = _coerce(other)
        if c is NotImplemented:
            return NotImplemented
        return self.scale(c)

    def scale(self, coeff: RatFunc) -> "Element":
        if coeff.is_zero():
            return Element()
        return _element({m: c * coeff for m, c in self.terms.items()})

    def sorted_terms(self):
        """Deterministic iteration for printing and serialization."""
        return sorted(self.terms.items(), key=lambda kv: mono_sort_key(kv[0]))

    def __repr__(self):
        if not self.terms:
            return "Element(0)"
        bits = []
        for m, c in self.sorted_terms():
            gens = ".".join(f"{GEN_NAMES[g.kind]}{g.idx}" for g in m.word)
            bits.append(f"[{c!r}]*{gens or '1'}*K^{m.kexp}")
        return "Element(" + " + ".join(bits) + ")"


def _element(terms: dict) -> Element:
    """The Element holding ``terms`` itself, neither copied nor filtered:
    the caller hands over a fresh dict with no zero coefficient."""
    el = _object_new(Element)
    el.terms = terms
    return el


def el_mul(a: Element, b: Element, k: int = 0) -> Element:
    """The product a K^k b in the algebra: words concatenate, the left
    K-power, raised by k, passes the right word picking up q^(+-2) per x
    crossed, K-exponents add.  Each coefficient product and its K-passing
    q-shift are one ``mul_shifted``: one ``one_term`` lookup for a pair of
    one-term coefficients +-q^a u^b.  So a K^k b is one pass over the term
    pairs, with no K-power element and no intermediate product; k = 0 is
    the plain product a b."""
    bterms = []
    for mb, cb in b.terms.items():
        net = 0
        for g in mb.word:
            if g.kind == XPLUS:
                net += 1
            elif g.kind == XMINUS:
                net -= 1
        bterms.append((mb.word, mb.kexp, cb, 2 * net))
    out = {}
    for ma, ca in a.terms.items():
        wa, e = ma
        e += k
        for wb, eb, cb, qstep in bterms:
            c = mul_shifted(ca, cb, e * qstep)
            mono = _tuple_new(Monomial, (wa + wb, e + eb))
            acc = out.get(mono)
            if acc is None:
                # a product of nonzero coefficients is nonzero
                out[mono] = c
                continue
            s = acc + c
            if s.num:
                out[mono] = s
            else:
                del out[mono]
    return _element(out)


_OMEGA_KIND = {XPLUS: XMINUS, XMINUS: XPLUS, AGEN: AGEN}


def omega(a: Element) -> Element:
    """The involutive automorphism K -> K^-1, gamma -> gamma^-1,
    x+-_n -> x-+_(-n), a_n -> -a_(-n), applied generator-wise with word
    order preserved.

    The sign on the a generators is forced: without it the image of the
    mixed a-x relation fails by a sign, so the unsigned map is not a
    homomorphism of this presentation.  With it, omega sends every defining
    relation to a relation and swaps psi_m with phi_(-m) exactly.
    """
    out = {}
    for mono, c in a.terms.items():
        word = tuple(Gen(_OMEGA_KIND[g.kind], -g.idx) for g in mono.word)
        m2 = Monomial(word, -mono.kexp)
        c2 = c.subst_u_inverse()
        if sum(1 for g in mono.word if g.kind == AGEN) % 2:
            c2 = -c2
        acc = out.get(m2)
        out[m2] = c2 if acc is None else acc + c2
    return Element(out)

