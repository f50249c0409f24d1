"""Current components psi_m and phi_(-m).

Both families are defined through exponential generating functions,

    sum_{m>=0} psi_m  z^-m = K      exp( (q - q^-1) sum_{k>=1} a_k    z^-k ),
    sum_{m>=0} phi_-m z^m  = K^-1   exp( -(q - q^-1) sum_{k>=1} a_-k  z^k ),

with psi_m = 0 for m < 0 and phi_m = 0 for m > 0.  Same-sign a generators
commute, so the coefficients expand as honest partition sums with exact
rational multinomial factors.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .coeff import RF_ONE, RatFunc, qminus
from .elements import Element, Monomial, agen


def _partitions(m: int, largest=None):
    """Partitions of m into parts of at most ``largest`` (default m) as
    {part: multiplicity} dicts, m >= 0."""
    if m == 0:
        yield {}
        return
    for part in range(min(m, largest or m), 0, -1):
        for rest in _partitions(m - part, part):
            yield {**rest, part: rest.get(part, 0) + 1}


def _expansion(m: int, index_sign: int, coeff_base: RatFunc, kexp: int) -> Element:
    # coeff_base ** length for every partition length 0..m
    powers = [RF_ONE]
    for _ in range(m):
        powers.append(powers[-1] * coeff_base)
    terms = {}
    for lam in _partitions(m):
        length = sum(lam.values())
        denom = 1
        for mult in lam.values():
            denom *= factorial(mult)
        coeff = powers[length] * Fraction(1, denom)
        word = []
        for part in sorted(lam, key=lambda p: p * index_sign):
            word.extend([agen(index_sign * part)] * lam[part])
        terms[Monomial(tuple(word), kexp)] = coeff
    return Element(terms)


@lru_cache(maxsize=64)
def psi(m: int) -> Element:
    """psi_m as a polynomial word in a_1, a_2, ... times K; zero for m < 0."""
    if m < 0:
        return Element.zero()
    return _expansion(m, +1, qminus(), 1)


@lru_cache(maxsize=64)
def phi(m: int) -> Element:
    """phi_m as a polynomial word in a_-1, a_-2, ... times K^-1; zero for m > 0."""
    if m > 0:
        return Element.zero()
    return _expansion(-m, -1, -qminus(), -1)
