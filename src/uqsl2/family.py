"""Heisenberg-type family elements and the closed forms claimed for them.

The family members are two-term combinations of x generators with K-powers,

    E_n^+-(m, eta)      = gamma^(+-(n+1/2)) x+_n K^m  +  x-_(n+1) K^eta,
    E_(-n-1)^+-(l, th)  = x+_(-n-1) K^l  +  gamma^(+-(n+1/2)) x-_(-n) K^th,

with the one-parameter slice E(sign, p, m, index) fixing eta = th = -m - 2p
and l = m.  central_c and the *_fixture builders reproduce stated closed
forms literally; they are reference values to diff against, not
engine-derived truth.

family_E_pos and family_E_neg are bounded memos (family_E goes through
them): every caller gets the one shared Element per (n, m/l, eta/theta,
sign), so a member must never be mutated.  A bracket sweep asks for the
same few hundred members many times over.  A bad index or sign raises on
every call, since lru_cache stores no exception.
"""

from __future__ import annotations

from functools import lru_cache

from .coeff import RF_ONE, one_term, q_pow, qminus, u_pow
from .currents import phi, psi
from .elements import Element, Monomial, _element, _tuple_new, el_mul, xminus, xplus

SIGNS = ("+", "-")


def _sgn(sign: str) -> int:
    if sign == "+":
        return 1
    if sign == "-":
        return -1
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


@lru_cache(maxsize=1 << 12)
def family_E_pos(n: int, m: int, eta: int, sign: str) -> Element:
    if n < 0:
        raise ValueError(f"nonnegative-branch index must satisfy n >= 0, got {n}")
    s = _sgn(sign)
    return _element(
        {
            _tuple_new(Monomial, ((xplus(n),), m)): u_pow(s * (2 * n + 1)),
            _tuple_new(Monomial, ((xminus(n + 1),), eta)): RF_ONE,
        }
    )


@lru_cache(maxsize=1 << 12)
def family_E_neg(n: int, l: int, theta: int, sign: str) -> Element:
    if n < 0:
        raise ValueError(f"negative-branch index must satisfy n >= 0, got {n}")
    s = _sgn(sign)
    return _element(
        {
            _tuple_new(Monomial, ((xplus(-n - 1),), l)): RF_ONE,
            _tuple_new(Monomial, ((xminus(-n),), theta)): u_pow(s * (2 * n + 1)),
        }
    )


def family_E(sign: str, p: int, m: int, index: int) -> Element:
    """E^sign_(p,index)(m): index >= 0 picks the nonnegative branch and
    index <= -1 the negative one, with eta = theta = -m - 2p and l = m."""
    eta = -m - 2 * p
    if index >= 0:
        return family_E_pos(index, m, eta, sign)
    return family_E_neg(-index - 1, m, eta, sign)


def central_c(n: int, m: int, sign: str) -> Element:
    """The stated central values, taken literally:

        c_n^+(m) = q^(-2(m-1))/(q - q^-1) gamma^(2n+1) (gamma^n - gamma^(-n-1)),
        c_n^-(m) = q^(-2(m+1))/(q - q^-1) gamma^(-n-1) (gamma^(2n+2) - gamma^(-n)).
    """
    if n < 0:
        raise ValueError(f"central value index must satisfy n >= 0, got {n}")
    if _sgn(sign) > 0:
        coeff = (
            q_pow(-2 * (m - 1))
            * u_pow(2 * (2 * n + 1))
            * (u_pow(2 * n) - u_pow(-2 * (n + 1)))
            / qminus()
        )
    else:
        coeff = (
            q_pow(-2 * (m + 1))
            * u_pow(-2 * (n + 1))
            * (u_pow(2 * (2 * n + 2)) - u_pow(-2 * n))
            / qminus()
        )
    return Element.from_coeff(coeff)


def _general_groups(
    n: int, k: int, m: int, l: int, eta: int, theta: int, p: int, sign: str, printed: bool
) -> Element:
    if n < 0 or k < 0:
        raise ValueError("expansion indices must satisfy n >= 0 and k >= 0")
    s = _sgn(sign)
    # direct K-passing gives m+l+p on the x+x+ group; the stated display
    # prints eta+theta+p there instead
    kpp = eta + theta + p if printed else m + l + p
    k_mix = m + theta + p
    k_swap = eta + l + p
    k_minus = eta + theta + p
    g1 = 2 * s * (n + k + 1)
    gn = s * (2 * n + 1)
    gk = s * (2 * k + 1)
    xp_n, xm_k = xplus(n), xminus(-k)
    xm_n, xp_k = xminus(n + 1), xplus(-k - 1)
    new, M = _tuple_new, Monomial
    # each coefficient is +-q^a u^b: gamma-power times the K-passing q-power
    return _element(
        {
            new(M, ((xp_n, xm_k), k_mix)): one_term(1, -2 * (m + p), g1),
            new(M, ((xm_k, xp_n), k_mix)): one_term(-1, 2 * (theta + p), g1),
            new(M, ((xm_n, xp_k), k_swap)): one_term(1, 2 * (eta + p), 0),
            new(M, ((xp_k, xm_n), k_swap)): one_term(-1, -2 * (l + p), 0),
            new(M, ((xp_n, xp_k), kpp)): one_term(1, 2 * (m + p), gn),
            new(M, ((xp_k, xp_n), kpp)): one_term(-1, 2 * (l + p), gn),
            new(M, ((xm_n, xm_k), k_minus)): one_term(1, -2 * (eta + p), gk),
            new(M, ((xm_k, xm_n), k_minus)): one_term(-1, -2 * (theta + p), gk),
        }
    )


def expand_general_commutator(
    n: int, k: int, m: int, l: int, eta: int, theta: int, p: int, sign: str
) -> Element:
    """[E_n^sign(m,eta), E_(-k-1)^sign(l,theta)]_{K^p} assembled group by
    group from the K-passing bookkeeping, with no x reordering.

    Independent of el_mul: the four term groups and their coefficients are
    written out directly, which is what makes the agreement check against
    deformed_commutator meaningful.
    """
    return _general_groups(n, k, m, l, eta, theta, p, sign, printed=False)


def general_display_fixture(
    n: int, k: int, m: int, l: int, eta: int, theta: int, p: int, sign: str
) -> Element:
    """The stated form of the same expansion, kept literally (its x+x+ group
    carries K^(eta+theta+p))."""
    return _general_groups(n, k, m, l, eta, theta, p, sign, printed=True)


def expand_specialized_commutator(n: int, k: int, m: int, p: int, sign: str) -> Element:
    """The stated closed form of the bracket at l = m, theta = eta = -m-2p:

        q^(-2(m+p))/(q - q^-1) [ gamma^(+-(n+k+1))
            (gamma^((n+k)/2) psi_(n-k) - gamma^(-(n+k)/2) phi_(n-k))
          - (gamma^(-(n+k+2)/2) psi_(n-k) - gamma^((n+k+2)/2) phi_(n-k)) ] K^p

    Stored literally, including the overall K^p, with psi/phi expanded.
    """
    if n < 0 or k < 0:
        raise ValueError("expansion indices must satisfy n >= 0 and k >= 0")
    s = _sgn(sign)
    big = u_pow(2 * s * (n + k + 1))
    inner = (
        psi(n - k).scale(big * u_pow(n + k))
        - phi(n - k).scale(big * u_pow(-(n + k)))
        - psi(n - k).scale(u_pow(-(n + k + 2)))
        + phi(n - k).scale(u_pow(n + k + 2))
    )
    pref = q_pow(-2 * (m + p)) / qminus()
    return el_mul(inner.scale(pref), Element.k_power(p))
