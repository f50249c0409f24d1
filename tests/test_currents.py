from uqsl2.coeff import RatFunc, qminus
from uqsl2.currents import phi, psi
from uqsl2.elements import Element, Monomial, agen, omega
from uqsl2.rewrite import normal_form

from helpers import oracle_current

K = Element.k_power(1)
KINV = Element.k_power(-1)


def test_boundary_values():
    assert psi(0) == K
    assert phi(0) == KINV


def test_vanishing():
    for m in range(-6, 0):
        assert psi(m).is_zero()
    for m in range(1, 7):
        assert phi(m).is_zero()


def test_first_components():
    assert psi(1) == Element({Monomial((agen(1),), 1): qminus()})
    half = RatFunc.from_int(1) / RatFunc.from_int(2)
    assert psi(2) == Element(
        {
            Monomial((agen(2),), 1): qminus(),
            Monomial((agen(1), agen(1)), 1): qminus() * qminus() * half,
        }
    )
    assert phi(-1) == Element({Monomial((agen(-1),), -1): -qminus()})


def test_series_oracle_agreement():
    for m in range(0, 7):
        assert psi(m) == oracle_current(m, upper=True)
        assert phi(-m) == oracle_current(-m, upper=False)


def test_words_are_normal():
    for m in range(0, 7):
        assert normal_form(psi(m)) == psi(m)
        assert normal_form(phi(-m)) == phi(-m)


def test_omega_swaps_the_currents():
    # exact, including the (q - q^-1) weights, thanks to omega's a-sign
    for m in range(0, 5):
        assert normal_form(omega(psi(m))) == phi(-m)
        assert normal_form(omega(phi(-m))) == psi(m)
