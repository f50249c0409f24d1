"""The engine against the Drinfeld-Jimbo (Chevalley) presentation of
U_q(sl2-hat), an oracle independent of the rewrite table.

The Chevalley generators in the loop presentation are

    e1 = x+_0,  f1 = x-_0,  e0 = x-_1 K^-1,  f0 = K x+_-1,
    K1 = K,  K0 = gamma K^-1,

built here with ``el_mul`` only.  Every relation of the presentation is
checked in full mode, with its expected value read off the Cartan matrix
((2, -2), (-2, 2)):

- K_i e_j K_i^-1 = q^(a_ij) e_j and K_i f_j K_i^-1 = q^(-a_ij) f_j;
- [e_i, f_j] = delta_ij (K_i - K_i^-1)/(q - q^-1);
- the four q-Serre relations sum_r (-1)^r [3 r] x_i^(3-r) x_j x_i^r = 0,
  for x = e and x = f and i != j, with [3 1] = [3 2] = [3];
- K0 K1 = gamma, central.

The relations are finitely many, and these tests check them all, so what
they cannot see is a rule change that still satisfies every one of them:
that gives another algebra, one that U_q(sl2-hat) maps to.  A flipped R3
sign (the x+-_(n+k) term of a_n x+-_k - x+-_k a_n negated) is such a
change, and passes here by design; the level-0 oracle of
``test_level0.py`` catches it.  A flipped R6 convention or an extra u^2 on
R4's correction does not pass, as the mutation tests below show.
"""

from uqsl2.coeff import RF_ONE, q_pow, qint, qminus, u_pow
from uqsl2.elements import Element, el_mul, xminus, xplus
from uqsl2.rewrite import RelationMode, normal_form

F = RelationMode.FULL
CARTAN = ((2, -2), (-2, 2))
K = Element.k_power(1)
KINV = Element.k_power(-1)
GAMMA = u_pow(2)

E = {1: Element.from_gen(xplus(0)), 0: el_mul(Element.from_gen(xminus(1)), KINV)}
FG = {1: Element.from_gen(xminus(0)), 0: el_mul(K, Element.from_gen(xplus(-1)))}
KG = {1: K, 0: KINV.scale(GAMMA)}
KG_INV = {1: KINV, 0: K.scale(GAMMA.inv())}


def _prod(*factors) -> Element:
    out = Element.unit()
    for x in factors:
        out = el_mul(out, x)
    return out


def _bracket(a, b) -> Element:
    return el_mul(a, b) - el_mul(b, a)


def _serre(x, i, j) -> Element:
    """sum_r (-1)^r [3 r] x_i^(3-r) x_j x_i^r, unreduced."""
    binom = (RF_ONE, qint(3), qint(3), RF_ONE)
    out = Element.zero()
    for r, c in enumerate(binom):
        term = _prod(*[x[i]] * (3 - r), x[j], *[x[i]] * r).scale(c)
        out = out - term if r % 2 else out + term
    return out


def _serre_relations(mode=F) -> list:
    """The normal forms of the four q-Serre relations."""
    return [normal_form(_serre(x, i, j), mode) for x in (E, FG) for i, j in ((1, 0), (0, 1))]


def _e_f_brackets(mode=F) -> dict:
    return {(i, j): normal_form(_bracket(E[i], FG[j]), mode) for i in (0, 1) for j in (0, 1)}


def _cartan_value(i) -> Element:
    return normal_form((KG[i] - KG_INV[i]).scale(qminus().inv()))


def test_k_conjugation_follows_the_cartan_matrix():
    for i in (0, 1):
        for j in (0, 1):
            a = CARTAN[i][j]
            assert normal_form(_prod(KG[i], E[j], KG_INV[i])) == normal_form(E[j].scale(q_pow(a)))
            assert normal_form(_prod(KG[i], FG[j], KG_INV[i])) == normal_form(
                FG[j].scale(q_pow(-a))
            )


def test_e_f_brackets_are_the_cartan_parts():
    got = _e_f_brackets()
    for (i, j), value in got.items():
        assert value == (_cartan_value(i) if i == j else Element.zero()), (i, j)


def test_the_four_q_serre_relations_hold():
    assert [nf.is_zero() for nf in _serre_relations()] == [True] * 4


def test_strict_mode_fails_every_q_serre_relation():
    # Strict leaves same-sign x words unreduced, so its quotient is not
    # U_q(sl2-hat)
    assert [nf.is_zero() for nf in _serre_relations(RelationMode.STRICT)] == [False] * 4


def test_k0_k1_is_gamma_and_central():
    gamma = Element.from_coeff(GAMMA)
    assert normal_form(el_mul(KG[0], KG[1])) == gamma
    assert normal_form(el_mul(KG[1], KG[0])) == gamma
    for x in (*E.values(), *FG.values()):
        assert normal_form(_bracket(el_mul(KG[0], KG[1]), x)).is_zero()


def _under_a_wrong_rule(monkeypatch, name, value, check):
    """``check()`` with rewrite.<name> patched to ``value``, the memos
    emptied before and after."""
    from uqsl2 import rewrite

    rewrite.clear_caches()
    monkeypatch.setattr(rewrite, name, value)
    try:
        return check()
    finally:
        monkeypatch.undo()
        rewrite.clear_caches()


def test_a_flipped_r6_convention_fails_the_q_serre_relations(monkeypatch):
    # R6 with s = q^(-+2) in place of q^(+-2): _replacement's R6 rows read
    # s from rewrite.q_pow
    serre = _under_a_wrong_rule(monkeypatch, "q_pow", lambda k: q_pow(-k), _serre_relations)
    assert [nf.is_zero() for nf in serre] == [False] * 4


def test_an_extra_u2_on_r4_fails_the_e0_f0_bracket(monkeypatch):
    # R4's correction is read from rewrite._r4_parts, both by _replacement
    # and by the rewrite loop's block step, which is the one that [e0, f0]
    # takes
    from uqsl2.rewrite import _r4_parts

    def wrong(i, j):
        return [(current, m, s * GAMMA) for current, m, s in _r4_parts(i, j)]

    got = _under_a_wrong_rule(monkeypatch, "_r4_parts", wrong, _e_f_brackets)
    assert got[0, 0] != _cartan_value(0)
