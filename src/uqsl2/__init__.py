"""Exact symbolic computation in the loop (second Drinfeld) presentation of
the quantized affine sl2, with verification of its Heisenberg-type family."""

__version__ = "0.1.0"

from .coeff import (
    LaurentPoly,
    PoleError,
    RatFunc,
    q_pow,
    qint,
    qminus,
    u_pow,
)
from .currents import phi, psi
from .elements import (
    Element,
    Gen,
    Monomial,
    agen,
    el_mul,
    omega,
    project_x_free,
    xminus,
    xplus,
)
from .family import (
    central_c,
    expand_general_commutator,
    expand_specialized_commutator,
    family_E,
    family_E_neg,
    family_E_pos,
    general_display_fixture,
)
from .rewrite import (
    RelationMode,
    commutator,
    deformed_commutator,
    equals,
    is_central,
    normal_form,
    normal_form_random,
)
from .verify import (
    RegimeError,
    Verdict,
    VerdictReport,
    classify,
    expectation_met,
    verify_claim,
)
