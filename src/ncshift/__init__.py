"""Exact-arithmetic calculus of noncommutative shifted symmetric functions.

The package implements the free graded algebra on the shifted complete
homogeneous generators over the coefficient ring Q[a], together with its
elementary, power-sum and ribbon generating sets, shift operators, duality,
Hopf structure, and the matrix-valued specialization in noncommuting
variables.  All arithmetic is exact rational; every identity check is a
zero-tolerance equality test.
"""

from .algebra import NCElement, Word
from .families import (
    lambda_by_quasidet,
    lambda_in_S,
    psi,
    psi_shifted,
    psi_words_to_s,
    s_in_lambda,
    s_to_lambda,
    s_to_psi,
    shift_Lambda,
    translation_failures,
    wronski_newton_failures,
)
from .hopf import TensorElement, antipode, coproduct, counit
from .params import (
    SEQ_A,
    SEQ_AHAT,
    MissingIndex,
    ParamPoly,
    ParamSequence,
    ParamSubstitution,
)
from .quasidet import (
    ExhaustedRetries,
    MatValue,
    ShapeError,
    SingularMinor,
    block_quasidet,
    hessenberg_quasidet,
    verify_bazin,
)
from .ribbon import (
    Composition,
    RibbonElement,
    duality_shift,
    from_ribbon_basis,
    macmahon_product,
    nagelsbach_form,
    omega,
    ribbon_shifted,
    ribbon_uniform,
    to_ribbon_basis,
)
from .series import TruncatedTSeries, sigma_series
from .shifts import a_binomial, phi_shift, shift_S
from .special import (
    VariableAssignment,
    ZeroDenominator,
    check_extension,
    check_shifted_symmetry,
    commutative_recovery,
    giambelli_check,
    lambda_spec,
    quasi_schur_spec,
    s_spec,
    shifted_power,
)
from .suites import SUITES, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
