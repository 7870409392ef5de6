"""Decreasing rearrangements and first-coordinate symmetrization under the
standard Gaussian measure, with numerical checks of the associated
gradient-rearrangement inequalities and Orlicz identities.

The isoperimetric profile convention used throughout is
I(t) = phi(Phi_inv(t)); see :mod:`gausym.gaussian`.
"""

from .errors import (
    BracketingError,
    CellBudgetError,
    DomainError,
    ExpressionError,
    GausymError,
    IntervalError,
    InvalidParameterError,
    NonFiniteFieldError,
    NonSmoothFieldError,
    UnknownFieldError,
)
from .fields import (
    ScalarField,
    builtin_field,
    corpus_names,
    describe_field,
    parse_field,
)
from .gaussian import (
    GaussianGrid,
    Phi,
    Phi_inv,
    equal_measure_grid,
    iso_profile,
    midpoint_quantiles,
    phi,
)
from .majorize import (
    DEFAULT_NORM_FAMILY,
    RINorm,
    YoungFunction,
    hinge_integrals,
    parse_norm,
    ri_norm,
)
from .rearrange import Profile
from .symmetrize import symmetrized_derivative
from .verify import (
    Analysis,
    IneqReport,
    analyze,
    check_interval_bound,
    check_mazya_talenti,
    check_norm_inequality,
    check_orlicz_equality,
    check_polya_szego,
    check_reformulated,
    convergence_study,
    run_checks,
)

__version__ = "0.1.0"
