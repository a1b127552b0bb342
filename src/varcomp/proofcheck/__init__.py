"""Machine checks of the step-inequality proof programs: exact polynomial
certificates, auxiliary function tables and monotonicity, per-(d1, d2)
inequality margins, and the exploratory evaluators for d1 >= 5."""

from .auxfn import (
    AuxFn,
    GOLDEN_TABLES,
    IDENTITY_IDS,
    algebra_identity_check,
    aux_domain_min,
    aux_eval,
    derivative_sign_check,
    monotone_table_check,
    rational_V_consistency,
    value_sign_check,
)
from .polynomials import (
    FAMILIES,
    REFERENCE_EXPANSIONS,
    REFERENCE_VALUES,
    poly_value,
    shifted_expansion,
)
from .steps import (
    check_step_inequalities,
    coefficient_sign_checks,
    falling_factorial_bounds_odd,
    series_forms_even,
)

__all__ = [
    "AuxFn",
    "GOLDEN_TABLES",
    "IDENTITY_IDS",
    "algebra_identity_check",
    "aux_domain_min",
    "aux_eval",
    "derivative_sign_check",
    "monotone_table_check",
    "rational_V_consistency",
    "value_sign_check",
    "FAMILIES",
    "REFERENCE_EXPANSIONS",
    "REFERENCE_VALUES",
    "poly_value",
    "shifted_expansion",
    "check_step_inequalities",
    "coefficient_sign_checks",
    "falling_factorial_bounds_odd",
    "series_forms_even",
]
