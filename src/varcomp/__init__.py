"""varcomp: one-standard-deviation variation probabilities for the F,
chi-square and normal distributions, plus a verification layer that
machine-checks the inequality program showing the F band probability
exceeds the normal baseline for small numerator degrees of freedom.
"""

from .distributions import FParams, chi_square_cdf, f_cdf, f_mean, f_variance
from .errors import (
    ConvergenceError,
    DomainError,
    MomentUndefinedError,
    ToleranceNotMetError,
    VarcompError,
)
from .reporting import Block
from .specfun import (
    log_beta,
    log_gamma,
    reg_inc_beta,
    reg_lower_gamma,
    std_normal_cdf,
)
from .varband import (
    Endpoints,
    NORMAL_BAND,
    STRICTNESS_FLOOR,
    band_endpoints,
    check_bound,
    check_limit,
    check_monotone_step,
    chi_square_band_probability,
    d_exceeds_c,
    variation_band,
    variation_probability,
)

__version__ = "0.1.0"
