"""varcomp: one-standard-deviation variation probabilities for the F,
chi-square and normal distributions, plus a verification layer that
machine-checks the inequality program showing the F band probability
exceeds the normal baseline for small numerator degrees of freedom.
"""

from .distributions import (
    ChiSquare,
    ChiSquareParams,
    Dist,
    FDist,
    FParams,
    StdNormal,
    cdf,
    chi_square,
    f_dist,
    f_mean,
    f_variance,
)
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
    ConditionRegion,
    Endpoints,
    NORMAL_BAND,
    STRICTNESS_FLOOR,
    VariationBand,
    band_endpoints,
    check_bound,
    check_limit,
    check_monotone_step,
    chi_square_band_probability,
    d_exceeds_c,
    normal_band_probability,
    variation_band,
    variation_probability,
)

__version__ = "0.1.0"
