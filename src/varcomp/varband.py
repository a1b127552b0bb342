"""One-standard-deviation variation bands, each a function of its degrees
of freedom: ``variation_probability(FParams(d1, d2))`` for F(d1, d2),
``chi_square_band_probability(k)`` for chi-square(k) and the constant
``NORMAL_BAND`` for the standard normal.

For X ~ F(d1, d2) with d2 >= 5 the band [max(0, E - sd), E + sd] maps into
beta-function space through w(x) = d1 x / (d1 x + d2).  Writing
r1 = sqrt(2 (d1+d2) / (d1 (d2-2))) and r2 = sqrt(2 (d1+d2-2) / (d1 (d2-4))),
the four endpoint images used throughout the verification layer are

    a = d1 / (d1 + d2 (1 + r1)^-1)        upper image for (d1, d2+2)
    b = d1 / (d1 + (d2-2) (1 + r2)^-1)    upper image for (d1, d2)
    c = d1 / (d1 + d2 (1 - r1)^-1)        lower image for (d1, d2+2)
    d = d1 / (d1 + (d2-2) (1 - r2)^-1)    lower image for (d1, d2)

with c (resp. d) equal to 0 exactly when 1 - r1 <= 0 (resp. 1 - r2 <= 0),
i.e. when the band's lower limit in x-space is clipped at 0.  The sign of
1 - r1 is decided with exact integer arithmetic on (d1, d2), never by
floating-point division, so the zero pattern of (c, d) is bit-stable.  It
sorts each point into one of three regions:

    region 1:  c = 0            (both lower limits clipped)
    region 2:  c > 0, d = 0
    region 3:  d > 0            (no clipping)

The variation probability P{|X - E| <= sd} is then I_b(d1/2, d2/2) -
I_d(d1/2, d2/2).

``band_endpoints`` and ``variation_probability`` evaluate one point and are
the reference route.  ``band_endpoints_column`` and
``variation_probability_column`` evaluate one d1 over a whole d2 column with
numpy (the grid sweep's fast route).  One body per formula: r and the
upper and lower images are written once, run on both routes, and the
column route agrees with the scalar one bit for bit.

``bound_block`` and ``monotone_block`` (a d2 column), ``check_bound`` and
``check_monotone_step`` (one point, through them) and ``check_limit`` return
a ``reporting.Block``, classified by ``reporting.margin_block`` at its one
threshold, ``reporting.STRICTNESS_FLOOR``; they import ``reporting`` when
they run, so the band commands (``varprob``, ``endpoints``, ``oracle``)
never load it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .distributions import _FLOAT_LIMIT, FParams, _as_positive_int, f_mean, f_variance
from .errors import DomainError, MomentUndefinedError
from .specfun import (
    reg_inc_beta,
    reg_inc_beta_column,
    reg_lower_gamma,
    std_normal_cdf,
)

if TYPE_CHECKING:
    from .reporting import Block

__all__ = [
    "Endpoints",
    "LIMIT_TOL",
    "PROVED_D1",
    "NORMAL_BAND",
    "chi_square_band_probability",
    "band_endpoints",
    "band_endpoints_column",
    "variation_band",
    "d_exceeds_c",
    "variation_probability",
    "variation_probability_column",
    "bound_block",
    "monotone_block",
    "check_bound",
    "check_monotone_step",
    "check_limit",
]

#: Absolute tolerance of ``check_limit``: the largest gap between the band
#: probability at large d2 and its chi-square limit that still passes.
LIMIT_TOL = 1e-3

#: Degrees of freedom covered by the proved monotonicity result; anything
#: else is conjectured territory and is reported as exploratory.
PROVED_D1 = (1, 2, 3, 4)


class Endpoints(NamedTuple):
    """Beta-space endpoint images; c = 0 (d = 0) where its lower band limit
    is clipped at 0."""

    a: float
    b: float
    c: float
    d: float


def _lower_positive(d1: int, n: int) -> bool:
    # the lower image of F(d1, n) is positive: 1 - sqrt(2(d1+n-2)/(d1(n-4)))
    # > 0, decided exactly on integers (Python ints or an int64 column)
    return d1 * (n - 4) > 2 * (d1 + n - 2)


def _images(d1: int, n: int) -> tuple:
    # upper and lower image of the band of F(d1, n); lower 0 where clipped
    r = _r_of(d1, n, math.sqrt)
    lower = _lower_image(d1, n, r, _one_minus_r_near_limit) if _lower_positive(d1, n) else 0.0
    return _upper_image(d1, n, r), lower


def _r_of(d1, n, sqrt):
    # r of the band of F(d1, n), from Python ints or an int64 column
    return sqrt(2.0 * (d1 + n - 2) / (d1 * (n - 4)))


def _upper_image(d1, n, r):
    return d1 / (d1 + (n - 2) / (1.0 + r))


def _lower_image(d1, n, r, one_minus_r):
    # the lower image where _lower_positive(d1, n), with 1 - r = num / (den
    # (1 + r)) from exact integers, which avoids cancellation when r is near 1
    den = d1 * (n - 4)
    omr = one_minus_r(den - 2 * (d1 + n - 2), den, r)
    return d1 * omr / (d1 * omr + (n - 2))


def _one_minus_r(num, den, r):
    return num / (den * (1.0 + r))


def _one_minus_r_near_limit(num: int, den: int, r: float) -> float:
    # _one_minus_r, but num / den / (1 + r) where den (1 + r) overflows (den
    # near the float limit): _check_int64 keeps the column route below that
    return num / den / (1.0 + r) if den * (1.0 + r) == math.inf else _one_minus_r(num, den, r)


def band_endpoints(p: FParams) -> Endpoints:
    """Endpoint images a, b, c, d for (d1, d2)."""
    d1, d2 = p.d1, p.d2
    if d2 < 5:
        raise DomainError(f"band endpoints require d2 >= 5, got d2={d2}")
    if d1 * (d2 - 2) >= _FLOAT_LIMIT or 2 * (d1 + d2) >= _FLOAT_LIMIT:
        raise DomainError(f"the band endpoints of F({d1:.6g}, {d2:.6g}) overflow a float")
    a, c = _images(d1, d2 + 2)
    b, d = _images(d1, d2)
    return Endpoints(a, b, c, d)


def _check_int64(d1: int, d2_max: int) -> None:
    # the int64 bound of the column kernels; d2_max is a column's largest d2
    if d1 * d2_max >= 2 ** 62:
        raise DomainError("band endpoints need d1 * d2 < 2**62 so the int64 "
                          "region tests cannot overflow")


def band_endpoints_column(d1: int, d2) -> tuple:
    """Endpoint images (a, b, c, d) of ``band_endpoints`` at (d1, d2[i]) for
    every i, as four float64 arrays.

    d2 is a sequence of integers >= 5.  The scalar region test
    (``_lower_positive``) runs on the int64 column, so it is as exact there
    as on Python integers.
    """
    import numpy as np

    d2 = np.asarray(d2, dtype=np.int64)
    if d1 < 1:
        raise DomainError(f"band endpoints require d1 >= 1, got d1={d1}")
    if d2.size and d2.min() < 5:
        raise DomainError(f"band endpoints require d2 >= 5, got d2={d2.min()}")
    if d2.size:
        _check_int64(int(d1), int(d2.max()))
    n = np.concatenate((d2 + 2, d2))  # the images a and c, then b and d
    r = _r_of(d1, n, np.sqrt)
    lower = np.zeros(n.shape)
    pos = _lower_positive(d1, n)
    lower[pos] = _lower_image(d1, n[pos], r[pos], _one_minus_r)
    (a, b), (c, d) = np.split(_upper_image(d1, n, r), 2), np.split(lower, 2)
    return a, b, c, d


def variation_band(p: FParams) -> tuple:
    """x-space band limits (max(0, E - sd), E + sd) of F(d1, d2)."""
    mean = f_mean(p)
    sd = math.sqrt(f_variance(p))
    return max(0.0, mean - sd), mean + sd


def d_exceeds_c(p: FParams) -> bool:
    """Exact integer test for d > c, valid for d1 >= 3.

    d > c holds iff d1 (d2-2) (d1+d2) (d2-4)^2 > 2 d2^2 (d1+d2-2)^2.  For
    d1 < 3 the equivalence is not established without extra assumptions (and
    d = 0 there anyway), so such inputs are rejected.
    """
    d1, d2 = p.d1, p.d2
    if d1 < 3:
        raise DomainError(f"d_exceeds_c requires d1 >= 3, got d1={d1}")
    if d2 < 5:
        raise DomainError(f"d_exceeds_c requires d2 >= 5, got d2={d2}")
    return _d_exceeds_c(d1, d2)


def _d_exceeds_c(d1: int, d2: int) -> bool:
    # the integer test of d_exceeds_c, for callers that already checked
    # d1 >= 3 and d2 >= 5
    lhs = d1 * (d2 - 2) * (d1 + d2) * (d2 - 4) ** 2
    rhs = 2 * d2 * d2 * (d1 + d2 - 2) ** 2
    return lhs > rhs


#: P{|Z| <= 1} = 2 Phi(1) - 1 for standard normal Z.
NORMAL_BAND = 2.0 * std_normal_cdf(1.0) - 1.0


def chi_square_band_probability(k: int) -> float:
    """P{|G - k| <= sqrt(2k)} for G ~ chi-square(k); k a positive integer."""
    k = _as_positive_int("k", k)
    if 2 * k >= _FLOAT_LIMIT:
        raise DomainError(f"the chi-square band of k={k:.6g} overflows a float")
    sd = math.sqrt(2.0 * k)
    hi = reg_lower_gamma(0.5 * k, 0.5 * (k + sd))
    lo = reg_lower_gamma(0.5 * k, 0.5 * (k - sd)) if k - sd > 0.0 else 0.0
    return hi - lo


def variation_probability(p: FParams) -> float:
    """P{|X - E[X]| <= sd(X)} for X ~ F(d1, d2).

    This is I_b(d1/2, d2/2) - I_d(d1/2, d2/2) at the endpoint images of
    (d1, d2); requires d2 >= 5 so the variance exists.
    """
    if p.d2 <= 4:
        raise MomentUndefinedError(f"variance undefined for d2 <= 4 (d2={p.d2})")
    _, b, _, d = band_endpoints(p)
    a1, b1 = 0.5 * p.d1, 0.5 * p.d2
    hi = reg_inc_beta(b, a1, b1)
    lo = reg_inc_beta(d, a1, b1) if d > 0.0 else 0.0
    return hi - lo


def variation_probability_column(d1: int, d2):
    """``variation_probability(FParams(d1, d2[i]))`` for every i, as a float64
    array; d2 is a sequence of integers >= 5."""
    import numpy as np

    d2 = np.asarray(d2, dtype=np.int64)
    _, b, _, d = band_endpoints_column(d1, d2)
    a1, b1 = 0.5 * d1, 0.5 * d2
    prob = reg_inc_beta_column(b, a1, b1)
    pos = d > 0.0
    prob[pos] -= reg_inc_beta_column(d[pos], a1, b1[pos])
    return prob


def _band_block(check_id: str, d1: int, d2s, margins) -> Block:
    # outside d1 in {1, 2, 3, 4} a band claim is conjectured, not proved
    from .reporting import margin_block

    expl = d1 not in PROVED_D1
    return margin_block(check_id, d1, d2s, margins, "exploratory" if expl else "", expl)


def bound_block(d1: int, d2s, bands) -> Block:
    """Block of the band's margin over the normal baseline 2 Phi(1) - 1 at
    each d2s[i], bands[i] its band probability (bands may run on)."""
    return _band_block("bound_exceeds_normal", d1, d2s,
                       [p - NORMAL_BAND for p in bands[:len(d2s)]])


def monotone_block(d1: int, d2s, bands, next_bands) -> Block:
    """Block of the step decrease bands[i] - next_bands[i], the band
    probabilities at (d1, d2s[i]) and (d1, d2s[i] + 2)."""
    return _band_block("step_decreasing", d1, d2s,
                       [here - next_ for here, next_ in zip(bands, next_bands)])


def check_bound(p: FParams) -> Block:
    """The bound claim (``bound_block``) at one point."""
    return bound_block(p.d1, [p.d2], [variation_probability(p)])


def check_monotone_step(p: FParams) -> Block:
    """The step-decrease claim (``monotone_block``) at one point."""
    return monotone_block(p.d1, [p.d2], [variation_probability(p)],
                          [variation_probability(FParams(p.d1, p.d2 + 2))])


def check_limit(d1: int, d2_large: int) -> Block:
    """Agreement of the band probability at large d2 with its chi-square limit.

    F(d1, d2) converges in distribution to chi-square(d1)/d1, so the band
    probability approaches the chi-square(d1) band probability; margin is
    ``LIMIT_TOL`` minus the observed absolute gap.
    """
    from .reporting import margin_block

    if d2_large < 1000:
        raise DomainError(f"limit check requires d2_large >= 1000, got {d2_large}")
    f_val = variation_probability(FParams(d1, d2_large))
    chi_val = chi_square_band_probability(d1)
    return margin_block("limit_matches_chi_square", d1, [d2_large],
                        [LIMIT_TOL - abs(f_val - chi_val)])
