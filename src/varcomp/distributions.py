"""Distribution objects: F(d1, d2), chi-square(k), standard normal.

Degrees of freedom are positive integers only; real-valued df is rejected so
that the integer sign tests used by the verification layer stay exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Union

from .errors import DomainError, MomentUndefinedError
from .specfun import reg_inc_beta, reg_lower_gamma, std_normal_cdf

__all__ = [
    "FParams",
    "ChiSquareParams",
    "FDist",
    "ChiSquare",
    "StdNormal",
    "Dist",
    "f_mean",
    "f_variance",
    "cdf",
]


def _as_positive_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    value = int(value)
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")
    if value >= 2 ** 1024 - 2 ** 970:  # float(value) would overflow
        raise DomainError(f"{name} must convert to a float (below about 1.8e308), "
                          f"got a {value.bit_length()}-bit integer")
    return value


@dataclass(frozen=True)
class FParams:
    """Numerator / denominator degrees of freedom of an F distribution."""

    d1: int
    d2: int

    def __post_init__(self):
        object.__setattr__(self, "d1", _as_positive_int("d1", self.d1))
        object.__setattr__(self, "d2", _as_positive_int("d2", self.d2))


@dataclass(frozen=True)
class ChiSquareParams:
    """Degrees of freedom of a chi-square distribution."""

    k: int

    def __post_init__(self):
        object.__setattr__(self, "k", _as_positive_int("k", self.k))


@dataclass(frozen=True)
class FDist:
    params: FParams


@dataclass(frozen=True)
class ChiSquare:
    params: ChiSquareParams


@dataclass(frozen=True)
class StdNormal:
    pass


Dist = Union[FDist, ChiSquare, StdNormal]


def f_dist(d1: int, d2: int) -> FDist:
    return FDist(FParams(d1, d2))


def chi_square(k: int) -> ChiSquare:
    return ChiSquare(ChiSquareParams(k))


def f_mean(p: FParams) -> float:
    """E[F(d1, d2)] = d2 / (d2 - 2); requires d2 > 2."""
    if p.d2 <= 2:
        raise MomentUndefinedError(f"mean undefined for d2 <= 2 (d2={p.d2})")
    return p.d2 / (p.d2 - 2)


def f_variance(p: FParams) -> float:
    """Var(F(d1, d2)) = 2 d2^2 (d1+d2-2) / (d1 (d2-2)^2 (d2-4)); requires d2 > 4."""
    if p.d2 <= 4:
        raise MomentUndefinedError(f"variance undefined for d2 <= 4 (d2={p.d2})")
    d1, d2 = p.d1, p.d2
    return 2.0 * d2 * d2 * (d1 + d2 - 2) / (d1 * (d2 - 2) ** 2 * (d2 - 4))


def cdf(d: Dist, x: float) -> float:
    """CDF of the given distribution at x.

    The F CDF is I_w(d1/2, d2/2) at the beta argument w = d1 x / (d1 x + d2);
    chi-square uses the regularized lower incomplete gamma.  For the two
    nonnegative families, negative x gives 0 and x = +inf gives exactly 1.
    """
    if isinstance(d, StdNormal):
        return std_normal_cdf(x)
    if isinstance(x, float) and math.isnan(x):
        raise DomainError("cdf argument must not be NaN")
    if isinstance(d, FDist):
        if x == math.inf:
            return 1.0
        x = float(x)
        if x <= 0.0:
            return 0.0
        d1, d2 = d.params.d1, d.params.d2
        w = d1 * x / (d1 * x + d2)
        return reg_inc_beta(w, 0.5 * d1, 0.5 * d2)
    if isinstance(d, ChiSquare):
        if x == math.inf:
            return 1.0
        x = float(x)
        if x <= 0.0:
            return 0.0
        return reg_lower_gamma(0.5 * d.params.k, 0.5 * x)
    raise DomainError(f"unknown distribution object {d!r}")
