"""F(d1, d2) parameters, moments and CDF, and the chi-square(k) CDF.

Degrees of freedom are positive integers only; real-valued df is rejected so
that the integer sign tests used by the verification layer stay exact.  The
standard normal CDF is ``specfun.std_normal_cdf``.
"""

from __future__ import annotations

import math
import numbers

from .errors import DomainError, MomentUndefinedError
from .specfun import reg_inc_beta, reg_lower_gamma

__all__ = [
    "FParams",
    "f_mean",
    "f_variance",
    "f_cdf",
    "chi_square_cdf",
]


#: The least integer that float() rejects: it rounds to 2**1024.
_FLOAT_LIMIT = 2 ** 1024 - 2 ** 970


def _as_positive_int(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    value = int(value)
    if value < 1:
        raise DomainError(f"{name} must be >= 1, got {value}")
    if value >= _FLOAT_LIMIT:
        raise DomainError(f"{name} must convert to a float (below about 1.8e308), "
                          f"got a {value.bit_length()}-bit integer")
    return value


class FParams:
    """Numerator / denominator degrees of freedom of an F distribution:
    immutable, equal and hashed by (d1, d2).

    A plain class, not a dataclass: ``dataclasses`` imports ``inspect``,
    which would cost every command that builds one about 10 ms of start-up.
    """

    __slots__ = ("d1", "d2")

    def __init__(self, d1: int, d2: int) -> None:
        object.__setattr__(self, "d1", _as_positive_int("d1", d1))
        object.__setattr__(self, "d2", _as_positive_int("d2", d2))

    def __setattr__(self, name, value):
        raise AttributeError(f"FParams is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"FParams is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not FParams:
            return NotImplemented
        return (self.d1, self.d2) == (other.d1, other.d2)

    def __hash__(self):
        return hash((self.d1, self.d2))

    def __repr__(self):
        return f"FParams(d1={self.d1!r}, d2={self.d2!r})"

    def __reduce__(self):
        return FParams, (self.d1, self.d2)


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
    num, den = 2.0 * d2 * d2 * (d1 + d2 - 2), d1 * (d2 - 2) ** 2 * (d2 - 4)
    if num == math.inf or den >= _FLOAT_LIMIT:
        raise DomainError(f"the variance of F({d1:.6g}, {d2:.6g}) overflows a float")
    return num / den


def _support_edge(x) -> float | None:
    """The CDF value both nonnegative families share outside (0, inf): 0 for
    x <= 0 and exactly 1 at x = +inf; None inside.  NaN is a DomainError."""
    if isinstance(x, float) and math.isnan(x):
        raise DomainError("cdf argument must not be NaN")
    if x == math.inf:
        return 1.0
    return 0.0 if float(x) <= 0.0 else None


def f_cdf(p: FParams, x: float) -> float:
    """CDF of F(d1, d2) at x: I_w(d1/2, d2/2) at the beta argument
    w = d1 x / (d1 x + d2)."""
    edge = _support_edge(x)
    if edge is not None:
        return edge
    x = float(x)
    d1, d2 = p.d1, p.d2
    den = d1 * x + d2
    # where den overflows, the same ratio in a form that does not
    w = d1 * x / den if den < math.inf else 1.0 / (1.0 + d2 / (d1 * x))
    return reg_inc_beta(w, 0.5 * d1, 0.5 * d2)


def chi_square_cdf(k: int, x: float) -> float:
    """CDF of chi-square(k) at x: the regularized lower incomplete gamma
    P(k/2, x/2)."""
    k = _as_positive_int("k", k)
    edge = _support_edge(x)
    if edge is not None:
        return edge
    return reg_lower_gamma(0.5 * k, 0.5 * float(x))
