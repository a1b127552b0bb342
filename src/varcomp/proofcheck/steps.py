"""Per-(d1, d2) machine checks of the step-inequality programs.

The monotone decrease of the band probability under d2 -> d2 + 2 reduces,
through the incomplete-beta recurrence, to an inequality between endpoint
boundary terms and beta integrals ("step_integral" below).  For d1 <= 4 the
proof splits it into an upper-edge and a lower-edge part and then reduces
each to elementary power/log forms; every displayed form is evaluated here
with a signed margin.  Integral sides come from the adaptive quadrature
oracle, keeping them independent of the continued-fraction CDF path.

Claim ids:

  step_integral          2 a^(d1/2) (1-a)^(d2/2) + d2 I[c,d] <
                         d2 I[a,b] + 2 c^(d1/2) (1-c)^(d2/2)   (all d1)
  upper_edge             2 a^(d1/2) (1-a)^(d2/2) < d2 I[a,b]   (all d1)
  lower_edge             2 c^(d1/2) (1-c)^(d2/2) > d2 I[c,d]   (c > 0)
  power_step             (1-b)^(d2/2) < (1-a)^(d2/2+1)         (d1 = 1,2,3)
  affine_power_step      [3(d2+2)a - 2 - d2 b](1-b)^(d2/2) <
                         2[(d2+2)a - 1](1-a)^(d2/2+1)          (d1 = 1)
  poly_power_step        (d2 b + 2)(1-b)^(d2/2) <
                         [(d2+2)a + 2](1-a)^(d2/2+1)           (d1 = 4)
  poly_power_step_lower  (d2 d + 2)(1-d)^(d2/2) >
                         [(d2+2)c + 2](1-c)^(d2/2+1)           (d1 = 4, d > c > 0)
  product_step_lower     [2(1+c) + d2(c+d)](1-d)^(d2/2) >
                         2[(d2+2)c + 1](1-c)^(d2/2+1)          (d1 = 3, d > c > 0)
  ratio_bound_lower      v(d2) > 0                              (d1 = 3, d > c > 0)

where I[x0,x1] is the integral of t^(d1/2-1) (1-t)^(d2/2-1), signed when
x1 < x0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..distributions import FParams
from ..errors import DomainError
from ..oracle import quad_beta_integral
from ..varband import STRICTNESS_FLOOR, _d_exceeds_c, band_endpoints, d_exceeds_c
from .auxfn import v_direct

__all__ = [
    "StepReport",
    "check_step_inequalities",
    "step_inequalities_at",
    "coefficient_sign_checks",
    "series_forms_even",
    "falling_factorial_bounds_odd",
]

#: Default absolute tolerance handed to the quadrature oracle; it sits well
#: below the strictness floor so integration error cannot flip a verdict.
_QUAD_TOL = 1e-13


@dataclass(frozen=True)
class StepReport:
    """Evaluated inequality forms at one (d1, d2) with signed margins."""

    d1: int
    d2: int
    forms_checked: Tuple[str, ...]
    lhs: Tuple[float, ...]
    rhs: Tuple[float, ...]
    margins: Tuple[float, ...]
    passed: bool
    not_applicable: Tuple[str, ...] = ()
    note: str = ""

    def margin_of(self, form: str) -> float:
        return self.margins[self.forms_checked.index(form)]


def _pow1m(x: float, e: float) -> float:
    """(1 - x)^e without cancellation for small x."""
    return math.exp(e * math.log1p(-x))


def _signed_beta_integral(a: float, b: float, x0: float, x1: float, tol: float) -> float:
    if x1 >= x0:
        return quad_beta_integral(a, b, x0, x1, tol).value
    return -quad_beta_integral(a, b, x1, x0, tol).value


def _boundary_term(x: float, d1: int, d2: int) -> float:
    # 2 x^(d1/2) (1-x)^(d2/2); zero at x = 0
    if x == 0.0:
        return 0.0
    return 2.0 * math.exp(0.5 * d1 * math.log(x) + 0.5 * d2 * math.log1p(-x))


def check_step_inequalities(p: FParams, floor: float = STRICTNESS_FLOOR,
                            quad_tol: float = _QUAD_TOL) -> StepReport:
    """Evaluate every step-inequality form that applies at (d1, d2)."""
    if p.d2 < 5:
        raise DomainError(f"step inequalities require d2 >= 5, got d2={p.d2}")
    ep = band_endpoints(p)
    return step_inequalities_at(p.d1, p.d2, ep.a, ep.b, ep.c, ep.d, floor, quad_tol)


def step_inequalities_at(d1: int, d2: int, a: float, b: float, c: float, d: float,
                         floor: float = STRICTNESS_FLOOR,
                         quad_tol: float = _QUAD_TOL) -> StepReport:
    """``check_step_inequalities`` at (d1, d2) given its endpoint images
    a, b, c, d (from ``band_endpoints`` or ``band_endpoints_column``)."""
    a2, b2 = 0.5 * d1, 0.5 * d2

    forms, lhss, rhss, margins = [], [], [], []
    skipped = []

    def add(form: str, lhs: float, rhs: float, margin: float) -> None:
        forms.append(form)
        lhss.append(lhs)
        rhss.append(rhs)
        margins.append(margin)

    upper_int = d2 * quad_beta_integral(a2, b2, a, b, quad_tol).value
    lower_int = d2 * _signed_beta_integral(a2, b2, c, d, quad_tol)
    term_a = _boundary_term(a, d1, d2)
    term_c = _boundary_term(c, d1, d2)

    add("step_integral", term_a + lower_int, upper_int + term_c,
        (upper_int + term_c) - (term_a + lower_int))
    add("upper_edge", term_a, upper_int, upper_int - term_a)
    if c > 0.0:
        add("lower_edge", lower_int, term_c, term_c - lower_int)
    else:
        skipped.append("lower_edge")

    one_m_a = _pow1m(a, b2 + 1.0)
    one_m_b = _pow1m(b, b2)
    if d1 in (1, 2, 3):
        add("power_step", one_m_b, one_m_a, one_m_a - one_m_b)
    if d1 == 1:
        lhs = (3.0 * (d2 + 2) * a - 2.0 - d2 * b) * one_m_b
        rhs = 2.0 * ((d2 + 2) * a - 1.0) * one_m_a
        add("affine_power_step", lhs, rhs, rhs - lhs)
    if d1 == 4:
        lhs = (d2 * b + 2.0) * one_m_b
        rhs = ((d2 + 2) * a + 2.0) * one_m_a
        add("poly_power_step", lhs, rhs, rhs - lhs)

    d_gt_c = d > 0.0 and _d_exceeds_c(d1, d2) if d1 >= 3 else False
    if d1 == 4:
        if d_gt_c:
            lhs = (d2 * d + 2.0) * _pow1m(d, b2)
            rhs = ((d2 + 2) * c + 2.0) * _pow1m(c, b2 + 1.0)
            add("poly_power_step_lower", lhs, rhs, lhs - rhs)
        else:
            skipped.append("poly_power_step_lower")
    if d1 == 3:
        if d_gt_c:
            lhs = (2.0 * (1.0 + c) + d2 * (c + d)) * _pow1m(d, b2)
            rhs = 2.0 * ((d2 + 2) * c + 1.0) * _pow1m(c, b2 + 1.0)
            add("product_step_lower", lhs, rhs, lhs - rhs)
            v = v_direct(float(d2))
            add("ratio_bound_lower", 0.0, v, v)
        else:
            skipped.extend(["product_step_lower", "ratio_bound_lower"])

    passed = all(m > floor for m in margins)
    note = "" if d1 in (1, 2, 3, 4) else "exploratory"
    return StepReport(d1, d2, tuple(forms), tuple(lhss), tuple(rhss),
                      tuple(margins), passed, tuple(skipped), note)


def coefficient_sign_checks(d1: int, d2: int,
                            floor: float = STRICTNESS_FLOOR) -> StepReport:
    """Sign claims for the affine coefficients of the d1 = 1 reduction and
    the c/d ordering of the d1 = 3 reduction.

    d1 = 1:  (d2+2) a > 1,   3(d2+2) a - 2 - d2 b > 0,   d2 b > (d2+2) a
    d1 = 3:  (d2+2) c > d2 d   (requires c > 0, else not applicable)
    """
    if d1 not in (1, 3):
        raise DomainError(f"coefficient sign checks exist for d1 in {{1, 3}}, got {d1}")
    p = FParams(d1, d2)
    ep = band_endpoints(p)
    forms, lhss, rhss, margins = [], [], [], []
    skipped = []
    if d1 == 1:
        lhs = (d2 + 2) * ep.a
        forms.append("coef_lower_bound")
        lhss.append(lhs)
        rhss.append(1.0)
        margins.append(lhs - 1.0)
        combo = 3.0 * (d2 + 2) * ep.a - 2.0 - d2 * ep.b
        forms.append("coef_combination")
        lhss.append(combo)
        rhss.append(0.0)
        margins.append(combo)
        forms.append("coef_dominance")
        lhss.append(d2 * ep.b)
        rhss.append((d2 + 2) * ep.a)
        margins.append(d2 * ep.b - (d2 + 2) * ep.a)
    else:
        if ep.c > 0.0:
            forms.append("cd_order")
            lhss.append((d2 + 2) * ep.c)
            rhss.append(d2 * ep.d)
            margins.append((d2 + 2) * ep.c - d2 * ep.d)
        else:
            skipped.append("cd_order")
    passed = all(m > floor for m in margins)
    return StepReport(d1, d2, tuple(forms), tuple(lhss), tuple(rhss),
                      tuple(margins), passed, tuple(skipped))


# ---------------------------------------------------------------------------
# exploratory evaluators for d1 >= 5
# ---------------------------------------------------------------------------

def _even_series(d1: int, y: float, sign: float) -> float:
    """Common body of the even-d1 series forms; sign selects the +/- branch
    of the square root."""
    half = d1 // 2
    bracket = 1.0 + (d1 / y) * (1.0 + sign * math.sqrt(2.0 * (d1 + y) / (d1 * (y - 2.0))))
    if bracket <= 0.0:
        raise DomainError(
            f"series form undefined: nonpositive log argument at d1={d1}, y={y}")
    total = 0.0
    for n in range(half):
        total += ((-1.0) ** n * math.comb(half - 1, n)
                  / ((2 * n + y + 2.0) * bracket ** n))
    if total <= 0.0:
        raise DomainError(
            f"series form undefined: nonpositive alternating sum at d1={d1}, y={y}")
    value = -0.5 * (y + 2.0) * math.log(bracket) + math.log(total)
    for n in range(half):
        value += math.log(2 * n + y + 2.0)
    return value


def series_forms_even(d1: int, y: float) -> Tuple[float, float]:
    """Series-reduced log forms (J, K) for even d1 >= 6 at real y.

    J uses the '+' branch (upper edge), K the '-' branch (lower edge); the
    step inequality at (d1, d2) is equivalent to J(d2-2) < J(d2) for the
    upper edge and K(d2-2) > K(d2) for the lower edge when d > c > 0.
    Exploratory: these are scanned, never asserted.
    """
    if d1 < 6 or d1 % 2 != 0:
        raise DomainError(f"series forms require even d1 >= 6, got {d1}")
    if not (isinstance(y, (int, float)) and math.isfinite(y)) or y <= 2.0:
        raise DomainError(f"series forms require finite real y > 2, got {y!r}")
    y = float(y)
    return _even_series(d1, y, 1.0), _even_series(d1, y, -1.0)


def _falling_factorial(x: float, n: int) -> float:
    out = 1.0
    for i in range(n):
        out *= x - i
    return out


def _truncated_sum(d1: int, d2: int, x_lo: float, x_hi: float, n_top: int) -> float:
    """d2 * sum_n (d1/2-1)_<n> ((1-x_lo)/x_lo)^n / n! *
    sum_l (-1)^l C(n,l) [1 - ((1-x_hi)/(1-x_lo))^(d2/2+l)] / (d2/2+l)."""
    alpha = 0.5 * d1 - 1.0
    ratio = (1.0 - x_lo) / x_lo
    decay = (1.0 - x_hi) / (1.0 - x_lo)
    total = 0.0
    for n in range(n_top + 1):
        inner = 0.0
        for l in range(n + 1):
            e = 0.5 * d2 + l
            inner += (-1.0) ** l * math.comb(n, l) * (1.0 - decay ** e) / e
        total += _falling_factorial(alpha, n) * ratio ** n / math.factorial(n) * inner
    return d2 * total


def falling_factorial_bounds_odd(d1: int, d2: int,
                                 floor: float = STRICTNESS_FLOOR) -> StepReport:
    """Truncated-binomial sufficient bounds for odd d1 >= 5 (exploratory).

    truncated_series_upper:  2a < d2 * S_floor(a, b)   (truncation below)
    truncated_series_lower:  2c > d2 * S_ceil(c, d)    (truncation above;
                             only when d > c > 0)
    """
    if d1 < 5 or d1 % 2 == 0:
        raise DomainError(f"falling-factorial bounds require odd d1 >= 5, got {d1}")
    p = FParams(d1, d2)
    ep = band_endpoints(p)
    alpha = 0.5 * d1 - 1.0
    forms, lhss, rhss, margins = [], [], [], []
    skipped = []

    rhs = _truncated_sum(d1, d2, ep.a, ep.b, math.floor(alpha))
    forms.append("truncated_series_upper")
    lhss.append(2.0 * ep.a)
    rhss.append(rhs)
    margins.append(rhs - 2.0 * ep.a)

    if ep.d > 0.0 and d_exceeds_c(p):
        rhs = _truncated_sum(d1, d2, ep.c, ep.d, math.ceil(alpha))
        forms.append("truncated_series_lower")
        lhss.append(2.0 * ep.c)
        rhss.append(rhs)
        margins.append(2.0 * ep.c - rhs)
    else:
        skipped.append("truncated_series_lower")

    passed = all(m > floor for m in margins)
    return StepReport(d1, d2, tuple(forms), tuple(lhss), tuple(rhss),
                      tuple(margins), passed, tuple(skipped), "exploratory")
