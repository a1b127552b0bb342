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

Each evaluator returns an ordered map from claim id to signed margin, with
None for a form that does not apply at that (d1, d2); it renders no
verdict.  ``reporting.rows_from_step_report`` classifies them against the
strictness floor, one block per form over a column of d2 values.

``step_inequalities_column`` is the route of sweeps and of long ``prove``
chains (``programs._COLUMN_MIN`` d2 points or more): it evaluates every form
over a whole d2 column with numpy, its integrals through
``oracle.quad_beta_integral_column``, and its margins are bit-identical to
``step_inequalities_at``, which ``check_step_inequalities``, short ``prove``
chains and ``explore`` use and which stays the reference route.
``coefficient_sign_column`` is the same for ``coefficient_sign_checks``.
numpy is imported only when a column route runs.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

from ..distributions import FParams
from ..errors import DomainError
from ..oracle import quad_beta_integral, quad_beta_integral_column
from ..specfun import _each
from ..varband import _d_exceeds_c, band_endpoints, d_exceeds_c
from .auxfn import v_direct

__all__ = [
    "check_step_inequalities",
    "step_inequalities_at",
    "step_inequalities_column",
    "coefficient_sign_checks",
    "coefficient_sign_column",
    "series_forms_even",
    "falling_factorial_bounds_odd",
]

#: Absolute tolerance requested from the quadrature oracle, scaled by d2
#: with the integrals.  It does not sit below the strictness floor: the
#: requested budget d2 * 1e-13 exceeds the 1e-12 floor for d2 > 10, so
#: integration error can in principle flip a verdict near the floor.
#: Charging it to each margin is the error-budget half of ROADMAP item 2.
_QUAD_TOL = 1e-13

#: Form -> signed margin, None where the form does not apply.
Margins = Dict[str, Optional[float]]


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


def check_step_inequalities(p: FParams, quad_tol: float = _QUAD_TOL) -> Margins:
    """Margin of every step-inequality form at (d1, d2)."""
    if p.d2 < 5:
        raise DomainError(f"step inequalities require d2 >= 5, got d2={p.d2}")
    ep = band_endpoints(p)
    return step_inequalities_at(p.d1, p.d2, ep.a, ep.b, ep.c, ep.d, quad_tol)


def step_inequalities_at(d1: int, d2: int, a: float, b: float, c: float, d: float,
                         quad_tol: float = _QUAD_TOL) -> Margins:
    """``check_step_inequalities`` at (d1, d2) given its endpoint images
    a, b, c, d (from ``band_endpoints`` or ``band_endpoints_column``)."""
    a2, b2 = 0.5 * d1, 0.5 * d2

    upper_int = d2 * quad_beta_integral(a2, b2, a, b, quad_tol).value
    lower_int = d2 * _signed_beta_integral(a2, b2, c, d, quad_tol)
    term_a = _boundary_term(a, d1, d2)
    term_c = _boundary_term(c, d1, d2)

    margins: Margins = {
        "step_integral": (upper_int + term_c) - (term_a + lower_int),
        "upper_edge": upper_int - term_a,
        "lower_edge": term_c - lower_int if c > 0.0 else None,
    }

    one_m_a = _pow1m(a, b2 + 1.0)
    one_m_b = _pow1m(b, b2)
    if d1 in (1, 2, 3):
        margins["power_step"] = one_m_a - one_m_b
    if d1 == 1:
        lhs = (3.0 * (d2 + 2) * a - 2.0 - d2 * b) * one_m_b
        rhs = 2.0 * ((d2 + 2) * a - 1.0) * one_m_a
        margins["affine_power_step"] = rhs - lhs
    if d1 == 4:
        lhs = (d2 * b + 2.0) * one_m_b
        rhs = ((d2 + 2) * a + 2.0) * one_m_a
        margins["poly_power_step"] = rhs - lhs

    d_gt_c = d > 0.0 and _d_exceeds_c(d1, d2) if d1 >= 3 else False
    if d1 == 4:
        margin = None
        if d_gt_c:
            lhs = (d2 * d + 2.0) * _pow1m(d, b2)
            rhs = ((d2 + 2) * c + 2.0) * _pow1m(c, b2 + 1.0)
            margin = lhs - rhs
        margins["poly_power_step_lower"] = margin
    if d1 == 3:
        product = ratio = None
        if d_gt_c:
            lhs = (2.0 * (1.0 + c) + d2 * (c + d)) * _pow1m(d, b2)
            rhs = 2.0 * ((d2 + 2) * c + 1.0) * _pow1m(c, b2 + 1.0)
            product, ratio = lhs - rhs, v_direct(float(d2))
        margins["product_step_lower"] = product
        margins["ratio_bound_lower"] = ratio
    return margins


def step_inequalities_column(d1: int, d2s: Sequence[int], a, b, c, d,
                             quad_tol: float = _QUAD_TOL) -> Dict[str, list]:
    """``step_inequalities_at(d1, d2s[i], a[i], b[i], c[i], d[i])`` for every
    i, as one map from form to the list of its margins over the column.

    a, b, c, d are the column's endpoint images (``band_endpoints_column``).
    The keys, their order, the None entries and every margin are those of
    ``step_inequalities_at``, bit for bit: only +, -, * and / are
    vectorised, in scalar order, and every exp and log goes through
    ``math``.
    """
    import numpy as np

    n2 = np.asarray(d2s, dtype=float)
    # d2 + 2 in integers, as the scalar route adds it, then rounded once
    n2p2 = (np.asarray(d2s, dtype=np.int64) + 2).astype(float)
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    a2, b2 = 0.5 * d1, 0.5 * n2

    # both integrals of each point in one kernel call, interleaved in the
    # scalar route's order, so a lane that fails raises what that route
    # raises first; an empty [c, d] (c = d) integrates to 0 there
    lower = c != d
    rev = d < c
    lo = np.stack((a, np.where(rev, d, c)), axis=1).ravel()
    hi = np.stack((b, np.where(rev, c, d)), axis=1).ravel()
    use = np.stack((np.ones_like(lower), lower), axis=1).ravel()
    ints = np.zeros(lo.shape)
    ints[use] = quad_beta_integral_column(a2, np.repeat(b2, 2)[use], lo[use], hi[use],
                                          quad_tol)
    upper_int = n2 * ints[0::2]
    lower_int = n2 * np.where(rev, -ints[1::2], ints[1::2])
    term_a = _boundary_term_column(a, d1, b2)
    term_c = _boundary_term_column(c, d1, b2)

    margins = {
        "step_integral": (upper_int + term_c) - (term_a + lower_int),
        "upper_edge": upper_int - term_a,
        "lower_edge": _masked((c > 0.0).tolist(), term_c - lower_int),
    }

    one_m_a = _pow1m_column(a, b2 + 1.0)
    one_m_b = _pow1m_column(b, b2)
    if d1 in (1, 2, 3):
        margins["power_step"] = one_m_a - one_m_b
    if d1 == 1:
        lhs = (3.0 * n2p2 * a - 2.0 - n2 * b) * one_m_b
        rhs = 2.0 * (n2p2 * a - 1.0) * one_m_a
        margins["affine_power_step"] = rhs - lhs
    if d1 == 4:
        lhs = (n2 * b + 2.0) * one_m_b
        rhs = (n2p2 * a + 2.0) * one_m_a
        margins["poly_power_step"] = rhs - lhs

    if d1 in (3, 4):
        d_gt_c = [dv > 0.0 and _d_exceeds_c(d1, n)
                  for n, dv in zip(d2s, d.tolist())]
        one_m_d = _pow1m_column(d, b2)
        one_m_c = _pow1m_column(c, b2 + 1.0)
        if d1 == 4:
            lhs = (n2 * d + 2.0) * one_m_d
            rhs = (n2p2 * c + 2.0) * one_m_c
            margins["poly_power_step_lower"] = _masked(d_gt_c, lhs - rhs)
        else:
            lhs = (2.0 * (1.0 + c) + n2 * (c + d)) * one_m_d
            rhs = 2.0 * (n2p2 * c + 1.0) * one_m_c
            margins["product_step_lower"] = _masked(d_gt_c, lhs - rhs)
            margins["ratio_bound_lower"] = [v_direct(float(n)) if gt else None
                                            for n, gt in zip(d2s, d_gt_c)]
    return {form: v if isinstance(v, list) else v.tolist()
            for form, v in margins.items()}


def _masked(mask, values) -> list:
    # values[i] where mask[i] holds, None elsewhere
    return [v if m else None for v, m in zip(values.tolist(), mask)]


def _pow1m_column(x, e):
    # _pow1m lane by lane
    return _each(math.exp, e * _each(math.log1p, -x))


def _boundary_term_column(x, d1: int, b2):
    # _boundary_term lane by lane, with b2 = d2 / 2
    import numpy as np

    zero = x == 0.0
    x = np.where(zero, 0.5, x)  # keeps math.log off the zero lanes
    term = 2.0 * _each(math.exp, 0.5 * d1 * _each(math.log, x)
                       + b2 * _each(math.log1p, -x))
    return np.where(zero, 0.0, term)


def coefficient_sign_checks(d1: int, d2: int) -> Margins:
    """Sign claims for the affine coefficients of the d1 = 1 reduction and
    the c/d ordering of the d1 = 3 reduction.

    d1 = 1:  (d2+2) a > 1,   3(d2+2) a - 2 - d2 b > 0,   d2 b > (d2+2) a
    d1 = 3:  (d2+2) c > d2 d   (requires c > 0, else not applicable)
    """
    if d1 not in (1, 3):
        raise DomainError(f"coefficient sign checks exist for d1 in {{1, 3}}, got {d1}")
    ep = band_endpoints(FParams(d1, d2))
    if d1 == 1:
        return {
            "coef_lower_bound": (d2 + 2) * ep.a - 1.0,
            "coef_combination": 3.0 * (d2 + 2) * ep.a - 2.0 - d2 * ep.b,
            "coef_dominance": d2 * ep.b - (d2 + 2) * ep.a,
        }
    return {"cd_order": (d2 + 2) * ep.c - d2 * ep.d if ep.c > 0.0 else None}


def coefficient_sign_column(d1: int, d2s: Sequence[int], a, b, c, d) -> Dict[str, list]:
    """``coefficient_sign_checks(d1, d2s[i])`` for every i, as one map from
    form to the list of its margins over the column.

    a, b, c, d are the column's endpoint images (``band_endpoints_column``).
    The keys, the None entries and every margin are those of
    ``coefficient_sign_checks``, bit for bit: the same arithmetic in the
    same order, vectorised.
    """
    import numpy as np

    if d1 not in (1, 3):
        raise DomainError(f"coefficient sign checks exist for d1 in {{1, 3}}, got {d1}")
    n2 = np.asarray(d2s, dtype=float)
    # d2 + 2 in integers, as the scalar route adds it, then rounded once
    n2p2 = (np.asarray(d2s, dtype=np.int64) + 2).astype(float)
    a, b, c, d = (np.asarray(v, dtype=float) for v in (a, b, c, d))
    if d1 == 1:
        return {
            "coef_lower_bound": (n2p2 * a - 1.0).tolist(),
            "coef_combination": (3.0 * n2p2 * a - 2.0 - n2 * b).tolist(),
            "coef_dominance": (n2 * b - n2p2 * a).tolist(),
        }
    return {"cd_order": _masked((c > 0.0).tolist(), n2p2 * c - n2 * d)}


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


def falling_factorial_bounds_odd(d1: int, d2: int) -> Margins:
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
    margins: Margins = {
        "truncated_series_upper":
            _truncated_sum(d1, d2, ep.a, ep.b, math.floor(alpha)) - 2.0 * ep.a,
        "truncated_series_lower": None,
    }
    if ep.d > 0.0 and d_exceeds_c(p):
        margins["truncated_series_lower"] = (
            2.0 * ep.c - _truncated_sum(d1, d2, ep.c, ep.d, math.ceil(alpha)))
    return margins
