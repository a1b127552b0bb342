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
verdict.  ``reporting.rows_from_step_report`` classifies them, one block
per form over a column of d2 values.  The exploratory odd-d1 bounds map
each form to its (margin, note) instead, the note naming an overflow.

``step_inequalities_at`` (``check_step_inequalities``, ``explore``, the
scalar route of ``programs.chain_blocks``) and ``step_inequalities_column``
(its column route, integrals through ``oracle.quad_beta_integral_column``)
share one body per formula: ``_step_forms``, ``_boundary_term`` and
``_pow1m``.  They use only +, -, * and /, which round alike on floats and
on float64 columns; each route passes in its integrals and its exp and log
(through ``math``), masks its own zero boundary terms and applies the
applicability rules, so the margins are bit-identical and the scalar route
stays the reference.  The d1 = 3
``ratio_bound_lower`` is ``auxfn``'s v on both routes, one body with the
square root passed in (``auxfn.v_of``).
``coefficient_sign_checks`` and ``coefficient_sign_column`` share
``_coefficient_forms`` the same way.  numpy is imported only when a column
route runs.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..distributions import FParams
from ..errors import DomainError
from ..oracle import quad_beta_integral, quad_beta_integral_column
from ..specfun import _each
from ..varband import _d_exceeds_c, band_endpoints, d_exceeds_c
from .auxfn import v_direct, v_of

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

#: The lower-edge step form of each d1 that has one; it applies where d > c > 0.
_LOWER_STEP = {3: "product_step_lower", 4: "poly_power_step_lower"}


def _pow1m(x, e, exp, log1p):
    """(1 - x)^e without cancellation for small x."""
    return exp(e * log1p(-x))


def _signed_beta_integral(a: float, b: float, x0: float, x1: float, tol: float) -> float:
    if x1 >= x0:
        return quad_beta_integral(a, b, x0, x1, tol).value
    return -quad_beta_integral(a, b, x1, x0, tol).value


def _boundary_term(x, d1: int, b2, exp, log, log1p):
    # 2 x^(d1/2) (1-x)^(d2/2) for x > 0, with b2 = d2 / 2; it is 0 at x = 0,
    # where each route masks it
    return 2.0 * exp(0.5 * d1 * log(x) + b2 * log1p(-x))


def check_step_inequalities(p: FParams) -> Margins:
    """Margin of every step-inequality form at (d1, d2)."""
    if p.d2 < 5:
        raise DomainError(f"step inequalities require d2 >= 5, got d2={p.d2}")
    ep = band_endpoints(p)
    return step_inequalities_at(p.d1, p.d2, ep.a, ep.b, ep.c, ep.d)


def step_inequalities_at(d1: int, d2: int, a: float, b: float, c: float,
                         d: float) -> Margins:
    """``check_step_inequalities`` at (d1, d2) given its endpoint images
    a, b, c, d (from ``band_endpoints`` or ``band_endpoints_column``)."""
    a2, b2 = 0.5 * d1, 0.5 * d2
    term_a, term_c = (0.0 if x == 0.0 else
                      _boundary_term(x, d1, b2, math.exp, math.log, math.log1p)
                      for x in (a, c))
    margins = _step_forms(d1, float(d2), float(d2 + 2), a, b, c, d,
                          quad_beta_integral(a2, b2, a, b, _QUAD_TOL).value,
                          _signed_beta_integral(a2, b2, c, d, _QUAD_TOL), term_a, term_c,
                          lambda x, e: _pow1m(x, e, math.exp, math.log1p))
    if not c > 0.0:
        margins["lower_edge"] = None
    if d1 in (3, 4):
        d_gt_c = d > 0.0 and _d_exceeds_c(d1, d2)
        if not d_gt_c:
            margins[_LOWER_STEP[d1]] = None
        if d1 == 3:
            margins["ratio_bound_lower"] = v_direct(float(d2)) if d_gt_c else None
    return margins


def step_inequalities_column(d1: int, d2s: Sequence[int], a, b, c, d) -> Dict[str, list]:
    """``step_inequalities_at(d1, d2s[i], a[i], b[i], c[i], d[i])`` for every
    i, as one map from form to the list of its margins over the column.

    a, b, c, d are the column's endpoint images (``band_endpoints_column``).
    The keys, their order, the None entries and every margin are those of
    ``step_inequalities_at``, bit for bit: one body per formula (above).
    """
    import numpy as np

    n2, n2p2, a, b, c, d = _column_args(d2s, a, b, c, d)
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
                                          _QUAD_TOL)
    exp, log, log1p = _each(math.exp), _each(math.log), _each(math.log1p)
    terms = np.zeros((2, n2.size))  # 0 where the image is 0
    for term, x in zip(terms, (a, c)):
        live = x != 0.0
        term[live] = _boundary_term(x[live], d1, b2[live], exp, log, log1p)
    forms = _step_forms(d1, n2, n2p2, a, b, c, d,
                        ints[0::2], np.where(rev, -ints[1::2], ints[1::2]), *terms,
                        lambda x, e: _pow1m(x, e, exp, log1p))
    margins = {form: v.tolist() for form, v in forms.items()}
    margins["lower_edge"] = _masked((c > 0.0).tolist(), margins["lower_edge"])
    if d1 in (3, 4):
        d_gt_c = [dv > 0.0 and _d_exceeds_c(d1, n) for n, dv in zip(d2s, d.tolist())]
        margins[_LOWER_STEP[d1]] = _masked(d_gt_c, margins[_LOWER_STEP[d1]])
        if d1 == 3:
            v = iter(v_of(n2[np.array(d_gt_c, dtype=bool)], np.sqrt).tolist())
            margins["ratio_bound_lower"] = [next(v) if gt else None for gt in d_gt_c]
    return margins


def _step_forms(d1, d2, d2p2, a, b, c, d, upper, lower, term_a, term_c, pow1m) -> dict:
    """Every step form's margin at d1, before the applicability rules.

    d2p2 is d2 + 2, upper and lower the integrals I[a,b] and I[c,d], term_a
    and term_c the boundary terms and pow1m(x, e) gives (1 - x)^e: floats
    on the scalar route, float64 columns on the column route.
    """
    upper_int, lower_int = d2 * upper, d2 * lower
    forms = {
        "step_integral": (upper_int + term_c) - (term_a + lower_int),
        "upper_edge": upper_int - term_a,
        "lower_edge": term_c - lower_int,
    }
    b2 = 0.5 * d2
    one_m_a = pow1m(a, b2 + 1.0)
    one_m_b = pow1m(b, b2)
    if d1 in (1, 2, 3):
        forms["power_step"] = one_m_a - one_m_b
    if d1 == 1:
        forms["affine_power_step"] = (2.0 * (d2p2 * a - 1.0) * one_m_a
                                      - (3.0 * d2p2 * a - 2.0 - d2 * b) * one_m_b)
    if d1 == 4:
        forms["poly_power_step"] = (d2p2 * a + 2.0) * one_m_a - (d2 * b + 2.0) * one_m_b
    if d1 in (3, 4):
        one_m_d = pow1m(d, b2)
        one_m_c = pow1m(c, b2 + 1.0)
        if d1 == 4:
            forms["poly_power_step_lower"] = ((d2 * d + 2.0) * one_m_d
                                              - (d2p2 * c + 2.0) * one_m_c)
        else:
            forms["product_step_lower"] = ((2.0 * (1.0 + c) + d2 * (c + d)) * one_m_d
                                           - 2.0 * (d2p2 * c + 1.0) * one_m_c)
    return forms


def _column_args(d2s, a, b, c, d) -> tuple:
    # d2, d2 + 2 and the endpoint images as float64 columns; d2 + 2 is added
    # in integers, as the scalar route adds it, then rounded once
    import numpy as np

    return (np.asarray(d2s, dtype=float),
            (np.asarray(d2s, dtype=np.int64) + 2).astype(float),
            *(np.asarray(v, dtype=float) for v in (a, b, c, d)))


def _masked(mask: list, values: list) -> list:
    # values[i] where mask[i] holds, None elsewhere
    return [v if m else None for v, m in zip(values, mask)]


def coefficient_sign_checks(d1: int, d2: int) -> Margins:
    """Sign claims for the affine coefficients of the d1 = 1 reduction and
    the c/d ordering of the d1 = 3 reduction.

    d1 = 1:  (d2+2) a > 1,   3(d2+2) a - 2 - d2 b > 0,   d2 b > (d2+2) a
    d1 = 3:  (d2+2) c > d2 d   (requires c > 0, else not applicable)
    """
    _check_coefficient_d1(d1)
    a, b, c, d = band_endpoints(FParams(d1, d2))
    margins = _coefficient_forms(d1, float(d2), float(d2 + 2), a, b, c, d)
    if d1 == 3 and not c > 0.0:
        margins["cd_order"] = None
    return margins


def coefficient_sign_column(d1: int, d2s: Sequence[int], a, b, c, d) -> Dict[str, list]:
    """``coefficient_sign_checks(d1, d2s[i])`` for every i, as one map from
    form to the list of its margins over the column.

    a, b, c, d are the column's endpoint images (``band_endpoints_column``).
    The keys, the None entries and every margin are those of
    ``coefficient_sign_checks``, bit for bit: both evaluate
    ``_coefficient_forms``.
    """
    _check_coefficient_d1(d1)
    n2, n2p2, a, b, c, d = _column_args(d2s, a, b, c, d)
    margins = {form: v.tolist()
               for form, v in _coefficient_forms(d1, n2, n2p2, a, b, c, d).items()}
    if d1 == 3:
        margins["cd_order"] = _masked((c > 0.0).tolist(), margins["cd_order"])
    return margins


def _check_coefficient_d1(d1: int) -> None:
    if d1 not in (1, 3):
        raise DomainError(f"coefficient sign checks exist for d1 in {{1, 3}}, got {d1}")


def _coefficient_forms(d1, d2, d2p2, a, b, c, d) -> dict:
    # the coefficient claims before the c > 0 rule, from floats or float64
    # columns alike (see _step_forms)
    if d1 == 1:
        return {
            "coef_lower_bound": d2p2 * a - 1.0,
            "coef_combination": 3.0 * d2p2 * a - 2.0 - d2 * b,
            "coef_dominance": d2 * b - d2p2 * a,
        }
    return {"cd_order": d2p2 * c - d2 * d}


# ---------------------------------------------------------------------------
# exploratory evaluators for d1 >= 5
# ---------------------------------------------------------------------------

def _even_series(d1: int, y: float, sign: float) -> float:
    """Common body of the even-d1 series forms; sign selects the +/- branch
    of the square root.  A log argument or alternating sum that is not
    positive, or a sum term that overflows a float, is a ``DomainError``."""
    half = d1 // 2
    bracket = 1.0 + (d1 / y) * (1.0 + sign * math.sqrt(2.0 * (d1 + y) / (d1 * (y - 2.0))))
    if bracket <= 0.0:
        raise DomainError(
            f"series form undefined: nonpositive log argument at d1={d1}, y={y}")
    total = 0.0
    try:
        for n in range(half):
            total += ((-1.0) ** n * math.comb(half - 1, n)
                      / ((2 * n + y + 2.0) * bracket ** n))
    except OverflowError:
        raise DomainError(
            f"series form undefined: a sum term overflows at d1={d1}, y={y}") from None
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


#: The note of an odd-d1 form whose truncated sum overflows a float.
_OVERFLOW_NOTE = "not applicable: the truncated sum overflows a float"


def _unless_overflow(form: Callable[[], float]) -> Tuple[Optional[float], str]:
    """(form(), ""), or (None, ``_OVERFLOW_NOTE``) where its truncated sum
    overflows a float."""
    try:
        return form(), ""
    except OverflowError:
        return None, _OVERFLOW_NOTE


def falling_factorial_bounds_odd(d1: int,
                                 d2: int) -> Dict[str, Tuple[Optional[float], str]]:
    """Truncated-binomial sufficient bounds for odd d1 >= 5 (exploratory),
    each form's (margin, note).

    truncated_series_upper:  2a < d2 * S_floor(a, b)   (truncation below)
    truncated_series_lower:  2c > d2 * S_ceil(c, d)    (truncation above;
                             only when d > c > 0)

    A form that does not apply is (None, "").  A form whose truncated sum
    overflows a float (large d1, where the sum has about d1/2 terms and n!
    passes the float range from n = 171) is (None, ``_OVERFLOW_NOTE``).
    """
    if d1 < 5 or d1 % 2 == 0:
        raise DomainError(f"falling-factorial bounds require odd d1 >= 5, got {d1}")
    p = FParams(d1, d2)
    ep = band_endpoints(p)
    alpha = 0.5 * d1 - 1.0
    rows = {
        "truncated_series_upper": _unless_overflow(
            lambda: _truncated_sum(d1, d2, ep.a, ep.b, math.floor(alpha)) - 2.0 * ep.a),
        "truncated_series_lower": (None, ""),
    }
    if ep.d > 0.0 and d_exceeds_c(p):
        rows["truncated_series_lower"] = _unless_overflow(
            lambda: 2.0 * ep.c - _truncated_sum(d1, d2, ep.c, ep.d, math.ceil(alpha)))
    return rows
