"""Auxiliary transcendental functions of the step-inequality programs.

Each function of the band-edge comparison machinery is a scalar function of
a real argument y (the denominator degrees of freedom, treated as real):

* h1, h2, h3       (y/2 + 1) ln(1 + p_x(y)) for numerator df x = 1, 2, 3,
                   where p_x(y) = (x/y)(1 + sqrt(2(x+y)/(x(y-2)))).  The
                   upper-edge power inequality at (x, d2) is equivalent to
                   h_x(d2-2) > h_x(d2), so monotone decrease settles it.
* h4, r4           the analogous log forms for x = 4, built from the "+"
                   and "-" square-root branches; the x = 4 upper edge needs
                   h4 increasing, the lower edge needs r4 decreasing.
* k_fun            rational-in-sqrt form whose monotone decrease orders the
                   affine coefficients of the x = 1 program.
* l1, l2, l3       upper bounds for h1', h2', h3' obtained by the cubic
                   truncation ln(1+t) <= t - t^2/2 + t^3/3; negative on
                   their domains, so h1..h3 decrease.
* l4               the same cubic truncation bounds -h4' from above (not h4'
                   itself); l4 < 0 on its domain, so h4 increases.
* q4               lower bound for -r4' via ln(1+t) > t - t^2/2; positive on
                   y >= 15.
* v, g1, g2        the lower-edge sufficient bound for x = 3: v(y) > 0 is
                   the target, and v = g1/g2 is its cleared rational form in
                   the radicals s1 = sqrt((y+1)/(y-4)), s2 = sqrt((y+3)/(y-2)).

Derivative factors inside l1..l4 and q4 are evaluated by complex-step
differentiation (exact to machine precision, no cancellation).  The
derivative-sign checks exposed to the verifier use sampled strict
monotonicity plus a five-point finite-difference screen instead.

The checks below return a one-row ``reporting.Block`` each, made by
``reporting.margin_block``, or by ``reporting.gap_block`` for the two-route
checks (``rational_V_consistency``, ``algebra_identity_check``).  Its d1
and d2 are 0, since each is a claim about a function of y alone;
``reporting.rows_from_outcome`` stamps a program's on it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Mapping, Sequence

from ..errors import DomainError
from ..reporting import Block, gap_block, margin_block
from ..varband import STRICTNESS_FLOOR

__all__ = [
    "AuxFn",
    "aux_eval",
    "aux_domain_min",
    "GOLDEN_TABLES",
    "monotone_table_check",
    "derivative_sign_check",
    "value_sign_check",
    "rational_V_consistency",
    "algebra_identity_check",
    "IDENTITY_IDS",
    "s1",
    "s2",
    "c_of",
    "d_of",
]

_SQRT2 = math.sqrt(2.0)
_SQRT6 = math.sqrt(6.0)


# ---------------------------------------------------------------------------
# basic building blocks (complex-safe so the complex-step derivative works)
# ---------------------------------------------------------------------------

def _p_factor(x: float, y):
    return (x / y) * (1.0 + _sqrt(2.0 * (x + y) / (x * (y - 2.0))))


def _sqrt(z):
    return cmath.sqrt(z) if isinstance(z, complex) else math.sqrt(z)


def _cstep_dln(f: Callable, y: float) -> float:
    """d/dy ln f(y) by complex-step differentiation."""
    h = 1e-200
    return cmath.log(f(complex(y, h))).imag / h


def s1(y: float) -> float:
    """sqrt((y+1)/(y-4)), defined for y > 4."""
    if y <= 4.0:
        raise DomainError(f"s1 requires y > 4, got {y}")
    return math.sqrt((y + 1.0) / (y - 4.0))


def s2(y: float) -> float:
    """sqrt((y+3)/(y-2)), defined for y > 2."""
    if y <= 2.0:
        raise DomainError(f"s2 requires y > 2, got {y}")
    return math.sqrt((y + 3.0) / (y - 2.0))


def c_of(y: float) -> float:
    """Lower endpoint image for numerator df 3 at real denominator df y+2.

    c_of(y) = 3 / (3 + y (1 - sqrt(2(3+y)/(3(y-2))))^-1) = (3 - sqrt6 s2)/(3 - sqrt6 s2 + y).
    """
    if y <= 2.0:
        raise DomainError(f"c_of requires y > 2, got {y}")
    t = 3.0 - _SQRT6 * s2(y)
    return t / (t + y)


def d_of(y: float) -> float:
    """Companion lower endpoint image, (3 - sqrt6 s1)/(3 - sqrt6 s1 + y - 2)."""
    if y <= 4.0:
        raise DomainError(f"d_of requires y > 4, got {y}")
    t = 3.0 - _SQRT6 * s1(y)
    return t / (t + (y - 2.0))


# ---------------------------------------------------------------------------
# the named functions
# ---------------------------------------------------------------------------

def _h_small(x: int, y: float) -> float:
    return (0.5 * y + 1.0) * math.log(1.0 + _p_factor(float(x), y))


def h1(y: float) -> float:
    return _h_small(1, y)


def h2(y: float) -> float:
    return _h_small(2, y)


def h3(y: float) -> float:
    return _h_small(3, y)


def _s4(y):
    return _sqrt((4.0 + y) / (2.0 * (y - 2.0)))


def h4(y: float) -> float:
    s = _s4(y)
    return (0.5 * (y + 2.0) * math.log(y)
            - 0.5 * (y + 4.0) * math.log(4.0 * (1.0 + s) + y)
            + math.log(4.0 * (y + 4.0) * (1.0 + s) + 2.0 * y))


def r4(y: float) -> float:
    s = _s4(y)
    return (0.5 * (y + 2.0) * math.log(y)
            - 0.5 * (y + 4.0) * math.log(4.0 * (1.0 - s) + y)
            + math.log(4.0 * (y + 4.0) * (1.0 - s) + 2.0 * y))


def k_fun(y: float) -> float:
    w = 1.0 + math.sqrt(2.0 * (y - 1.0) / (y - 4.0))
    return y * w / (w + y - 2.0)


def _l_small(x: int, y: float) -> float:
    p = _p_factor(float(x), y)
    dln = _cstep_dln(lambda z: 1.0 + _p_factor(float(x), z), y)
    return 0.5 * (p - p * p / 2.0 + p ** 3 / 3.0) + (0.5 * y + 1.0) * dln


def l1(y: float) -> float:
    return _l_small(1, y)


def l2(y: float) -> float:
    return _l_small(2, y)


def l3(y: float) -> float:
    return _l_small(3, y)


def l4(y: float) -> float:
    p = (4.0 / y) * (1.0 + _s4(y))
    d_inner = _cstep_dln(lambda z: 4.0 * (1.0 + _s4(z)) + z, y)
    d_outer = _cstep_dln(lambda z: 4.0 * (z + 4.0) * (1.0 + _s4(z)) + 2.0 * z, y)
    return (0.5 * (p - p * p / 2.0 + p ** 3 / 3.0) - (y + 2.0) / (2.0 * y)
            + 0.5 * (y + 4.0) * d_inner - d_outer)


def q4(y: float) -> float:
    r = (4.0 / y) * (1.0 - _s4(y))
    d_inner = _cstep_dln(lambda z: 4.0 * (1.0 - _s4(z)) + z, y)
    d_outer = _cstep_dln(lambda z: 4.0 * (z + 4.0) * (1.0 - _s4(z)) + 2.0 * z, y)
    return (0.5 * (r - r * r / 2.0) - (y + 2.0) / (2.0 * y)
            + 0.5 * (y + 4.0) * d_inner - d_outer)


def v_direct(y: float) -> float:
    """Lower-edge sufficient bound, directly from c_of and d_of."""
    c = c_of(y)
    d = d_of(y)
    return ((c / (1.0 - c)) * (1.0 - c / (2.0 * (1.0 - c)))
            - ((y + 2.0) * c - y * d) / (2.0 * (1.0 + c) + y * (c + d))
            - y * (d - c) / (2.0 * (1.0 - d)))


# Bracket coefficients of g1 by descending power of y: each row multiplies
# (const, sqrt6*s1, sqrt6*s2, s1*s2).  Cross-validated against v_direct via
# the exact relation v = g1/g2: the two evaluation routes agree to roundoff.
_G1_ROWS = (
    (8, (0, 2, -2, 0)),
    (7, (-4, -8, 8, 4)),
    (6, (-16, -25, 23, -20)),
    (5, (-392, 77, 125, -70)),
    (4, (-500, 410, -364, -304)),
    (3, (4 * 1134, 4 * -108, 4 * -457, 4 * 654)),
    (2, (16 * 435, 16 * -237, 16 * 160, 16 * 192)),
    (1, (192 * -54, 0, 192 * 11, 192 * -66)),
    (0, (-6912, 6912, 0, 0)),
)


def g1(y: float) -> float:
    u, v = s1(y), s2(y)
    basis = (1.0, _SQRT6 * u, _SQRT6 * v, u * v)
    total = 0.0
    for k, row in _G1_ROWS:
        total += y ** k * (row[0] * basis[0] + row[1] * basis[1]
                           + row[2] * basis[2] + row[3] * basis[3])
    return -3.0 * total


def g2(y: float) -> float:
    u, v = s1(y), s2(y)
    q6u, q6v, uv = _SQRT6 * u, _SQRT6 * v, u * v
    inner = (y * y * (-8.0 + q6u + q6v)
             + 4.0 * (-3.0 + 3.0 * q6u + q6v - 6.0 * uv)
             + 2.0 * y * (-13.0 + 4.0 * q6u + 4.0 * q6v - 6.0 * uv))
    return 2.0 * (y - 4.0) * (y - 2.0) ** 2 * y * y * (3.0 + y - q6v) * inner


def g2_expanded(y: float) -> float:
    """Second transcription of g2, expanded around y = 25; used as a
    transcription cross-check against g2."""
    x = y - 25.0
    u, v = s1(y), s2(y)
    q6u, q6v, uv = _SQRT6 * u, _SQRT6 * v, u * v
    inner = (-3785600.0 + 548100.0 * q6u + 664102.0 * q6v - 324162.0 * uv
             + x ** 4 * (-8.0 + q6u + q6v)
             + x * (-577824.0 + 80699.0 * q6u + 95091.0 * q6v - 37278.0 * uv)
             + x * x * (-33056.0 + 4451.0 * q6u + 5041.0 * q6v - 1422.0 * uv)
             + x ** 3 * (-840.0 + 109.0 * q6u + 117.0 * q6v - 18.0 * uv))
    return 2.0 * (25.0 + x) ** 2 * (483.0 + 44.0 * x + x * x) * inner


# ---------------------------------------------------------------------------
# registry, golden tables, checks
# ---------------------------------------------------------------------------

class AuxFn(Enum):
    H1 = "h1"
    H2 = "h2"
    H3 = "h3"
    H4 = "h4"
    R4 = "r4"
    KFUN = "k"
    V = "v"
    G1 = "g1"
    G2 = "g2"
    L1 = "l1"
    L2 = "l2"
    L3 = "l3"
    L4 = "l4"
    Q4 = "q4"


@dataclass(frozen=True)
class _AuxSpec:
    fn: Callable[[float], float]
    y_min: float


_REGISTRY: Mapping[AuxFn, _AuxSpec] = {
    AuxFn.H1: _AuxSpec(h1, 3.0),
    AuxFn.H2: _AuxSpec(h2, 3.0),
    AuxFn.H3: _AuxSpec(h3, 3.0),
    AuxFn.H4: _AuxSpec(h4, 3.0),
    AuxFn.R4: _AuxSpec(r4, 15.0),
    AuxFn.KFUN: _AuxSpec(k_fun, 5.0),
    AuxFn.V: _AuxSpec(v_direct, 25.0),
    AuxFn.G1: _AuxSpec(g1, 5.0),
    AuxFn.G2: _AuxSpec(g2, 5.0),
    AuxFn.L1: _AuxSpec(l1, 3.0),
    AuxFn.L2: _AuxSpec(l2, 5.0),
    AuxFn.L3: _AuxSpec(l3, 12.0),
    AuxFn.L4: _AuxSpec(l4, 12.0),
    AuxFn.Q4: _AuxSpec(q4, 15.0),
}

#: Reference values at integer arguments; the g1 table is compared
#: relatively (1e9 scale), the rest absolutely, both at 1e-5.
GOLDEN_TABLES: Mapping[AuxFn, Mapping[int, float]] = {
    AuxFn.H2: {3: 2.87436, 4: 2.58363, 5: 2.44523},
    AuxFn.H3: {3: 3.46574, 4: 3.18962, 5: 3.06414, 6: 2.99125, 7: 2.94353,
               8: 2.9099, 9: 2.88497, 10: 2.86578, 11: 2.85058, 12: 2.83826},
    AuxFn.H4: {3: -2.15017, 4: -1.85244, 5: -1.70932, 6: -1.62225, 7: -1.563,
               8: -1.51983, 9: -1.48688, 10: -1.46088, 11: -1.43981, 12: -1.42238},
    AuxFn.G1: {25: -1.46179e9, 26: -1.91825e9, 27: -2.48438e9, 28: -3.17992e9,
               29: -4.02709e9, 30: -5.05084e9, 31: -6.27904e9, 32: -7.74269e9,
               33: -9.47617e9},
}

_TABLE_TOL = 1e-5
_RELATIVE_TABLES = frozenset({AuxFn.G1})


def aux_domain_min(f: AuxFn) -> float:
    return _REGISTRY[f].y_min


def aux_eval(f: AuxFn, y: float) -> float:
    """Evaluate the named auxiliary function at real y (domain-checked)."""
    spec = _REGISTRY[f]
    if not (isinstance(y, (int, float)) and math.isfinite(y)):
        raise DomainError(f"{f.name} requires a finite real argument, got {y!r}")
    y = float(y)
    if y < spec.y_min:
        raise DomainError(f"{f.name} is defined for y >= {spec.y_min}, got {y}")
    return spec.fn(y)


def _table_mismatches(f: AuxFn, ys: Sequence[float], values: Sequence[float]):
    table = GOLDEN_TABLES.get(f)
    if table is None:
        return []
    relative = f in _RELATIVE_TABLES
    out = []
    for y, val in zip(ys, values):
        if float(y).is_integer() and int(y) in table:
            ref = table[int(y)]
            err = abs(val - ref) / abs(ref) if relative else abs(val - ref)
            if err > _TABLE_TOL:
                out.append((int(y), val, ref, err))
    return out


def monotone_table_check(f: AuxFn, ys: Sequence[float], direction: str) -> Block:
    """Strict sampled monotonicity of f over ys, cross-checked against the
    reference table where one exists (1e-5 tolerance)."""
    if direction not in ("increasing", "decreasing"):
        raise DomainError(f"direction must be 'increasing' or 'decreasing', got {direction!r}")
    ys = sorted(float(y) for y in ys)
    if len(ys) < 2:
        raise DomainError("monotonicity needs at least two sample points")
    values = [aux_eval(f, y) for y in ys]
    sign = 1.0 if direction == "increasing" else -1.0
    margin = min(sign * (b - a) for a, b in zip(values, values[1:]))
    mismatches = _table_mismatches(f, ys, values)
    if mismatches:
        note = "table mismatch: " + "; ".join(
            f"y={y}: got {v:.6g}, expected {r:.6g}" for y, v, r, _ in mismatches)
    else:
        note = "" if not GOLDEN_TABLES.get(f) else "table values reproduced"
    return margin_block(f"{f.value}_{direction}", 0, [0], [margin], STRICTNESS_FLOOR, note,
                        holds=not mismatches)


def derivative_sign_check(f: AuxFn, ys: Sequence[float], expected_sign: int) -> Block:
    """Secondary screen: the five-point finite-difference derivative at each
    y must have the expected sign; margin is the worst signed derivative."""
    if expected_sign not in (-1, 1):
        raise DomainError("expected_sign must be -1 or +1")
    ys = [float(y) for y in ys]
    y_min = _REGISTRY[f].y_min
    step = 1e-5
    worst = math.inf
    for y in ys:
        if y - 2.0 * step < y_min:
            raise DomainError(f"stencil for {f.name} leaves the domain at y={y}")
        fd = (-aux_eval(f, y + 2 * step) + 8.0 * aux_eval(f, y + step)
              - 8.0 * aux_eval(f, y - step) + aux_eval(f, y - 2 * step)) / (12.0 * step)
        worst = min(worst, expected_sign * fd)
    return margin_block(f"{f.value}_derivative_sign", 0, [0], [worst], STRICTNESS_FLOOR,
                        "finite-difference secondary check")


def value_sign_check(f: AuxFn, ys: Sequence[float], expected_sign: int) -> Block:
    """Sampled sign of f over ys: margin is the worst expected_sign * f(y)."""
    if expected_sign not in (-1, 1):
        raise DomainError("expected_sign must be -1 or +1")
    ys = [float(y) for y in ys]
    if not ys:
        raise DomainError("need at least one sample point")
    margin = min(expected_sign * aux_eval(f, y) for y in ys)
    suffix = "negative" if expected_sign < 0 else "positive"
    return margin_block(f"{f.value}_{suffix}", 0, [0], [margin], STRICTNESS_FLOOR)


def rational_V_consistency(y: float, rel_tol: float = 1e-9) -> Block:
    """Agreement of the two v evaluation routes plus the sign program.

    Computes v directly from c_of/d_of and independently as g1/g2, requires
    their relative gap (``reporting.relative_gap``) to be within rel_tol, and
    asserts g1 < 0, g2 < 0, v > 0.
    """
    y = float(y)
    if y < 25.0:
        raise DomainError(f"the v sign program applies for y >= 25, got {y}")
    direct = v_direct(y)
    num, den = g1(y), g2(y)
    problems = []
    if not num < 0.0:
        problems.append(f"g1({y}) = {num:.6g} not negative")
    if not den < 0.0:
        problems.append(f"g2({y}) = {den:.6g} not negative")
    if not direct > 0.0:
        problems.append(f"v({y}) = {direct:.6g} not positive")
    note = "; ".join(problems) if problems else "two evaluation routes agree"
    return gap_block("v_rational_consistency", 0, [(direct, num / den)], rel_tol, note,
                     holds=not problems)


# ---------------------------------------------------------------------------
# algebra transcription identities
# ---------------------------------------------------------------------------
# Each lower-bound function above satisfies an exact algebraic identity
# after multiplication by an explicit prefactor; checking those identities
# numerically ties the transcribed polynomial families (T1, T2, U1, U2) and
# the derivative machinery together, so a typo in any one side surfaces as a
# residual far above roundoff.

def _id_l1(y: float):
    w = math.sqrt((1.0 + y) / (y - 2.0))
    lhs = (-12.0 * y ** 3 * (y - 2.0) ** 2 * w
           * (1.0 + y + math.sqrt(2.0 * (1.0 + y) / (y - 2.0))) * l1(y))
    rhs = (32.0 * w - 4.0 * y * (7.0 * _SQRT2 - 2.0 * w)
           - y * y * (35.0 * _SQRT2 - 4.0 * w)
           + y ** 3 * (17.0 * _SQRT2 - 23.0 * w)
           + 3.0 * y ** 4 * (5.0 * _SQRT2 + w))
    bound = _SQRT2 * y * (-28.0 - 35.0 * y + 16.0 * y * y) + y ** 3 * (46.0 * _SQRT2 - 23.0 * w)
    return lhs, rhs, min(rhs - bound, bound)


def _id_l2(y: float):
    w = math.sqrt((2.0 + y) / (y - 2.0))
    lhs = -3.0 * y ** 3 * (2.0 + y) * (2.0 + y + 2.0 * w) * l2(y)
    rhs = 2.0 * w ** 3 * (32.0 * w - 4.0 * y * (9.0 + 5.0 * w)
                          + 2.0 * y * y * (2.0 - w) + 3.0 * y ** 3)
    bound = 2.0 * w ** 3 * y * (39.0 - 20.0 * w)
    return lhs, rhs, min(rhs - bound, bound)


def _id_l3(y: float):
    w = math.sqrt((3.0 + y) / (y - 2.0))
    lhs = (-4.0 * y ** 3 * (y - 2.0) ** 2 * w
           * (3.0 + y + math.sqrt(6.0 * (3.0 + y) / (y - 2.0))) * l3(y))
    rhs = (864.0 * w - 36.0 * y * (11.0 * _SQRT6 + 6.0 * w)
           - 3.0 * y * y * (29.0 * _SQRT6 + 88.0 * w)
           + y ** 3 * (19.0 * _SQRT6 + 9.0 * w)
           + 3.0 * y ** 4 * (_SQRT6 - w))
    u1 = -396.0 - 87.0 * y + 19.0 * y * y
    u2_half = -216.0 - 264.0 * y + 9.0 * y * y + 1.5 * y ** 3
    bound = y * (u1 * _SQRT6 + u2_half * w)
    return lhs, rhs, min(rhs - bound, bound)


def _id_l4(y: float):
    w2 = math.sqrt(2.0 * (4.0 + y) / (y - 2.0))
    w = math.sqrt((4.0 + y) / (y - 2.0))
    lhs = (-3.0 * y ** 3 * (y - 2.0) ** 2 * (4.0 + y + 2.0 * w2)
           * (8.0 + 4.0 * w2 + y * (3.0 + w2)) * l4(y))
    t1 = 2048.0 + 1536.0 * y - 1040.0 * y ** 2 - 368.0 * y ** 3 + 10.0 * y ** 4 + 3.0 * y ** 5
    t2 = -2048.0 + 3072.0 * y - 112.0 * y ** 2 - 484.0 * y ** 3 + 8.0 * y ** 4 + 3.0 * y ** 5
    rhs = 4.0 * w * (t1 * _SQRT2 + t2 * w)
    return lhs, rhs, rhs


def _id_q4(y: float):
    w2 = math.sqrt(2.0 * (4.0 + y) / (y - 2.0))
    w = math.sqrt((4.0 + y) / (y - 2.0))
    lhs = (y * y * (4.0 + y) * (4.0 + y - 2.0 * w2)
           * (8.0 - 4.0 * w2 + y * (3.0 - w2)) * q4(y))
    rhs = 4.0 * w ** 3 * (128.0 * w + y * (88.0 * _SQRT2 - 40.0 * w)
                          + y * y * (26.0 * _SQRT2 - 34.0 * w)
                          + y ** 3 * (_SQRT2 - w))
    return lhs, rhs, rhs


def _id_kprime(y: float):
    h = 1e-5
    kd = (-k_fun(y + 2 * h) + 8.0 * k_fun(y + h) - 8.0 * k_fun(y - h)
          + k_fun(y - 2 * h)) / (12.0 * h)
    w = math.sqrt((y - 1.0) / (y - 4.0))
    lhs = (-2.0 * (y - 4.0) ** 2 * w
           * (y - 1.0 + math.sqrt(2.0 * (y - 1.0) / (y - 4.0))) ** 2 * kd)
    rhs = ((3.0 * _SQRT2 - 2.0 * w) * y * y
           - (6.0 * _SQRT2 - 4.0 * w) * y + 16.0 * w)
    bound = (9.0 * _SQRT2 - 6.0 * w) * y
    return lhs, rhs, min(rhs - bound, bound)


_IDENTITIES = {
    "l1_prefactor_identity": (_id_l1, 3.0, 1e-6),
    "l2_prefactor_identity": (_id_l2, 5.0, 1e-6),
    "l3_prefactor_identity": (_id_l3, 12.0, 1e-6),
    "l4_prefactor_identity": (_id_l4, 12.0, 1e-6),
    "q4_prefactor_identity": (_id_q4, 15.0, 1e-6),
    # k' is measured by finite difference, so its residual tolerance is looser
    "k_derivative_identity": (_id_kprime, 5.0, 1e-4),
}

IDENTITY_IDS = tuple(sorted(_IDENTITIES))


def algebra_identity_check(name: str, ys: Sequence[float]) -> Block:
    """Residual of a named prefactor identity over sampled y.

    margin = rel_tol - the relative gap (``reporting.relative_gap``) between
    the prefactor-multiplied bound function and its cleared algebraic form;
    the identity's trailing polynomial lower bound must also stay
    nonnegative at each sample.
    """
    try:
        fn, y_min, rel_tol = _IDENTITIES[name]
    except KeyError:
        raise DomainError(
            f"unknown identity {name!r}; known: {list(IDENTITY_IDS)}") from None
    ys = [float(y) for y in ys]
    if not ys:
        raise DomainError("need at least one sample point")
    for y in ys:
        if y < y_min:
            raise DomainError(f"identity {name} applies for y >= {y_min}, got {y}")
    values = [fn(y) for y in ys]
    bound_ok = not any(slack < 0.0 for _, _, slack in values)
    note = "" if bound_ok else "trailing polynomial bound violated"
    return gap_block(name, 0, [(lhs, rhs) for lhs, rhs, _ in values], rel_tol, note,
                     holds=bound_ok)
