"""Scalar special functions: log-gamma, regularized incomplete beta and
lower incomplete gamma, and the standard normal CDF; plus
``reg_inc_beta_column``, the numpy fast route for the incomplete beta over a
whole column of arguments.

Everything here is binary64 only.  The incomplete beta and gamma functions
are evaluated by continued fractions using the modified Lentz method, with
the usual symmetry flip for the beta function so the fraction is always used
in its fast-converging region.  Iteration caps are hard errors, never silent
best-effort values.

One body per formula: both routes run each formula's one body, with the
route's elementwise functions passed in, and the column drivers keep only
lane bookkeeping.  The bodies use the correctly rounded +, -, * and /,
which round alike on floats and float64 columns, and the column route
takes every exp and log from ``math`` lane by lane (``_each``), so it is
bit-identical to ``reg_inc_beta``, the reference route.  numpy is
imported only when the column route runs.
"""

from __future__ import annotations

import math

from .errors import ConvergenceError, DomainError

__all__ = [
    "log_gamma",
    "log_beta",
    "reg_inc_beta",
    "reg_inc_beta_column",
    "reg_lower_gamma",
    "std_normal_cdf",
]

_FPMIN = 1e-300  # guard against division by zero inside Lentz iterations


# Convergence policy of the iterative evaluations: an update within these
# bounds ends an iteration; more than _MAX_ITER continued-fraction or series
# steps is a ConvergenceError.
_ABS_TOL = 1e-15
_REL_TOL = 1e-15
_MAX_ITER = 500

# Lanczos approximation, g = 7, 9 coefficients.  Relative error of the
# reconstructed gamma is below 1e-14 over the positive real axis.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_LN_SQRT_2PI = 0.9189385332046727  # ln sqrt(2*pi)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for real x > 0.

    Lanczos approximation; arguments below 0.5 are lifted with the
    recurrence ln G(x) = ln G(x+1) - ln x rather than a reflection branch.
    """
    x = _finite("x", x)
    if x <= 0.0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    if x < 0.5:
        return _log_gamma_lanczos(x + 1.0) - math.log(x)
    return _log_gamma_lanczos(x)


def _log_gamma_lanczos(x: float) -> float:
    z = x - 1.0
    series = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        series += _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * math.log(t) - t + math.log(series)


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) for a, b > 0.

    While both arguments are below 10 this is ln G(a) + ln G(b) - ln G(a+b).
    For a larger argument that sum cancels terms of size b ln b and loses
    about b ln(b) eps, so the Stirling parts are regrouped as in
    ``_ln_beta_front`` (Loader 2000; R's lbeta) and only the small
    ``_stirlerr`` corrections and log1p terms are summed.
    """
    p, q = sorted((_finite("a", a), _finite("b", b)))
    if p <= 0.0:
        raise DomainError(f"log_beta requires a > 0 and b > 0, got a={a}, b={b}")
    if q < 10.0:
        return log_gamma(a) + log_gamma(b) - log_gamma(a + b)
    n = p + q
    corr = _stirlerr(q) - _stirlerr(n)
    if p < 10.0:
        return log_gamma(p) + corr + p - p * math.log(n) + (q - 0.5) * math.log1p(-p / n)
    return (-0.5 * math.log(q) + _LN_SQRT_2PI + _stirlerr(p) + corr
            + (p - 0.5) * math.log(p / n) + q * math.log1p(-p / n))


#: From this z on, ``_stirlerr`` is its asymptotic series.
_STIRLERR_SERIES_MIN = 15.0


def _stirlerr(z: float) -> float:
    """ln G(z) - [(z - 1/2) ln z - z + ln sqrt(2 pi)]."""
    if z < _STIRLERR_SERIES_MIN:
        return log_gamma(z) - ((z - 0.5) * math.log(z) - z + _LN_SQRT_2PI)
    return _stirlerr_series(z)


def _stirlerr_series(z):
    # the asymptotic series of _stirlerr; truncation below 3e-16 absolute
    # for z >= _STIRLERR_SERIES_MIN
    w = 1.0 / (z * z)
    return ((1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - (1.0 / 1680.0
            - w / 1188.0) * w) * w) * w) / z)


def _bd0(x: float, mu: float) -> float:
    """x ln(x/mu) + mu - x, evaluated without cancellation for x near mu."""
    if _bd0_near(x, mu):
        s, ej, v2 = _bd0_start(x, mu)
        for j in range(1, 1000):
            s1, ej = _bd0_term(s, ej, v2, j)
            if s1 == s:
                return s1
            s = s1
    return _bd0_log(x, mu, math.log)


def _bd0_near(x, mu):
    # where _bd0 sums its series in v = (x - mu) / (x + mu)
    return abs(x - mu) < 0.1 * (x + mu)


def _bd0_start(x, mu):
    # the series' first partial sum, its running term and v^2
    v = (x - mu) / (x + mu)
    return (x - mu) * v, 2.0 * x * v, v * v


def _bd0_term(s, ej, v2, j):
    # partial sum j of the series and its running term
    ej = ej * v2
    return s + ej / (2 * j + 1), ej


def _bd0_log(x, mu, log):
    # _bd0 far from mu, and where its series never settles
    return x * log(x / mu) + mu - x


def _ln_beta_front(x, a, b, log, bd0, stirlerr):
    """ln of x^a (1-x)^b / B(a, b).

    The naive form subtracts log-gamma terms of size O((a+b) ln(a+b)),
    losing absolute precision proportional to that size; the deviance
    regrouping keeps full relative precision.  a is one real; x, b, log,
    bd0 and stirlerr are the route's.
    """
    n = a + b
    return (-bd0(a, n * x) - bd0(b, n * (1.0 - x))
            + 0.5 * log(a * b / (2.0 * math.pi * n))
            - (_stirlerr(a) + stirlerr(b) - stirlerr(n)))


def _ln_gamma_front(s: float, x: float) -> float:
    """ln of e^-x x^s / G(s), with the same regrouping."""
    return -_bd0(s, x) + 0.5 * math.log(s / (2.0 * math.pi)) - _stirlerr(s)


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b) on 0 <= x <= 1.

    Continued fraction evaluated by the modified Lentz method.  When x lies
    past the crossover (a+1)/(a+b+2) the symmetry I_x(a,b) = 1 - I_{1-x}(b,a)
    is applied first so the fraction always converges quickly.
    """
    x, a, b = _inc_beta_args(x, a, b)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(_ln_beta_front(x, a, b, math.log, _bd0, _stirlerr))
    flip = _flips(x, a, b)
    cf = _beta_cf(b, a, 1.0 - x) if flip else _beta_cf(a, b, x)
    return _inc_beta_value(front, cf, a, b, flip, lambda c, u, v: u if c else v, min, max)


def _inc_beta_args(x, a, b) -> tuple:
    """(x, a, b) as floats, or DomainError: the domain of ``reg_inc_beta``,
    which ``reg_inc_beta_column`` checks at its extreme lanes."""
    x, a, b = _finite("x", x), _finite("a", a), _finite("b", b)
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"reg_inc_beta requires a > 0 and b > 0, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if 2.0 * math.pi * (a + b) == math.inf:
        raise DomainError(f"reg_inc_beta requires a + b below about 2.86e307, got {a + b:.6g}")
    return x, a, b


def _flips(x, a, b):
    # I_x(a, b) is taken as 1 - I_{1-x}(b, a) from the crossover on
    return x >= (a + 1.0) / (a + b + 2.0)


def _inc_beta_value(front, cf, a, b, flip, where, minimum, maximum):
    # I_x(a, b) from the front factor and its branch's fraction, clamped to [0, 1]
    value = where(flip, 1.0 - front * cf / b, front * cf / a)
    return minimum(1.0, maximum(0.0, value))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab, qap, qam, c, d = _beta_cf_start(a, b, x, _fpmin)
    h = d
    for m in range(1, _MAX_ITER + 1):
        c, d, even, delta = _lentz_pair(m, a, b, x, qab, qap, qam, c, d, _fpmin)
        h = h * even * delta
        if _lentz_done(delta, h, max):
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge within "
        f"{_MAX_ITER} iterations (a={a}, b={b}, x={x})"
    )


def _fpmin(v: float) -> float:
    return _FPMIN if abs(v) < _FPMIN else v


def _beta_cf_start(a, b, x, guard):
    # the constants of _beta_cf's steps and its first c and d
    qab = a + b
    qap = a + 1.0
    return qab, qap, a - 1.0, 1.0, 1.0 / guard(1.0 - qab * x / qap)


def _lentz_pair(m, a, b, x, qab, qap, qam, c, d, guard):
    """Step m of ``_beta_cf``: its even and its odd Lentz update.

    Returns the new (c, d) and the two factors of h, from floats or float64
    columns alike: the body uses only +, -, * and /, and guard lifts a
    value below ``_FPMIN`` in magnitude to ``_FPMIN`` on either route.
    """
    m2 = 2 * m
    aa = m * (b - m) * x / ((qam + m2) * (a + m2))
    d = 1.0 / guard(1.0 + aa * d)
    c = guard(1.0 + aa / c)
    even = d * c
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
    d = 1.0 / guard(1.0 + aa * d)
    c = guard(1.0 + aa / c)
    return c, d, even, d * c


def _lentz_done(delta, h, maximum):
    # the Lentz stop test: delta within _REL_TOL of 1, or h's change within _ABS_TOL
    return abs(delta - 1.0) <= maximum(_REL_TOL, _ABS_TOL / maximum(abs(h), _FPMIN))


# ---------------------------------------------------------------------------
# column route: the scalar route's formulas over numpy arrays, lane by lane
# ---------------------------------------------------------------------------

def reg_inc_beta_column(x, a: float, b):
    """``reg_inc_beta(x[i], a, b[i])`` for every i, as a float64 array.

    x and b are equal-length 1-d arrays; a is one real shared by the column.
    Each continued fraction stops in its own lane by the scalar rule, and
    any lane that reaches ``_MAX_ITER`` raises ConvergenceError.
    """
    import numpy as np

    x, b = np.asarray(x, dtype=float), np.asarray(b, dtype=float)
    if x.shape != b.shape or x.ndim != 1:
        raise DomainError(f"x and b must be equal-length 1-d arrays, got shapes "
                          f"{x.shape} and {b.shape}")
    # the domain holds on every lane iff at the extremes (or, empty, for a)
    _inc_beta_args(x.min(initial=0.5), a, b.min(initial=1.0))
    a = _inc_beta_args(x.max(initial=0.5), a, b.max(initial=1.0))[1]
    out = x.copy()  # I_0 = 0 and I_1 = 1 are already in place
    inner = (x > 0.0) & (x < 1.0)
    x, b = x[inner], b[inner]
    front = _each(math.exp)(
        _ln_beta_front(x, a, b, _each(math.log), _bd0_column, _stirlerr_column))
    flip = _flips(x, a, b)
    cf = _beta_cf_column(np.where(flip, b, a), np.where(flip, a, b),
                         np.where(flip, 1.0 - x, x))
    out[inner] = _inc_beta_value(front, cf, a, b, flip, np.where, np.minimum, np.maximum)
    return out


def _each(fn):
    """fn, a ``math`` function of one float, applied to a float64 column
    lane by lane: numpy's own exp and log need not round as ``math``'s do."""
    def each(v):
        import numpy as np
        return np.fromiter(map(fn, v.tolist()), dtype=float, count=v.size)
    return each


def _stirlerr_column(z):
    import numpy as np

    out = np.empty_like(z)
    small = z < _STIRLERR_SERIES_MIN
    out[small] = [_stirlerr(t) for t in z[small].tolist()]
    out[~small] = _stirlerr_series(z[~small])
    return out


def _bd0_column(x, mu):
    """_bd0 lane by lane; x is a scalar or an array shaped like mu."""
    import numpy as np

    x = np.broadcast_to(x, mu.shape)
    out = np.empty_like(mu)
    near = _bd0_near(x, mu)
    lanes = np.flatnonzero(near)
    s, ej, v2 = _bd0_start(x[lanes], mu[lanes])
    for j in range(1, 1000):
        if not lanes.size:
            break
        s1, ej = _bd0_term(s, ej, v2, j)
        done = s1 == s
        out[lanes[done]] = s1[done]
        keep = ~done
        lanes, s, ej, v2 = lanes[keep], s1[keep], ej[keep], v2[keep]
    # lanes far from mu, and series lanes that never settled, take the log form
    rest = ~near
    rest[lanes] = True
    out[rest] = _bd0_log(x[rest], mu[rest], _each(math.log))
    return out


def _fpmin_guard(v):
    # _fpmin lane by lane
    import numpy as np
    return np.where(np.abs(v) < _FPMIN, _FPMIN, v)


def _beta_cf_column(a, b, x):
    """_beta_cf lane by lane; a converged lane leaves the working set."""
    import numpy as np

    out = np.empty_like(x)
    lanes = np.arange(x.size)
    qab, qap, qam, c, d = _beta_cf_start(a, b, x, _fpmin_guard)
    h = d
    for m in range(1, _MAX_ITER + 1):
        if not lanes.size:
            return out
        c, d, even, delta = _lentz_pair(m, a, b, x, qab, qap, qam, c, d, _fpmin_guard)
        h = h * even * delta
        done = _lentz_done(delta, h, np.maximum)
        if done.any():
            out[lanes[done]] = h[done]
            keep = ~done
            lanes, a, b, x, qab, qap, qam, c, d, h = (
                v[keep] for v in (lanes, a, b, x, qab, qap, qam, c, d, h))
    if not lanes.size:
        return out
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge within "
        f"{_MAX_ITER} iterations in {lanes.size} lane(s) (first: a={a[0]}, "
        f"b={b[0]}, x={x[0]})"
    )


def reg_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) for s > 0, x >= 0.

    Power series for x < s + 1, continued fraction (modified Lentz) for the
    complementary function otherwise.
    """
    s = _finite("s", s)
    if isinstance(x, float) and math.isinf(x) and x > 0:
        return 1.0
    x = _finite("x", x)
    if s <= 0.0:
        raise DomainError(f"reg_lower_gamma requires s > 0, got s={s}")
    if x < 0.0:
        raise DomainError(f"reg_lower_gamma requires x >= 0, got x={x}")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _gamma_series(s, x)
    return 1.0 - _gamma_cf(s, x)


def _gamma_series(s: float, x: float) -> float:
    ap = s
    term = 1.0 / s
    total = term
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) <= abs(total) * _REL_TOL + _ABS_TOL:
            # the terms left fall by x / (ap + 1) or more each: a tail bound
            # above the sum means _ABS_TOL cut it short (1/s near _ABS_TOL)
            front = math.exp(_ln_gamma_front(s, x))
            if front and term * x >= total * (ap + 1.0 - x):
                raise ConvergenceError("incomplete gamma series stopped with a tail "
                                       f"bound above its sum (s={s}, x={x})")
            return total * front
    raise ConvergenceError(
        f"incomplete gamma series did not converge within {_MAX_ITER} "
        f"iterations (s={s}, x={x})"
    )


def _gamma_cf(s: float, x: float) -> float:
    """Continued fraction for the regularized upper incomplete gamma Q(s, x)."""
    b = x + 1.0 - s
    if b == 0.0:  # x >= s + 1 only because s + 1 rounds to s
        raise ConvergenceError(f"incomplete gamma continued fraction cannot start: "
                               f"x + 1 - s rounds to 0 (s={s}, x={x})")
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = 1.0 / _fpmin(an * d + b)
        c = _fpmin(b + an / c)
        delta = d * c
        h *= delta
        if _lentz_done(delta, h, max):
            return h * math.exp(_ln_gamma_front(s, x))
    raise ConvergenceError(
        f"incomplete gamma continued fraction did not converge within "
        f"{_MAX_ITER} iterations (s={s}, x={x})"
    )


_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def std_normal_cdf(z: float) -> float:
    """Standard normal CDF Phi(z) via the complementary error function."""
    z = _finite("z", z)
    return 0.5 * math.erfc(-z * _INV_SQRT2)


def _finite(name: str, value) -> float:
    """Coerce to float and reject non-finite or non-numeric input."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a finite real, got {value!r}") from None
    if not math.isfinite(v):
        raise DomainError(f"{name} must be a finite real, got {value!r}")
    return v
