"""Independent verification paths: Monte Carlo sampling of F variates via
the chi-square ratio representation, and adaptive Simpson quadrature of the
beta integrand t^(a-1) (1-t)^(b-1).

Random streams are keyed by (seed, d1, d2), so each grid point draws the
same variates whatever else runs; every chi-square variate comes from one
sampler, numpy's ``Generator.chisquare``.  The quadrature handles the
integrable endpoint singularities (a < 1 at t=0, b < 1 at t=1) by the
substitutions t = u^2 and t = 1 - u^2 on the affected panels, never by
clipping the integration limits.

``quad_beta_integral_column`` is the numpy fast route for a column of
integrals, used by sweeps for the step forms: it takes the first panel and
its one halving of every lane at once and hands each lane that does not
converge there to ``quad_beta_integral``.  One body per formula: both
routes run the integrand, Simpson panel and halving test, so the column's
values are bit-identical to the scalar route, the reference.

numpy is imported only by the functions that draw samples and by the column
route, so the scalar quadrature costs no numpy import.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .distributions import FParams, f_mean, f_variance
from .errors import DomainError, ToleranceNotMetError
from .specfun import _each, _finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "McEstimate",
    "QuadResult",
    "stream",
    "chi_square_draws",
    "f_draws",
    "mc_variation_probability",
    "quad_beta_integral",
    "quad_beta_integral_column",
]

#: Draw block size for the big Monte Carlo loops; bounds the draws held at
#: once to a few arrays of block doubles.
_BLOCK = 250_000


class McEstimate(NamedTuple):
    """Monte Carlo probability estimate with its binomial standard error."""

    estimate: float
    stderr: float
    n: int
    seed: int


class QuadResult(NamedTuple):
    """Quadrature value with an error bound and the evaluation count."""

    value: float
    abs_error_bound: float
    evaluations: int


def stream(seed: int, d1: int = 0, d2: int = 0) -> np.random.Generator:
    """Deterministic generator keyed by (seed, d1, d2)."""
    import numpy as np

    if seed < 0:
        raise DomainError(f"seed must be a nonnegative integer, got {seed}")
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(d1), int(d2)]))


def chi_square_draws(k: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Chi-square(k) variates from numpy's chi-square sampler, which draws
    gamma(k/2, scale=2) for every k (bit for bit ``rng.gamma(k/2, 2.0)``)."""
    if k < 1:
        raise DomainError(f"chi-square df must be >= 1, got {k}")
    return rng.chisquare(k, size)


def f_draws(p: FParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """F(d1, d2) variates as (chi2(d1)/d1) / (chi2(d2)/d2).

    A denominator that underflows to exactly zero (never observed in
    practice, but possible at floating-point level) is resampled.
    """
    num = chi_square_draws(p.d1, size, rng) / p.d1
    den = chi_square_draws(p.d2, size, rng) / p.d2
    bad = den == 0.0
    while bad.any():
        den[bad] = chi_square_draws(p.d2, int(bad.sum()), rng) / p.d2
        bad = den == 0.0
    return num / den


def mc_variation_probability(p: FParams, n: int, seed: int = 0) -> McEstimate:
    """Fraction of n draws inside [E - sd, E + sd], deterministic per seed."""
    if n < 10_000:
        raise DomainError(f"the Monte Carlo estimate needs at least 10000 samples, "
                          f"got {n}")
    mean = f_mean(p)
    sd = math.sqrt(f_variance(p))  # raises MomentUndefinedError for d2 <= 4
    import numpy as np

    lo, hi = mean - sd, mean + sd
    rng = stream(seed, p.d1, p.d2)
    hits = 0
    remaining = n
    while remaining > 0:
        block = min(_BLOCK, remaining)
        x = f_draws(p, block, rng)
        hits += int(np.count_nonzero((x >= lo) & (x <= hi)))
        remaining -= block
    est = hits / n
    stderr = math.sqrt(est * (1.0 - est) / n)
    return McEstimate(est, stderr, n, seed)


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature of the beta integrand
# ---------------------------------------------------------------------------

_MAX_DEPTH = 60

#: Evaluation budget per quadrature piece; far above any legitimate need
#: (the hardest singular integrals use a few thousand), it bounds the work
#: when a caller requests an unattainable tolerance.
_MAX_EVALS = 500_000


def quad_beta_integral(a: float, b: float, lo: float, hi: float,
                       tol: float = 1e-12) -> QuadResult:
    """integral of t^(a-1) (1-t)^(b-1) over [lo, hi] within abs tolerance tol.

    Adaptive Simpson with error estimation by panel halving.  If a < 1 the
    integrand blows up at t=0; a leading panel touching 0 is computed under
    the substitution t = u^2 (iterated, t = u^(2^k), until the transformed
    corner power is Simpson-smooth), never by clipping the lower limit.
    Symmetrically t = 1 - u^(2^k) handles b < 1 at t=1.

    Raises ToleranceNotMetError (best value attached) if the recursion depth
    is exhausted before the tolerance is met.
    """
    a, b, lo, hi, tol = (_finite(name, v) for name, v in
                         (("a", a), ("b", b), ("lo", lo), ("hi", hi), ("tol", tol)))
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"beta integrand requires a > 0 and b > 0, got a={a}, b={b}")
    if not (0.0 <= lo <= hi <= 1.0):
        raise DomainError(f"integration limits must satisfy 0 <= lo <= hi <= 1, got [{lo}, {hi}]")
    if tol <= 0.0:
        raise DomainError(f"tol must be positive, got {tol}")
    if lo == hi:
        return QuadResult(0.0, 0.0, 0)

    pieces = []  # (integrand, lower, upper)
    head_cut = tail_cut = None
    if lo == 0.0 and _corner_is_rough(a):
        head_cut = min(hi, 0.5)
        m = _sub_power(a)
        pieces.append((_substituted_head(a, b, m), 0.0, head_cut ** (1.0 / m)))
    if hi == 1.0 and _corner_is_rough(b):
        tail_cut = max(lo, head_cut if head_cut is not None else lo, 0.5)
        m = _sub_power(b)
        # t = 1 - u^m is the head substitution with a and b swapped
        pieces.append((_substituted_head(b, a, m), 0.0, (1.0 - tail_cut) ** (1.0 / m)))
    plain_lo = head_cut if head_cut is not None else lo
    plain_hi = tail_cut if tail_cut is not None else hi
    if plain_lo < plain_hi:
        pieces.append((_beta_integrand(a, b), plain_lo, plain_hi))

    total = 0.0
    err = 0.0
    evals = 0
    piece_tol = tol / len(pieces)
    for f, x0, x1 in pieces:
        state = _SimpsonState(f)
        v, e = state.integrate(x0, x1, piece_tol)
        total += v
        err += e
        evals += state.evals
        if not state.converged:
            raise ToleranceNotMetError(
                f"adaptive Simpson exhausted depth {_MAX_DEPTH} on "
                f"[{x0}, {x1}] (a={a}, b={b})",
                value=total, error_bound=err)
    return QuadResult(total, err, evals)


def _beta_integrand(a: float, b: float):
    am1 = a - 1.0
    bm1 = b - 1.0

    def f(t: float) -> float:
        if t <= 0.0:
            return 0.0 if am1 > 0.0 else 1.0 if am1 == 0.0 else math.inf
        if t >= 1.0:
            return 0.0 if bm1 > 0.0 else 1.0 if bm1 == 0.0 else math.inf
        return _beta_power(t, am1, bm1, math.exp, math.log, math.log1p)

    return f


def _beta_power(t, am1, bm1, exp, log, log1p):
    # t^(a-1) (1-t)^(b-1) inside (0, 1), with am1 = a - 1 and bm1 = b - 1
    return exp(am1 * log(t) + bm1 * log1p(-t))


def _corner_is_rough(a: float) -> bool:
    # t^(a-1) at t=0 defeats Simpson whenever the exponent is fractional and
    # below the rule's exactness degree: singular for a < 1, and with an
    # unbounded low-order derivative for non-integer a < 4
    return a < 4.0 and not float(a).is_integer()


def _sub_power(a: float) -> int:
    # iterate t = u^2 until the transformed leading exponent m*a - 1 is >= 3,
    # so the corner power is at least cubic and Simpson converges at full rate
    m = 2
    while m * a - 1.0 < 3.0:
        m *= 2
    return m


def _substituted_head(a: float, b: float, m: int):
    # t = u^m: integrand becomes m u^(m a - 1) (1 - u^m)^(b-1)
    ex = m * a - 1.0
    bm1 = b - 1.0

    def f(u: float) -> float:
        if u <= 0.0:
            return float(m) if ex == 0.0 else 0.0
        return m * math.exp(ex * math.log(u) + bm1 * math.log1p(-(u ** m)))

    return f


def quad_beta_integral_column(a: float, b, lo, hi, tol: float = 1e-12):
    """``quad_beta_integral(a, b[i], lo[i], hi[i], tol).value`` for every i,
    as a float64 array.

    b, lo and hi are equal-length 1-d arrays; a and tol are shared by the
    column.  An interior lane (0 < lo < hi < 1) takes the first Simpson
    panel and its one halving in numpy, through ``_SimpsonState``'s bodies
    and with every exp and log through ``math``, so a lane that meets
    ``abs(delta) <= 15 * tol`` there has the scalar value bit for bit.
    Every other lane goes to ``quad_beta_integral`` unchanged, in lane
    order, so a failing lane raises what the scalar route raises.
    """
    import numpy as np

    b, lo, hi = (np.asarray(v, dtype=float) for v in (b, lo, hi))
    if not b.ndim == lo.ndim == hi.ndim == 1 or not b.size == lo.size == hi.size:
        raise DomainError(f"b, lo and hi must be equal-length 1-d arrays, got shapes "
                          f"{b.shape}, {lo.shape} and {hi.shape}")
    out = np.empty(lo.shape)
    done = np.zeros(lo.shape, dtype=bool)
    a, tol = _finite("a", a), _finite("tol", tol)
    if a > 0.0 and tol > 0.0:
        lanes = np.flatnonzero((0.0 < lo) & (lo < hi) & (hi < 1.0)
                               & (0.0 < b) & (b < math.inf))
        x0, x1 = lo[lanes], hi[lanes]
        m = 0.5 * (x0 + x1)
        t = np.concatenate((x0, x1, m, 0.5 * (x0 + m), 0.5 * (m + x1)))
        bm1 = np.tile(b[lanes] - 1.0, 5)
        f0, f1, fm, flm, frm = _beta_power(
            t, a - 1.0, bm1, _each(math.exp), _each(math.log), _each(math.log1p)
        ).reshape(5, -1)
        value, _, met = _halving(_simpson(x0, m, f0, flm, fm), _simpson(m, x1, fm, frm, f1),
                                 _simpson(x0, x1, f0, fm, f1), tol)
        out[lanes[met]] = value[met]
        done[lanes[met]] = True
    for i in np.flatnonzero(~done).tolist():
        out[i] = quad_beta_integral(a, float(b[i]), float(lo[i]), float(hi[i]), tol).value
    return out


class _SimpsonState:
    """Recursive adaptive Simpson with endpoint reuse and an eval counter."""

    def __init__(self, f):
        self.f = f
        self.evals = 0
        self.converged = True

    def integrate(self, x0: float, x1: float, tol: float):
        m = 0.5 * (x0 + x1)
        f0, f1, fm = self.f(x0), self.f(x1), self.f(m)
        self.evals += 3
        whole = _simpson(x0, x1, f0, fm, f1)
        return self._refine(x0, f0, x1, f1, m, fm, whole, tol, _MAX_DEPTH)

    def _refine(self, x0, f0, x1, f1, m, fm, whole, tol, depth):
        if not self.converged:
            return whole, abs(whole)  # already failed, just unwind
        lm = 0.5 * (x0 + m)
        rm = 0.5 * (m + x1)
        flm, frm = self.f(lm), self.f(rm)
        self.evals += 2
        left = _simpson(x0, m, f0, flm, fm)
        right = _simpson(m, x1, fm, frm, f1)
        value, err, met = _halving(left, right, whole, tol)
        if met:
            return value, err / 15.0
        if depth <= 0 or self.evals >= _MAX_EVALS:
            # exhausted depth or the evaluation budget: mark failed so the
            # rest of the tree unwinds; the caller raises with the best value
            self.converged = False
            return value, err
        lv, le = self._refine(x0, f0, m, fm, lm, flm, left, 0.5 * tol, depth - 1)
        rv, re = self._refine(m, fm, x1, f1, rm, frm, right, 0.5 * tol, depth - 1)
        return lv + rv, le + re


def _simpson(x0, x1, f0, fm, f1):
    # Simpson's rule on [x0, x1] from the integrand at its ends and midpoint
    return (x1 - x0) / 6.0 * (f0 + 4.0 * fm + f1)


def _halving(left, right, whole, tol):
    # one halving of a panel: the extrapolated value, |delta|, |delta| <= 15 tol
    delta = left + right - whole
    return left + right + delta / 15.0, abs(delta), abs(delta) <= 15.0 * tol
