import json
import math

import pytest
from scipy import special

from varcomp import (
    DomainError,
    FParams,
    MomentUndefinedError,
    NORMAL_BAND,
    band_endpoints,
    check_bound,
    check_limit,
    check_monotone_step,
    chi_square_band_probability,
    d_exceeds_c,
    f_cdf,
    f_mean,
    f_variance,
    variation_band,
    variation_probability,
)
from varcomp.cli import main
from varcomp.varband import band_endpoints_column


def scipy_band_prob(d1, d2):
    m = d2 / (d2 - 2)
    sd = math.sqrt(2 * d2**2 * (d1 + d2 - 2) / (d1 * (d2 - 2) ** 2 * (d2 - 4)))
    return special.fdtr(d1, d2, m + sd) - special.fdtr(d1, d2, max(0.0, m - sd))


def test_region_classification_examples(capsys):
    # region 1: c = 0; region 2: c > 0 = d; region 3: d > 0
    for (d1, d2), c_pos, d_pos, region in [((1, 10), False, False, 1),
                                           ((4, 11), True, True, 3),
                                           ((11, 5), True, False, 2)]:
        ep = band_endpoints(FParams(d1, d2))
        assert (ep.c > 0.0, ep.d > 0.0) == (c_pos, d_pos), (d1, d2)
        assert ep.c >= 0.0 and ep.d >= 0.0
        assert main(["endpoints", "--d1", str(d1), "--d2", str(d2),
                     "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["region"] == region
    with pytest.raises(DomainError):
        band_endpoints(FParams(3, 4))


def test_endpoint_ordering_and_region_consistency_grid():
    for d1 in range(1, 51):
        for d2 in range(5, 501):
            ep = band_endpoints(FParams(d1, d2))
            assert ep.a < ep.b, (d1, d2)
            assert 0.0 < ep.a < 1.0 and 0.0 < ep.b < 1.0
            assert ep.c >= 0.0 and ep.d >= 0.0, (d1, d2)
            # c > 0 exactly where the integer test says 1 - r1 > 0
            assert (ep.c > 0.0) == (d1 * (d2 - 2) > 2 * (d1 + d2)), (d1, d2)
            if ep.d > 0.0:
                assert ep.c > 0.0


def test_condition_tables_reproduced_exactly():
    # region 1 iff d1 <= 2, or 3 <= d1 <= 10 and d2 <= 4 + 8/(d1-2);
    # region 3 iff d1 >= 3 and d2 > 6 + 8/(d1-2); region 2 between.
    # Each region is a zero pattern (c > 0, d > 0) of the lower images.
    for d1 in range(1, 40):
        for d2 in range(5, 200):
            ep = band_endpoints(FParams(d1, d2))
            if d1 <= 2:
                expected = (False, False)
            elif d2 * (d1 - 2) <= 4 * d1:       # d2 <= 4 + 8/(d1-2)
                expected = (False, False)
            elif d2 * (d1 - 2) <= 6 * d1 - 4:   # d2 <= 6 + 8/(d1-2)
                expected = (True, False)
            else:
                expected = (True, True)
            assert (ep.c > 0.0, ep.d > 0.0) == expected, (d1, d2)


def test_lower_images_at_the_float_edge():
    # d1 (d2-2) (1 + r1) overflows to inf while d1 (d2-2) still fits a float;
    # at d2 = 7 so does d1 (d2-4) (1 + r2).  The lower images stay near 1.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for d1, d2 in [(5 * 10**307, 5), (35 * 10**306, 7)]:
            ep = band_endpoints(FParams(d1, d2))
            m1, m2 = mp.mpf(d1), mp.mpf(d2)
            one_minus_r1 = 1 - mp.sqrt(2 * (m1 + m2) / (m1 * (m2 - 2)))
            one_minus_r2 = 1 - mp.sqrt(2 * (m1 + m2 - 2) / (m1 * (m2 - 4)))
            c = m1 * one_minus_r1 / (m1 * one_minus_r1 + m2)
            d = m1 * one_minus_r2 / (m1 * one_minus_r2 + m2 - 2) if d2 == 7 else 0
            assert ep.c == pytest.approx(float(c), rel=1e-15), (d1, d2)
            assert ep.d == pytest.approx(float(d), rel=1e-15), (d1, d2)
            assert ep.c > 0.0


#: Large (d1, d2) whose neighbour d2 + 2 still has float-sized endpoints,
#: up to the float edge, where d1 (d2-2) (1 + r1) overflows to inf.
_LARGE = [(d1, d2) for d1 in (1, 4, 3 * 10 ** 50, 7 * 10 ** 150 + 1, 10 ** 300)
          for d2 in (5, 6, 10 ** 20 + 1, 3 * 10 ** 150, 10 ** 300 - 7, 8 * 10 ** 307)
          if d1 * d2 < 10 ** 308] + [(35 * 10 ** 306, 5)]


def test_endpoints_relate_neighbouring_d2():
    # a and c at d2 are the upper and lower images of F(d1, d2 + 2): the b
    # and d of d2 + 2, bit for bit, wherever both are floats
    for d1 in range(1, 40):
        eps = [band_endpoints(FParams(d1, d2)) for d2 in range(5, 602)]
        for ep, nxt in zip(eps, eps[2:]):
            assert (ep.a, ep.c) == (nxt.b, nxt.d), (d1, ep)
    for d1, d2 in _LARGE:
        ep, nxt = band_endpoints(FParams(d1, d2)), band_endpoints(FParams(d1, d2 + 2))
        assert (ep.a, ep.c) == (nxt.b, nxt.d), (d1, d2)


@pytest.mark.parametrize("d1", [1, 2, 3, 4, 7, 40])
def test_column_endpoints_relate_neighbouring_d2(d1):
    # the same on the column route, which matches the scalar route bit for bit
    d2s = range(5, 40_005)
    a, b, c, d = band_endpoints_column(d1, d2s)
    assert (a[:-2] == b[2:]).all() and (c[:-2] == d[2:]).all()
    for i in [*range(0, 40, 3), 997, 40_000 - 1]:
        ep = band_endpoints(FParams(d1, d2s[i]))
        assert ep == (a[i], b[i], c[i], d[i]), (d1, d2s[i])


def test_d_exceeds_c_boundaries():
    assert d_exceeds_c(FParams(4, 17)) and not d_exceeds_c(FParams(4, 16))
    assert d_exceeds_c(FParams(3, 25)) and not d_exceeds_c(FParams(3, 24))
    with pytest.raises(DomainError):
        d_exceeds_c(FParams(2, 10))


def test_d_exceeds_c_agrees_with_float_comparison():
    for d1 in range(3, 30):
        for d2 in range(5, 501):
            ep = band_endpoints(FParams(d1, d2))
            if abs(ep.d - ep.c) > 1e-9:
                assert d_exceeds_c(FParams(d1, d2)) == (ep.d > ep.c), (d1, d2)


def test_variation_probability_values():
    assert NORMAL_BAND == pytest.approx(0.6826894921370859, abs=1e-14)
    # chi-square(1) band has the closed form 2 Phi(sqrt(1 + sqrt 2)) - 1
    closed = math.erf(math.sqrt((1.0 + math.sqrt(2.0)) / 2.0))
    assert chi_square_band_probability(1) == pytest.approx(closed, abs=1e-10)
    assert chi_square_band_probability(1) == pytest.approx(0.8798, abs=5e-5)
    for (d1, d2) in [(1, 5), (2, 7), (3, 25), (4, 12), (9, 33)]:
        assert variation_probability(FParams(d1, d2)) == pytest.approx(
            scipy_band_prob(d1, d2), abs=1e-12)
    with pytest.raises(MomentUndefinedError):
        variation_probability(FParams(3, 4))


def test_variation_band_limits():
    p = FParams(4, 12)
    lower, upper = variation_band(p)
    sd = math.sqrt(f_variance(p))
    assert upper == pytest.approx(f_mean(p) + sd, rel=1e-15)
    assert lower == pytest.approx(f_mean(p) - sd, rel=1e-13)
    # the mass between the limits is the band probability
    prob = variation_probability(p)
    assert 0.0 < prob < 1.0
    assert f_cdf(p, upper) - f_cdf(p, lower) == pytest.approx(prob, abs=1e-13)
    assert variation_band(FParams(11, 5))[0] == 0.0  # clipped at zero


def test_check_bound():
    assert check_bound(FParams(1, 5)).statuses == ["pass"]
    out = check_bound(FParams(4, 1000))
    assert out.statuses == ["pass"]
    # at d2 = 1000 the margin is close to the chi-square(4) limit margin
    limit_margin = chi_square_band_probability(4) - NORMAL_BAND
    assert out.margins[0] == pytest.approx(limit_margin, abs=2e-3)
    expl = check_bound(FParams(12, 7))
    assert expl.statuses == ["pass"] and expl.notes == ["exploratory"]


def test_check_monotone_step():
    assert check_monotone_step(FParams(2, 5)).statuses == ["pass"]
    assert check_monotone_step(FParams(4, 17)).statuses == ["pass"]
    out = check_monotone_step(FParams(9, 50))
    assert out.notes == ["exploratory"]
    assert out.margins[0] > 0.0


def test_check_limit():
    assert check_limit(1, 10_000).statuses == ["pass"]
    assert check_limit(4, 10_000).statuses == ["pass"]
    with pytest.raises(DomainError):
        check_limit(4, 10)
