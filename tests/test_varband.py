import math

import pytest
from scipy import stats

from varcomp import (
    ConditionRegion,
    DomainError,
    FParams,
    MomentUndefinedError,
    NORMAL_BAND,
    StdNormal,
    band_endpoints,
    check_bound,
    check_limit,
    check_monotone_step,
    chi_square,
    chi_square_band_probability,
    d_exceeds_c,
    f_dist,
    f_mean,
    f_variance,
    variation_band,
    variation_probability,
)


def scipy_band_prob(d1, d2):
    m = d2 / (d2 - 2)
    sd = math.sqrt(2 * d2**2 * (d1 + d2 - 2) / (d1 * (d2 - 2) ** 2 * (d2 - 4)))
    return stats.f.cdf(m + sd, d1, d2) - stats.f.cdf(max(0.0, m - sd), d1, d2)


def test_region_classification_examples():
    assert band_endpoints(FParams(1, 10)).region is ConditionRegion.COND1_C_ZERO
    assert band_endpoints(FParams(4, 11)).region is ConditionRegion.COND3_D_POS
    assert band_endpoints(FParams(11, 5)).region is ConditionRegion.COND2_C_POS_D_ZERO
    with pytest.raises(DomainError):
        band_endpoints(FParams(3, 4))


def test_endpoint_ordering_and_region_consistency_grid():
    for d1 in range(1, 51):
        for d2 in range(5, 501):
            ep = band_endpoints(FParams(d1, d2))
            assert ep.a < ep.b, (d1, d2)
            assert 0.0 < ep.a < 1.0 and 0.0 < ep.b < 1.0
            if ep.region is ConditionRegion.COND3_D_POS:
                assert ep.c > 0.0 and ep.d > 0.0
            elif ep.region is ConditionRegion.COND2_C_POS_D_ZERO:
                assert ep.c > 0.0 and ep.d == 0.0
            else:
                assert ep.c == 0.0 and ep.d == 0.0
            if ep.d > 0.0:
                assert ep.c > 0.0


def test_condition_tables_reproduced_exactly():
    # region 1 iff d1 <= 2, or 3 <= d1 <= 10 and d2 <= 4 + 8/(d1-2);
    # region 3 iff d1 >= 3 and d2 > 6 + 8/(d1-2); region 2 between
    for d1 in range(1, 40):
        for d2 in range(5, 200):
            region = band_endpoints(FParams(d1, d2)).region
            if d1 <= 2:
                expected = ConditionRegion.COND1_C_ZERO
            elif d2 * (d1 - 2) <= 4 * d1:       # d2 <= 4 + 8/(d1-2)
                expected = ConditionRegion.COND1_C_ZERO
            elif d2 * (d1 - 2) <= 6 * d1 - 4:   # d2 <= 6 + 8/(d1-2)
                expected = ConditionRegion.COND2_C_POS_D_ZERO
            else:
                expected = ConditionRegion.COND3_D_POS
            assert region is expected, (d1, d2)


def test_endpoints_relate_neighbouring_d2():
    # the (d1, d2) upper/lower images at d2+2 equal the a/c images at d2
    for (d1, d2) in [(1, 5), (3, 30), (7, 44), (12, 9)]:
        ep = band_endpoints(FParams(d1, d2))
        nxt = band_endpoints(FParams(d1, d2 + 2))
        assert ep.a == pytest.approx(nxt.b, rel=1e-15)
        assert ep.c == pytest.approx(nxt.d, rel=1e-15, abs=1e-300)


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
    assert variation_probability(StdNormal()) == pytest.approx(0.6826894921370859, abs=1e-14)
    # chi-square(1) band has the closed form 2 Phi(sqrt(1 + sqrt 2)) - 1
    closed = math.erf(math.sqrt((1.0 + math.sqrt(2.0)) / 2.0))
    assert variation_probability(chi_square(1)) == pytest.approx(closed, abs=1e-10)
    assert variation_probability(chi_square(1)) == pytest.approx(0.8798, abs=5e-5)
    for (d1, d2) in [(1, 5), (2, 7), (3, 25), (4, 12), (9, 33)]:
        assert variation_probability(f_dist(d1, d2)) == pytest.approx(
            scipy_band_prob(d1, d2), abs=1e-12)
    with pytest.raises(MomentUndefinedError):
        variation_probability(f_dist(3, 4))


def test_variation_band_limits():
    band = variation_band(FParams(4, 12))
    p = FParams(4, 12)
    sd = math.sqrt(f_variance(p))
    assert band.upper == pytest.approx(f_mean(p) + sd, rel=1e-15)
    assert band.lower == pytest.approx(f_mean(p) - sd, rel=1e-13)
    assert 0.0 < band.prob < 1.0
    assert variation_band(FParams(11, 5)).lower == 0.0  # clipped at zero


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
