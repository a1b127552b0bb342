"""The numpy column kernel against the scalar reference route, bit for bit."""

import numpy as np
import pytest

from varcomp import (
    Accuracy,
    ConvergenceError,
    DomainError,
    FParams,
    band_endpoints,
    f_dist,
    reg_inc_beta,
    variation_probability,
)
from varcomp.specfun import reg_inc_beta_column
from varcomp.varband import band_endpoints_column, variation_probability_column


def assert_column_matches_scalar(d1, d2_values):
    d2_values = [int(v) for v in d2_values]
    got = band_endpoints_column(d1, d2_values) + (
        variation_probability_column(d1, d2_values),)
    for i, d2 in enumerate(d2_values):
        ep = band_endpoints(FParams(d1, d2))
        want = (ep.a, ep.b, ep.c, ep.d, variation_probability(f_dist(d1, d2)))
        # hex() tells 0.0 from -0.0 and compares every bit
        assert [float(v[i]).hex() for v in got] == [w.hex() for w in want], (d1, d2)


@pytest.mark.parametrize("d1", range(1, 13))
def test_column_bit_identical_dense(d1):
    assert_column_matches_scalar(d1, range(5, 601))


@pytest.mark.parametrize("d1", range(1, 13))
def test_column_bit_identical_sparse_to_one_million(d1):
    assert_column_matches_scalar(d1, np.unique(np.geomspace(601, 10**6, 60).astype(int)))


@pytest.mark.slow
@pytest.mark.parametrize("d1", range(1, 5))
def test_column_bit_identical_large_sweep_grid(d1):
    # every point a d1 1..4 x d2 5..20000 monotone sweep evaluates
    assert_column_matches_scalar(d1, range(5, 20_003))


def test_reg_inc_beta_column_edges_and_flip():
    x = np.array([0.0, 1e-300, 0.1, 0.5, 0.9, 0.999, 1.0])
    b = np.array([3.0, 0.5, 40.0, 2.5, 1.5, 7.0, 9.0])
    got = reg_inc_beta_column(x, 2.5, b)
    want = [reg_inc_beta(float(xi), 2.5, float(bi)) for xi, bi in zip(x, b)]
    assert [v.hex() for v in got.tolist()] == [w.hex() for w in want]


def test_reg_inc_beta_column_rejects_bad_input():
    with pytest.raises(DomainError):
        reg_inc_beta_column(np.array([0.5, 1.5]), 1.0, np.array([2.0, 2.0]))
    with pytest.raises(DomainError):
        reg_inc_beta_column(np.array([0.5]), 1.0, np.array([-2.0]))
    with pytest.raises(DomainError):
        reg_inc_beta_column(np.array([0.5, 0.5]), 1.0, np.array([2.0]))
    with pytest.raises(DomainError):
        band_endpoints_column(1, [5, 4])
    with pytest.raises(DomainError):
        band_endpoints_column(0, [5, 6])
    with pytest.raises(DomainError):
        band_endpoints_column(2 ** 40, [5, 2 ** 30])


def test_column_iteration_cap_raises():
    # at d1 = 3000 the fraction needs more than 50 iterations only at
    # d2 = 5000; that one lane must fail the whole column, as the scalar
    # route fails at that point
    tiny = Accuracy(max_iter=50)
    d2 = list(range(5, 13)) + [5000]
    with pytest.raises(ConvergenceError):
        variation_probability_column(3000, d2, tiny)
    for v in d2[:-1]:
        variation_probability(f_dist(3000, v), tiny)
    with pytest.raises(ConvergenceError):
        variation_probability(f_dist(3000, 5000), tiny)
    assert_column_matches_scalar(3000, d2)
