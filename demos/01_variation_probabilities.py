#!/usr/bin/env python3
"""How much probability mass sits within one standard deviation of the mean?

For a standard normal the answer is the familiar 2 Phi(1) - 1 ~ 0.6827.
This demo computes the same "variation probability" for F and chi-square
distributions and shows that the F family sits strictly above the normal
baseline throughout the proved parameter region.
"""

from varcomp import (
    FParams,
    NORMAL_BAND,
    band_endpoints,
    chi_square_band_probability,
    f_mean,
    f_variance,
    variation_band,
    variation_probability,
)

print("normal baseline: P{|Z| <= 1} =", f"{NORMAL_BAND:.10f}")
print()

print("chi-square bands P{|X - k| <= sqrt(2k)}:")
for k in (1, 2, 3, 4, 8, 16, 64):
    print(f"  k={k:>3}: {chi_square_band_probability(k):.10f}")
print()

print("F-distribution bands P{|X - E| <= sd} and their margins over the baseline:")
print(f"  {'d1':>3} {'d2':>4} {'E':>8} {'sd':>8} {'band':>12} {'margin':>10}")
for (d1, d2) in [(1, 5), (1, 100), (2, 7), (3, 25), (4, 12), (4, 17), (10, 30)]:
    p = FParams(d1, d2)
    prob = variation_probability(p)
    print(f"  {d1:>3} {d2:>4} {f_mean(p):>8.4f} {f_variance(p) ** 0.5:>8.4f} "
          f"{prob:>12.8f} {prob - NORMAL_BAND:>10.6f}")
print()

print("the band in x-space is [max(0, E - sd), E + sd]; for heavy-tailed")
print("cases the lower limit clips at zero, and so does its beta-space image d:")
for (d1, d2) in [(4, 12), (11, 5)]:
    lower, upper = variation_band(FParams(d1, d2))
    ep = band_endpoints(FParams(d1, d2))
    print(f"  F({d1},{d2}): band [{lower:.4f}, {upper:.4f}], "
          f"beta-space images b={ep.b:.4f} d={ep.d:.4f}")
