#!/usr/bin/env python3
"""Beyond d1 = 4 the comparison is conjectured, not proved.

The package still evaluates everything it can there, but quarantines the
results: exploratory rows never affect a verification exit status.  For odd
d1 the candidate certificates are truncated-binomial bounds; for even d1,
step differences of series-reduced log forms.  Both patterns hold at every
sampled point, which is evidence, not proof.
"""

from varcomp import FParams, check_bound
from varcomp.proofcheck import falling_factorial_bounds_odd, series_forms_even

print("band margins over the normal baseline in the conjectured region:")
for d1 in (5, 7, 9, 12):
    for d2 in (5, 9, 33):
        out = check_bound(FParams(d1, d2))
        print(f"  d1={d1:>2} d2={d2:>2}: margin {out.margins[0]:+.6f}  ({out.notes[0]})")
print()

print("odd d1: truncated-binomial sufficient bounds (exploratory):")
for (d1, d2) in [(5, 9), (5, 29), (7, 40), (9, 100)]:
    margins = falling_factorial_bounds_odd(d1, d2)
    parts = ", ".join(f"{f}={m:+.3e}" for f, m in margins.items() if m is not None)
    print(f"  d1={d1} d2={d2:>3}: {parts}")
print()

print("even d1: series-form step differences (upper should rise, lower fall):")
for d1 in (6, 8):
    print(f"  d1={d1}:")
    for d2 in (9, 21, 51, 101):
        j_prev, k_prev = series_forms_even(d1, d2 - 2)
        j_here, k_here = series_forms_even(d1, d2)
        print(f"    d2={d2:>3}: upper step {j_here - j_prev:+.4e}, "
              f"lower step {k_here - k_prev:+.4e}")
print()
print("scan a whole grid with `varcomp explore --d1 5..12 --d2 5..200`")
