#!/usr/bin/env python3
"""A walk through the verification machinery for the hardest case, d1 = 4.

The monotone step reduces to two one-sided inequalities between boundary
terms and beta integrals.  The upper edge reduces to monotone growth of the
log form h4; its derivative sign is certified by the quintic pair T1, T2
whose expansions at 12 have all-positive integer coefficients.  The lower
edge switches on once the endpoint image d overtakes c, which the exact
quartic P4 pins to d2 >= 17, and is settled by monotone decay of r4 via the
bound q4 > 0.
"""

from varcomp import FParams, d_exceeds_c
from varcomp.proofcheck import (
    AuxFn,
    aux_eval,
    check_step_inequalities,
    monotone_table_check,
    poly_value,
    shifted_expansion,
)

print("reference table of the upper-edge log form h4 (increasing):")
for y in range(3, 13):
    print(f"  h4({y:>2}) = {aux_eval(AuxFn.H4, y):+.5f}")
out = monotone_table_check(AuxFn.H4, range(3, 201), "increasing")
print(f"sampled monotone increase over 3..200: margin {out.margins[0]:.3e} "
      f"-> {'PASS' if out.statuses == ['pass'] else 'FAIL'}")
print()

print("positivity certificates (all coefficients positive => positive for r >= 0):")
for family, shift in (("T1", 12), ("T2", 12), ("P4", 17)):
    exp = shifted_expansion(family, shift)
    print(f"  {family}({shift}+r): {exp}  all positive: {all(c > 0 for c in exp)}")
print()

print("P4 values pin the region boundary exactly:")
for d2 in range(11, 19):
    print(f"  P4({d2}) = {poly_value('P4', d2):>7}   d > c: {d_exceeds_c(FParams(4, d2))}")
print()

print("step-inequality margins at selected d2 (positive = holds with slack):")
for d2 in (5, 11, 16, 17, 40, 400):
    margins = check_step_inequalities(FParams(4, d2))
    parts = ", ".join(f"{form}={margin:.2e}"
                      for form, margin in margins.items() if margin is not None)
    not_applicable = [form for form, margin in margins.items() if margin is None]
    skipped = f"  [n/a: {', '.join(not_applicable)}]" if not_applicable else ""
    print(f"  d2={d2:>3}: {parts}{skipped}")
print()
print("run `varcomp prove --d1 4` for the complete program (about 2000 checks)")
