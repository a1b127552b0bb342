#!/usr/bin/env python3
"""Nothing is certified from a single code path.

The analytic band probability runs through the continued-fraction CDF; this
demo cross-validates it two independent ways: Monte Carlo sampling of the
chi-square ratio representation, and adaptive Simpson quadrature of the
beta integrand (which handles the t^(-1/2) endpoint singularity of d1 = 1
by substitution).
"""

import math

from varcomp import FParams, log_beta, variation_probability
from varcomp.oracle import mc_variation_probability, quad_beta_integral
from varcomp.varband import band_endpoints

for (d1, d2) in [(1, 5), (4, 12), (6, 100)]:
    p = FParams(d1, d2)
    analytic = variation_probability(p)

    mc = mc_variation_probability(p, 1_000_000, seed=42)
    sigma = abs(analytic - mc.estimate) / mc.stderr

    ep = band_endpoints(p)
    a, b = 0.5 * d1, 0.5 * d2
    scale = math.exp(log_beta(a, b))
    hi = quad_beta_integral(a, b, 0.0, ep.b, 1e-10 * scale)
    lo_val = (quad_beta_integral(a, b, 0.0, ep.d, 1e-10 * scale).value
              if ep.d > 0 else 0.0)
    quad_prob = (hi.value - lo_val) / scale

    print(f"F({d1},{d2}):")
    print(f"  analytic    {analytic:.12f}")
    print(f"  monte carlo {mc.estimate:.6f} +- {mc.stderr:.6f}  ({sigma:.2f} sigma)")
    print(f"  quadrature  {quad_prob:.12f}  (gap {abs(quad_prob - analytic):.2e}, "
          f"{hi.evaluations} evals)")
    print()

print("the same comparison is scripted as `varcomp oracle --d1 4 --d2 12`")
