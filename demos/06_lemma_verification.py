#!/usr/bin/env python3
"""Monte Carlo verification of the two Gaussian identities under everything.

1. Fourth moment: E[z z^T W z z^T] = Tr(W L) L + 2 L W L for z ~ N(0, L),
   diagonal L, symmetric W. This is what turns "squared steps" into usable
   curvature information and what powers every variance bound.
2. Unbiasedness: the forward-difference estimator's mean is the gradient of
   the Gaussian-smoothed objective; on a quadratic the smoothing bias
   vanishes exactly. Along directions z = H^(-1/2) u the simulator's own
   estimator (client_local_update, 1e5 perturbations in one step) must hit
   the preconditioned gradient H^-1 grad f.

Run it yourself; re-running with the same seed reproduces every number.
"""

from scalarfed import harness

print(__doc__)

report = harness.verify_lemmas(dim=6, samples=10**6, seed=0)
for line in report.lines():
    print(line)
print("\nall checks passed:", report.passed)
print("(entrywise tolerance 3% absorbs fourth-moment Monte Carlo noise at 1e6 draws;"
      "\n the identities themselves are exact)")
