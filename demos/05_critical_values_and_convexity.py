"""Critical-value geometry: discriminant locus, boundary strata, convexity.

Critical values of the integral map are curves with double roots.  The
explicit ell=2 locus branch is validated with a root-gap oracle; freezing
every oscillation yields the relative equilibria, which bound the image of
the Casimir mapping at fixed energy.  That boundary is the graph of a convex
function and flattens to a polyhedron as the energy grows.
"""
import numpy as np

from neumann import validate_spectrum
from neumann.atlas import (convexity_check, convexity_threshold,
                           double_root_check, equilibrium_stratum, locus_l2,
                           polyhedron_limit, resolve_locus_exponent)
from neumann.dynamics import relative_equilibrium
from neumann.separation import build_polynomials

spec = validate_spectrum((0.0, 1.0, 2.0), (2, 2, 2))
w = (0.04, 0.09, 0.0625)

variant = resolve_locus_exponent(spec, w)
print(f"explicit locus formula: couplings enter as w^1; the double-root oracle "
      f"selects w^{variant.exponent} (gaps: {variant.max_gap})")
for s in (0.35, 1.6):
    rho = locus_l2(spec, w, s)
    ok, gap, loc = double_root_check(build_polynomials(spec, w, rho), s)
    print(f"  s = {s}: rho = ({rho[0]:+.6f}, {rho[1]:+.6f}); "
          f"double root confirmed (gap {gap:.1e}, misplacement {loc:.1e})")

sample = equilibrium_stratum(spec, (0.4, 1.7), -0.5)
eq = relative_equilibrium(spec, sample.j)
print("\ncorank-2 stratum sample: frozen coordinates", sample.s,
      " spectator root r =", sample.r)
print("  momenta j =", np.round(sample.j, 6))
print(f"  multiplier from the equilibrium solver: beta = {eq.beta:.10f} "
      f"(= r up to {abs(eq.beta - sample.r):.1e})")
print(f"  critical value h = {eq.h:.10f} (stratum: {sample.h_ec:.10f})")

h_star = convexity_threshold(spec)
print(f"\nconvexity threshold h* = {h_star}")
report = convexity_check(spec, h_star + 5.0, n_samples=32, n_pairs=300, seed=1)
print(f"boundary at h = h* + 5: gradient-vs-2omega err {report.grad_max_err:.1e}, "
      f"Hessian rank-1 ratio {report.hessian_second_eig_ratio:.1e}, "
      f"midpoint violations {report.midpoint_violations}/{report.midpoint_pairs}")
print("convex verdict:", report.convex_verdict)

limit = polyhedron_limit(spec, [1e2, 1e3, 1e4], n_samples=15)
print("\npolyhedron limit: max deviation of the rescaled boundary from the"
      " linear model")
for h, dev in zip(limit.h_values, limit.deviations):
    print(f"  h = {h:8.0f}: {dev:.3e}")
print(f"facet ruling (l=2): largest second difference along the linear"
      f" parameter = {limit.ruled_second_diff:.1e}")
