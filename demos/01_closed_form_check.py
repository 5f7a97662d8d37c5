#!/usr/bin/env python3
"""Solve the one case with a known closed-form answer and compare everything.

For the potential family built from u(r) = c/(1+b^2 r^2)^2, the pair
equation is solvable in closed form: the density is b^3/(c pi^2), the
transform of u is (pi^2 c/b^3) e^{-k/b}, and the second-moment coefficient
is 6(2e-b^2)/b^2. This script runs the generic solver against all of it.
"""

import numpy as np

from bosegas import (ExplicitSolutionSpec, SolverConfig, beta_moment,
                     explicit_potential, solve_fixed_e)

spec = ExplicitSolutionSpec(b=1.0, c=0.5, e=1.0)
config = SolverConfig(n=16383, r_max=800.0)
v = explicit_potential(spec, config.grid_for(spec.e))

print(f"potential: closed-form family, b={spec.b}, c={spec.c}, e={spec.e}")
# v -> (leading numerator coefficient) / (b r)^6 at large r
tail = spec.numerator_coefficients()[-1] / spec.b**6
print(f"  v(0) = {v.profile(0.0):.6f}, ||v||_1 = {v.norms.v_l1:.6f}, "
      f"tail ~ {tail:.3g}/r^{v.tail_power:g}")
print(f"  note: int |x|^4 v diverges for this family "
      f"(moment_finite(4) = {v.moment_finite(4)})")

state = solve_fixed_e(v, spec.e, config)
print(f"\nsolved in {state.iterations} iterations ({state.scheme_used})")

u_exact = spec.u_profile(state.grid.r)
print(f"  max node error |u - c/(1+b^2 r^2)^2|  = "
      f"{np.max(np.abs(state.u.values - u_exact)):.3e}")
print(f"  rho = {state.rho:.12f}  vs  b^3/(c pi^2) = {spec.rho:.12f}")
print(f"  rho * int u - 1 = {state.rho * state.integral_u - 1.0:.3e} "
      f"(tail-corrected quadrature)")

k = state.grid.k
sel = k <= 12.0
uhat_err = np.max(np.abs(state.u_hat.values[sel] - np.exp(-k[sel])))
print(f"  max |rho uhat(k) - e^(-k)| on k <= 12  = {uhat_err:.3e}")

beta = beta_moment(state)
print(f"  beta = rho int x^2 v (1-u) = {beta:.8f}  (exact {spec.beta})")

print("\nstate contract (the audit's first five rows are the same rows):")
for row in state.check_invariants().values():
    print(f"  {row.name:13s} {row.lhs: .3e} <= {row.rhs: .3e}   "
          f"{'ok' if row.passed else 'VIOLATED'}   {row.note}")
