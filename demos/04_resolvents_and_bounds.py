#!/usr/bin/env python3
"""The four resolvent operators and the inequality audit on one state.

G_e and Y_e are diagonal in k; K_e and fK_e invert (-Delta + v + ...) by
conjugate gradients preconditioned with them. Positivity, kernel domination,
symmetry, and the L1 -> L2 norm bound are all checkable numerically, and the
audit table evaluates every named inequality with freshly recomputed
constants.
"""

import numpy as np

from bosegas import (POSITION, RadialField, SolverConfig, apply_frakKe,
                     apply_Ge, apply_Ke, apply_Ye, bound_audit,
                     gaussian_potential, solve_fixed_e, symmetry_check)

config = SolverConfig(n=8191, r_max=200.0)
v = gaussian_potential(1.0, 1.0, config.grid_for(0.5))
state = solve_fixed_e(v, 0.5, config)
grid = state.grid
psi = RadialField(grid, np.exp(-((grid.r - 1.5) / 1.2) ** 2), POSITION)

ge = apply_Ge(psi, state.e)
ke, rep_k = apply_Ke(psi, state.e, v)
ye = apply_Ye(psi, state.context)
fk, rep_f = apply_frakKe(psi, state.context)

print(f"K_e solve:  {rep_k.iterations} iterations, residual {rep_k.final_residual:.1e}")
print(f"fK_e solve: {rep_f.iterations} iterations, residual {rep_f.final_residual:.1e}")
print("\nkernel domination on a non-negative probe (pointwise):")
print(f"  K_e psi <= G_e psi : {np.all(ke.values <= ge.values + 1e-10)}")
print(f"  fK_e psi <= Y_e psi: {np.all(fk.values <= ye.values + 1e-10)}")
print(f"  mass ratio int G_e psi / int psi = {ge.integral()/psi.integral():.6f} "
      f"(exactly 1/(4e) = {1/(4*state.e):.6f})")

defect = symmetry_check(v.samples, state.u, state.context)
print(f"\nself-adjointness defect of fK_e on (v, u): {defect:.2e}")

kv = state.frakKe_v
print(f"fK_e v range on the grid: [{np.min(kv.values):.2e}, {np.max(kv.values):.6f}] "
      "(provably within [0, 1])")

print("\ninequality audit:")
audit = bound_audit(state)
for row in audit.rows:
    mark = "ok " if row.passed else "FAIL"
    print(f"  [{mark}] {row.name:18s} lhs={row.lhs:11.5g}  rhs={row.rhs:11.5g}  "
          f"({row.kind}) {row.note}")
print(f"\nall asserted rows pass: {audit.asserted_ok}")
