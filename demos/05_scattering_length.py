#!/usr/bin/env python3
"""Scattering length: the radial ODE route and its cross-checks.

a0 comes from integrating w'' = v w outward (w = r phi_free) and reading
off r - w/w' where the potential has died out. Three independent checks:
the Born upper bound ||v||_1/(4 pi), the exact scaling a0 -> a0/lambda
under v(r) -> lambda^2 v(lambda r), and the operator-route identity
int v phi = -4 pi a0 + int v with phi = K_e v at e -> 0+.
"""

import numpy as np

from bosegas import (gaussian_potential, make_grid, scattering_identity_defect,
                     scattering_length)

grid = make_grid(2047, 60.0)

print(f"{'amplitude':>10} {'width':>6} {'a0':>14} {'Born bound':>12} {'a0/Born':>9}")
for amp in (0.25, 1.0, 4.0, 16.0):
    v = gaussian_potential(amp, 1.0, grid)
    born = v.norms.v_l1 / (4 * np.pi)
    print(f"{amp:10.2f} {1.0:6.1f} {v.a0:14.10f} {born:12.6f} {v.a0/born:9.4f}")
print("(stronger repulsion saturates further below the Born value)\n")

base = gaussian_potential(1.0, 1.0, grid)
for lam in (2.0, 4.0):
    scaled = gaussian_potential(lam**2, 1.0 / lam, grid)
    print(f"scaling lambda={lam:g}: lambda * a0(scaled) = {lam * scaled.a0:.12f} "
          f"vs a0 = {base.a0:.12f}")

defect = scattering_identity_defect(base)
print(f"\noperator-route identity defect (should be well under 1%): {defect:.2e}")

wide = gaussian_potential(1.0, 1.0, make_grid(8191, 240.0))
print(f"a0 does not depend on the grid: {scattering_length(wide):.10f} vs {base.a0:.10f}")
