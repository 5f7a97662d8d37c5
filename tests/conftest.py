import numpy as np
import pytest

from bosegas import (ExplicitSolutionSpec, SolverConfig, explicit_potential,
                     gaussian_potential, make_grid, solve_fixed_e, tabulated_potential)
from bosegas.potentials import Potential


@pytest.fixture(scope="session")
def grid_small():
    return make_grid(2047, 60.0)


@pytest.fixture(scope="session")
def gauss_small(grid_small):
    return gaussian_potential(1.0, 1.0, grid_small)


@pytest.fixture(scope="session")
def explicit_spec():
    return ExplicitSolutionSpec(b=1.0, c=0.5, e=1.0)


@pytest.fixture(scope="session")
def state_explicit(explicit_spec):
    """Closed-form solvable case on a moderate grid, reused across modules."""
    config = SolverConfig(n=8191, r_max=400.0)
    v = explicit_potential(explicit_spec, config.grid_for(1.0))
    return solve_fixed_e(v, 1.0, config)


@pytest.fixture(scope="session")
def state_gauss(gauss_small):
    """Gaussian potential at e = 0.5 on its own grid."""
    config = SolverConfig(n=8191, r_max=200.0)
    v = gauss_small.resampled(config.grid_for(0.5))
    return solve_fixed_e(v, 0.5, config)


@pytest.fixture(scope="session")
def state_dilute():
    """Gaussian amp 1 at e = 1e-3: v is on m = 14 capacitance nodes and is
    exactly zero from node 69 on, so m L <= n holds for short payloads."""
    e = 1e-3
    config = SolverConfig(n=32399, r_max=400.0 / np.sqrt(e))
    return solve_fixed_e(gaussian_potential(1.0, 1.0, config.grid_for(e)), e, config)


def gaussian_bumps(grid, seed=0, count=1):
    """Deterministic smooth non-negative probe fields."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(count):
        amp = rng.uniform(0.3, 3.0)
        center = rng.uniform(0.0, 5.0)
        width = rng.uniform(0.4, 2.5)
        fields.append(amp * np.exp(-((grid.r - center) / width) ** 2))
    return fields


def exp_table(grid):
    """The exp(-r) potential tabulated on [0, 30]: no algebraic tail, and a
    support wider than the capacitance budget on fine grids."""
    return tabulated_potential([(r, np.exp(-r)) for r in np.linspace(0.0, 30.0, 301)], grid)


def sampled(grid, values):
    """A Potential whose samples on ``grid`` are exactly ``values``."""
    return Potential(name="sampled", profile=lambda r: values, grid=grid)
