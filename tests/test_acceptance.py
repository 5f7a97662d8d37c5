"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Solved states are shared through session fixtures; the normalization
criterion sweeps over every converged state the suite produced.

Grid sizes are chosen per criterion (the spec's grids are overridable);
the tail-sensitive checks use truncation radii of a few hundred healing
lengths, which the image-corrected quadrature turns into <= 1e-6 defects.
"""

import time

import numpy as np
import pytest

from bosegas import (CROSS_VALIDATED, ExplicitSolutionSpec, SolverConfig,
                     apply_frakKe, beta_moment, bogolyubov_depletion,
                     condensate_depletion, decay_constant, explicit_potential,
                     fast_grid_size, gaussian_potential,
                     healing_integral_check, lhy_compare, make_grid,
                     momentum_distribution, rho_prime, rho_prime_fd,
                     solve_fixed_e, sweep, symmetry_check, tabulated_potential,
                     tan_constant, u_prime, u_prime_integral)
from bosegas.observables import random_nonneg_fields
from bosegas.operators import frakKe_l2_bound

GAUSS = dict(amplitude=1.0, width=1.0)
EXPLICIT = dict(b=1.0, c=0.5, e=1.0)


def _report(number, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status} ({detail}) [{time.time() - t0:.1f}s]")
    return ok


def _config(e_min, scale, dr):
    r_max = scale / np.sqrt(e_min)
    return SolverConfig(n=fast_grid_size(int(r_max / dr)), r_max=r_max)


def _gauss_state(e, scale=400.0, dr=0.25):
    cfg = _config(e, scale, dr)
    return solve_fixed_e(gaussian_potential(1.0, 1.0, cfg.grid_for(e)), e, cfg)


# ---------------------------------------------------------------------------
# shared solved states
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def explicit_state():
    cfg = SolverConfig(n=16383, r_max=800.0)
    v = explicit_potential(ExplicitSolutionSpec(**EXPLICIT), cfg.grid_for(1.0))
    return solve_fixed_e(v, 1.0, cfg)


@pytest.fixture(scope="session")
def a0():
    return gaussian_potential(1.0, 1.0, make_grid(64, 10.0)).a0


@pytest.fixture(scope="session")
def bracket_states():
    states = []
    for e in np.geomspace(1e-6, 1.0, 10):
        states.append(_gauss_state(float(e), scale=40.0, dr=0.25))
    return states


@pytest.fixture(scope="session")
def lhy_states(a0):
    """Fixed-e solves placed at rho a0^3 = 1e-4, 1e-5, 1e-6 via the
    low-density energy law itself."""
    states = []
    for target in (1e-4, 1e-5, 1e-6):
        rho_t = target / a0**3
        e = 2 * np.pi * rho_t * a0 * (1 + 128 / (15 * np.sqrt(np.pi)) * np.sqrt(target))
        states.append(_gauss_state(e, scale=400.0, dr=0.25))
    return states


@pytest.fixture(scope="session")
def leading_order_state(a0):
    rho_t = 1e-8 / a0**3
    e = 2 * np.pi * rho_t * a0 * (1 + 128 / (15 * np.sqrt(np.pi)) * np.sqrt(1e-8))
    return _gauss_state(e, scale=40.0, dr=0.25)


@pytest.fixture(scope="session")
def decay_state():
    return _gauss_state(0.01, scale=400.0, dr=0.25)


@pytest.fixture(scope="session")
def small_sweep():
    """20 log-spaced points below e_star = sqrt(2), with dedicated FD pairs."""
    e_min = 1e-6
    cfg = _config(e_min, 40.0, 0.25)
    v = gaussian_potential(1.0, 1.0, cfg.grid_for(e_min))
    e_values = np.geomspace(e_min, v.e_star / 10.0, 20)
    return sweep(v, e_values, cfg, fd_check=True)


@pytest.fixture(scope="session")
def large_e_sweep():
    """Rows spanning e_star = sqrt(2) for the e*rho(e) monotonicity check."""
    cfg = SolverConfig(n=8191, r_max=60.0)
    v = gaussian_potential(1.0, 1.0, cfg.grid_for(0.2))
    return sweep(v, [0.2, 0.5, 1.0, 1.5, 2.5, 5.0], cfg)


@pytest.fixture(scope="session")
def scheme_states():
    """Cross-validated solves on three potential families, three e each."""
    cfg = SolverConfig(n=fast_grid_size(12000), r_max=600.0,
                       scheme=CROSS_VALIDATED)
    grid = cfg.grid_for(1.0)
    gauss = gaussian_potential(1.0, 1.0, grid)
    expl = explicit_potential(ExplicitSolutionSpec(**EXPLICIT), grid)
    tab = tabulated_potential(
        [(r, np.exp(-r)) for r in np.linspace(0.0, 30.0, 600)], grid)
    states = []
    for v, e_list in ((gauss, (0.01, 0.1, 1.0)),
                      (expl, (0.1, 0.3, 1.0)),
                      (tab, (0.01, 0.1, 1.0))):
        for e in e_list:
            states.append(solve_fixed_e(v, e, cfg))
    return states


@pytest.fixture(scope="session")
def uprime_state():
    return _gauss_state(0.5, scale=400.0, dr=0.1)


@pytest.fixture(scope="session")
def all_states(explicit_state, bracket_states, lhy_states, leading_order_state,
               decay_state, small_sweep, large_e_sweep, scheme_states,
               uprime_state):
    states = {"explicit": explicit_state,
              "leading_order": leading_order_state,
              "decay": decay_state,
              "uprime": uprime_state}
    for i, st in enumerate(bracket_states):
        states[f"bracket_{i}"] = st
    for i, st in enumerate(lhy_states):
        states[f"lhy_{i}"] = st
    for i, row in enumerate(small_sweep.converged_rows):
        states[f"sweep_{i}"] = row.state
    for i, row in enumerate(large_e_sweep.converged_rows):
        states[f"large_e_{i}"] = row.state
    for i, st in enumerate(scheme_states):
        states[f"scheme_{i}"] = st
    return states


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_explicit_solution_oracle(explicit_state):
    t0 = time.time()
    spec = ExplicitSolutionSpec(**EXPLICIT)
    u_exact = spec.u_profile(explicit_state.grid.r)
    max_err = float(np.max(np.abs(explicit_state.u.values - u_exact)))
    rho_err = abs(explicit_state.rho - spec.rho) / spec.rho
    ok = max_err <= 1e-4 and rho_err <= 1e-6
    assert _report(1, "explicit-solution-oracle", ok,
                   f"max|u-u_exact|={max_err:.2e}, rho rel={rho_err:.2e}", t0)


def test_criterion_02_transform_fidelity():
    t0 = time.time()
    b, c = 1.0, 0.5
    g = make_grid(16383, 1000.0)
    from bosegas import convolve, field_from_profile, fourier_radial
    u = field_from_profile(g, lambda r: c / (1 + (b * r) ** 2) ** 2)
    uhat = fourier_radial(u)
    sel_k = (g.k >= 0.1) & (g.k <= 10.0)
    uhat_exact = np.pi**2 * c / b**3 * np.exp(-g.k[sel_k] / b)
    err_hat = float(np.max(np.abs(uhat.values[sel_k] - uhat_exact) / uhat_exact))
    uu = convolve(u, u)
    sel_r = g.r <= 20.0
    uu_exact = 2 * np.pi**2 * c**2 / (b**3 * (4 + (b * g.r[sel_r]) ** 2) ** 2)
    err_uu = float(np.max(np.abs(uu.values[sel_r] - uu_exact) / uu_exact))
    ok = err_hat <= 1e-6 and err_uu <= 1e-6
    assert _report(2, "transform-fidelity", ok,
                   f"uhat rel={err_hat:.2e}, u*u rel={err_uu:.2e}", t0)


def test_criterion_03_density_bracket(bracket_states):
    t0 = time.time()
    worst = np.inf
    ok = True
    for st in bracket_states:
        v1 = st.potential.norms.v_l1
        lo, hi = 2 * st.e / v1, 4 * st.e / v1
        ok = ok and (lo < st.rho < hi)
        worst = min(worst, st.rho - lo, hi - st.rho)
    assert _report(3, "density-bracket", ok,
                   f"10 states, strict margin >= {worst:.3e}", t0)


def test_criterion_04_normalization(all_states):
    t0 = time.time()
    worst_name, worst = None, 0.0
    for name, st in all_states.items():
        defect = st.normalization_defect()
        if defect > worst:
            worst_name, worst = name, defect
    ok = worst <= 1e-6
    assert _report(4, "normalization", ok,
                   f"{len(all_states)} states, worst |rho int u - 1| = "
                   f"{worst:.2e} ({worst_name})", t0)


def test_criterion_05_lhy_expansion(lhy_states, leading_order_state, a0):
    t0 = time.time()
    rows = lhy_compare(lhy_states, a0)
    ratios = [row["lhy_ratio"] for row in rows]           # densities decrease
    in_window = all(0.9 <= r <= 1.1 for r in ratios)
    improves = (abs(ratios[2] - 1) < abs(ratios[1] - 1) < abs(ratios[0] - 1))
    leading = lhy_compare([leading_order_state], a0)[0]["e_over_leading"]
    leading_ok = abs(leading - 1.0) <= 0.005
    ok = in_window and improves and leading_ok
    assert _report(5, "lhy-expansion", ok,
                   f"ratios={[f'{r:.4f}' for r in ratios]}, "
                   f"leading(1e-8)={leading:.5f}", t0)


def test_criterion_06_bogolyubov_depletion(lhy_states, a0):
    t0 = time.time()
    ratios = []
    for st in lhy_states[1:]:                              # rho a0^3 <= 1e-5
        eta = condensate_depletion(st)
        ratios.append(eta / bogolyubov_depletion(st.rho * a0**3))
    ok = all(0.85 <= r <= 1.15 for r in ratios)
    assert _report(6, "bogolyubov-depletion", ok,
                   f"eta ratios={[f'{r:.4f}' for r in ratios]}", t0)


def test_criterion_07_tan_plateau(lhy_states):
    t0 = time.time()
    st = lhy_states[2]                                     # rho a0^3 = 1e-6
    k_lo = 10 * np.sqrt(st.e)
    k_hi = min(100 * np.sqrt(st.e), 0.5 / GAUSS["width"])
    table = momentum_distribution(st, np.geomspace(k_lo, k_hi, 16))
    c2 = tan_constant(st)
    plateau = [k**4 * m / c2 for k, m in table]
    ok = all(0.8 <= p <= 1.2 for p in plateau)
    assert _report(7, "tan-plateau", ok,
                   f"k^4 M/C2 in [{min(plateau):.3f}, {max(plateau):.3f}] over "
                   f"k in [{k_lo:.3f}, {k_hi:.3f}]", t0)


def test_criterion_08_decay_law(decay_state, explicit_state):
    t0 = time.time()
    fit = decay_constant(decay_state)
    amp_ratio = fit.measured_amplitude / fit.predicted_amplitude
    beta = beta_moment(explicit_state)
    beta_ok = abs(beta - 6.0) / 6.0 <= 1e-6
    ok = (-4.3 <= fit.exponent <= -3.7) and abs(amp_ratio - 1.0) <= 0.05 and beta_ok
    assert _report(8, "decay-law", ok,
                   f"exponent={fit.exponent:.3f}, amp ratio={amp_ratio:.4f}, "
                   f"explicit beta={beta:.8f}", t0)


def test_criterion_09_monotonicity_and_derivative(small_sweep, large_e_sweep):
    t0 = time.time()
    rows = small_sweep.converged_rows
    v = gaussian_potential(1.0, 1.0, make_grid(64, 10.0))
    v1 = v.norms.v_l1
    all_solved = len(rows) == 20
    positive = all(r.rho_prime_analytic > 0 for r in rows)
    bounded = all(r.rho_prime_analytic <= 16.0 / v1 for r in rows)
    fd_rel = max(abs(r.rho_prime_analytic - r.rho_prime_fd)
                 / abs(r.rho_prime_fd) for r in rows)
    # e rho(e) strictly increasing, including rows beyond e_star
    e_star = v.e_star
    spans = any(r.e > e_star for r in large_e_sweep.converged_rows)
    combined = [r.e_rho for r in rows] + \
               [r.e_rho for r in large_e_sweep.converged_rows]
    increasing = all(b > a for a, b in zip(combined, combined[1:]))
    ok = all_solved and positive and bounded and fd_rel <= 0.01 \
        and increasing and spans
    assert _report(9, "monotonicity-and-derivative", ok,
                   f"rho'>0: {positive}, rho'<=16/||v||1: {bounded}, "
                   f"max FD rel={fd_rel:.2e}, e*rho increasing through "
                   f"e_star={e_star:.3f}: {increasing}", t0)


def test_criterion_10_convexity(small_sweep):
    t0 = time.time()
    interior = small_sweep.converged_rows[1:-1]
    values = [r.convexity_indicator for r in interior]
    ok = len(values) == 18 and all(v > 0 for v in values)
    assert _report(10, "convexity", ok,
                   f"2 rho'^2 - rho rho'' in [{min(values):.3f}, {max(values):.3f}] "
                   f"on {len(values)} interior rows", t0)


def test_criterion_11_operator_audit(explicit_state, decay_state, lhy_states,
                                     bracket_states):
    t0 = time.time()
    battery = {"explicit": explicit_state, "decay": decay_state,
               "lhy_1e-5": lhy_states[1], "gauss_e1": bracket_states[-1]}
    problems = []
    for name, st in battery.items():
        kv = st.frakKe_v.values
        if not (np.min(kv) >= -1e-10 and np.max(kv) <= 1 + 1e-10):
            problems.append(f"{name}: fK_e v range")
        if symmetry_check(st.potential.samples, st.u, st.context) > 1e-6:
            problems.append(f"{name}: symmetry")
        for psi in random_nonneg_fields(st.grid):
            out, rep = apply_frakKe(psi, st.context)
            if not rep.converged or \
               out.norm_l2() > frakKe_l2_bound(st.e) * psi.integral():
                problems.append(f"{name}: fK_e L1->L2 bound")
                break
        u_l2 = st.u.norm_l2()
        norms = st.potential.norms
        if u_l2 > norms.v_l1 / (4 * np.sqrt(np.pi)) * st.e**-0.25:
            problems.append(f"{name}: ||u||_2 printed bound")
        if u_l2 > norms.v_l2 / (2 * st.e):
            problems.append(f"{name}: ||u||_2 large-e bound")
    ok = not problems
    assert _report(11, "operator-audit", ok,
                   f"{len(battery)} states clean" if ok else "; ".join(problems), t0)


def test_criterion_12_quadrature_identity():
    t0 = time.time()
    grid = make_grid(fast_grid_size(2**20), 2000.0)
    value = healing_integral_check(grid)
    exact = 1.0 / (3 * np.pi**2 * np.sqrt(2.0))
    rel = abs(value - exact) / exact
    ok = rel <= 1e-6
    assert _report(12, "quadrature-identity", ok,
                   f"value={value:.9f}, exact={exact:.9f}, rel={rel:.2e}", t0)


def test_criterion_13_scheme_equivalence(scheme_states):
    t0 = time.time()
    gaps = [st.cross_check for st in scheme_states]
    monotone = [st.monotone_iterates for st in scheme_states]
    ok = all(g is not None and g <= 1e-6 for g in gaps) and all(monotone)
    assert _report(13, "scheme-equivalence", ok,
                   f"9 cross-validated solves, max L-inf gap={max(gaps):.2e}", t0)


def test_criterion_14_u_prime_identity(uprime_state):
    t0 = time.time()
    st = uprime_state
    rp = rho_prime(st)
    up = u_prime(st, rp)
    lhs = st.rho / st.e + st.rho**2 / (2 * st.e) * st.grid.integrate(
        up.values * st.potential.samples.values)
    constraint_rel = abs(lhs - rp) / abs(rp)
    total = u_prime_integral(st, up, rp)
    target = -rp / st.rho**2
    mass_rel = abs(total - target) / abs(target)
    fd = rho_prime_fd(st)
    fd_rel = abs(rp - fd) / abs(fd)
    ok = constraint_rel <= 1e-6 and mass_rel <= 1e-6 and fd_rel <= 0.01
    assert _report(14, "u-prime-identity", ok,
                   f"constraint rel={constraint_rel:.2e}, "
                   f"int u' rel={mass_rel:.2e}, rho' FD rel={fd_rel:.2e}", t0)
