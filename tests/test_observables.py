import dataclasses

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from bosegas import (QualityWarning, SolverConfig, beta_moment, bound_audit,
                     condensate_depletion, decay_constant, gaussian_potential,
                     lhy_coefficient, lhy_compare, momentum_distribution,
                     observables_report, operators, solve_fixed_e, sweep,
                     tan_constant)
from bosegas.grids import POSITION, RadialField, fourier_radial, make_grid
from bosegas.observables import (depletion_consistency, random_nonneg_fields,
                                 u_lp_bound_constant)
from bosegas.solver import rho_prime

# int |x|^2 v d^3x = 4 pi int r^4 exp(-r^2) dr for the unit Gaussian
X2V_UNIT_GAUSSIAN = 1.5 * np.pi**1.5


@pytest.fixture(scope="module")
def state_strong():
    """Gaussian amp 100 at e = 0.01: u is close to 1 on the support of v."""
    config = SolverConfig(n=8191, r_max=400.0)
    return solve_fixed_e(gaussian_potential(100.0, 1.0, config.grid_for(0.01)),
                         0.01, config)


@pytest.fixture(scope="module")
def state_dilute():
    """Gaussian amp 1 at e = 1e-3, whose default momentum window is not empty."""
    config = SolverConfig(n=8191, r_max=120.0 / np.sqrt(1e-3))
    return solve_fixed_e(gaussian_potential(1.0, 1.0, config.grid_for(1e-3)),
                         1e-3, config)


class TestBeta:
    def test_explicit_value(self, state_explicit, explicit_spec):
        # beta = 6(2e - b^2)/b^2 = 6 at b=1, e=1
        assert beta_moment(state_explicit) == pytest.approx(explicit_spec.beta,
                                                            rel=1e-6)

    def test_upper_bound(self, state_gauss):
        beta = beta_moment(state_gauss)
        assert 0.0 <= beta <= state_gauss.rho * X2V_UNIT_GAUSSIAN

    def test_weak_coupling_limit(self, grid_small):
        # u -> 0 pointwise (weak coupling), so beta -> rho ||x^2 v||_1
        # from below; note u does NOT vanish pointwise as e -> 0 at fixed v
        config = SolverConfig(n=4095, r_max=150.0)
        weak = gaussian_potential(1e-3, 1.0, config.grid_for(0.5))
        state = solve_fixed_e(weak, 0.5, config)
        cap = state.rho * 1e-3 * X2V_UNIT_GAUSSIAN
        assert beta_moment(state) == pytest.approx(cap, rel=0.01)
        assert beta_moment(state) < cap


class TestCondensateDepletion:
    def test_consistency_reconstruction(self, state_gauss):
        eta = condensate_depletion(state_gauss)
        assert np.isfinite(eta)
        assert depletion_consistency(state_gauss, eta) <= 1e-6

    def test_positive_in_guaranteed_regime(self, state_gauss):
        from bosegas.observables import eta_nonnegativity_guaranteed
        assert eta_nonnegativity_guaranteed(state_gauss)
        assert condensate_depletion(state_gauss) >= 0.0

    def test_decreases_with_density(self, gauss_small):
        etas = []
        for e in (1e-2, 1e-3, 1e-4):
            config = SolverConfig(n=16383, r_max=120.0 / np.sqrt(e))
            state = solve_fixed_e(gauss_small.resampled(config.grid_for(e)),
                                  e, config)
            etas.append(condensate_depletion(state))
        assert etas[0] > etas[1] > etas[2] > 0.0


class TestSolveBudget:
    """The observables read the state's one fK_e v; the depletion cross-check
    and the 10 audit probes are the only other solves."""

    def test_report_and_audit_make_twelve_solves(self, state_gauss, monkeypatch):
        calls = []
        solve = operators.Resolvent.solve

        def counted(self, *args, **kwargs):
            calls.append(1)
            return solve(self, *args, **kwargs)

        monkeypatch.setattr(operators.Resolvent, "solve", counted)
        fresh = dataclasses.replace(state_gauss)     # no cached fK_e v or D
        observables_report(fresh, k_values=[0.5, 1.0])
        bound_audit(fresh)
        assert len(calls) == 12

    @pytest.mark.parametrize("name", ["state_gauss", "state_explicit", "state_strong"])
    def test_eta_and_D_match_the_two_solve_forms(self, name, request):
        state = request.getfixturevalue(name)
        v, rho = state.potential.samples.values, state.rho
        w = RadialField(state.grid, 2.0 * state.u.values - rho * state.u_conv.values,
                        POSITION)
        d_old = 1.0 - rho * state.grid.integrate(
            v * state.solve_frakKe(w, "2u - rho u*u").values)
        eta_old = rho * state.grid.integrate(
            v * state.solve_frakKe(state.u, "u").values) / d_old
        assert state.D == pytest.approx(d_old, rel=1e-12, abs=0.0)
        assert condensate_depletion(state) == pytest.approx(eta_old, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("name", ["state_gauss", "state_explicit", "state_strong"])
    def test_rho_prime_bit_identical_to_its_closed_ratio(self, name, request):
        state = request.getfixturevalue(name)
        kv, grid, rho = state.frakKe_v.values, state.grid, state.rho
        int_kv_conv = grid.integrate(kv * state.u_conv.values)
        int_kv_u = grid.integrate(kv * state.u.values)
        numerator = 1.0 + rho * (rho * int_kv_conv - 2.0 * int_kv_u)
        denominator = 1.0 - rho**2 * int_kv_conv
        assert rho_prime(state) == float(rho / state.e * numerator / denominator)


class TestSlimState:
    """The state keeps two scalars of S = (1-u) v, not S and its transform."""

    @pytest.mark.parametrize("name", ["state_gauss", "state_explicit"])
    def test_radicand_and_beta_match_the_array_formulas(self, name, request):
        from bosegas.solver import _s_moment
        state = request.getfixturevalue(name)
        grid, v, e, rho = state.grid, state.potential, state.e, state.rho
        s_vals = np.maximum((1.0 - state.u.values) * v.samples.values, 0.0)
        S_hat = fourier_radial(RadialField(grid, s_vals, POSITION))
        kappa2 = grid.k**2 / (4.0 * e)
        radicand = np.min((kappa2 + 1.0) ** 2 - rho / (2.0 * e) * S_hat.values)
        assert state.check_invariants()["radicand"].rhs == float(radicand)
        assert beta_moment(state) == float(rho * _s_moment(v, s_vals, grid, 2))


def _full_grid_momentum(state, k_values):
    """M(k) through cubic splines over every k-node, one sample at a time."""
    grid = state.grid
    kv = state.frakKe_v.values
    what_v = fourier_radial(RadialField(grid, state.potential.samples.values * kv,
                                        POSITION))
    vhat = fourier_radial(state.potential.samples)
    ruh_s, vhat_s, what_s = (CubicSpline(grid.k, f.values)
                             for f in (state.u_hat, vhat, what_v))
    out = []
    for k in k_values:
        ruh = float(ruh_s(k))
        m = k * k + 4.0 * state.e * (1.0 - ruh)
        a = (float(vhat_s(k)) - float(what_s(k))) / m
        out.append((float(k), float(ruh * a / state.D)))
    return out


class TestWindowedBitIdentity:
    def test_default_dilute_window(self, state_dilute):
        e = state_dilute.e
        ks = np.geomspace(10.0 * np.sqrt(e), 0.5, 24)
        assert np.array_equal(momentum_distribution(state_dilute, ks),
                              _full_grid_momentum(state_dilute, ks))

    def test_up_to_the_last_node_and_below_the_first(self, state_gauss):
        k = state_gauss.grid.k
        ks = np.concatenate([[0.5 * k[0]], np.geomspace(k[0], k[-1], 40)])
        with pytest.warns(QualityWarning):     # M(k) < 0 at some large k
            windowed = momentum_distribution(state_gauss, ks)
        assert np.array_equal(windowed, _full_grid_momentum(state_gauss, ks))

    @pytest.mark.parametrize("n, r_max", [(161999, 40000.0), (2047, 60.0), (255, 5.0)])
    def test_probe_fields_match_the_full_grid_formula(self, n, r_max):
        grid = make_grid(n, r_max)
        rng = np.random.default_rng(7)
        for psi in random_nonneg_fields(grid, seed=7):
            amp, center, width = (rng.uniform(0.5, 2.0), rng.uniform(0.0, 4.0),
                                  rng.uniform(0.5, 2.0))
            full = amp * np.exp(-((grid.r - center) / width) ** 2)
            assert np.array_equal(psi.values, full)


class TestMomentumDistribution:
    def test_denominator_shared_with_eta(self, state_gauss):
        condensate_depletion(state_gauss)
        d1 = state_gauss.D
        momentum_distribution(state_gauss, [0.5, 1.0])
        assert state_gauss.D is d1

    def test_finite_at_smallest_grid_k(self, state_gauss):
        k1 = float(state_gauss.grid.k[0])
        (_, m), = momentum_distribution(state_gauss, [k1])
        assert np.isfinite(m)

    def test_rejects_offgrid_k(self, state_gauss):
        from bosegas.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            momentum_distribution(state_gauss, [0.0])

    def test_tan_constant_value(self, state_gauss):
        assert tan_constant(state_gauss) == pytest.approx(
            4 * state_gauss.e**2 / state_gauss.rho)


class TestDecayConstant:
    def test_explicit_prediction(self, state_explicit):
        # the r^-6 tail leaves int |x|^2 v finite, all the law needs
        fit = decay_constant(state_explicit)
        assert fit.note == ""
        assert fit.predicted_amplitude == state_explicit.rho * state_explicit.tail.c4
        assert fit.measured_amplitude / fit.predicted_amplitude == pytest.approx(
            1.0, abs=0.01)
        # the measured tail is the closed form c/(b^4 r^4): rho u r^4 -> rho c
        assert fit.measured_amplitude == pytest.approx(
            state_explicit.rho * 0.5, rel=0.02)

    def test_gaussian_amplitude(self, gauss_small):
        config = SolverConfig(n=16383, r_max=4000.0)
        state = solve_fixed_e(gauss_small.resampled(config.grid_for(0.01)),
                              0.01, config)
        fit = decay_constant(state)
        assert -4.3 <= fit.exponent <= -3.7
        assert fit.measured_amplitude / fit.predicted_amplitude == pytest.approx(
            1.0, abs=0.05)

    def test_gaussian_amplitude_law_at_e1(self, gauss_small):
        # the law's beta is (rho/3) int |x|^2 S; with beta_moment, three times
        # that, the prediction was 0.1140 against a measured 0.0880
        config = SolverConfig(n=16383, r_max=240.0)
        state = solve_fixed_e(gauss_small.resampled(config.grid_for(1.0)), 1.0, config)
        fit = decay_constant(state)
        assert fit.measured_amplitude / fit.predicted_amplitude == pytest.approx(
            1.0, abs=0.01)
        assert fit.predicted_amplitude == state.rho * state.tail.c4


class TestLHY:
    def test_coefficient_value(self):
        assert lhy_coefficient() == pytest.approx(128.0 / (15.0 * np.sqrt(np.pi)))
        assert lhy_coefficient() == pytest.approx(4.8144178, abs=1e-6)

    def test_rows_structure(self, state_gauss):
        rows = lhy_compare([state_gauss], state_gauss.potential.a0)
        assert len(rows) == 1
        assert rows[0]["rho_a0_cubed"] == pytest.approx(
            state_gauss.rho * state_gauss.potential.a0**3)


class TestObservableReport:
    def test_bundles_shared_denominator(self, state_gauss):
        report = observables_report(state_gauss, k_values=[0.5, 1.0, 2.0])
        assert report.denominator == state_gauss.D
        assert len(report.momentum_samples) == 3
        k, m, k4m = report.momentum_samples[1]
        assert k4m == pytest.approx(k**4 * m)
        assert report.eta_consistency <= 1e-6
        assert report.tan_constant == tan_constant(state_gauss)

    def test_independent_of_call_order(self, gauss_small):
        config = SolverConfig(n=4095, r_max=100.0)
        v = gauss_small.resampled(config.grid_for(0.5))
        ks = [0.5, 1.0, 2.0]
        fresh = observables_report(solve_fixed_e(v, 0.5, config), k_values=ks)
        used = solve_fixed_e(v, 0.5, config)
        condensate_depletion(used)
        momentum_distribution(used, ks)
        assert observables_report(used, k_values=ks) == fresh

    def test_default_momentum_window(self, state_dilute):
        # 24 samples on [10 sqrt(e), min(100 sqrt(e), 0.5 / width, k_max)]
        e, k_max = state_dilute.e, float(state_dilute.grid.k[-1])
        report = observables_report(state_dilute)
        ks = np.geomspace(10.0 * np.sqrt(e), min(100.0 * np.sqrt(e), 0.5, k_max), 24)
        assert np.array_equal([(k, m) for k, m, _ in report.momentum_samples],
                              momentum_distribution(state_dilute, ks))

    def test_default_momentum_window_collapses(self, state_gauss):
        # 10 sqrt(e) = 7.07 is past 0.5 / width: no dilute window
        assert observables_report(state_gauss).momentum_samples == []

    def test_lhy_fields_match_lhy_compare(self, state_gauss):
        a0 = state_gauss.potential.a0
        report = observables_report(state_gauss, a0=a0, k_values=[])
        row = lhy_compare([state_gauss], a0)[0]
        assert (report.rho_a0_cubed, report.lhy_ratio) == (row["rho_a0_cubed"],
                                                           row["lhy_ratio"])


class TestBoundAudit:
    def test_starts_with_the_state_contract(self, state_gauss):
        audit = bound_audit(state_gauss)
        contract = list(state_gauss.check_invariants().values())
        assert [(r.name, r.lhs, r.rhs, r.passed) for r in audit.rows[:5]] == \
            [(r.name, r.lhs, r.rhs, r.passed) for r in contract[:5]]

    def test_all_asserted_rows_pass(self, state_gauss):
        audit = bound_audit(state_gauss)
        assert audit.asserted_ok, [r.name for r in audit.failures()]

    def test_report_rows_do_not_gate(self, state_gauss):
        audit = bound_audit(state_gauss)
        gb = audit.row("gb_conjecture")
        assert gb.kind == "report"

    def test_explicit_gb_inequality_holds(self, state_explicit):
        # 2u - rho u*u = 6c(5+2b^2x^2)/((1+b^2x^2)^2(4+b^2x^2)^2) >= 0
        audit = bound_audit(state_explicit)
        assert audit.row("gb_conjecture").passed
        g = state_explicit.grid
        expected = (6 * 0.5 * (5 + 2 * g.r**2)
                    / ((1 + g.r**2) ** 2 * (4 + g.r**2) ** 2))
        got = 2 * state_explicit.u.values - state_explicit.rho \
            * state_explicit.u_conv.values
        sel = g.r <= 20.0
        np.testing.assert_allclose(got[sel], expected[sel], rtol=1e-6)

    def test_constants_recomputed_from_norms(self, state_gauss):
        v1 = state_gauss.potential.norms.v_l1
        audit = bound_audit(state_gauss)
        assert audit.row("sim6").rhs == pytest.approx(
            v1 / (4 * np.sqrt(np.pi)) * state_gauss.e**-0.25)
        assert audit.row("rhopb2").rhs == pytest.approx(16.0 / v1)
        # C_p at p=2 is the proof-backed sim6 constant
        assert u_lp_bound_constant(2.0, v1) == pytest.approx(
            v1 / (2 * np.sqrt(np.pi)))

    def test_sweep_parmon_row(self, gauss_small):
        record = sweep(gauss_small, np.geomspace(0.05, 0.3, 4), SolverConfig(n=4095))
        audit = bound_audit(record.rows[0].state, sweep=record)
        assert audit.row("parmon").passed
