import numpy as np
import pytest

from bosegas import (SolverConfig, beta_moment, bound_audit,
                     condensate_depletion, decay_constant, gaussian_potential,
                     lhy_coefficient, lhy_compare, momentum_distribution,
                     observables_report, solve_fixed_e, sweep, tan_constant)
from bosegas.observables import depletion_consistency, u_lp_bound_constant


class TestBeta:
    def test_explicit_value(self, state_explicit, explicit_spec):
        # beta = 6(2e - b^2)/b^2 = 6 at b=1, e=1
        assert beta_moment(state_explicit) == pytest.approx(explicit_spec.beta,
                                                            rel=1e-6)

    def test_upper_bound(self, state_gauss):
        beta = beta_moment(state_gauss)
        assert 0.0 <= beta <= state_gauss.rho * state_gauss.potential.norms.x2v_l1

    def test_weak_coupling_limit(self, grid_small):
        # u -> 0 pointwise (weak coupling), so beta -> rho ||x^2 v||_1
        # from below; note u does NOT vanish pointwise as e -> 0 at fixed v
        config = SolverConfig(n=4095, r_max=150.0)
        weak = gaussian_potential(1e-3, 1.0, config.grid_for(0.5))
        state = solve_fixed_e(weak, 0.5, config)
        cap = state.rho * state.potential.norms.x2v_l1
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
    def test_explicit_has_no_prediction(self, state_explicit):
        fit = decay_constant(state_explicit)
        assert fit.predicted_amplitude is None
        assert "x|^4 v" in fit.note or "diverges" in fit.note
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

    def test_lhy_fields_match_lhy_compare(self, state_gauss):
        a0 = state_gauss.potential.a0
        report = observables_report(state_gauss, a0=a0, k_values=[])
        row = lhy_compare([state_gauss], a0)[0]
        assert (report.rho_a0_cubed, report.lhy_ratio) == (row["rho_a0_cubed"],
                                                           row["lhy_ratio"])


class TestBoundAudit:
    def test_starts_with_the_state_contract(self, state_gauss):
        audit = bound_audit(state_gauss, probe_operator=False)
        contract = list(state_gauss.check_invariants().values())
        assert [(r.name, r.lhs, r.rhs, r.passed) for r in audit.rows[:5]] == \
            [(r.name, r.lhs, r.rhs, r.passed) for r in contract[:5]]

    def test_all_asserted_rows_pass(self, state_gauss):
        audit = bound_audit(state_gauss, probe_operator=True)
        assert audit.asserted_ok, [r.name for r in audit.failures()]

    def test_report_rows_do_not_gate(self, state_gauss):
        audit = bound_audit(state_gauss, probe_operator=False)
        gb = audit.row("gb_conjecture")
        assert gb.kind == "report"

    def test_explicit_gb_inequality_holds(self, state_explicit):
        # 2u - rho u*u = 6c(5+2b^2x^2)/((1+b^2x^2)^2(4+b^2x^2)^2) >= 0
        audit = bound_audit(state_explicit, probe_operator=False)
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
        audit = bound_audit(state_gauss, probe_operator=False)
        assert audit.row("sim6").rhs == pytest.approx(
            v1 / (4 * np.sqrt(np.pi)) * state_gauss.e**-0.25)
        assert audit.row("rhopb2").rhs == pytest.approx(16.0 / v1)
        # C_p at p=2 is the proof-backed sim6 constant
        assert u_lp_bound_constant(2.0, v1) == pytest.approx(
            v1 / (2 * np.sqrt(np.pi)))

    def test_sweep_parmon_row(self, gauss_small):
        record = sweep(gauss_small, np.geomspace(0.05, 0.3, 4), SolverConfig(n=4095))
        audit = bound_audit(record.rows[0].state, sweep=record,
                            probe_operator=False)
        assert audit.row("parmon").passed
