from dataclasses import replace

import numpy as np
import pytest
from scipy.special import binom, zeta

from bosegas import (ConfigurationError, CROSS_VALIDATED, FOURIER, MONOTONE,
                     ExplicitSolutionSpec, InvariantViolation, SolverConfig,
                     explicit_potential, gaussian_potential, rho_prime,
                     rho_prime_fd, solve_fixed_e, solve_fixed_rho, sweep,
                     u_prime, u_prime_integral)
from bosegas import grids, operators, solver
from bosegas.grids import RadialField, fast_grid_size, make_grid
from bosegas.potentials import QualityWarning
from bosegas.errors import ConvergenceError
from bosegas.solver import (_fourier_iteration, _grid_images, _image_sum,
                            _monotone_iteration)


class TestSolveFixedE:
    def test_explicit_closed_form(self, state_explicit, explicit_spec):
        u_exact = explicit_spec.u_profile(state_explicit.grid.r)
        assert np.max(np.abs(state_explicit.u.values - u_exact)) < 1e-8
        assert state_explicit.rho == pytest.approx(explicit_spec.rho, rel=1e-9)

    def test_equal_grid_shares_potential(self, gauss_small):
        config = SolverConfig(n=2047, r_max=60.0)
        state = solve_fixed_e(gauss_small, 0.3, config)
        assert state.grid is gauss_small.grid
        assert state.potential is gauss_small

    def test_invariants_on_converged_states(self, state_explicit, state_gauss):
        for state in (state_explicit, state_gauss):
            state.require_invariants()

    def test_density_bracket(self, state_gauss):
        v1 = state_gauss.potential.norms.v_l1
        assert 2 * state_gauss.e / v1 <= state_gauss.rho <= 4 * state_gauss.e / v1

    def test_rejects_nonpositive_e(self, gauss_small):
        with pytest.raises(ConfigurationError):
            solve_fixed_e(gauss_small, -1.0, SolverConfig(n=256, r_max=20.0))

    def test_warm_start_converges_faster(self, gauss_small):
        config = SolverConfig(n=2047, r_max=60.0)
        cold = solve_fixed_e(gauss_small, 0.5, config)
        warm = solve_fixed_e(gauss_small, 0.5001, config, u0=cold.u)
        assert warm.iterations < cold.iterations

    def test_default_grid_size_is_fast(self):
        assert fast_grid_size(SolverConfig().n) == SolverConfig().n

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SolverConfig(n=8)
        with pytest.raises(ConfigurationError):
            SolverConfig(scheme="newton")
        with pytest.raises(ConfigurationError):
            SolverConfig(outer_tol=1e-12, inner_tol=1e-12)


class TestSchemes:
    def test_cross_validated(self, gauss_small):
        config = SolverConfig(n=2047, r_max=60.0, scheme=CROSS_VALIDATED)
        state = solve_fixed_e(gauss_small, 0.3, config)
        assert state.cross_check is not None
        assert state.cross_check <= 1e-6
        assert state.monotone_iterates

    def test_monotone_iterates_increase(self, gauss_small):
        config = SolverConfig(n=2047, r_max=60.0, scheme=MONOTONE)
        state = solve_fixed_e(gauss_small, 0.3, config)
        assert state.monotone_iterates
        assert state.scheme_used == MONOTONE

    def test_fourier_matches_monotone_rho(self, gauss_small):
        config = SolverConfig(n=2047, r_max=60.0)
        grid = config.grid_for(0.3)
        v = gauss_small.resampled(grid)
        u_f, rho_f, _, _ = _fourier_iteration(v, 0.3, config, grid, None)
        u_m, rho_m, _, mono, _ = _monotone_iteration(v, 0.3, config, grid)
        assert mono
        assert abs(rho_f - rho_m) / rho_f < 5e-9
        assert np.max(np.abs(u_f - u_m)) < 1e-8

    def test_fallback_on_stiff_case(self):
        # the first k-space iterate overshoots u = 1 on the whole support of
        # this strong potential, so the constraint integral vanishes
        config = SolverConfig(n=4095)
        v = gaussian_potential(1e4, 1.0, config.grid_for(0.01))
        with pytest.warns(QualityWarning, match="falling back"):
            state = solve_fixed_e(v, 0.01, config)
        assert state.scheme_used.endswith("(fallback)")
        assert state.monotone_iterates

    def test_stiff_explicit_case_converges_in_kspace(self, recwarn):
        # the plain fixed point stalls here; Anderson mixing converges
        config = SolverConfig(n=8191, r_max=400.0, max_outer=120)
        v = explicit_potential(ExplicitSolutionSpec(1.0, 0.5, 1.0),
                               config.grid_for(0.01))
        state = solve_fixed_e(v, 0.01, config)
        assert state.scheme_used == FOURIER
        assert not [w for w in recwarn if issubclass(w.category, QualityWarning)]
        crossed = solve_fixed_e(v, 0.01, replace(config, scheme=CROSS_VALIDATED))
        assert crossed.cross_check <= 1e-6
        assert crossed.rho == pytest.approx(state.rho, rel=1e-12)


class TestMonotoneNewton:
    def test_iterates_increase_below_kspace_solution(self, gauss_small, monkeypatch):
        # every iterate's rho goes through the constraint integral
        config = SolverConfig(n=2047, r_max=60.0)
        grid = gauss_small.grid
        iterates = []
        inner = solver._constraint_integral

        def recording(v, u_values, grid):
            iterates.append(u_values.copy())
            return inner(v, u_values, grid)

        u_f, _, _, _ = _fourier_iteration(gauss_small, 0.3, config, grid, None)
        monkeypatch.setattr(solver, "_constraint_integral", recording)
        _, _, iterations, monotone, _ = _monotone_iteration(gauss_small, 0.3, config, grid)
        assert monotone
        assert len(iterates) == iterations + 1
        assert not np.any(iterates[0])                  # u_0 = 0
        for prev, cur in zip(iterates, iterates[1:]):
            assert np.min(cur - prev) >= -1e-9
            assert np.max(cur - u_f) <= 1e-9

    def test_step_count(self, gauss_small):
        # the Picard construction took more than 100 steps here
        config = SolverConfig(n=2047, r_max=60.0)
        _, _, iterations, _, history = _monotone_iteration(
            gauss_small, 0.3, config, gauss_small.grid)
        assert iterations <= 12
        assert history[-1] <= config.outer_tol

    def test_newton_solves_build_no_fields(self, gauss_small, monkeypatch):
        # the Newton solves pass raw arrays, so no solve builds a RadialField
        post_init = RadialField.__post_init__
        inits = [0]

        def counted(field):
            inits[0] += 1
            post_init(field)

        cg = solver._preconditioned_cg
        solves = []

        def recorded(*args):
            before = inits[0]
            w, report = cg(*args)
            solves.append((report.iterations, inits[0] - before))
            return w, report

        monkeypatch.setattr(RadialField, "__post_init__", counted)
        monkeypatch.setattr(solver, "_preconditioned_cg", recorded)
        for inner_tol in (1e-12, 1e-8):
            config = SolverConfig(n=2047, r_max=60.0, inner_tol=inner_tol, outer_tol=1e-6)
            _monotone_iteration(gauss_small, 0.3, config, gauss_small.grid)
        assert len({iterations for iterations, _ in solves}) > 1
        assert {fields for _, fields in solves} == {0}

    def test_strong_fallback_normalizes(self):
        # Picard stopped at |rho int u - 1| = 2.7e-4 here
        config = SolverConfig(n=16383, r_max=600.0)
        v = gaussian_potential(1e4, 1.0, config.grid_for(0.01))
        with pytest.warns(QualityWarning, match="falling back"):
            state = solve_fixed_e(v, 0.01, config)
        assert state.scheme_used.endswith("(fallback)")
        assert state.monotone_iterates
        assert state.normalization_defect() <= 1e-6

    def test_fourier_stall_hands_over_early(self):
        config = SolverConfig(n=16383, r_max=600.0)
        grid = config.grid_for(0.01)
        v = gaussian_potential(100.0, 1.0, grid)
        with pytest.raises(ConvergenceError, match="stalled") as info:
            _fourier_iteration(v, 0.01, config, grid, None)
        history = info.value.history
        assert len(history) < config.max_outer
        assert np.argmin(history) < len(history) - solver._STALL_WINDOW
        with pytest.warns(QualityWarning, match="falling back"):
            state = solve_fixed_e(v, 0.01, config)
        assert state.scheme_used.endswith("(fallback)")


class TestAndersonIteration:
    def test_cold_iteration_count(self, gauss_small):
        # 13 iterations under the damped fixed point, 6 with Anderson mixing
        config = SolverConfig(n=2047, r_max=60.0)
        _, _, iterations, history = _fourier_iteration(
            gauss_small, 0.3, config, gauss_small.grid, None)
        assert iterations <= 8
        assert history[-1] <= config.outer_tol

    def test_warm_fd_resolve_count(self, gauss_small, monkeypatch):
        # 8 k-space steps per warm re-solve under the damped fixed point, 5
        # with Anderson mixing; the lower one starts from the reflection
        # 2u - u_hi and took 4-5 steps when it started from u
        config = SolverConfig(n=2047, r_max=60.0)
        state = solve_fixed_e(gauss_small, 0.3, config)
        counts = []
        inner = solver._fourier_iteration

        def counting(*args):
            out = inner(*args)
            counts.append(out[2])
            return out

        monkeypatch.setattr(solver, "_fourier_iteration", counting)
        rho_prime_fd(gauss_small, state)
        assert len(counts) == 2
        hi, lo = counts
        assert hi <= 6
        assert lo <= 3

    def test_iterate_stays_finite_when_clamp_fires(self, monkeypatch):
        # u overshoots 1 on the support of v for several steps after the
        # history fills; the clamped S must keep every mixed iterate finite
        config = SolverConfig(n=2047)
        grid = config.grid_for(0.01)
        v = gaussian_potential(10.0, 1.0, grid)
        clamped = []
        inner = solver.dst1

        def recording(x):
            clamped.append(bool(np.any((x == 0.0) & (v.samples.values > 0.0))))
            return inner(x)

        monkeypatch.setattr(solver, "dst1", recording)
        u, rho, iterations, history = _fourier_iteration(v, 0.01, config, grid, None)
        forward = clamped[::2]           # r*S; the odd calls carry k*uhat
        assert len(forward) == iterations
        assert any(forward[2:])          # from iteration 3 on, u is a mixed iterate
        assert np.all(np.isfinite(u)) and np.isfinite(rho)
        assert np.all(np.isfinite(history))
        assert iterations < config.max_outer

    def test_non_finite_iterate_is_a_convergence_error(self, gauss_small, monkeypatch):
        # a NaN from the inverse transform of step 2 reaches max|G(u) - u|
        config = SolverConfig(n=2047, r_max=60.0)
        calls = [0]
        inner = solver.dst1

        def poisoned(x):
            calls[0] += 1
            out = inner(x)
            if calls[0] == 4:
                out[-1] = np.nan
            return out

        monkeypatch.setattr(solver, "dst1", poisoned)
        with pytest.raises(ConvergenceError, match="not finite") as info:
            _fourier_iteration(gauss_small, 0.3, config, gauss_small.grid, None)
        assert len(info.value.history) == 2 and np.isnan(info.value.history[-1])
        calls[0] = 0
        with pytest.warns(QualityWarning, match="falling back"):
            state = solve_fixed_e(gauss_small, 0.3, config)
        assert state.scheme_used.endswith("(fallback)")
        state.require_invariants()


class TestSolveFixedRho:
    def test_explicit_density_target(self, explicit_spec):
        config = SolverConfig(n=8191, r_max=400.0)
        v = explicit_potential(explicit_spec, config.grid_for(0.5))
        state = solve_fixed_rho(v, 2.0 / np.pi**2, config)
        assert state.e == pytest.approx(1.0, abs=1e-6)

    def test_round_trip_self_consistency(self, gauss_small):
        config = SolverConfig(n=2047, r_max=60.0)
        direct = solve_fixed_e(gauss_small, 0.4, config)
        back = solve_fixed_rho(gauss_small, direct.rho, config)
        assert back.e == pytest.approx(0.4, rel=1e-8)

    def test_bracket_endpoints_straddle(self, gauss_small):
        config = SolverConfig(n=2047, r_max=60.0)
        target = 0.1
        v1 = gauss_small.norms.v_l1
        lo = solve_fixed_e(gauss_small, target * v1 / 4.0, config)
        hi = solve_fixed_e(gauss_small, target * v1 / 2.0, config)
        assert lo.rho <= target <= hi.rho

    def test_inversion_builds_one_state(self, monkeypatch):
        # the bracket and Brent probes keep (u, rho) only; when each of the 18
        # probes built a state, the root was this same (e, rho)
        target = 0.05
        config = SolverConfig(n=4095, r_max=400.0 / np.sqrt(2.0 * target))
        v = gaussian_potential(1.0, 1.0, config.grid_for(2.0 * target))
        builds = []
        inner = solver._build_state

        def counting(*args):
            builds.append(args[1])
            return inner(*args)

        monkeypatch.setattr(solver, "_build_state", counting)
        state = solve_fixed_rho(v, target, config)
        assert builds == [state.e]
        assert state.e == pytest.approx(0.11921230961654893, rel=1e-12)
        assert state.rho == pytest.approx(0.049999999999993244, rel=1e-12)
        state.require_invariants()

    def test_rejects_nonpositive_target(self, gauss_small):
        with pytest.raises(ConfigurationError):
            solve_fixed_rho(gauss_small, 0.0)


class TestDerivatives:
    def test_rho_prime_positive_and_bounded(self, state_gauss):
        rp = rho_prime(state_gauss)
        assert 0.0 < rp <= 16.0 / state_gauss.potential.norms.v_l1

    def test_rho_prime_against_centered_fd(self, state_gauss):
        rp = rho_prime(state_gauss)
        fd = rho_prime_fd(state_gauss.potential, state_gauss)
        assert rp == pytest.approx(fd, rel=0.01)

    def test_rho_prime_denominator_in_unit_interval(self, state_explicit):
        kv = state_explicit.frakKe_v().values
        conv = state_explicit.u_convolution().values
        den = 1.0 - state_explicit.rho**2 * state_explicit.grid.integrate(kv * conv)
        assert 0.0 < den < 1.0

    def test_u_prime_identities(self, state_gauss):
        rp = rho_prime(state_gauss)
        up = u_prime(state_gauss, rp)
        g = state_gauss.grid
        # differentiating the constraint reproduces rho'
        lhs = (state_gauss.rho / state_gauss.e
               + state_gauss.rho**2 / (2 * state_gauss.e)
               * g.integrate(up.values * state_gauss.potential.samples.values))
        assert abs(lhs - rp) <= 1e-6 * abs(rp)
        # differentiating the normalization: int u' = -rho'/rho^2
        total = u_prime_integral(state_gauss, up, rp)
        assert total == pytest.approx(-rp / state_gauss.rho**2, rel=1e-4)

    def test_u_prime_against_centered_fd(self, gauss_small):
        config = SolverConfig(n=4095, r_max=100.0)
        e = 0.5
        state = solve_fixed_e(gauss_small.resampled(config.grid_for(e)), e, config)
        rp = rho_prime(state)
        up = u_prime(state, rp)
        de = 1e-4 * e
        hi = solve_fixed_e(state.potential, e + de, config, u0=state.u)
        lo = solve_fixed_e(state.potential, e - de, config, u0=state.u)
        fd = (hi.u.values - lo.u.values) / (2 * de)
        num = np.sqrt(state.grid.integrate((up.values - fd) ** 2))
        den = np.sqrt(state.grid.integrate(fd**2))
        assert num / den < 0.01


class TestSweep:
    def test_single_row_degenerate(self, gauss_small):
        config = SolverConfig(n=2047, r_max=60.0)
        record = sweep(gauss_small, [0.3], config)
        row = record.rows[0]
        assert row.error is None
        assert np.isnan(row.convexity_indicator)
        assert np.isnan(row.rho_prime_fd)

    def test_small_sweep_columns(self, gauss_small):
        record = sweep(gauss_small, np.geomspace(0.05, 0.3, 5), SolverConfig(n=4095))
        assert all(row.error is None for row in record.rows)
        assert all(row.rho_prime_analytic > 0 for row in record.rows)
        assert all(row.e_rho_increasing for row in record.rows)
        interior = record.rows[1:-1]
        assert all(np.isfinite(row.convexity_indicator) for row in interior)
        assert all(row.convexity_indicator > 0 for row in interior)
        fd = record.column("rho_prime_fd")[1:-1]
        an = record.column("rho_prime_analytic")[1:-1]
        np.testing.assert_allclose(an, fd, rtol=0.02)

    def test_under_resolved_rows_are_errors(self, gauss_small):
        # r_max = 60 is too short for the normalization at the three smallest e
        config = SolverConfig(n=2047, r_max=60.0)
        record = sweep(gauss_small, np.geomspace(0.05, 0.3, 5), config)
        for row in record.rows[:3]:
            assert row.error is not None and "normalization" in row.error
            assert row.state.normalization_defect() > 1e-6
        assert all(row.error is None for row in record.rows[3:])
        assert record.converged_rows == record.rows[3:]

    def test_warm_started_sweep_normalization(self, gauss_small):
        record = sweep(gauss_small, np.geomspace(0.05, 0.3, 4), SolverConfig(n=4095))
        assert all(row.state.normalization_defect() <= 1e-6 for row in record.rows)

    def test_fd_check_builds_one_state_per_row(self, gauss_small, monkeypatch):
        # the FD pair of each row keeps rho only: 9 states and 172 DST-I calls
        # when it built full states from u, 3 and 136 now
        builds, transforms = [], [0]
        build, dst1 = solver._build_state, grids.dst1

        def counting_build(*args):
            builds.append(args[1])
            return build(*args)

        def counting_dst1(x):
            transforms[0] += 1
            return dst1(x)

        monkeypatch.setattr(solver, "_build_state", counting_build)
        for module in (grids, operators, solver):
            monkeypatch.setattr(module, "dst1", counting_dst1)
        record = sweep(gauss_small, [0.1, 0.2, 0.4], SolverConfig(n=4095), fd_check=True)
        assert all(row.error is None for row in record.rows)
        assert builds == [0.1, 0.2, 0.4]
        assert transforms[0] <= 136
        for row in record.rows:
            assert row.rho_prime_analytic == pytest.approx(row.rho_prime_fd, rel=1e-3)

    def test_rejects_unsorted_e(self, gauss_small):
        with pytest.raises(ConfigurationError):
            sweep(gauss_small, [0.3, 0.1], SolverConfig(n=2047, r_max=60.0))

    def test_regime_labels(self, gauss_small):
        config = SolverConfig(n=2047, r_max=60.0)
        record = sweep(gauss_small, [0.1, 2.0], config)
        assert record.rows[0].regime == "proven_small_e"
        assert record.rows[1].regime == "proven_large_e"


def test_rho_u_hat_tends_to_one_at_small_k(gauss_small):
    # the constraint forces rho*uhat(0) = 1; at the smallest grid k the
    # deviation is the kink term sqrt(2+beta) k/(2 sqrt(e)), so the 5e-3
    # window needs r_max * sqrt(e) >~ 450
    e = 0.01
    config = SolverConfig(n=32767, r_max=800.0 / np.sqrt(e))
    state = solve_fixed_e(gauss_small.resampled(config.grid_for(e)), e, config)
    assert abs(state.u_hat.values[0] - 1.0) <= 5e-3
    # and it is strictly below one for k > 0
    assert np.all(state.u_hat.values < 1.0)


class TestUnderResolution:
    def test_invariant_violation_surfaces(self, explicit_spec):
        config = SolverConfig(n=64, r_max=8.0)
        v = explicit_potential(explicit_spec, config.grid_for(1.0))
        state = solve_fixed_e(v, 1.0, config)
        with pytest.raises(InvariantViolation):
            state.require_invariants()


def brute_force_images(r, r_max, power, n_images=2000):
    """The odd-periodization image sum, term by term."""
    out = np.zeros_like(r)
    for l in range(1, n_images + 1):
        out += ((2 * l * r_max + r) ** (1.0 - power)
                - (2 * l * r_max - r) ** (1.0 - power)) / r
    return out


class TestTailImages:
    def test_closed_form_matches_brute_force_sum(self):
        grid = make_grid(255, 30.0)
        r = np.append(grid.r, grid.r_max)
        for power in (4.0, 6.0):
            np.testing.assert_allclose(_image_sum(r, grid.r_max, power),
                                       brute_force_images(r, grid.r_max, power),
                                       rtol=1e-9, atol=0.0)

    def test_series_keeps_precision_near_the_origin(self):
        # the zeta difference lost ~1e-11 relative at the first node here;
        # the two-term expansion is exact to O(x^4) ~ 1e-22 relative
        grid = make_grid(161999, 40000.0)
        r = grid.r[:8]
        x = r / (2.0 * grid.r_max)
        for power in (4.0, 6.0):
            q = power - 1.0
            leading = -2.0 * x * (q * zeta(q + 1.0)
                                  + binom(q + 2.0, 3.0) * zeta(q + 3.0) * x**2)
            expected = (2.0 * grid.r_max) ** (-q) * leading / r
            np.testing.assert_allclose(_image_sum(r, grid.r_max, power), expected,
                                       rtol=1e-14, atol=0.0)

    def test_built_lazily_once_per_grid_and_read_only(self, gauss_small):
        config = SolverConfig(n=2047, r_max=61.0)
        _grid_images.cache_clear()
        v = gauss_small.resampled(make_grid(2047, 61.0))
        assert _grid_images.cache_info().currsize == 0
        first = solve_fixed_e(v, 0.5, config)
        misses = _grid_images.cache_info().misses
        twin = gauss_small.resampled(make_grid(2047, 61.0))
        second = solve_fixed_e(twin, 0.5, config, u0=first.u)
        assert second.grid is not first.grid
        assert _grid_images.cache_info().misses == misses == 1
        fields, mass = _grid_images(second.grid)
        assert fields is _grid_images(first.grid)[0]
        assert not fields.flags.writeable and not mass.flags.writeable
        with pytest.raises(ValueError):
            fields[0, 0] = 0.0
