import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.fft import dst
from scipy.special import binom, zeta

from bosegas import (ConfigurationError, CROSS_VALIDATED, FOURIER, MONOTONE,
                     ExplicitSolutionSpec, InvariantViolation, SolverConfig,
                     explicit_potential, gaussian_potential, rho_prime,
                     rho_prime_fd, solve_fixed_e, solve_fixed_rho, sweep,
                     u_prime, u_prime_integral)
from bosegas import grids, operators, solver
from bosegas.grids import POSITION, RadialField, fast_grid_size, make_grid
from bosegas.potentials import QualityWarning
from bosegas.errors import ConvergenceError
from bosegas.solver import (_fourier_iteration, _grid_images, _image_sum,
                            _monotone_iteration)

from conftest import exp_table


def record_newton_solves(monkeypatch):
    """Wrap both Newton kernels, ``Resolvent.solve`` (CG: the K_e v solve and
    the fallback steps) and ``Resolvent.solve_rank_one`` (GMRES: every other
    step); returns the list they fill with (iterations, RadialFields built)
    per solve that ran."""
    post_init, inits, solves = RadialField.__post_init__, [0], []

    def counted(field):
        inits[0] += 1
        post_init(field)

    monkeypatch.setattr(RadialField, "__post_init__", counted)
    for name in ("solve", "solve_rank_one"):
        def recorded(*args, kernel=getattr(operators.Resolvent, name)):
            before = inits[0]
            out = kernel(*args)
            if out[1] is not None:
                solves.append((out[1].iterations, inits[0] - before))
            return out
        monkeypatch.setattr(operators.Resolvent, name, recorded)
    return solves


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

    def test_violation_names_the_failed_bracket_half(self):
        # rho = 5.14e-3 against 4e/||v||_1 = 3.59e-3; the lower half holds
        config = SolverConfig(n=4095, r_max=100.0)
        state = solve_fixed_e(gaussian_potential(10.0, 1.0, config.grid_for(0.05)),
                              0.05, config)
        with pytest.raises(InvariantViolation, match="con4B_high") as info:
            state.require_invariants()
        assert "con4B_low" not in str(info.value)

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

    @pytest.mark.parametrize("scheme, stall, label", [
        (FOURIER, False, FOURIER), (FOURIER, True, MONOTONE + "(fallback)"),
        (MONOTONE, False, MONOTONE), (CROSS_VALIDATED, False, CROSS_VALIDATED)])
    def test_solve_record(self, gauss_small, monkeypatch, scheme, stall, label):
        # what _solve returns for each scheme; a stall window of 0 makes the
        # k-space iteration hand over after its first step
        runs = {}
        for name in ("_fourier_iteration", "_monotone_iteration"):
            def recording(*args, inner=getattr(solver, name), name=name):
                runs[name] = inner(*args)
                return runs[name]
            monkeypatch.setattr(solver, name, recording)
        if stall:
            monkeypatch.setattr(solver, "_STALL_WINDOW", 0)
        config = SolverConfig(n=2047, r_max=60.0, scheme=scheme)
        v = gauss_small.resampled(config.grid_for(0.3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solved = solver._solve(v, 0.3, config, None)
        assert [str(w.message) for w in caught] == (
            ["k-space iteration stalled; falling back to the monotone scheme"] if stall else [])
        newton = runs.get("_monotone_iteration")
        assert solved.scheme_used == label
        assert (solved.monotone_iterates is None) == (newton is None)
        assert (solved.cross_check is None) == (scheme != CROSS_VALIDATED)
        assert solved.history[-1] <= solver._OUTER_TOL
        if scheme == CROSS_VALIDATED:
            fourier = runs["_fourier_iteration"]
            assert solved.iterations == fourier.iterations + newton.iterations
            assert solved.u is fourier.u and solved.rho == fourier.rho
            assert solved.monotone_iterates and solved.cross_check <= 1e-6

    def test_fourier_matches_monotone_rho(self, gauss_small):
        config = SolverConfig(n=2047, r_max=60.0)
        grid = config.grid_for(0.3)
        v = gauss_small.resampled(grid)
        fourier = _fourier_iteration(v, 0.3, grid, None)
        newton = _monotone_iteration(v, 0.3, grid)
        assert newton.monotone_iterates
        assert abs(fourier.rho - newton.rho) / fourier.rho < 5e-9
        assert np.max(np.abs(fourier.u - newton.u)) < 1e-8

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
        config = SolverConfig(n=8191, r_max=400.0)
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
        grid = gauss_small.grid
        iterates = []
        inner = solver._constraint_integral

        def recording(v, u_values, grid):
            iterates.append(u_values.copy())
            return inner(v, u_values, grid)

        u_f = _fourier_iteration(gauss_small, 0.3, grid, None).u
        monkeypatch.setattr(solver, "_constraint_integral", recording)
        newton = _monotone_iteration(gauss_small, 0.3, grid)
        assert newton.monotone_iterates
        assert len(iterates) == newton.iterations + 1
        assert not np.any(iterates[0])                  # u_0 = 0
        for prev, cur in zip(iterates, iterates[1:]):
            assert np.min(cur - prev) >= -1e-9
            assert np.max(cur - u_f) <= 1e-9

    def test_step_count(self, gauss_small):
        # the Picard construction took more than 100 steps here
        newton = _monotone_iteration(gauss_small, 0.3, gauss_small.grid)
        assert newton.iterations <= 12
        assert newton.history[-1] <= solver._OUTER_TOL

    def test_newton_solves_build_no_fields(self, gauss_small, monkeypatch):
        # the Newton solves pass raw arrays, so no solve builds a RadialField;
        # width-2 and width-3 Gaussians (387 and 581 nodes, over the
        # capacitance budget) keep the iteration counts apart
        potentials = [gaussian_potential(1.0, width, gauss_small.grid) for width in (2.0, 3.0)]
        solves = record_newton_solves(monkeypatch)
        for v in potentials:
            _monotone_iteration(v, 0.3, v.grid)
        assert len({iterations for iterations, _ in solves}) > 1
        assert {fields for _, fields in solves} == {0}

    def test_failed_tail_step_keeps_newton_iterate(self, gauss_small, monkeypatch):
        # a converged Newton solve never turns into an error at its last step
        iterates = []
        inner = solver._constraint_integral

        def recording(v, u_values, grid):
            iterates.append(u_values.copy())
            return inner(v, u_values, grid)

        def failing_map(v, e, grid):
            def step(u, history):
                raise InvariantViolation("radicand went negative")
            return step

        polished = _monotone_iteration(gauss_small, 0.3, gauss_small.grid)
        monkeypatch.setattr(solver, "_constraint_integral", recording)
        monkeypatch.setattr(solver, "_kspace_map", failing_map)
        with pytest.warns(QualityWarning, match="keeping the Newton iterate"):
            newton = _monotone_iteration(gauss_small, 0.3, gauss_small.grid)
        np.testing.assert_array_equal(newton.u, iterates[-1])
        assert newton.rho == polished.rho
        assert newton.history[-1] <= solver._OUTER_TOL

    def test_strong_newton_takes_few_cg_iterations(self, monkeypatch):
        # 88 CG iterations per solve under the kM^-1 preconditioner; v on 155
        # nodes is now inverted exactly, whatever its amplitude
        solves = record_newton_solves(monkeypatch)
        config = SolverConfig(n=16383, r_max=600.0, scheme=MONOTONE)
        grid = config.grid_for(0.01)
        newton = _monotone_iteration(gaussian_potential(1e4, 1.0, grid), 0.01, grid)
        assert newton.monotone_iterates
        assert np.mean([iterations for iterations, _ in solves]) <= 3.0
        assert newton.rho == pytest.approx(3.8902908552506174e-04, rel=1e-12)

    @pytest.mark.parametrize("n", [51199, 71999])
    def test_newton_tail_normalizes(self, n):
        # Newton stopped with a uniform ~3.5e-13 error in u, which int u over
        # r_max = 400/sqrt(e) turned into |rho int u - 1| = 7.5e-5; the final
        # closed-form step brings it to ~1e-11 with the same rho
        e = 1e-3
        config = SolverConfig(n=n, r_max=400.0 / np.sqrt(e), scheme=MONOTONE)
        state = solve_fixed_e(gaussian_potential(100.0, 1.0, config.grid_for(e)), e, config)
        row = state.check_invariants()["intu"]
        assert row.passed, row.lhs

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
            _fourier_iteration(v, 0.01, grid, None)
        history = info.value.history
        assert len(history) < solver._MAX_OUTER
        assert np.argmin(history) < len(history) - solver._STALL_WINDOW
        with pytest.warns(QualityWarning, match="falling back"):
            state = solve_fixed_e(v, 0.01, config)
        assert state.scheme_used.endswith("(fallback)")


def newton_step_system(v, e, grid, u, rho):
    """(resolvent, multiplier, R(u), u*u) of the Newton step at (u, rho), as
    ``_monotone_iteration`` forms them."""
    v_vals = v.samples.values
    u_hat, conv, lap4e = solver._spectral_terms(RadialField(grid, u, POSITION), e)
    multiplier = grid.k**2 + 4.0 * e - 4.0 * e * rho * u_hat
    residual = v_vals + 2.0 * e * rho * conv.values - lap4e.values - v_vals * u
    return (operators.Resolvent(grid, v, multiplier), multiplier, residual,
            conv.values)


def sherman_morrison_step(v, grid, rho, resolvent, multiplier, residual, conv):
    """(d, delta): the Newton step by two CG solves and Sherman-Morrison."""
    v_vals = v.samples.values
    a, _ = resolvent.solve(residual, multiplier)
    b, _ = resolvent.solve(conv, multiplier)
    delta = 1.0 - rho**2 * solver._s_moment(v, v_vals * b, grid, 0)
    return a + rho**2 * solver._s_moment(v, v_vals * a, grid, 0) / delta * b, delta


def sherman_morrison_newton(v, e, grid):
    """(rho, max|d| per step) of monotone Newton with every step by
    ``sherman_morrison_step``, the arithmetic the fallback branch must keep
    bit for bit."""
    d = operators.apply_Ke(v.samples, e, v)[0].values
    u = np.zeros(grid.n)
    history = []
    for it in range(1, solver._MAX_OUTER + 1):
        if it > 1:
            d, _ = sherman_morrison_step(v, grid, rho,
                                         *newton_step_system(v, e, grid, u, rho))
        history.append(float(np.max(np.abs(d))))
        u = u + d
        rho = solver._density(e, solver._constraint_integral(v, u, grid), [])
        if history[-1] <= solver._OUTER_TOL:
            return rho, history


class TestNewtonStep:
    @pytest.mark.parametrize("make, corrected", [
        (lambda grid: explicit_potential(ExplicitSolutionSpec(1.0, 0.5, 1.0), grid), False),
        (lambda grid: gaussian_potential(1.0, 1.0, grid), True),
    ])
    def test_gmres_step_is_the_sherman_morrison_step(self, make, corrected, monkeypatch):
        # the r^-6 tail puts every node on the support of v (no correction),
        # the Gaussian 232 nodes (corrected); solved to INNER_TOL, the step
        # is the exact one, and at the production forcing it stops there
        grid = make_grid(4095, 100.0)
        v = make(grid)
        u = 0.5 * _fourier_iteration(v, 0.3, grid, None).u
        rho = solver._density(0.3, solver._constraint_integral(v, u, grid), [])
        system = newton_step_system(v, 0.3, grid, u, rho)
        resolvent, multiplier, residual, conv = system
        assert (resolvent.support.size > 0) == corrected
        ell = rho**2 * solver._moment_weights(v, grid) * v.samples.values
        _, report, _ = resolvent.solve_rank_one(residual, multiplier, conv, ell)
        assert report.converged and report.final_residual <= operators.NEWTON_FORCING
        monkeypatch.setattr(operators, "NEWTON_FORCING", operators.INNER_TOL)
        d, report, delta_M = resolvent.solve_rank_one(residual, multiplier, conv, ell)
        assert report.converged
        reference, delta = sherman_morrison_step(v, grid, rho, *system)
        assert np.max(np.abs(d - reference)) <= 1e-10 * np.max(np.abs(reference))
        assert 0.0 < delta_M <= delta

    def test_wide_strong_support_takes_the_fallback(self, monkeypatch):
        # amp 1e3 on 388 nodes, over the capacitance budget: M = kM misses v,
        # delta_M is -3.8 to -7.1 while delta is near 1, so every step runs
        # the two CG solves
        grid = make_grid(4095, 60.0)
        v = gaussian_potential(1e3, 1.0, grid)
        reference = sherman_morrison_newton(v, 0.05, grid)
        kernel, deltas = operators.Resolvent.solve_rank_one, []

        def recorded(*args):
            out = kernel(*args)
            deltas.append(out[2])
            return out

        monkeypatch.setattr(operators.Resolvent, "solve_rank_one", recorded)
        newton = _monotone_iteration(v, 0.05, grid)
        assert newton.monotone_iterates
        assert len(deltas) == newton.iterations - 1
        assert max(deltas) <= 0.0
        assert (newton.rho, newton.history) == reference

    def test_nonpositive_denominator_is_a_convergence_error(self, gauss_small, monkeypatch):
        # delta_M <= 0 sends each step to the two CG solves; inflating their
        # output makes delta = 1 - rho^2 int v b negative on step 2
        monkeypatch.setattr(operators.Resolvent, "solve_rank_one",
                            lambda self, *args: (None, None, 0.0))
        cg, calls = operators.Resolvent.solve, [0]

        def inflated(*args):
            calls[0] += 1
            w, report = cg(*args)
            return (w if calls[0] == 1 else 1e6 * w), report    # the first is K_e v

        monkeypatch.setattr(operators.Resolvent, "solve", inflated)
        with pytest.raises(ConvergenceError,
                           match="Newton denominator .* is not positive on step 2"):
            _monotone_iteration(gauss_small, 0.3, gauss_small.grid)

    def test_unconverged_gmres_is_a_convergence_error(self, monkeypatch):
        # the r^-6 tail leaves v off the preconditioner's support, so GMRES
        # needs 4 iterations at step 2 to reach NEWTON_FORCING; a two-vector
        # basis cannot
        grid = make_grid(4095, 100.0)
        v = explicit_potential(ExplicitSolutionSpec(1.0, 0.5, 1.0), grid)
        monkeypatch.setattr(operators, "_KRYLOV_MAX", 2)
        with pytest.raises(ConvergenceError, match="Newton GMRES solve on step 2 stalled"):
            _monotone_iteration(v, 0.3, grid)

    @pytest.mark.parametrize("make, support", [
        (lambda grid: explicit_potential(ExplicitSolutionSpec(1.0, 0.5, 1.0), grid), 4095),
        (exp_table, 1228),
    ])
    def test_inexact_steps_keep_the_exact_newton(self, make, support, monkeypatch):
        # uncorrected supports, where GMRES stops at NEWTON_FORCING well short
        # of INNER_TOL: the iterates still rise, and the step count and rho are
        # those of steps solved to INNER_TOL at under half the iterations
        grid = make_grid(4095, 100.0)
        v = make(grid)
        values = v.samples.values
        assert np.count_nonzero(values > operators._SUPPORT_RTOL * np.max(values)) == support
        kernel = operators.Resolvent.solve_rank_one

        def run():
            steps = []

            def recorded(self, *args):
                out = kernel(self, *args)
                assert self.support.size == 0 and out[1] is not None
                steps.append((out[1].iterations, float(np.min(out[0]))))
                return out

            monkeypatch.setattr(operators.Resolvent, "solve_rank_one", recorded)
            return _monotone_iteration(v, 0.3, grid), steps

        inexact, steps = run()
        monkeypatch.setattr(operators, "NEWTON_FORCING", operators.INNER_TOL)
        exact, exact_steps = run()
        assert inexact.monotone_iterates
        assert min(low for _, low in steps) >= -1e-10
        assert inexact.iterations == exact.iterations
        assert inexact.rho == pytest.approx(exact.rho, rel=1e-12, abs=0.0)
        assert 2 * sum(it for it, _ in steps) <= sum(it for it, _ in exact_steps)

    @pytest.mark.parametrize("make", [
        lambda grid: gaussian_potential(1.0, 1.0, grid),
        lambda grid: explicit_potential(ExplicitSolutionSpec(1.0, 0.5, 1.0), grid),
        exp_table,
    ])
    def test_moment_weights_reproduce_s_moment(self, make):
        grid = make_grid(4095, 100.0)
        v = make(grid)
        weights = solver._moment_weights(v, grid)
        r = grid.r
        for s in (v.samples.values, v.samples.values * np.exp(-0.1 * r),
                  (1.0 + r * r) ** -3.0, (1.0 + r * r) ** -4.0 * np.cos(r)):
            moment = solver._s_moment(v, s, grid, 0)
            assert abs(np.dot(weights, s) - moment) <= 1e-13 * abs(moment)


class TestAndersonIteration:
    def test_cold_iteration_count(self, gauss_small):
        # 13 iterations under the damped fixed point, 6 with Anderson mixing
        fourier = _fourier_iteration(gauss_small, 0.3, gauss_small.grid, None)
        assert fourier.iterations <= 8
        assert fourier.history[-1] <= solver._OUTER_TOL

    def test_warm_fd_resolve_count(self, gauss_small, monkeypatch):
        # 8 k-space steps per warm re-solve from u under the damped fixed
        # point, 5 with Anderson mixing; from the tangent u +- de u' each takes 2
        config = SolverConfig(n=2047, r_max=60.0)
        state = solve_fixed_e(gauss_small, 0.3, config)
        counts = []
        inner = solver._fourier_iteration

        def counting(*args):
            out = inner(*args)
            counts.append(out.iterations)
            return out

        monkeypatch.setattr(solver, "_fourier_iteration", counting)
        rho_prime_fd(state)
        assert len(counts) == 2
        hi, lo = counts
        assert hi <= 2
        assert lo <= 2

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
        fourier = _fourier_iteration(v, 0.01, grid, None)
        forward = clamped[::2]           # r*S; the odd calls carry k*uhat
        assert len(forward) == fourier.iterations
        assert any(forward[2:])          # from iteration 3 on, u is a mixed iterate
        assert np.all(np.isfinite(fourier.u)) and np.isfinite(fourier.rho)
        assert np.all(np.isfinite(fourier.history))
        assert fourier.iterations < solver._MAX_OUTER

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
            _fourier_iteration(gauss_small, 0.3, gauss_small.grid, None)
        assert len(info.value.history) == 2 and np.isnan(info.value.history[-1])
        calls[0] = 0
        with pytest.warns(QualityWarning, match="falling back"):
            state = solve_fixed_e(gauss_small, 0.3, config)
        assert state.scheme_used.endswith("(fallback)")
        state.require_invariants()


def reference_kspace_step(v, e, grid, u):
    """(G(u), rho) of the closed-form map on full-length arrays, one numpy
    pass per operation, by scipy's DST-I."""
    r, k = grid.r, grid.k
    s = np.maximum((1.0 - u) * v.samples.values, 0.0)
    rho = 2.0 * e / solver._s_moment(v, s, grid, 0)
    y = dst(r * s, type=1) * (2.0 * np.pi * grid.dr / k) * (rho / (2.0 * e))
    a = k**2 / (4.0 * e) + 1.0
    rho_u_hat = y / (a + np.sqrt(np.maximum(a * a - y, 0.0)))
    return dst(k * rho_u_hat / rho, type=1) * grid.dk / (4.0 * np.pi**2 * r), rho


class TestKspaceMap:
    @pytest.mark.parametrize("family", ["gaussian", "tabulated", "explicit"])
    def test_matches_full_length_arithmetic(self, family, explicit_spec):
        # gaussian and tabulated v are exactly 0 from node L < n on, the
        # explicit r^-6 tail is not (L = n, tail weights in the integral)
        grid = make_grid(4095, 100.0)
        v = {"gaussian": lambda: gaussian_potential(1.0, 1.0, grid),
             "tabulated": lambda: exp_table(grid),
             "explicit": lambda: explicit_potential(explicit_spec, grid)}[family]()
        assert (v.extent < grid.n) == (family != "explicit")
        assert not np.any(v.samples.values[v.extent:]) and v.samples.values[v.extent - 1] > 0
        step = solver._kspace_map(v, 1.0, grid)
        for u in (np.zeros(grid.n), 0.5 / (1.0 + grid.r**2) ** 2,
                  solve_fixed_e(v, 1.0, SolverConfig(n=4095, r_max=100.0)).u.values):
            g, rho = step(u, [])
            g_ref, rho_ref = reference_kspace_step(v, 1.0, grid, u)
            assert abs(rho - rho_ref) <= 1e-14 * rho_ref
            assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref))

    def test_radicand_violation_raises(self, explicit_spec):
        # the tail fit weighs node j at r_max/2 negatively: S there shrinks
        # int S to 1% of its bulk while Shat(k) at small k grows, so
        # (rho/2e) Shat exceeds a^2 = 1 + k^2/4e near k = 0
        grid = make_grid(4095, 100.0)
        v = explicit_potential(explicit_spec, grid)
        weights = solver._moment_weights(v, grid)
        j = int(np.argmin(weights))
        assert weights[j] < 0
        bulk = np.dot(weights, v.samples.values)
        u = np.zeros(grid.n)
        u[j] = 1.0 - 0.99 * bulk / -weights[j] / v.samples.values[j]
        step = solver._kspace_map(v, 1.0, grid)
        with pytest.raises(InvariantViolation, match="radicand of the k-space root went "
                                                     "negative at k = "):
            step(u, [])


def record_solves(monkeypatch):
    """Wrap ``solver._solve``; returns the list of e it is called at."""
    solves, inner = [], solver._solve

    def counting(*args):
        solves.append(args[1])
        return inner(*args)

    monkeypatch.setattr(solver, "_solve", counting)
    return solves


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
        # the bracket and Brent probes keep (u, rho) only, and each e is solved
        # once although brentq re-evaluates the bracket ends; the root (e, rho)
        # is the one found when every probe built a state
        target = 0.05
        config = SolverConfig(n=4095, r_max=400.0 / np.sqrt(2.0 * target))
        v = gaussian_potential(1.0, 1.0, config.grid_for(2.0 * target))
        builds, inner_build = [], solver._build_state

        def counting_build(*args):
            builds.append(args[1])
            return inner_build(*args)

        monkeypatch.setattr(solver, "_build_state", counting_build)
        solves = record_solves(monkeypatch)
        state = solve_fixed_rho(v, target, config)
        assert builds == [state.e]
        assert len(solves) == len(set(solves))
        assert state.e == pytest.approx(0.11921230961654893, rel=1e-12)
        assert state.rho == pytest.approx(0.049999999999993244, rel=1e-12)
        state.require_invariants()

    def test_strong_root_below_the_first_bracket(self, monkeypatch):
        # amp 100 breaks rho <= 4e/||v||_1, so the root lies below the first
        # lower end rho ||v||_1 / 4; a 25-point scan missed it in 27 solves
        target, config = 1e-3, SolverConfig(n=4095, r_max=300.0)
        v = gaussian_potential(100.0, 1.0, config.grid_for(1.0))
        solves = record_solves(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", QualityWarning)   # k-space stalls
            state = solve_fixed_rho(v, target, config)
        assert len(solves) < 27
        assert state.e < target * v.norms.v_l1 / 4.0
        assert abs(state.rho - target) / target <= solver._INVERSION_RTOL
        failed = [row.name for row in state.check_invariants().values() if not row.passed]
        assert failed == ["con4B_high"]

    def test_amp_10_root_keeps_its_value_in_fewer_solves(self, monkeypatch):
        # the scan found this root below the first bracket in 44 solves
        config = SolverConfig(n=4095, r_max=300.0)
        v = gaussian_potential(10.0, 1.0, config.grid_for(1.0))
        solves = record_solves(monkeypatch)
        state = solve_fixed_rho(v, 1e-3, config)
        assert len(solves) <= 26
        assert state.e == pytest.approx(0.007908655517027461, rel=1e-10)

    def test_straddling_bracket_keeps_its_bits(self):
        # probed e_lo from u = 0, then e_hi warm from it, then brentq
        config = SolverConfig(n=4095, r_max=200.0)
        v = gaussian_potential(3.0, 1.0, config.grid_for(1.0))
        state = solve_fixed_rho(v, 1e-2, config)
        assert (state.e, state.rho) == (0.05194266007554688, 0.0099999999999183)

    @pytest.mark.parametrize("rho_of_e, error, match", [
        (lambda e, v1: e / v1, InvariantViolation, "con4B_low"),     # below 2e/||v||_1
        (lambda e, v1: 1.0, ConvergenceError, "at every e tried"),
    ], ids=["misintegrated", "never_below"])
    def test_bracket_failures(self, monkeypatch, gauss_small, rho_of_e, error, match):
        v1, probes = gauss_small.norms.v_l1, []

        def fake_solve(v, e, config, u0):
            probes.append(e)
            return solver.Solved(u=np.zeros(v.grid.n), rho=rho_of_e(e, v1),
                                 iterations=0, scheme_used="fake", history=[])

        monkeypatch.setattr(solver, "_solve", fake_solve)
        with pytest.raises(error, match=match) as caught:
            solve_fixed_rho(gauss_small, 0.1, SolverConfig(n=2047, r_max=60.0))
        if error is ConvergenceError:
            assert len(probes) == solver._LOWER_END_PROBES
            assert f"{min(probes):.3g}" in str(caught.value)

    def test_rejects_nonpositive_target(self, gauss_small):
        with pytest.raises(ConfigurationError):
            solve_fixed_rho(gauss_small, 0.0)


class TestDerivatives:
    def test_rho_prime_positive_and_bounded(self, state_gauss):
        rp = rho_prime(state_gauss)
        assert 0.0 < rp <= 16.0 / state_gauss.potential.norms.v_l1

    def test_rho_prime_against_centered_fd(self, state_gauss):
        rp = rho_prime(state_gauss)
        fd = rho_prime_fd(state_gauss)
        assert rp == pytest.approx(fd, rel=0.01)

    def test_rho_prime_denominator_in_unit_interval(self, state_explicit):
        kv = state_explicit.frakKe_v.values
        conv = state_explicit.u_conv.values
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

    @pytest.mark.parametrize("e, config", [(0.3, SolverConfig(n=2047, r_max=60.0)),
                                           (0.1, SolverConfig(n=4095))])
    def test_fd_does_not_depend_on_the_tangent_start(self, gauss_small, monkeypatch, e,
                                                      config):
        # each re-solve iterates to its own fixed point, so a wrong u', or none
        # (a start from u), moves the difference only by the stopping rule's
        # error; a 1% error in u' moves it by ~5e-8
        state = solve_fixed_e(gauss_small.resampled(config.grid_for(e)), e, config)
        tangent = rho_prime_fd(state)
        exact = solver.u_prime
        for scale in (0.9, 0.0):
            monkeypatch.setattr(solver, "u_prime", lambda st, rp, scale=scale: RadialField(
                st.grid, scale * exact(st, rp).values, POSITION))
            started = rho_prime_fd(state)
            assert abs(started - tangent) <= 1e-6 * abs(tangent)


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
            assert row.error is not None and "intu" in row.error
            assert row.state.normalization_defect() > 1e-6
        assert all(row.error is None for row in record.rows[3:])
        assert record.converged_rows == record.rows[3:]

    def test_warm_started_sweep_normalization(self, gauss_small):
        record = sweep(gauss_small, np.geomspace(0.05, 0.3, 4), SolverConfig(n=4095))
        assert all(row.state.normalization_defect() <= 1e-6 for row in record.rows)

    def test_fd_check_builds_one_state_per_row(self, gauss_small, monkeypatch):
        # the FD pair of each row keeps rho only and starts from the tangent
        # u +- de u': 3 states and 106 DST-I calls
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
        assert transforms[0] <= 110
        for row in record.rows:
            assert row.rho_prime_analytic == pytest.approx(row.rho_prime_fd, rel=1e-3)

    def test_fd_check_leaves_the_rows_alone(self, gauss_small, monkeypatch):
        # the FD pair runs after its row is solved: the rows' rho, analytic
        # rho' and warm-started step counts are those of a sweep without it
        e_values = [0.1, 0.2, 0.4]
        inner = solver._fourier_iteration

        def run(fd_check):
            steps = {}

            def counting(v, e, grid, u0):
                out = inner(v, e, grid, u0)
                if e in e_values:
                    steps[e] = out.iterations
                return out

            monkeypatch.setattr(solver, "_fourier_iteration", counting)
            record = sweep(gauss_small, e_values, SolverConfig(n=4095), fd_check=fd_check)
            assert all(row.error is None for row in record.rows)
            return record, steps

        checked, checked_steps = run(True)
        plain, plain_steps = run(False)
        for column in ("rho", "rho_prime_analytic"):
            assert np.array_equal(checked.column(column), plain.column(column))
        assert checked_steps == plain_steps and len(plain_steps) == 3

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

    def test_explicit_r4_amplitude_is_the_closed_form(self, state_explicit, explicit_spec):
        # u = c/(1+b^2 r^2)^2 at rho = b^3/(c pi^2): rho u ~ r^-4/(pi^2 b)
        assert state_explicit.rho * state_explicit.tail.c4 == pytest.approx(
            1.0 / (np.pi**2 * explicit_spec.b), rel=1e-6)

    @pytest.mark.parametrize("weight_power", [0, 2])
    def test_tail_weights_are_the_least_squares_fit(self, explicit_spec, weight_power):
        # reference: fit S ~ c1 r^-6 + c2 r^-8 over r >= r_max/2 and integrate
        # 4 pi r^(2+w) times the fit from r_max to infinity
        grid = make_grid(4095, 100.0)
        v = explicit_potential(explicit_spec, grid)
        sel, R, w = grid.r >= 0.5 * grid.r_max, grid.r_max, weight_power
        r = grid.r[sel]
        weights = solver._tail_weights(grid, 6.0, w)
        for s in (v.samples.values, (1.0 + grid.r**2) ** -3.0 * (1.0 + np.cos(grid.r)),
                  v.samples.values * (1.0 - 0.5 / (1.0 + grid.r**2) ** 2)):
            (c1, c2), *_ = np.linalg.lstsq(np.column_stack([r**-6.0, r**-8.0]), s[sel],
                                           rcond=None)
            tail = 4.0 * np.pi * (c1 * R ** (w - 3.0) / (3.0 - w)
                                  + c2 * R ** (w - 5.0) / (5.0 - w))
            assert np.dot(weights, s[sel]) == pytest.approx(tail, rel=1e-12)
            assert solver._s_moment(v, s, grid, w) == pytest.approx(
                grid.integrate(grid.r**w * s) + tail, rel=1e-15)

    def test_v_tail_fitted_once_per_weight_power(self, explicit_spec, monkeypatch):
        # the fit S ~ c1 r^-6 + c2 r^-8 is one weight vector per grid and
        # weight power (0: the constraint and Newton's l; 2: beta), not one
        # least-squares solve per k-space step, Newton step or state; no other
        # test uses this grid, so its weights are not cached yet
        config = SolverConfig(n=4095, r_max=100.5, scheme=CROSS_VALIDATED)
        v = explicit_potential(explicit_spec, config.grid_for(1.0))
        lstsq, fits = np.linalg.lstsq, []

        def counting(a, b, rcond=None):
            if min(a.shape) == 2 < max(a.shape):     # not Anderson's 2 x 2 Gram matrix
                fits.append(a.shape)
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        state = solve_fixed_e(v, 1.0, config)
        solve_fixed_e(v, 0.9, config, u0=state.u)
        assert state.iterations > 10
        assert len(fits) == 2

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
