import numpy as np
import pytest
from scipy.integrate import quad

from bosegas import (ConvergenceError, GridMismatchError, InvariantViolation, FREQUENCY, POSITION, RadialField,
                     apply_frakKe, apply_Ge, apply_Ke, apply_Ye, evaluate,
                     fourier_radial, gaussian_potential, inverse_fourier_radial,
                     make_grid, symmetry_check, xi_flatness)
from bosegas import operators
from bosegas.operators import (INNER_TOL, LinearSolveReport, OperatorContext, Resolvent,
                               _SUPPORT_MAX, frakKe_l2_bound)
from bosegas.observables import random_nonneg_fields
from bosegas.solver import SolverConfig, solve_fixed_e

from conftest import gaussian_bumps, sampled


def Ge_kernel_oracle(r0, e, profile, upper=30.0):
    """(Y_4e * psi)(r0) by direct bipolar quadrature of the Yukawa kernel."""
    se = np.sqrt(e)

    def shell(s):
        lo, hi = abs(r0 - s), r0 + s
        return (np.exp(-2 * se * lo) - np.exp(-2 * se * hi)) / (8 * np.pi * se)

    val, _ = quad(lambda s: 2 * np.pi / r0 * s * profile(s) * shell(s),
                  0.0, upper, limit=200)
    return val


def forward_residual(w, psi, multiplier, v_values):
    """||(kM + v) w - psi|| / ||psi||, kM applied by an independent transform pair."""
    w_hat = fourier_radial(w)
    kMw = inverse_fourier_radial(
        RadialField(w.grid, w_hat.values * multiplier, FREQUENCY))
    r = kMw.values + v_values * w.values - psi.values
    return np.sqrt(w.grid.integrate(r * r)) / psi.norm_l2()


def reference_cg(psi, v_values, multiplier, tol, support=()):
    """CG on fields in the r^2 dr inner product, preconditioned by the inverse
    of M = kM + v on the nodes ``support``: kM^-1 by the public transforms,
    the rest by Woodbury, M^-1 s = kM^-1 (s - P x), x = (I + D G)^-1 D (kM^-1 s)_P,
    with G = (kM^-1)_PP read from transforms of unit spikes."""
    g = psi.grid

    def kM_inv(x):
        x_hat = fourier_radial(RadialField(g, x, POSITION))
        return inverse_fourier_radial(
            RadialField(g, x_hat.values / multiplier, FREQUENCY)).values

    nodes = np.asarray(support, dtype=int)
    d = v_values[nodes]
    G = np.array([kM_inv(np.eye(1, g.n, j)[0])[nodes] for j in nodes]).T
    capacitance = np.eye(nodes.size) + d[:, None] * G

    w, p, kMp, r = np.zeros(g.n), np.zeros(g.n), np.zeros(g.n), psi.values.copy()
    rz_prev = np.inf
    for it in range(1, 1000):
        z = kM_inv(r)
        s = r.copy()                    # kM z once z = M^-1 r
        if nodes.size:
            s[nodes] -= np.linalg.solve(capacitance, d * z[nodes])
            z = kM_inv(s)
        rz = g.integrate(r * z)
        p = z + rz / rz_prev * p
        kMp = s + rz / rz_prev * kMp
        Ap = kMp + v_values * p
        alpha = rz / g.integrate(p * Ap)
        w, r = w + alpha * p, r - alpha * Ap
        if np.sqrt(g.integrate(r * r)) / psi.norm_l2() <= tol:
            return w, it
        rz_prev = rz


def count_dst1(monkeypatch):
    """A one-element list that counts the kernel's DST-I calls from now on."""
    real, calls = operators.dst1, [0]

    def counted(x):
        calls[0] += 1
        return real(x)

    monkeypatch.setattr(operators, "dst1", counted)
    return calls


def kM_only_cg(grid, psi, v_values, multiplier, tol, max_iter):
    """The raw kernel preconditioned by kM^-1 alone, two DST-I per iteration:
    what Resolvent.solve must still compute, bit for bit, when m = 0."""
    res_y = grid.r * psi
    psi_sq = float(np.dot(res_y, res_y))
    q = 1.0 / (2.0 * (grid.n + 1) * multiplier)
    y, p, kMp, Ap = (np.zeros(grid.n) for _ in range(4))
    rz_prev = np.inf
    for it in range(1, max_iter + 1):
        z = operators.dst1(operators.dst1(res_y) * q)
        rz = float(np.dot(res_y, z))
        beta = rz / rz_prev
        p *= beta
        p += z
        kMp *= beta
        kMp += res_y
        np.multiply(v_values, p, out=Ap)
        Ap += kMp
        alpha = rz / float(np.dot(p, Ap))
        y += alpha * p
        res_y -= alpha * Ap
        res = float(np.sqrt(np.dot(res_y, res_y) / psi_sq))
        if res <= tol:
            return y / grid.r, LinearSolveReport(it, res, True)
        rz_prev = rz


@pytest.fixture(scope="module")
def wide_context(state_gauss):
    """fK_e context of state_gauss with a width-2 Gaussian, whose support
    (465 nodes) exceeds _SUPPORT_MAX: the kernel runs uncorrected."""
    g = state_gauss.grid
    ctx = OperatorContext(e=state_gauss.e, v=gaussian_potential(1.0, 2.0, g),
                          rho_u_hat=state_gauss.u_hat)
    assert ctx.resolvent.support.size == 0
    return ctx


class TestGe:
    def test_zero(self, grid_small):
        z = RadialField(grid_small, np.zeros(grid_small.n), POSITION)
        assert np.all(apply_Ge(z, 1.0).values == 0.0)

    def test_mass_ratio(self, grid_small):
        # int G_e psi = ||Y_4e||_1 int psi = int psi / (4e)
        psi = RadialField(grid_small, np.exp(-grid_small.r**2), POSITION)
        out = apply_Ge(psi, 1.0)
        assert out.integral() / psi.integral() == pytest.approx(0.25, rel=1e-8)

    def test_against_kernel_quadrature(self):
        g = make_grid(8191, 60.0)
        psi = RadialField(g, np.exp(-g.r**2), POSITION)
        out = apply_Ge(psi, 1.0)
        oracle = Ge_kernel_oracle(1.0, 1.0, lambda s: np.exp(-s * s))
        assert evaluate(out, 1.0) == pytest.approx(oracle, rel=1e-8)

    def test_preserves_sign(self, grid_small):
        psi = RadialField(grid_small, np.exp(-grid_small.r**2), POSITION)
        assert np.min(apply_Ge(psi, 0.3).values) >= 0.0


class TestKe:
    def test_free_case_equals_Ge(self, grid_small):
        v0 = gaussian_potential(1e-300, 1.0, grid_small)   # numerically zero
        psi = RadialField(grid_small, np.exp(-grid_small.r**2), POSITION)
        out, report = apply_Ke(psi, 0.7, v0)
        assert report.converged
        np.testing.assert_allclose(out.values, apply_Ge(psi, 0.7).values,
                                   atol=1e-12)

    def test_forward_residual(self, gauss_small, grid_small, monkeypatch):
        monkeypatch.setattr(operators, "INNER_TOL", 1e-10)
        for i, bump in enumerate(gaussian_bumps(grid_small, seed=3, count=4)):
            psi = RadialField(grid_small, bump, POSITION)
            out, report = apply_Ke(psi, 0.5, gauss_small)
            assert report.converged
            assert report.final_residual <= 1e-8

    def test_true_forward_residual(self, gauss_small, grid_small, monkeypatch):
        monkeypatch.setattr(operators, "INNER_TOL", 1e-10)
        multiplier = grid_small.k**2 + 4.0 * 0.5
        for bump in gaussian_bumps(grid_small, seed=3, count=4):
            psi = RadialField(grid_small, bump, POSITION)
            out, report = apply_Ke(psi, 0.5, gauss_small)
            assert report.converged
            assert forward_residual(out, psi, multiplier,
                                    gauss_small.samples.values) <= 1e-9

    def test_zero_rhs(self, gauss_small, grid_small):
        zero = RadialField(grid_small, np.zeros(grid_small.n), POSITION)
        out, report = apply_Ke(zero, 0.5, gauss_small)
        assert report == LinearSolveReport(0, 0.0, True)
        assert not np.any(out.values)

    def test_breakdown_returns_unconverged(self):
        # at e = 1e300 the preconditioned residual underflows to zero, so
        # p.Ap = 0; the kernel reports a stall instead of dividing by it
        g = make_grid(4095, 4e-148)
        multiplier = g.k**2 + 4e300
        out, report = Resolvent(g, sampled(g, np.ones(g.n)), multiplier).solve(
            np.ones(g.n), multiplier)
        assert not report.converged
        assert np.all(np.isfinite(out))

    def test_overflowing_capacitance_solve_breaks_down(self):
        # at amp 1e300, D^1/2 (kM^-1 v)_P overflows: the Cholesky solve is not
        # finite and the solve stops unconverged instead of raising ValueError
        v = gaussian_potential(1e300, 1.0, make_grid(255, 20.0))
        with np.errstate(over="ignore", invalid="ignore"):
            out, report = apply_Ke(v.samples, 1.0, v)
        assert not report.converged
        assert np.all(np.isfinite(out.values))

    def test_unfactorable_capacitance_is_a_convergence_error(self):
        # v = 1.7e308 on three nodes of a coarse grid overflows C itself
        g = make_grid(31, 1e3)
        v_values = np.zeros(g.n)
        v_values[:3] = 1.7e308
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ConvergenceError, match="capacitance matrix .* cannot be factored"):
            Resolvent(g, sampled(g, v_values), g.k**2 + 4e-10)

    @pytest.mark.parametrize("n", [4095, 12149, 161999])
    def test_corrected_build_takes_one_dst1(self, n, monkeypatch):
        # dst1 of e_0 is 2 sin(pi j/(n+1)), j = 1..n, in closed form: the
        # capacitance column costs one DST-I where it took two
        g = make_grid(n, 0.01 * n)
        v_values = np.zeros(g.n)
        v_values[:3] = 1.0
        multiplier = g.k**2 + 0.4
        inputs, real = [], operators.dst1

        def recorded(x):
            inputs.append(x.copy())
            return real(x)

        monkeypatch.setattr(operators, "dst1", recorded)
        resolvent = Resolvent(g, sampled(g, v_values), multiplier)
        assert resolvent.support.size == 3 and len(inputs) == 1
        unit_hat = inputs[0] / resolvent._kM_inverse_scale(multiplier)
        assert np.max(np.abs(unit_hat - real(np.eye(1, n)[0]))) <= 1e-14

    def test_dominated_by_Ge(self, gauss_small, grid_small):
        psi = RadialField(grid_small, np.exp(-grid_small.r**2), POSITION)
        ke, _ = apply_Ke(psi, 0.5, gauss_small)
        ge = apply_Ge(psi, 0.5)
        assert np.all(ke.values <= ge.values + 1e-10)
        assert np.min(ke.values) >= -1e-10

    def test_u1_brackets_u(self, state_gauss):
        # ||K_e v||_p <= ||u||_p <= 2 ||K_e v||_p on a converged state
        u1, report = apply_Ke(state_gauss.potential.samples, state_gauss.e,
                              state_gauss.potential)
        assert report.converged
        n1 = u1.norm_l2()
        n = state_gauss.u.norm_l2()
        assert n1 <= n <= 2.0 * n1


class TestContext:
    def test_rejects_rho_u_hat_above_one(self, gauss_small, grid_small):
        bad = RadialField(grid_small, np.full(grid_small.n, 1.5), FREQUENCY)
        with pytest.raises(InvariantViolation):
            OperatorContext(e=1.0, v=gauss_small, rho_u_hat=bad)

    def test_rejects_v_on_another_grid(self, state_gauss):
        # v sampled out to r_max = 50 against a rho uhat on the state's grid
        g = state_gauss.grid
        v = gaussian_potential(1.0, 1.0, make_grid(g.n, g.r_max / 2.0))
        with pytest.raises(GridMismatchError):
            OperatorContext(e=state_gauss.e, v=v, rho_u_hat=state_gauss.u_hat)

    def test_multiplier_floor(self, state_gauss):
        m = state_gauss.context.multiplier()
        floor = np.sqrt(8.0 * state_gauss.e) * state_gauss.grid.k
        assert np.all(m >= floor * (1 - 1e-12))


class TestYe:
    def test_zero(self, state_gauss):
        z = RadialField(state_gauss.grid, np.zeros(state_gauss.grid.n), POSITION)
        assert np.all(apply_Ye(z, state_gauss.context).values == 0.0)

    def test_diagonal_round_trip(self, state_gauss):
        # applying the forward multiplier then Y_e is the identity
        ctx = state_gauss.context
        psi = RadialField(state_gauss.grid,
                          np.exp(-state_gauss.grid.r**2), POSITION)
        psi_hat = fourier_radial(psi)
        forward = RadialField(state_gauss.grid,
                              psi_hat.values * ctx.multiplier(), FREQUENCY)
        back = apply_Ye(inverse_fourier_radial(forward), ctx)
        np.testing.assert_allclose(back.values, psi.values, atol=1e-12)

    def test_explicit_state_against_dense_quadrature(self, state_explicit):
        # rho*uhat = e^{-k} exactly, so the multiplier is k^2 + 4(1 - e^{-k})
        v = state_explicit.potential
        grid = state_explicit.grid
        sel = grid.k <= 20.0
        np.testing.assert_allclose(state_explicit.u_hat.values[sel],
                                   np.exp(-grid.k[sel]), atol=3e-7)
        out = apply_Ye(v.samples, state_explicit.context)

        def vhat_quad(k):
            val, _ = quad(lambda r: r * v.profile(r), 0.0, 200.0,
                          weight="sin", wvar=k, limit=400)
            return 4 * np.pi / k * val

        def oracle(r0):
            def integrand(k):
                k = max(k, 1e-9)
                return k * vhat_quad(k) / (k * k + 4.0 * (1.0 - np.exp(-k)))
            val, _ = quad(integrand, 0.0, 60.0, weight="sin", wvar=r0, limit=400)
            return val / (2 * np.pi**2 * r0)

        for r0 in (0.5, 1.0, 3.0):
            assert evaluate(out, r0) == pytest.approx(oracle(r0), rel=2e-4)

    def test_l2_bound_from_multiplier_floor(self, state_gauss):
        # ||Y_e psi||_2 <= || psi_hat / (sqrt(8e) k) ||_2 (k-space quadrature)
        ctx = state_gauss.context
        g = state_gauss.grid
        psi = RadialField(g, np.exp(-g.r**2), POSITION)
        out = apply_Ye(psi, ctx)
        psi_hat = fourier_radial(psi)
        bound_vals = psi_hat.values / (np.sqrt(8 * state_gauss.e) * g.k)
        bound = np.sqrt(g.integrate_k(bound_vals**2))
        assert out.norm_l2() <= bound


class TestFrakKe:
    def test_free_case_equals_Ye(self, state_gauss, grid_small):
        v0 = gaussian_potential(1e-300, 1.0, state_gauss.grid)
        ctx = OperatorContext(e=state_gauss.e, v=v0, rho_u_hat=state_gauss.u_hat)
        psi = RadialField(state_gauss.grid,
                          np.exp(-state_gauss.grid.r**2), POSITION)
        out, report = apply_frakKe(psi, ctx)
        assert report.converged
        np.testing.assert_allclose(out.values, apply_Ye(psi, ctx).values,
                                   atol=1e-12)

    def test_true_forward_residual(self, state_gauss, monkeypatch):
        monkeypatch.setattr(operators, "INNER_TOL", 1e-10)
        ctx = state_gauss.context
        g = state_gauss.grid
        payloads = [state_gauss.potential.samples, state_gauss.u,
                    RadialField(g, np.exp(-(g.r - 1.0) ** 2), POSITION)]
        for psi in payloads:
            out, report = apply_frakKe(psi, ctx)
            assert report.converged
            assert forward_residual(out, psi, ctx.multiplier(),
                                    ctx.v.samples.values) <= 1e-9

    def test_kernel_matches_field_reference(self, state_gauss, wide_context):
        # the raw r*w kernel is the field-level iteration in other variables,
        # with its capacitance matrix read from one kM^-1 column, not spike transforms
        g = state_gauss.grid
        v_values = state_gauss.potential.samples.values
        support = np.flatnonzero(v_values > 1e-14 * np.max(v_values))
        assert 0 < support.size <= _SUPPORT_MAX
        np.testing.assert_array_equal(state_gauss.context.resolvent.support, support)
        for ctx, nodes in ((state_gauss.context, support), (wide_context, ())):
            v_values = ctx.v.samples.values
            for psi in (state_gauss.potential.samples, state_gauss.u,
                        RadialField(g, np.exp(-(g.r - 1.0) ** 2), POSITION)):
                w, report = ctx.resolvent.solve(psi.values, ctx.multiplier())
                ref, iterations = reference_cg(psi, v_values, ctx.multiplier(), INNER_TOL,
                                               nodes)
                assert report.iterations == iterations
                assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_true_residual_at_default_inner_tol(self, state_gauss):
        # the recurrence reports far below INNER_TOL; the recomputed residual
        # floors above it (~2e-12 on this n=8191 grid, higher at larger n),
        # which operators.INNER_TOL documents
        ctx = state_gauss.context
        out, report = apply_frakKe(state_gauss.u, ctx)
        assert report.converged
        assert forward_residual(out, state_gauss.u, ctx.multiplier(),
                                ctx.v.samples.values) <= 1e-11

    def test_iterations_on_v(self, state_gauss):
        # fK_e v at the production tolerance took 6 CG iterations with the
        # kM^-1 preconditioner; v on 232 nodes is inverted exactly now
        _, report = apply_frakKe(state_gauss.potential.samples, state_gauss.context)
        assert report.converged
        assert report.iterations <= 2

    def test_dst1_calls_per_iteration(self, state_gauss, wide_context, monkeypatch):
        # four DST-I per iteration with the correction, two without
        calls = count_dst1(monkeypatch)
        for ctx, per_iteration in ((state_gauss.context, 4), (wide_context, 2)):
            ctx.resolvent                   # built once, outside the count
            calls[0] = 0
            _, report = apply_frakKe(state_gauss.u, ctx)
            assert report.converged
            assert calls[0] == per_iteration * report.iterations

    def test_uncorrected_kernel_is_unchanged(self, state_gauss, wide_context):
        # v = 0 or a support over the budget: bit for bit the kM^-1 kernel
        g = state_gauss.grid
        multiplier = wide_context.multiplier()
        zero = np.zeros(g.n)
        assert Resolvent(g, sampled(g, zero), multiplier).support.size == 0
        for v_values, resolvent in ((zero, Resolvent(g, sampled(g, zero), multiplier)),
                                    (wide_context.v.samples.values, wide_context.resolvent)):
            for psi in (state_gauss.potential.samples, state_gauss.u):
                w, report = resolvent.solve(psi.values, multiplier)
                ref, ref_report = kM_only_cg(g, psi.values, v_values, multiplier,
                                             INNER_TOL, 1000)
                assert report == ref_report
                np.testing.assert_array_equal(w, ref)

    def test_zero_rhs(self, state_gauss):
        zero = RadialField(state_gauss.grid, np.zeros(state_gauss.grid.n), POSITION)
        out, report = apply_frakKe(zero, state_gauss.context)
        assert report == LinearSolveReport(0, 0.0, True)
        assert not np.any(out.values)

    def test_field_inits_independent_of_iterations(self, state_gauss, wide_context,
                                                   monkeypatch):
        # CG iterates on raw arrays; only the entry and exit build fields
        # (on the uncorrected kernel, where tolerance still moves the count);
        # the solve reads INNER_TOL when it runs, not when it is defined
        ctx = wide_context
        post_init = RadialField.__post_init__
        inits = [0]

        def counted(field):
            inits[0] += 1
            post_init(field)

        monkeypatch.setattr(RadialField, "__post_init__", counted)
        runs = []
        for tol in (1e-3, 1e-12):
            monkeypatch.setattr(operators, "INNER_TOL", tol)
            before = inits[0]
            _, report = apply_frakKe(state_gauss.u, ctx)
            runs.append((report.iterations, inits[0] - before))
        assert runs[0][0] < runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_kv_range(self, state_gauss):
        kv = state_gauss.frakKe_v.values
        assert np.min(kv) >= -1e-10
        assert np.max(kv) <= 1.0 + 1e-10
        assert np.min(kv) < 1.0 - 1e-3     # strictly below 1 somewhere

    def test_l1_to_l2_bound(self, state_gauss):
        g = state_gauss.grid
        for bump in gaussian_bumps(g, seed=11, count=10):
            psi = RadialField(g, bump, POSITION)
            out, report = apply_frakKe(psi, state_gauss.context)
            assert report.converged
            assert out.norm_l2() <= frakKe_l2_bound(state_gauss.e) * psi.integral()

    def test_dominated_by_Ye(self, state_gauss):
        g = state_gauss.grid
        psi = RadialField(g, np.exp(-(g.r - 1.0) ** 2), POSITION)
        fk, report = apply_frakKe(psi, state_gauss.context)
        assert report.converged
        ye = apply_Ye(psi, state_gauss.context)
        assert np.all(fk.values <= ye.values + 1e-10)

    def test_v_weighted_mass_contraction(self, state_gauss):
        # int v fK_e v <= int v, from 0 <= fK_e v <= 1
        v = state_gauss.potential
        lhs = state_gauss.grid.integrate(v.samples.values
                                         * state_gauss.frakKe_v.values)
        assert lhs <= v.norms.v_l1


class TestShortPayloads:
    """A payload that, like v, is zero from node L on with m L <= n reads
    (kM^-1 psi)_P from the capacitance prefix sums: one DST-I pair per
    iteration, where a payload reaching further takes two."""

    @staticmethod
    def payloads(state):
        return {"v": state.potential.samples, "u": state.u,
                "probe": random_nonneg_fields(state.grid)[0]}

    def test_dst1_calls_per_solve(self, state_dilute, monkeypatch):
        ctx = state_dilute.context
        assert ctx.resolvent.support.size == 14
        assert ctx.resolvent.v_end == 69            # v is exactly 0 from node 69 on
        calls = count_dst1(monkeypatch)
        payloads = self.payloads(state_dilute)
        for name, per_solve in (("v", 2), ("probe", 2), ("u", 4)):
            calls[0] = 0
            _, report = apply_frakKe(payloads[name], ctx)
            assert report.converged and report.iterations == 1
            assert calls[0] == per_solve, name

    def test_matches_field_reference(self, state_dilute):
        ctx = state_dilute.context
        multiplier, v_values = ctx.multiplier(), ctx.v.samples.values
        for psi in self.payloads(state_dilute).values():
            w, report = ctx.resolvent.solve(psi.values, multiplier)
            ref, iterations = reference_cg(psi, v_values, multiplier, INNER_TOL,
                                           ctx.resolvent.support)
            assert report.iterations == iterations
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_agrees_with_the_transform_path(self, state_dilute, monkeypatch):
        # v_end = None sends every payload through the DST-I pair
        ctx = state_dilute.context
        multiplier = ctx.multiplier()
        payloads = self.payloads(state_dilute)
        short = {k: ctx.resolvent.solve(p.values, multiplier)
                 for k, p in payloads.items()}
        monkeypatch.setattr(ctx.resolvent, "v_end", None)
        for name, psi in payloads.items():
            w, report = ctx.resolvent.solve(psi.values, multiplier)
            assert short[name][1].iterations == report.iterations
            if name == "u":
                np.testing.assert_array_equal(short[name][0], w)
            else:
                assert np.max(np.abs(short[name][0] - w)) <= 1e-14 * np.max(np.abs(w))

    def test_wide_support_keeps_the_transform_path(self, state_gauss, monkeypatch):
        # m = 232 nodes on n = 8191: m L <= n needs L <= 35, but v reaches further
        resolvent = state_gauss.context.resolvent
        assert resolvent.support.size == 232 and resolvent.v_end is None
        calls = count_dst1(monkeypatch)
        _, report = apply_frakKe(state_gauss.potential.samples, state_gauss.context)
        assert calls[0] == 4 * report.iterations

    def test_residuals_stay_inside_the_block(self, monkeypatch):
        # v below the support threshold at node 6 still widens the block to
        # L = 7 for a payload at node 0: the second residual lives on 3 and 6
        g = make_grid(31, 6.0)
        v_values = np.zeros(g.n)
        v_values[[3, 6]] = 5.0, 4e-14
        multiplier = g.k**2 + 2.0
        resolvent = Resolvent(g, sampled(g, v_values), multiplier)
        assert resolvent.support.tolist() == [3] and resolvent.v_end == 7
        inputs, precondition = [], Resolvent._precondition

        def recorded(self, s, q, work, table=None):
            inputs.append((s.copy(), table.shape[1]))
            return precondition(self, s, q, work, table)

        monkeypatch.setattr(Resolvent, "_precondition", recorded)
        psi = np.eye(1, g.n)[0]
        monkeypatch.setattr(operators, "INNER_TOL", 1e-16)
        _, report = resolvent.solve(psi, multiplier)
        assert report.converged and report.iterations == len(inputs) == 2
        assert np.flatnonzero(inputs[1][0]).tolist() == [3, 6]
        for s, width in inputs:
            assert width == 7 and not np.any(s[width:])

    def test_single_node_support_reaches_the_odd_extension(self, monkeypatch):
        # m = 1 at node 3 makes every payload short (L <= n), and the block's
        # largest i + j, 3 + n - 1, lies past the column's odd reflection at n
        g = make_grid(31, 6.0)
        v_values = np.zeros(g.n)
        v_values[3] = 5.0
        multiplier = g.k**2 + 2.0
        resolvent = Resolvent(g, sampled(g, v_values), multiplier)
        assert resolvent.v_end == 4 and resolvent.prefix.size - 3 >= g.n
        calls = count_dst1(monkeypatch)
        for psi in (np.exp(-g.r**2), np.ones(g.n)):
            calls[0] = 0
            w, report = resolvent.solve(psi, multiplier)
            assert calls[0] == 2 * report.iterations
            ref, iterations = reference_cg(RadialField(g, psi, POSITION), v_values,
                                           multiplier, INNER_TOL, (3,))
            assert report.iterations == iterations
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestSymmetry:
    def test_identical_arguments(self, state_gauss):
        psi = RadialField(state_gauss.grid,
                          np.exp(-state_gauss.grid.r**2), POSITION)
        assert symmetry_check(psi, psi, state_gauss.context) == 0.0

    def test_v_against_u(self, state_gauss):
        defect = symmetry_check(state_gauss.potential.samples, state_gauss.u,
                                state_gauss.context)
        assert defect <= 1e-6

    def test_two_gaussians(self, state_gauss):
        g = state_gauss.grid
        phi = RadialField(g, np.exp(-g.r**2), POSITION)
        psi = RadialField(g, np.exp(-((g.r / 1.7) ** 2)), POSITION)
        assert symmetry_check(phi, psi, state_gauss.context) <= 1e-6


def test_xi_flat_at_small_e():
    # xi = Y_e(rho u) approaches sqrt(2e)/(3 pi^2) uniformly as e -> 0
    e = 1e-4
    config = SolverConfig(n=32767, r_max=40.0 / np.sqrt(e))
    v = gaussian_potential(1.0, 1.0, config.grid_for(e))
    state = solve_fixed_e(v, e, config)
    rho_u = RadialField(state.grid, state.rho * state.u.values, POSITION)
    result = xi_flatness(state.context, rho_u)
    assert result["max_deviation"] <= 0.15
