from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from bosegas import (ConfigurationError, ConvergenceError, ExplicitSolutionSpec,
                     InvariantViolation, QualityWarning, explicit_potential,
                     gaussian_potential, make_grid, potential_from_file,
                     scattering_identity_defect, scattering_length, solve_fixed_rho,
                     tabulated_potential)
from bosegas.observables import eta_nonnegativity_guaranteed
from bosegas.potentials import (_BLOCK, Potential, _integrate_scattering,
                                _log_derivative_radius)

from conftest import exp_table

# Regression baseline for a0 of exp(-r^2), produced by the Numerov shooting
# oracle below at three resolutions with Richardson extrapolation and
# cross-checked against an adaptive LSODA integration (both 0.328721131068).
A0_GAUSSIAN_1_1 = 0.3287211310690393


def numerov_a0(profile, n_steps, r_end):
    """Fourth-order shooting for w'' = v w, w(0) = 0; a0 = r - w/w' at r_end."""
    h = r_end / n_steps
    r = np.linspace(0.0, r_end, n_steps + 1)
    f = profile(r)
    y = np.zeros(n_steps + 1)
    y[1] = h + h**3 * f[0] / 6.0
    c = h * h / 12.0
    for i in range(1, n_steps):
        y[i + 1] = (2 * y[i] * (1 + 5 * c * f[i])
                    - y[i - 1] * (1 - c * f[i - 1])) / (1 - c * f[i + 1])
    slope = (y[-1] - y[-2]) / h   # exact once v has died out: w is linear there
    return r_end - h / 2.0 - 0.5 * (y[-1] + y[-2]) / slope


def rk4_a(profile, r_end, n_steps):
    """RK4 on w'' = v w, w(0) = 0, one scalar step at a time; a(r_end) = r_end - w/w'."""
    h = r_end / n_steps
    half = 0.5 * h
    r = np.linspace(0.0, r_end, n_steps + 1)
    with np.errstate(divide="ignore"):
        vv = np.asarray(profile(r), dtype=float)
    if not np.isfinite(vv[0]):
        vv[0] = vv[1]
    vv, v_half = vv.tolist(), np.asarray(profile(r[:-1] + half), dtype=float).tolist()
    w, wp = 0.0, 1.0
    for i in range(n_steps):
        v0, vh, v1 = vv[i], v_half[i], vv[i + 1]
        k1w, k1p = wp, v0 * w
        k2w, k2p = wp + half * k1p, vh * (w + half * k1w)
        k3w, k3p = wp + half * k2p, vh * (w + half * k2w)
        k4w, k4p = wp + h * k3p, v1 * (w + h * k3w)
        w += h / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w)
        wp += h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
    return r_end - w / wp


# crosses a block boundary and is no multiple of the block
N_OFF_BLOCK = _BLOCK + 4097


class TestGaussian:
    def test_l1_norm(self, gauss_small):
        assert gauss_small.norms.v_l1 == pytest.approx(np.pi**1.5, rel=1e-10)

    def test_l2_norm(self, gauss_small):
        assert gauss_small.norms.v_l2 == pytest.approx((np.pi / 2) ** 0.75, rel=1e-10)

    def test_narrow_gaussian_norms(self):
        # quad over r saw exp(-r^2/w^2) as 0 and returned all-zero norms, so
        # the inversion bracketed [0, 0] and raised a ConfigurationError
        w = 1e-6
        v = gaussian_potential(1.0, w, make_grid(4095, 1000.0))
        assert v.norms.v_l1 == pytest.approx(np.pi**1.5 * w**3, rel=1e-12)
        assert v.norms.v_l2 == pytest.approx((np.pi / 2) ** 0.75 * w**1.5, rel=1e-12)
        with pytest.raises(InvariantViolation, match="v is 0 at every grid node"):
            solve_fixed_rho(v, 0.05)

    def test_unrepresentable_norm_is_a_configuration_error(self, grid_small):
        # scale^3 of quad's unit-width integral overflowed as a raw OverflowError
        v = gaussian_potential(1.0, 1e300, grid_small)
        with pytest.raises(ConfigurationError, match=r"\|\|v\|\|_1 of potential 'gaussian'"):
            v.norms
        # int |x|^2 v of range 1e100 overflowed the same way; ||v||_1 and ||v||_2 do not
        explicit = explicit_potential(ExplicitSolutionSpec(1e-100, 0.5, 1.0), grid_small)
        assert np.isfinite(explicit.norms.v_l1) and np.isfinite(explicit.norms.v_l2)

    def test_extent_is_past_the_last_nonzero_node(self, grid_small):
        # exp(-r^2) underflows to exactly 0 near r = 27.3; an r^-6 tail does not
        v = gaussian_potential(1.0, 1.0, grid_small)
        L = v.extent
        assert 0 < L < grid_small.n
        assert v.samples.values[L - 1] > 0 and not np.any(v.samples.values[L:])
        explicit = explicit_potential(ExplicitSolutionSpec(1.0, 0.5, 1.0), grid_small)
        assert explicit.extent == grid_small.n
        assert Potential("zero", np.zeros_like, grid_small).extent == 0

    def test_rejects_zero_amplitude(self, grid_small):
        with pytest.raises(ConfigurationError):
            gaussian_potential(0.0, 1.0, grid_small)

    def test_all_moments_finite(self, gauss_small):
        assert all(gauss_small.moment_finite(m, q) for m in (0, 2, 4) for q in (1.0, 2.0))

    def test_thresholds(self, gauss_small):
        assert gauss_small.e_star == np.sqrt(2) * np.pi**3 / gauss_small.norms.v_l1**2
        assert gauss_small.e_large == 8 * gauss_small.norms.v_l2**4 / np.pi**4


class TestExplicitPotential:
    def test_value_at_origin(self, grid_small):
        # 12c(5e+16b^2) / ((1)^2 (4)^2 ((1)^2 - c)) at x=0
        v = explicit_potential(ExplicitSolutionSpec(1.0, 0.5, 1.0), grid_small)
        assert v.profile(0.0) == pytest.approx(126.0 / 8.0)

    def test_condition_violation(self):
        with pytest.raises(ConfigurationError):
            ExplicitSolutionSpec(b=1.0, c=0.5, e=0.5)   # 0.5 < 7/9

    def test_leading_numerator_coefficient(self):
        spec = ExplicitSolutionSpec(1.0, 0.5, 1.0)
        coeffs = spec.numerator_coefficients()
        assert coeffs[-1] == pytest.approx(12 * 0.5 * (2 * 1.0 - 1.0))
        assert np.all(coeffs >= 0)

    def test_sharper_condition_gate(self):
        # e/b^2 = 0.65 is below the proven 7/9
        with pytest.raises(ConfigurationError, match="e/b\\^2 >= 0.777778"):
            ExplicitSolutionSpec(b=1.0, c=0.5, e=0.65)

    def test_x4_moment_diverges(self, grid_small):
        v = explicit_potential(ExplicitSolutionSpec(1.0, 0.5, 1.0), grid_small)
        assert not v.moment_finite(4)
        assert v.moment_finite(2)

    def test_overflowing_norm_powers_give_the_limiting_thresholds(self, grid_small):
        # ||v||_1 = 1.1e301 and ||v||_2 = 2.6e150 are finite, ||v||_1^2 and
        # ||v||_2^4 are not, and a Python float ** raises OverflowError there
        v = explicit_potential(ExplicitSolutionSpec(b=1e-100, c=0.5, e=1.0), grid_small)
        assert np.isfinite(v.norms.v_l1) and np.isfinite(v.norms.v_l2)
        assert (v.e_star, v.e_large) == (0.0, np.inf)
        state = SimpleNamespace(potential=v, rho=1e-300, e=1.0)
        assert not eta_nonnegativity_guaranteed(state)

    def test_c_equal_one_flagged(self, grid_small):
        with pytest.warns(QualityWarning):
            v = explicit_potential(ExplicitSolutionSpec(1.0, 1.0, 1.0), grid_small)
        assert not v.bounded
        assert np.all(np.isfinite(v.samples.values))

    def test_density_of_family(self):
        assert ExplicitSolutionSpec(1.0, 0.5, 1.0).rho == pytest.approx(2 / np.pi**2)


class TestTabulated:
    def test_matches_sampled_gaussian(self, grid_small):
        pairs = [(r, np.exp(-r * r)) for r in np.linspace(0.0, 12.0, 400)]
        v = tabulated_potential(pairs, grid_small)
        ref = gaussian_potential(1.0, 1.0, grid_small)
        sel = grid_small.r <= 8.0
        np.testing.assert_allclose(v.samples.values[sel],
                                   ref.samples.values[sel], atol=2e-7)

    def test_norms_exact_for_a_cubic(self, grid_small):
        # not-a-knot reproduces (3 - r)^3 / 27 exactly, and
        # int_0^3 r^m (3 - r)^j dr = 3^(m+j+1) m! j! / (m+j+1)!
        def moment(m, j):
            return 4.0 * np.pi * 3.0 ** (m + j + 1) / ((m + j + 1) * comb(m + j, m))

        v = tabulated_potential([(r, (3.0 - r) ** 3 / 27.0) for r in np.linspace(0.0, 3.0, 7)],
                                grid_small)
        norms = v.norms
        assert norms.v_l1 == pytest.approx(moment(2, 3) / 27.0, rel=1e-14)
        assert norms.v_l2 == pytest.approx(np.sqrt(moment(2, 6)) / 27.0, rel=1e-14)

    def test_norms_integrate_each_piece(self, grid_small):
        # a table that starts off the origin: [0, r_0] is one piece of the
        # even extension; tight adaptive quadrature piece by piece agrees
        r_tab = np.linspace(0.5, 12.0, 47)
        v = tabulated_potential([(r, np.exp(-r)) for r in r_tab], grid_small)
        knots = np.concatenate(([0.0], r_tab))

        def piecewise(p):
            return sum(quad(lambda r: 4.0 * np.pi * r ** 2 * v.profile(r) ** p,
                            a, b, epsabs=0.0, epsrel=1e-13)[0]
                       for a, b in zip(knots[:-1], knots[1:]))

        norms = v.norms
        assert norms.v_l1 == pytest.approx(piecewise(1), rel=1e-13)
        assert norms.v_l2 == pytest.approx(np.sqrt(piecewise(2)), rel=1e-13)

    def test_rejects_negative_value(self, grid_small):
        pairs = [(0.0, 1.0), (1.0, 0.5), (2.0, 0.2), (3.0, -0.1)]
        with pytest.raises(ConfigurationError):
            tabulated_potential(pairs, grid_small)

    def test_rejects_empty(self, grid_small):
        with pytest.raises(ConfigurationError):
            tabulated_potential([], grid_small)

    def test_rejects_non_monotone_radii(self, grid_small):
        pairs = [(0.0, 1.0), (2.0, 0.5), (1.0, 0.2), (3.0, 0.1)]
        with pytest.raises(ConfigurationError):
            tabulated_potential(pairs, grid_small)

    def test_file_parsing(self, tmp_path, grid_small):
        path = tmp_path / "v.dat"
        lines = ["# r   v(r)"]
        for r in np.linspace(0.0, 12.0, 200):
            lines.append(f"{r:.8f}   {2.0 * np.exp(-r):.12f}  # sample")
        path.write_text("\n".join(lines) + "\n")
        v = potential_from_file(path, grid_small)
        sel = (grid_small.r > 0.5) & (grid_small.r < 6.0)
        np.testing.assert_allclose(v.samples.values[sel],
                                   2.0 * np.exp(-grid_small.r[sel]), atol=2e-5)

    def test_file_with_bad_row(self, tmp_path, grid_small):
        path = tmp_path / "v.dat"
        path.write_text("0.0 1.0\n1.0 0.5 0.3\n")
        with pytest.raises(ConfigurationError):
            potential_from_file(path, grid_small)


class TestScatteringLength:
    def test_regression_baseline(self, gauss_small):
        assert gauss_small.a0 == pytest.approx(A0_GAUSSIAN_1_1, abs=1e-9)

    def test_numerov_oracle_agrees(self):
        vals = [numerov_a0(lambda r: np.exp(-r * r), n, 16.0)
                for n in (10_000, 20_000, 40_000)]
        extrapolated = vals[2] + (vals[2] - vals[1]) / 15.0
        assert extrapolated == pytest.approx(A0_GAUSSIAN_1_1, abs=1e-9)

    def test_scaling_law(self, grid_small):
        # v(r) -> lambda^2 v(lambda r) sends a0 -> a0/lambda
        scaled = gaussian_potential(4.0, 0.5, grid_small)
        assert 2.0 * scaled.a0 == pytest.approx(A0_GAUSSIAN_1_1, rel=1e-9)

    def test_born_bound(self, gauss_small):
        assert 0.0 < gauss_small.a0 <= gauss_small.norms.v_l1 / (4 * np.pi)

    def test_weak_potential_limit(self, grid_small):
        # as v -> 0 the length vanishes and approaches the Born value
        weak = gaussian_potential(1e-6, 1.0, grid_small)
        born = weak.norms.v_l1 / (4 * np.pi)
        assert weak.a0 == pytest.approx(born, rel=1e-4)
        # the strict a0 < Born ordering needs the second Born term above
        # the round-off floor of the shooting integration
        mild = gaussian_potential(0.01, 1.0, grid_small)
        assert mild.a0 < mild.norms.v_l1 / (4 * np.pi)

    def test_operator_route_identity(self, gauss_small):
        # int v phi = -4 pi a0 + int v with phi from the resolvent at e->0+
        assert scattering_identity_defect(gauss_small) < 0.01

    def test_explicit_potential_a0(self, grid_small):
        v = explicit_potential(ExplicitSolutionSpec(1.0, 0.5, 1.0), grid_small)
        a0 = scattering_length(v)
        assert 0.0 < a0 <= v.norms.v_l1 / (4 * np.pi)

    def test_c_equal_one_l2_norm_is_infinite(self, grid_small):
        # quad integrated the divergent 4 pi r^2 v^2 to a negative number,
        # whose square root made v_l2 complex and e_large a TypeError
        with pytest.warns(QualityWarning):
            v = explicit_potential(ExplicitSolutionSpec(1.0, 1.0, 1.0), grid_small)
        assert not v.bounded
        assert v.norms.v_l2 == np.inf
        assert v.e_large == np.inf
        c_half = explicit_potential(ExplicitSolutionSpec(1.0, 0.5, 1.0), grid_small)
        assert c_half.bounded
        assert 0.0 < c_half.norms.v_l2 < np.inf

    def test_c_equal_one_a0(self, grid_small):
        # the r^-2 origin is sampled as inf and replaced by v(h), silently
        with pytest.warns(QualityWarning):
            v = explicit_potential(ExplicitSolutionSpec(1.0, 1.0, 1.0), grid_small)
        assert np.isfinite(v.a0)
        assert 0.0 < v.a0 <= v.norms.v_l1 / (4 * np.pi)
        assert v.a0 == pytest.approx(0.7676641697863623, abs=1e-9)

    @pytest.mark.parametrize("make", [
        lambda grid: gaussian_potential(1.0, 1.0, grid),
        lambda grid: explicit_potential(ExplicitSolutionSpec(1.0, 0.5, 1.0), grid),
        exp_table,
    ], ids=["gaussian", "explicit", "table"])
    def test_blocked_kernel_matches_scalar_steps(self, grid_small, make):
        v = make(grid_small)
        r_end = _log_derivative_radius(v)
        (a,) = _integrate_scattering(v, r_end, N_OFF_BLOCK, (N_OFF_BLOCK,))
        assert a == pytest.approx(rk4_a(v.profile, r_end, N_OFF_BLOCK), rel=1e-10)

    def test_shared_sweep_reads_half_radius(self, grid_small):
        v = explicit_potential(ExplicitSolutionSpec(1.0, 0.5, 1.0), grid_small)
        n = 2 * N_OFF_BLOCK
        a_half, _ = _integrate_scattering(v, 600.0, n, (n // 2, n))
        (alone,) = _integrate_scattering(v, 300.0, n // 2, (n // 2,))
        assert a_half == pytest.approx(alone, rel=1e-13)

    def test_overflow_is_a_convergence_error(self, grid_small):
        with pytest.raises(ConvergenceError, match=r"overflowed at r = 1\.03 \(h = 0\.00625\)"):
            gaussian_potential(1e6, 1.0, grid_small).a0

    def test_overflowed_product_of_finite_state_carries_on(self, grid_small):
        # v(0) = 1e308 sends the w(0) = 1 column of the first block's product
        # to inf; the state starts at w(0) = 0 and stays finite
        def spike(r):
            return np.where(np.asarray(r) < 1e-3, 1e308, 30.0 * np.exp(-np.asarray(r)))

        v = Potential(name="spike", profile=spike, grid=grid_small)
        (a,) = _integrate_scattering(v, 25.0, 4000, (4000,))
        assert a == pytest.approx(rk4_a(spike, 25.0, 4000), rel=1e-10)
