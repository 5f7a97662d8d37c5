import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dst

from bosegas import (ConfigurationError, GridMismatchError, POSITION,
                     RadialField, apply_Ke, convolve, evaluate, field_from_profile,
                     fourier_radial, gaussian_potential, healing_integral_check,
                     inverse_fourier_radial, make_grid)
from bosegas import grids, operators
from bosegas.grids import _DST_SPLIT_MIN, dst1, fast_grid_size


def gaussian_field(grid, width=1.0):
    return field_from_profile(grid, lambda r: np.exp(-((r / width) ** 2)))


def plancherel_defect(f):
    """Relative mismatch of int f^2 d^3x against int fhat^2 d^3k / (2 pi)^3."""
    lhs = f.grid.integrate(f.values**2)
    rhs = f.grid.integrate_k(fourier_radial(f).values ** 2)
    return abs(lhs - rhs) / lhs


class TestMakeGrid:
    def test_small_grid_nodes(self):
        g = make_grid(4, 5.0)
        np.testing.assert_allclose(g.r, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(g.k, np.pi / 5.0 * np.arange(1, 5))

    def test_default_production_grid(self):
        g = make_grid(4096, 40.0)
        assert g.dr == pytest.approx(40.0 / 4097)
        assert g.k[0] == pytest.approx(np.pi / 40.0)

    def test_rejects_zero_nodes(self):
        with pytest.raises(ConfigurationError):
            make_grid(0, 5.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ConfigurationError):
            make_grid(64, -1.0)

    def test_conjugate_spacing(self):
        g = make_grid(100, 17.0)
        # dr * dk * (n+1) = pi makes the sine transform exactly invertible
        assert g.dr * g.dk * (g.n + 1) == pytest.approx(np.pi, rel=1e-15)

    def test_fast_grid_size_is_dst_friendly(self):
        # n+1 even lets dst1 split a large transform; 5-smooth keeps it fast
        for n_min in (100_000, 16_384, 50_000):
            n = fast_grid_size(n_min)
            assert n >= n_min
            m = n + 1
            assert m % 2 == 0
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            assert m == 1


def out_of_place_split(x):
    """The half-length DST-I split with a fresh array per level and half."""
    n = x.shape[-1]
    if n < _DST_SPLIT_MIN or n % 2 == 0:
        return dst(x, type=1)
    m = (n + 1) // 2
    lo, hi = x[..., :m - 1], x[..., :m - 1:-1]
    out = np.empty(x.shape)
    out[..., 1::2] = out_of_place_split(lo - hi)
    s = np.concatenate((lo + hi, 2.0 * x[..., m - 1:m]), axis=-1)
    out[..., ::2] = dst(s, type=3)
    return out


class TestDst1:
    @pytest.mark.parametrize("n", [4, 5, 4095, 12149, 12150, _DST_SPLIT_MIN + 1,
                                   20249, 32400, 80999])
    def test_matches_scipy(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        expected = dst(x, type=1)
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(dst1(x), expected, rtol=0, atol=1e-15 * scale)

    def test_batched_last_axis(self):
        x = np.random.default_rng(1).standard_normal((3, 32399))
        expected = dst(x, type=1)
        np.testing.assert_allclose(dst1(x), expected, rtol=0,
                                   atol=1e-15 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("shape", [(161999,), (80999,), (2, 161999)])
    def test_split_is_the_out_of_place_split(self, shape):
        # writing each half into a strided view of one output changes no bit
        # of the split's arithmetic; the input is left as it was
        x = np.random.default_rng(shape[-1]).standard_normal(shape)
        x0 = x.copy()
        np.testing.assert_array_equal(dst1(x), out_of_place_split(x))
        np.testing.assert_array_equal(x, x0)

    @pytest.mark.parametrize("shape", [(12149,), (3, 12149), (32400,)])
    def test_direct_sizes_are_scipy(self, shape):
        x = np.random.default_rng(7).standard_normal(shape)
        np.testing.assert_array_equal(dst1(x), dst(x, type=1))


class TestFourier:
    def test_gaussian_transform_closed_form(self):
        g = make_grid(8191, 60.0)
        fhat = fourier_radial(gaussian_field(g))
        expected = np.pi**1.5 * np.exp(-g.k**2 / 4.0)
        np.testing.assert_allclose(fhat.values, expected, atol=1e-13 * np.pi**1.5)

    def test_zero_maps_to_zero(self):
        g = make_grid(128, 10.0)
        zhat = fourier_radial(RadialField(g, np.zeros(g.n), POSITION))
        assert np.all(zhat.values == 0.0)

    def test_explicit_pair_forward(self):
        # u = c/(1+b^2 r^2)^2  ->  uhat = (pi^2 c / b^3) exp(-k/b)
        b, c = 1.0, 0.5
        g = make_grid(16383, 1000.0)
        u = field_from_profile(g, lambda r: c / (1 + (b * r) ** 2) ** 2)
        uhat = fourier_radial(u)
        sel = (g.k >= 0.1) & (g.k <= 10.0)
        expected = np.pi**2 * c / b**3 * np.exp(-g.k[sel] / b)
        np.testing.assert_allclose(uhat.values[sel], expected, rtol=1e-6)

    def test_explicit_pair_inverse(self):
        b, c = 1.0, 0.5
        g = make_grid(16383, 1000.0)
        uhat = field_from_profile(
            g, lambda k: np.pi**2 * c / b**3 * np.exp(-k / b), space="frequency")
        u = inverse_fourier_radial(uhat)
        sel = g.r <= 20.0
        expected = c / (1 + (b * g.r[sel]) ** 2) ** 2
        np.testing.assert_allclose(u.values[sel], expected, rtol=2e-6)

    def test_round_trip_identity(self):
        # n = 32399 >= _DST_SPLIT_MIN runs the split DST-I
        for n, r_max in ((2048, 30.0), (32399, 400.0)):
            g = make_grid(n, r_max)
            f = gaussian_field(g)
            back = inverse_fourier_radial(fourier_radial(f))
            np.testing.assert_allclose(back.values, f.values, atol=1e-12)

    def test_one_dst1_call_per_transform(self, monkeypatch):
        # the split recursion is private: a wrapper on dst1 counts DST-Is
        real, calls = grids.dst1, []

        def counted(x):
            calls.append(np.shape(x)[-1])
            return real(x)
        monkeypatch.setattr(grids, "dst1", counted)
        monkeypatch.setattr(operators, "dst1", counted)
        g = make_grid(32399, 400.0)
        v = gaussian_potential(1.0, 1.0, g)
        f = gaussian_field(g)
        calls.clear()
        inverse_fourier_radial(fourier_radial(f))
        assert calls == [g.n, g.n]
        _, report = apply_Ke(f, 0.1, v)
        assert report.converged
        assert calls == [g.n] * (2 + 2 * report.iterations)

    def test_transform_shares_grid_object(self):
        g = make_grid(256, 10.0)
        f = gaussian_field(g)
        assert fourier_radial(f).grid is g

    def test_space_tag_enforced(self):
        g = make_grid(128, 10.0)
        fhat = fourier_radial(gaussian_field(g))
        with pytest.raises(GridMismatchError):
            fourier_radial(fhat)

    def test_plancherel(self):
        g = make_grid(4095, 50.0)
        assert plancherel_defect(gaussian_field(g, width=1.3)) < 1e-10


class TestConvolve:
    def test_explicit_self_convolution(self):
        b, c = 1.0, 0.5
        g = make_grid(16383, 1000.0)
        u = field_from_profile(g, lambda r: c / (1 + (b * r) ** 2) ** 2)
        uu = convolve(u, u)
        sel = g.r <= 20.0
        expected = 2 * np.pi**2 * c**2 / (b**3 * (4 + (b * g.r[sel]) ** 2) ** 2)
        np.testing.assert_allclose(uu.values[sel], expected, rtol=1e-6)

    def test_convolution_with_zero(self):
        g = make_grid(512, 20.0)
        z = RadialField(g, np.zeros(g.n), POSITION)
        assert np.all(convolve(gaussian_field(g), z).values == 0.0)

    def test_gaussian_gaussian_closed_form(self):
        # exp(-r^2) * exp(-r^2) = (pi/2)^(3/2) exp(-r^2/2)
        g = make_grid(8191, 60.0)
        f = gaussian_field(g)
        conv = convolve(f, f)
        expected = (np.pi / 2.0) ** 1.5 * np.exp(-g.r**2 / 2.0)
        np.testing.assert_allclose(conv.values, expected, atol=1e-12 * expected[0])

    def test_commutativity_is_bitwise(self, grid_small):
        f = gaussian_field(grid_small, 0.8)
        h = gaussian_field(grid_small, 1.7)
        assert np.array_equal(convolve(f, h).values, convolve(h, f).values)

    def test_mass_factorizes(self, grid_small):
        f = gaussian_field(grid_small, 0.9)
        h = gaussian_field(grid_small, 1.4)
        lhs = convolve(f, h).integral()
        assert lhs == pytest.approx(f.integral() * h.integral(), rel=1e-10)

    def test_grid_mismatch_rejected(self):
        f = gaussian_field(make_grid(256, 10.0))
        h = gaussian_field(make_grid(256, 12.0))
        with pytest.raises(GridMismatchError):
            convolve(f, h)


class TestMoments:
    def test_gaussian_mass(self):
        g = make_grid(4095, 50.0)
        assert g.integrate(gaussian_field(g).values) == pytest.approx(np.pi**1.5, rel=1e-12)

    def test_explicit_mass_fixes_density(self):
        # int c/(1+b^2 r^2)^2 d^3x = c pi^2 / b^3, up to the r^-4 tail cut
        b, c = 1.0, 0.5
        g = make_grid(16383, 4000.0)
        u = field_from_profile(g, lambda r: c / (1 + (b * r) ** 2) ** 2)
        truncated_tail = 4 * np.pi * c / g.r_max
        assert g.integrate(u.values) == pytest.approx(c * np.pi**2 / b**3 - truncated_tail,
                                                      rel=1e-4)


class TestEvaluate:
    def test_exact_at_nodes(self, grid_small):
        f = gaussian_field(grid_small)
        idx = [0, 5, 1000, grid_small.n - 1]
        np.testing.assert_allclose(
            evaluate(f, grid_small.r[idx]), f.values[idx], rtol=0, atol=0)

    def test_explicit_off_node(self):
        b, c = 1.0, 0.5
        g = make_grid(4095, 200.0)
        u = field_from_profile(g, lambda r: c / (1 + (b * r) ** 2) ** 2)
        assert evaluate(u, 0.5) == pytest.approx(c / (1 + 0.25 * b**2) ** 2, rel=1e-5)

    def test_zero_field_everywhere(self, grid_small):
        z = RadialField(grid_small, np.zeros(grid_small.n), POSITION)
        assert evaluate(z, 3.21) == 0.0
        assert evaluate(z, 2 * grid_small.r_max) == 0.0

    def test_tail_continuation(self):
        # a nonzero field is continued by zero beyond the grid
        g = make_grid(2047, 100.0)
        f = field_from_profile(g, lambda r: 1.0 / (1.0 + r**4))
        assert evaluate(f, 150.0) == 0.0


class TestQuadratureIdentity:
    def test_healing_integral(self):
        # int ((k^2+1)/sqrt((k^2+1)^2-1) - 1) d^3k/(2pi)^3 = 1/(3 pi^2 sqrt 2)
        g = make_grid(fast_grid_size(2**19), 1500.0)
        exact = 1.0 / (3.0 * np.pi**2 * np.sqrt(2.0))
        assert healing_integral_check(g) == pytest.approx(exact, rel=1e-6)


@settings(max_examples=20, deadline=None)
@given(width=st.floats(0.5, 3.0), center=st.floats(0.0, 5.0),
       amp=st.floats(0.1, 10.0))
def test_round_trip_property(width, center, amp):
    g = make_grid(2047, 40.0)
    f = field_from_profile(g, lambda r: amp * np.exp(-((r - center) / width) ** 2))
    back = inverse_fourier_radial(fourier_radial(f))
    np.testing.assert_allclose(back.values, f.values, atol=1e-12 * amp)


@settings(max_examples=20, deadline=None)
@given(width=st.floats(0.5, 3.0), amp=st.floats(0.1, 10.0))
def test_plancherel_property(width, amp):
    g = make_grid(2047, 40.0)
    f = field_from_profile(g, lambda r: amp * np.exp(-((r / width) ** 2)))
    assert plancherel_defect(f) < 1e-10
