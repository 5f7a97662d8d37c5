"""Radial grids, 3D spherically symmetric Fourier transforms, and quadrature.

Fourier convention: ``fhat(k) = int exp(i k.x) f(|x|) d^3x``, which for a
radial function reduces to ``fhat(k) = (4 pi / k) int_0^inf r sin(kr) f(r) dr``
with inverse ``f(r) = 1/(2 pi^2 r) int_0^inf k sin(kr) fhat(k) dk``.

On a uniform grid r_j = j*dr (j = 1..n, dr = r_max/(n+1)) with conjugate
wavenumbers k_m = m*pi/r_max, the sine integrals become a type-I discrete
sine transform of r*f(r), so the forward/inverse pair is exactly invertible
(dr * dk * (n+1) = pi) and convolution is diagonal in k.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.fft import dst
from scipy.interpolate import CubicSpline

from .errors import ConfigurationError, GridMismatchError

POSITION = "position"
FREQUENCY = "frequency"

# Smallest grid accepted; production solves use n >= 16 (enforced by the
# solver config), but tiny grids are legal for direct transform work.
_MIN_NODES = 4

# From this n up, a DST-I with even n+1 runs as a half-length pair: the direct
# FFT of length 2(n+1) outgrows a 2 MB L2 cache (n = 161999: 8.7 -> 4.2 ms).
_DST_SPLIT_MIN = 16_000


@dataclass(frozen=True)
class RadialGrid:
    """Paired real-space / frequency-space radial sampling.

    Attributes
    ----------
    n : int
        Number of interior nodes.
    r_max : float
        Truncation radius; the implied Dirichlet endpoints r=0 and
        r=r_max carry no nodes.
    """

    n: int
    r_max: float
    r: np.ndarray = field(repr=False, compare=False)
    k: np.ndarray = field(repr=False, compare=False)
    dr: float = field(compare=False)
    dk: float = field(compare=False)

    def integrate(self, values: np.ndarray) -> float:
        """3D position-space integral 4 pi int r^2 f dr by the trapezoid
        rule consistent with the sine transform (zero endpoints implied)."""
        return float(4.0 * np.pi * self.dr * np.sum(self.r * self.r * values))

    def integrate_k(self, values: np.ndarray) -> float:
        """3D frequency-space integral int f(k) d^3k / (2 pi)^3."""
        return float(self.dk / (2.0 * np.pi**2) * np.sum(self.k * self.k * values))


def make_grid(n: int, r_max: float) -> RadialGrid:
    """Build conjugate radial/wavenumber grids with n interior nodes."""
    if not isinstance(n, (int, np.integer)):
        raise ConfigurationError(f"grid size must be an integer, got {n!r}")
    if n < _MIN_NODES:
        raise ConfigurationError(f"grid size n={n} is too small (need n >= {_MIN_NODES})")
    if not np.isfinite(r_max) or r_max <= 0:
        raise ConfigurationError(f"r_max must be positive and finite, got {r_max!r}")
    dr = r_max / (n + 1)
    dk = np.pi / r_max
    j = np.arange(1, n + 1, dtype=float)
    return RadialGrid(n=int(n), r_max=float(r_max), r=j * dr, k=j * dk, dr=dr, dk=dk)


@dataclass(frozen=True)
class RadialField:
    """Samples of a spherically symmetric function on a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray
    space: str = POSITION

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n,):
            raise ConfigurationError(
                f"field has {values.shape} values for a grid of {self.grid.n} nodes"
            )
        if not np.all(np.isfinite(values)):
            raise ConfigurationError("field values must all be finite")
        if self.space not in (POSITION, FREQUENCY):
            raise ConfigurationError(f"unknown space tag {self.space!r}")
        object.__setattr__(self, "values", values)

    def integral(self) -> float:
        if self.space == POSITION:
            return self.grid.integrate(self.values)
        return self.grid.integrate_k(self.values)

    def norm_l2(self) -> float:
        """L2(R^3) norm by the same quadrature as the transform."""
        if self.space == POSITION:
            return float(np.sqrt(self.grid.integrate(self.values**2)))
        return float(np.sqrt(self.grid.integrate_k(self.values**2)))


def field_from_profile(grid: RadialGrid, profile, space: str = POSITION) -> RadialField:
    nodes = grid.r if space == POSITION else grid.k
    return RadialField(grid, np.asarray(profile(nodes), dtype=float), space)


def dst1(x) -> np.ndarray:
    """``scipy.fft.dst(x, type=1)`` along the last axis.

    For n+1 = 2M even and n >= _DST_SPLIT_MIN the outputs split exactly
    (1-based, j = 1..M-1): X_2l is the DST-I of x_j - x_{N-j} (length M-1,
    split again while large) and X_{2l-1} the DST-III of x_j + x_{N-j} with
    last entry 2 x_M (length M). Both halves are plain scipy transforms, run
    in place and written into strided views of one output array.
    """
    x = np.asarray(x)
    if not _splits(x.shape[-1]) or x.dtype != np.float64:
        return dst(x, type=1)
    return _dst1_split(x, np.empty(x.shape))


def _splits(n: int) -> bool:
    return n >= _DST_SPLIT_MIN and n % 2 == 1


def _dst1_split(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """dst(x, type=1) written into ``out``, a view of x's shape; both halves
    are transformed in place in one buffer, the sums' first."""
    m = (x.shape[-1] + 1) // 2
    lo, hi = x[..., :m - 1], x[..., :m - 1:-1]
    s = np.empty(x.shape[:-1] + (m,))
    np.add(lo, hi, out=s[..., :-1])
    s[..., -1] = 2.0 * x[..., m - 1]
    out[..., ::2] = dst(s, type=3, overwrite_x=True)
    d = np.subtract(lo, hi, out=s[..., :-1])
    if _splits(m - 1):
        _dst1_split(d, out[..., 1::2])
    else:
        out[..., 1::2] = dst(d, type=1, overwrite_x=True)
    return out


def _sine_transform(values: np.ndarray) -> np.ndarray:
    # scipy's DST-I carries a factor 2 relative to the plain sine sum.
    return 0.5 * dst1(values)


def fourier_radial(f: RadialField) -> RadialField:
    """Forward transform fhat(k) = (4 pi / k) int r sin(kr) f(r) dr."""
    if f.space != POSITION:
        raise GridMismatchError("fourier_radial expects a position-space field")
    g = f.grid
    coeffs = _sine_transform(g.r * f.values)
    return RadialField(g, (4.0 * np.pi * g.dr / g.k) * coeffs, FREQUENCY)


def inverse_fourier_radial(fhat: RadialField) -> RadialField:
    """Inverse transform f(r) = 1/(2 pi^2 r) int k sin(kr) fhat(k) dk."""
    if fhat.space != FREQUENCY:
        raise GridMismatchError("inverse_fourier_radial expects a frequency-space field")
    g = fhat.grid
    coeffs = _sine_transform(g.k * fhat.values)
    return RadialField(g, (g.dk / (2.0 * np.pi**2 * g.r)) * coeffs, POSITION)


def convolve(f: RadialField, g: RadialField) -> RadialField:
    """3D convolution of two radial position-space fields via the transform."""
    if f.space != POSITION or g.space != POSITION:
        raise GridMismatchError("convolve expects two position-space fields")
    if f.grid is not g.grid and (f.grid.n != g.grid.n or f.grid.r_max != g.grid.r_max):
        raise GridMismatchError("convolve requires both fields on the same grid")
    fhat = fourier_radial(f)
    ghat = fhat if g is f else fourier_radial(g)
    return inverse_fourier_radial(
        RadialField(f.grid, fhat.values * ghat.values, FREQUENCY)
    )


def evaluate(f: RadialField, r):
    """Evaluate a position-space field at arbitrary radii.

    Cubic interpolation between nodes (even extension through r=0), exact at
    the nodes; zero beyond the last node.
    """
    if f.space != POSITION:
        raise GridMismatchError("evaluate expects a position-space field")
    g = f.grid
    scalar = np.isscalar(r)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr < 0):
        raise ConfigurationError("evaluate requires r >= 0")

    # Even extension: mirror the two innermost nodes across r=0 so the
    # interpolant has zero odd part at the origin.
    x = np.concatenate(([-g.r[1], -g.r[0]], g.r))
    y = np.concatenate(([f.values[1], f.values[0]], f.values))
    spline = CubicSpline(x, y, extrapolate=True)

    out = np.zeros_like(r_arr)
    inside = r_arr <= g.r[-1]
    out[inside] = spline(r_arr[inside])
    return float(out[0]) if scalar else out


def healing_integral_check(grid: RadialGrid) -> float:
    """Quadrature of int ((k^2+1)/sqrt((k^2+1)^2 - 1) - 1) d^3k / (2 pi)^3.

    The exact value is 1/(3 pi^2 sqrt(2)); the k-grid trapezoid sum is
    completed with the integrand's k^-2 tail fitted at the last node.
    """
    k = grid.k
    integrand = (k * k + 1.0) / np.sqrt((k * k + 1.0) ** 2 - 1.0) - 1.0
    radial = k * k * integrand
    bulk = grid.dk * (np.sum(radial[:-1]) + 0.5 * radial[-1])
    # integrand ~ 1/(2 k^2) at large k, so the radial integrand tends to a
    # k^-2-integrable remainder; fit the coefficient at the boundary node.
    tail_coeff = radial[-1] * k[-1] ** 2
    tail = tail_coeff / k[-1]
    return float((bulk + tail) / (2.0 * np.pi**2))


def auto_r_max(e_min: float, scale: float = 40.0) -> float:
    """Default truncation radius from healing-length scaling."""
    if e_min <= 0:
        raise ConfigurationError("auto_r_max needs e_min > 0")
    return scale / np.sqrt(e_min)


def fast_grid_size(n_min: int) -> int:
    """Smallest n >= n_min whose DST-I is FFT-friendly.

    n+1 is twice a 5-smooth number: 5-smooth keeps the FFTs behind the DST-I
    fast (a power-of-two n is close to the worst case), and even lets
    ``dst1`` split large transforms into half-length ones.
    """
    from scipy.fft import next_fast_len
    return 2 * int(next_fast_len((int(n_min) + 2) // 2, real=True)) - 1
