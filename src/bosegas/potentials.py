"""Repulsive interaction potentials and their scattering length.

A Potential bundles an analytic radial profile v(r) >= 0 with its samples
on a grid, integrability metadata, norms, and the s-wave scattering length
a0 defined through (-Delta + v) phi = v, equivalently the radial ODE
w''(r) = v(r) w(r) with w(0) = 0 and a0 = lim (r - w/w').
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .errors import ConfigurationError, ConvergenceError
from .grids import POSITION, RadialField, RadialGrid, fast_grid_size

EXPLICIT_CONDITION = 7.0 / 9.0
# Sharper admissibility constant for the closed-form potential; numerator
# positivity holds down to here but only 7/9 is enforced by default.
EXPLICIT_SHARP_CONDITION = (-263.0 + 23.0 * np.sqrt(161.0)) / 48.0


class QualityWarning(UserWarning):
    """Numerical-quality warning surfaced to reports."""


@dataclass(frozen=True)
class PotentialNorms:
    v_l1: float
    v_l2: float
    x2v_l1: float
    x4v_l1: float


@dataclass
class Potential:
    """A validated repulsive interaction sampled on a radial grid."""

    name: str
    profile: callable
    grid: RadialGrid
    params: dict = field(default_factory=dict)
    tail_power: float | None = None     # v ~ tail_coeff / r^tail_power
    tail_coeff: float | None = None
    range_hint: float = 1.0             # decay scale, used by the ODE solver
    bounded: bool = True                # False only for the c=1 closed form
    table_limit: float | None = None    # tabulated data ends here

    def __post_init__(self):
        vals = np.asarray(self.profile(self.grid.r), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ConfigurationError(f"potential '{self.name}' is not finite on the grid")
        if np.any(vals < 0):
            raise ConfigurationError(
                f"potential '{self.name}' is negative on the grid (repulsive v >= 0 required)"
            )
        self.samples = RadialField(self.grid, vals, POSITION)

    # -- integrability ------------------------------------------------

    def moment_finite(self, power: int) -> bool:
        """Is int |x|^power v d^3x finite? Decided by the algebraic tail."""
        if self.tail_power is None:
            return True
        return self.tail_power > 3 + power

    @property
    def x4v_finite(self) -> bool:
        return self.moment_finite(4)

    @property
    def l2_finite(self) -> bool:
        # An r^-2 integrable singularity at the origin (c=1 closed form)
        # breaks square integrability; tails of power > 3/2 never do.
        return self.bounded

    def _radial_integral(self, weight_power: int, value_power: float = 1.0) -> float:
        """int_0^inf 4 pi r^(2+weight_power) v(r)^value_power dr by adaptive
        quadrature of the analytic profile (grid-independent)."""
        if self.tail_power is not None:
            decay = self.tail_power * value_power - 2 - weight_power
            if decay <= 1:
                return np.inf
        upper = self.table_limit if self.table_limit is not None else np.inf
        val, _ = quad(
            lambda r: 4.0 * np.pi * r ** (2 + weight_power) * self.profile(r) ** value_power,
            0.0, upper, limit=400,
        )
        return float(val)

    @cached_property
    def norms(self) -> PotentialNorms:
        return PotentialNorms(
            v_l1=self._radial_integral(0),
            v_l2=self._radial_integral(0, 2.0) ** 0.5,
            x2v_l1=self._radial_integral(2),
            x4v_l1=self._radial_integral(4) if self.x4v_finite else np.inf,
        )

    @property
    def e_star(self) -> float:
        """Proven small-e monotonicity threshold sqrt(2) pi^3 / ||v||_1^2."""
        return float(np.sqrt(2.0) * np.pi**3 / self.norms.v_l1**2)

    @property
    def e_large(self) -> float:
        """Proven large-e monotonicity threshold 2^3 ||v||_2^4 / pi^4."""
        return float(8.0 * self.norms.v_l2**4 / np.pi**4)

    @cached_property
    def a0(self) -> float:
        return scattering_length(self)

    def resampled(self, grid: RadialGrid) -> "Potential":
        """Same physical potential on another grid; itself on an equal one."""
        if grid == self.grid:
            return self
        return Potential(
            name=self.name, profile=self.profile, grid=grid, params=dict(self.params),
            tail_power=self.tail_power, tail_coeff=self.tail_coeff,
            range_hint=self.range_hint, bounded=self.bounded,
            table_limit=self.table_limit,
        )


def gaussian_potential(amplitude: float, width: float, grid: RadialGrid) -> Potential:
    """v(r) = amplitude * exp(-r^2/width^2)."""
    if amplitude <= 0 or width <= 0:
        raise ConfigurationError("gaussian potential needs amplitude > 0 and width > 0")

    def profile(r):
        return amplitude * np.exp(-((np.asarray(r) / width) ** 2))

    return Potential(
        name="gaussian", profile=profile, grid=grid,
        params={"amplitude": amplitude, "width": width},
        tail_power=None, range_hint=width,
    )


@dataclass(frozen=True)
class ExplicitSolutionSpec:
    """Parameters (b, c, e) of the closed-form solution family.

    The solved pair is u(r) = c/(1+b^2 r^2)^2 at density rho = b^3/(c pi^2).
    """

    b: float
    c: float
    e: float
    allow_unproven_region: bool = False

    def __post_init__(self):
        if self.b <= 0 or self.e <= 0:
            raise ConfigurationError("explicit solution needs b > 0 and e > 0")
        if not 0 < self.c <= 1:
            raise ConfigurationError("explicit solution needs 0 < c <= 1")
        bound = EXPLICIT_SHARP_CONDITION if self.allow_unproven_region else EXPLICIT_CONDITION
        if self.e / self.b**2 < bound - 1e-12:
            raise ConfigurationError(
                f"explicit solution requires e/b^2 >= {bound:.6g}, got {self.e / self.b**2:.6g}"
            )

    @property
    def rho(self) -> float:
        return self.b**3 / (self.c * np.pi**2)

    @property
    def beta(self) -> float:
        """Second-moment coefficient rho int |x|^2 v (1-u) = 6(2e-b^2)/b^2."""
        return 6.0 * (2.0 * self.e - self.b**2) / self.b**2

    def u_profile(self, r):
        return self.c / (1.0 + (self.b * np.asarray(r)) ** 2) ** 2

    def numerator_coefficients(self) -> np.ndarray:
        """Polynomial coefficients (in b^2 x^2) of the potential numerator."""
        b2, e, c = self.b**2, self.e, self.c
        return 12.0 * c * np.array([
            5.0 * e + 16.0 * b2,
            4.0 * (3.0 * e - 2.0 * b2),
            9.0 * e - 7.0 * b2,
            2.0 * e - b2,
        ])


def explicit_potential(spec: ExplicitSolutionSpec, grid: RadialGrid) -> Potential:
    """The closed-form potential solved exactly by u = c/(1+b^2 r^2)^2.

    Decays like |x|^-6, so x^2 v is integrable but int |x|^4 v = inf.
    At c = 1 the value at the origin diverges like r^-2 (still L^1); the
    shifted grid has no node at r = 0, and the L^2 flag is dropped.
    """
    b, c, e = spec.b, spec.c, spec.e
    coeffs = spec.numerator_coefficients()

    def profile(r):
        x2 = (b * np.asarray(r, dtype=float)) ** 2
        num = coeffs[0] + x2 * (coeffs[1] + x2 * (coeffs[2] + x2 * coeffs[3]))
        den = (1.0 + x2) ** 2 * (4.0 + x2) ** 2 * ((1.0 + x2) ** 2 - c)
        return num / den

    if c == 1.0:
        warnings.warn(
            "c = 1 closed-form potential diverges like r^-2 at the origin; "
            "L^2 norms are formally infinite", QualityWarning, stacklevel=2,
        )
    return Potential(
        name="explicit", profile=profile, grid=grid,
        params={"b": b, "c": c, "e": e},
        tail_power=6.0, tail_coeff=float(coeffs[3] / b**6),
        range_hint=1.0 / b, bounded=(c < 1.0),
    )


def tabulated_potential(pairs, grid: RadialGrid) -> Potential:
    """Potential from (r, v) samples; cubic interpolation onto the grid.

    Radii must be strictly increasing and values non-negative. Negative
    interpolants (cubic overshoot) are clamped to zero with a warning.
    The profile is zero beyond the last tabulated radius.
    """
    pairs = np.asarray(list(pairs), dtype=float)
    if pairs.size == 0:
        raise ConfigurationError("tabulated potential needs at least 4 (r, v) pairs")
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 4:
        raise ConfigurationError("tabulated potential needs at least 4 (r, v) pairs")
    r_tab, v_tab = pairs[:, 0], pairs[:, 1]
    if np.any(np.diff(r_tab) <= 0):
        raise ConfigurationError("tabulated radii must be strictly increasing")
    if np.any(r_tab < 0):
        raise ConfigurationError("tabulated radii must be non-negative")
    if np.any(v_tab < 0):
        bad = int(np.argmax(v_tab < 0))
        raise ConfigurationError(f"tabulated value v(r={r_tab[bad]:g}) = {v_tab[bad]:g} is negative")

    if r_tab[0] > 0:
        # even extension through the origin keeps the interpolant radial-smooth
        r_tab = np.concatenate(([-r_tab[1], -r_tab[0]], r_tab))
        v_tab = np.concatenate(([v_tab[1], v_tab[0]], v_tab))
    spline = CubicSpline(r_tab, v_tab, extrapolate=False)
    r_last = float(r_tab[-1])
    clamped = {"seen": False}

    def profile(r):
        r = np.asarray(r, dtype=float)
        out = spline(np.clip(r, r_tab[0], r_last))
        out = np.where(r > r_last, 0.0, out)
        neg = out < 0
        if np.any(neg) and not clamped["seen"]:
            clamped["seen"] = True
            warnings.warn("tabulated interpolant dipped below zero; clamped to 0",
                          QualityWarning, stacklevel=2)
        return np.where(neg, 0.0, out)

    return Potential(
        name="tabulated", profile=profile, grid=grid,
        params={"points": len(pairs)}, range_hint=max(r_last / 8.0, 1.0),
        table_limit=r_last,
    )


def potential_from_file(path, grid: RadialGrid) -> Potential:
    """Two-column whitespace text (r, v), '#' comments."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ConfigurationError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError:
                raise ConfigurationError(f"{path}:{lineno}: non-numeric entry")
    return tabulated_potential(rows, grid)


def _log_derivative_radius(v: Potential) -> float:
    """Integration endpoint for the scattering ODE."""
    if v.table_limit is not None:
        return v.table_limit
    if v.tail_power is not None:
        # algebraic tail: go far out, the residual is removed by a tail fit
        return 600.0 * v.range_hint
    return 25.0 * v.range_hint


_BLOCK = 8192  # RK4 steps per block of transfer matrices; bounds transient memory


def _chain(m):
    """Product m[..., k-1] @ ... @ m[..., 0] of a (2, 2, k) stack, by pairs."""
    while m.shape[-1] > 1:
        k = m.shape[-1] // 2 * 2
        a, b = m[..., 1:k:2], m[..., 0:k:2]   # later, earlier
        m = np.concatenate((a[:, :1] * b[:1] + a[:, 1:] * b[1:], m[..., k:]), axis=-1)
    return m[..., 0]


def _integrate_scattering(v: Potential, r_end: float, n_steps: int,
                          stops: tuple[int, ...]) -> list[float]:
    """RK4 on w'' = v w, w(0) = 0, in steps of r_end/n_steps; returns
    a(r) = r - w/w' after each (ascending) step count in ``stops``.

    y = (w, w') obeys a linear ODE, so a step is y -> M_i y, with M_i the
    four RK4 stages applied to both basis vectors. Blocks of up to _BLOCK
    matrices, each ending at or before a stop, are multiplied pairwise."""
    h = r_end / n_steps
    half = 0.5 * h
    w, wp = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
    y, i0, out = np.array([0.0, 1.0]), 0, []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for stop in stops:
            while i0 < stop:
                i1 = min(i0 + _BLOCK, stop)
                r = np.arange(i0, i1 + 1) * h
                vv = np.asarray(v.profile(r), dtype=float)
                if i0 == 0 and not np.isfinite(vv[0]):
                    vv[0] = vv[1]  # r^-2 origin singularity: integrable, start one step in
                v0, vh, v1 = vv[:-1], np.asarray(v.profile(r[:-1] + half), dtype=float), vv[1:]
                k1w, k1p = wp, v0 * w
                k2w, k2p = wp + half * k1p, vh * (w + half * k1w)
                k3w, k3p = wp + half * k2p, vh * (w + half * k2w)
                k4w, k4p = wp + h * k3p, v1 * (w + h * k3w)
                m = np.stack((w + h / 6.0 * (k1w + 2 * k2w + 2 * k3w + k4w),
                              wp + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)))
                y_next = _chain(m) @ y
                if not np.isfinite(y_next).all():
                    # step through to name the radius; goes on if only the
                    # product overflowed (inf * 0 against w(0) = 0)
                    y_next = y
                    for i in range(i1 - i0):
                        y_next = m[..., i] @ y_next
                        if not np.isfinite(y_next).all():
                            raise ConvergenceError(
                                f"scattering ODE overflowed at r = {r[i + 1]:.3g} "
                                f"(h = {h:.3g}); the potential may be too singular for this step"
                            )
                y, i0 = y_next, i1
            out.append(r_end * (stop / n_steps) - y[0] / y[1])
    return out


def _a0_at_resolution(v: Potential, r_end: float, n_steps: int) -> float:
    if v.tail_power is None:
        return _integrate_scattering(v, r_end, n_steps, (n_steps,))[0]
    # a(r) converges like r^(3 - tail_power); extrapolate from two radii of
    # one sweep, r_end/2 (half a step short of it for odd n_steps) and r_end
    mid = n_steps // 2
    a1, a2 = _integrate_scattering(v, r_end, n_steps, (mid, n_steps))
    return float(a2 + (a2 - a1) / ((n_steps / mid) ** (v.tail_power - 3.0) - 1.0))


def scattering_length(v: Potential, rtol: float = 1e-9, r_end: float | None = None) -> float:
    """Scattering length by 4th-order integration of w'' = v w.

    Each resolution is one sweep of blocked RK4 transfer matrices. The step
    is refined (with Richardson acceleration) until doubling the resolution
    moves the answer by less than ``rtol`` relatively; for an algebraic
    tail, a(r_end/2) and a(r_end) of the same sweep extrapolate r -> inf.
    """
    if r_end is None:
        r_end = _log_derivative_radius(v)
    n = max(4000, int(40 * r_end / v.range_hint))
    prev = _a0_at_resolution(v, r_end, n)
    for _ in range(8):
        n *= 2
        cur = _a0_at_resolution(v, r_end, n)
        richardson = cur + (cur - prev) / 15.0
        change = abs(cur - prev)
        # the absolute floor covers accumulated round-off of the r - w/w'
        # cancellation, which does not shrink with a0 for weak potentials
        if change <= rtol * abs(cur) + 4e-12 * r_end:
            return float(richardson)
        prev = cur
    raise ConvergenceError(
        f"scattering length did not stabilize to rtol={rtol} (last change "
        f"{change / max(abs(cur), 1e-300):.2e} relative); potential may be "
        "too singular for the fixed-step integrator"
    )


def scattering_identity_defect(v: Potential, e: float = 1e-9,
                               n: int = fast_grid_size(16384), r_max: float = 1500.0) -> float:
    """Relative defect of int v phi = -4 pi a0 + int v with phi = K_e v, e -> 0+.

    Cross-validates the ODE route through the operator route. phi decays
    like a0/r, so the solve runs on its own wide grid; the default keeps
    the truncation bias well under the 1% agreement contract.
    """
    from .grids import make_grid
    from .operators import apply_Ke, require_converged

    wide = v.resampled(make_grid(n, r_max))
    phi = require_converged(apply_Ke(wide.samples, e, wide),
                            "K_e solve for the scattering cross-check")
    lhs = wide.grid.integrate(wide.samples.values * phi.values)
    rhs = -4.0 * np.pi * v.a0 + v.norms.v_l1
    return abs(lhs - rhs) / abs(rhs)
