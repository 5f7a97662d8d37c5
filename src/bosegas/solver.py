"""Self-consistent solution of the pair-correlation ground-state system.

The system solved for an integrable u on R^3, at fixed energy per particle e:

    (-Delta + 4e + v) u = v + 2 e rho (u*u),      2e/rho = int (1-u) v dx

Two schemes converge to the same discrete fixed point:

* ``fourier_self_consistent`` (default): in k-space the equation is a
  quadratic in rho*uhat(k) whose integrable root is
  rho*uhat = y / (kappa^2+1 + sqrt((kappa^2+1)^2 - y)),
  y = (rho/2e) Shat(k), kappa = k/(2 sqrt(e)), S = (1-u) v.
* ``real_space_monotone``: monotone Newton on the real-space residual
  R(u) = v + 2e rho u*u - (-Delta + v + 4e) u, rho = 2e / int (1-u) v, from
  u_0 = 0. The first step is u_1 = K_e v; each later one costs two CG solves
  with fK_e^-1 at the iterate. Iterates increase pointwise toward the solution.

The k-space map u -> G(u) is iterated by type-II Anderson mixing of depth
``_ANDERSON_DEPTH``, restarted when max|G(u) - u| grows; its fixed point is
unchanged. It runs on raw sine coefficients through ``grids.dst1``, one
DST-I each way per step. A solve keeps its potential's grid when it equals
the config's.

``_solve`` reaches the fixed point (scheme dispatch, fallback,
cross-validation) and ``_build_state`` turns it into a SolutionState. Callers
that need only rho stop at ``_solve``: the finite-difference pair of
``rho_prime_fd``, whose lower solve starts from the reflection
2 u(e) - u(e + de), and the probes of ``solve_fixed_rho``.

Solutions decay like r^-4, so plain grid quadrature of int u misses an
O(1/r_max) tail. Integrals of u carry a tail-and-image correction whose
leading coefficient comes from the exact small-k form of rho*uhat:
rho*uhat = 1 - sqrt(2+beta) kappa + O(kappa^2) with
beta = -(rho/4e) d^2/dkappa^2 Shat(0) = (rho/3) int |x|^2 S dx, giving
rho u ~ sqrt(2+beta)/(2 pi^2 sqrt(e)) r^-4. The grid's odd-periodization
images of that tail are differences of Hurwitz zeta values, summed as their
odd power series in r/2R and built once per grid (n, r_max).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import binom, zeta

from .errors import ConfigurationError, ConvergenceError, InvariantViolation
from .grids import (FREQUENCY, POSITION, RadialField, RadialGrid, auto_r_max,
                    convolve, dst1, fourier_radial, inverse_fourier_radial, make_grid)
from .operators import (OperatorContext, _preconditioned_cg, apply_frakKe, apply_Ke,
                        require_converged)
from .potentials import Potential, QualityWarning

FOURIER = "fourier_self_consistent"
MONOTONE = "real_space_monotone"
CROSS_VALIDATED = "cross_validated"
_SCHEMES = (FOURIER, MONOTONE, CROSS_VALIDATED)
_ANDERSON_DEPTH = 2     # past differences mixed by the k-space iteration
_STALL_WINDOW = 25      # k-space steps without a new minimum of max|f| before hand-over
_IMAGE_TERMS = 44       # odd terms of the image series; the last is < 1e-20 relative at x = 1/2


@dataclass(frozen=True)
class SolverConfig:
    n: int = 4095                       # n+1 5-smooth: a fast DST-I
    r_max: float | None = None          # None: auto healing-length scaling
    r_max_scale: float = 40.0
    outer_tol: float = 1e-10
    max_outer: int = 500
    scheme: str = FOURIER
    inner_tol: float = 1e-12
    """Relative residual of each K_e/fK_e solve. The recomputed residual floors
    above it, higher for larger n and rougher payloads (fK_e u: ~2e-12 at
    n=4095, 6e-11 at n=161999); below that, ``final_residual`` is the CG
    recurrence's estimate."""
    inner_max_iter: int = 10_000
    warm_start: bool = True             # continuation across sweep rows

    def __post_init__(self):
        if self.n < 16:
            raise ConfigurationError(f"solver grids need n >= 16, got {self.n}")
        if self.scheme not in _SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}; pick one of {_SCHEMES}")
        if self.outer_tol <= 10.0 * self.inner_tol:
            raise ConfigurationError("outer_tol must exceed 10x the inner tolerance")

    def r_max_for(self, e_min: float) -> float:
        return self.r_max if self.r_max is not None else auto_r_max(e_min, self.r_max_scale)

    def grid_for(self, e_min: float) -> RadialGrid:
        return make_grid(self.n, self.r_max_for(e_min))


@dataclass(frozen=True)
class TailModel:
    """u ~ c4/r^4 + c6/r^6 beyond the fit window; c4 is predicted, c6 fitted."""

    c4: float
    c6: float
    window: tuple[float, float]

    def tail_integral(self, r_max: float) -> float:
        """int_{r_max}^inf 4 pi r^2 (c4/r^4 + c6/r^6) dr."""
        return 4.0 * np.pi * (self.c4 / r_max + self.c6 / (3.0 * r_max**3))


@dataclass
class SolutionState:
    """Converged bundle (e, rho, u, S, transforms, diagnostics) of one solve."""

    e: float
    rho: float
    u: RadialField
    u_hat: RadialField              # stores rho * uhat
    S: RadialField
    S_hat: RadialField
    potential: Potential
    config: SolverConfig
    iterations: int
    scheme_used: str
    pde_residual: float
    constraint_residual: float
    tail_mass: float                # rho * (tail integral beyond r_max)
    integral_u: float               # tail- and image-corrected int u
    beta_curvature: float           # -(rho/4e) d^2_kappa Shat(0)
    tail: TailModel
    cross_check: float | None = None
    monotone_iterates: bool | None = None
    notes: list = field(default_factory=list)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def grid(self) -> RadialGrid:
        return self.u.grid

    @property
    def context(self) -> OperatorContext:
        if "context" not in self._cache:
            self._cache["context"] = OperatorContext(
                e=self.e, v=self.potential, rho_u_hat=self.u_hat, grid=self.grid
            )
        return self._cache["context"]

    def u_convolution(self) -> RadialField:
        if "u_conv" not in self._cache:
            self._cache["u_conv"] = convolve(self.u, self.u)
        return self._cache["u_conv"]

    def frakKe_v(self) -> RadialField:
        """fK_e v, the workhorse field of every derivative and observable."""
        if "frakKe_v" not in self._cache:
            self._cache["frakKe_v"] = require_converged(apply_frakKe(
                self.potential.samples, self.context,
                tol=self.config.inner_tol, max_iter=self.config.inner_max_iter,
            ), "fK_e v solve")
        return self._cache["frakKe_v"]

    def normalization_defect(self) -> float:
        return abs(self.rho * self.integral_u - 1.0)

    def radicand_min(self) -> float:
        g = self.grid
        kappa2 = g.k**2 / (4.0 * self.e)
        return float(np.min((kappa2 + 1.0) ** 2
                            - self.rho / (2.0 * self.e) * self.S_hat.values))

    def check_invariants(self, norm_tol: float = 1e-6) -> dict:
        """Evaluate the state contract; returns name -> (value, ok)."""
        v1 = self.potential.norms.v_l1
        u_min, u_max = float(np.min(self.u.values)), float(np.max(self.u.values))
        defect = self.normalization_defect()
        radicand = self.radicand_min()
        return {
            "u_nonneg": (u_min, u_min >= -1e-10),
            "u_le_one": (u_max, u_max <= 1.0 + 1e-10),
            "normalization": (defect, defect <= norm_tol),
            "density_bracket": (self.rho,
                                2.0 * self.e / v1 <= self.rho <= 4.0 * self.e / v1),
            "constraint": (self.constraint_residual, self.constraint_residual <= 1e-8),
            "radicand_nonneg": (radicand, radicand >= 0.0),
            "pde_residual": (self.pde_residual, self.pde_residual <= 1e-7),
        }

    def require_invariants(self, norm_tol: float = 1e-6):
        failed = {k: v for k, (v, ok) in self.check_invariants(norm_tol).items() if not ok}
        if failed:
            raise InvariantViolation(
                f"converged state violates {sorted(failed)} (values {failed}); "
                "increase r_max and/or n"
            )


# ---------------------------------------------------------------------------
# tail machinery
# ---------------------------------------------------------------------------

def _image_sum(r, r_max: float, power: float):
    """Boundary images of s -> s^-power under odd periodization of s^(1-power):
    sum_{l>=1} [(2lR+r)^-q - (2lR-r)^-q]/r = (2R)^-q [zeta(q, 1+x) - zeta(q, 1-x)]/r
    with q = power - 1, x = r/2R and the Hurwitz zeta function (DLMF 25.11).

    The zeta difference cancels near r = 0, so it is summed as its odd series
    -2 sum_{j odd} C(q+j-1, j) zeta(q+j) x^j (the Taylor series of zeta(q, a)
    about a = 1, DLMF 25.11.10), whose terms all have one sign: with the 1/r
    divided out, a polynomial in x^2 evaluated by Horner. _IMAGE_TERMS terms
    reach double precision for x <= 1/2 (r <= R).
    """
    q = power - 1.0
    j = 2.0 * np.arange(_IMAGE_TERMS) + 1.0
    coeffs = binom(q + j - 1.0, j) * zeta(q + j)
    x2 = (np.asarray(r, dtype=float) / (2.0 * r_max)) ** 2
    series = np.full_like(x2, coeffs[-1])
    for c in coeffs[-2::-1]:
        series *= x2
        series += c
    return -2.0 * (2.0 * r_max) ** (-q - 1.0) * series


@lru_cache(maxsize=4)
def _grid_images(grid: RadialGrid):
    """Read-only images of r^-4 and r^-6 at the nodes, and their integrals; built
    on first tail use and shared by every grid with the same (n, r_max). The
    images cancel the model at r_max, so the integrals restore its trapezoid weight."""
    R = grid.r_max
    fields = np.stack([_image_sum(grid.r, R, p) for p in (4.0, 6.0)])
    mass = np.array([grid.integrate(f) + 2.0 * np.pi * grid.dr * R**2 * _image_sum(R, R, p)
                     for f, p in zip(fields, (4.0, 6.0))])
    fields.flags.writeable = False
    mass.flags.writeable = False
    return fields, mass


def _fit_c6(values: np.ndarray, grid: RadialGrid, c4: float,
            window: tuple[float, float]) -> float:
    """Least-squares r^-6 amplitude of ``values - c4 r^-4`` over ``window``,
    both basis functions carrying their boundary images; 0 if the window is
    too short to fit."""
    lo, hi = window
    sel = slice(np.searchsorted(grid.r, lo), np.searchsorted(grid.r, hi, side="right"))
    if hi <= 1.3 * lo or sel.stop - sel.start < 8:
        return 0.0
    fields, _ = _grid_images(grid)
    r = grid.r[sel]
    resid = values[sel] - c4 * (r**-4.0 + fields[0, sel])
    basis6 = r**-6.0 + fields[1, sel]
    return float(np.dot(basis6, resid) / np.dot(basis6, basis6))


def _s_moment(v: Potential, s_values: np.ndarray, grid: RadialGrid, weight_power: int) -> float:
    """int |x|^weight_power S d^3x with the algebraic tail of v restored."""
    base = grid.integrate(s_values if weight_power == 0 else grid.r**weight_power * s_values)
    if v.tail_power is None:
        return base
    p = v.tail_power
    if p - 2.0 - weight_power <= 1.0:
        return np.inf
    # S ~ c1 r^-p + c2 r^-(p+2), fitted over the trailing half-decade
    sel = grid.r >= 0.5 * grid.r_max
    r = grid.r[sel]
    (c1, c2), *_ = np.linalg.lstsq(np.column_stack([r ** (-p), r ** (-p - 2.0)]),
                                   s_values[sel], rcond=None)
    R = grid.r_max
    q1 = p - 3.0 - weight_power
    q2 = p - 1.0 - weight_power
    return base + 4.0 * np.pi * (c1 * R ** (-q1) / q1 + c2 * R ** (-q2) / q2)


def fit_tail_model(u_values: np.ndarray, grid: RadialGrid, e: float, rho: float,
                   beta_curvature: float) -> TailModel:
    """Predicted r^-4 amplitude plus an image-aware least-squares r^-6 term.

    The c4 amplitude is not fitted: it is sqrt(2+beta)/(2 pi^2 sqrt(e) rho)
    from the small-k kink of rho*uhat, exact given beta. Only the subleading
    c6 is fitted, against basis functions that include the odd-periodization
    images the grid solution actually contains.
    """
    c4 = np.sqrt(2.0 + beta_curvature) / (2.0 * np.pi**2 * np.sqrt(e) * rho)
    window = (max(0.25 * grid.r_max, 10.0 / np.sqrt(e)), 0.6 * grid.r_max)
    return TailModel(c4=c4, c6=_fit_c6(u_values, grid, c4, window), window=window)


def corrected_field_integral(values: np.ndarray, grid: RadialGrid, tail: TailModel) -> float:
    """int f d^3x for a grid field that is the odd-periodization of a
    function behaving like the tail model beyond the grid."""
    _, mass = _grid_images(grid)
    image_mass = tail.c4 * mass[0] + tail.c6 * mass[1]
    return grid.integrate(values) - image_mass + tail.tail_integral(grid.r_max)


# ---------------------------------------------------------------------------
# the two schemes
# ---------------------------------------------------------------------------

def _constraint_integral(v: Potential, u_values: np.ndarray, grid: RadialGrid) -> float:
    """int (1-u) v dx, with the algebraic tail of v restored when present."""
    s_values = (1.0 - u_values) * v.samples.values
    return _s_moment(v, s_values, grid, 0)


def _density(e: float, s0: float, history: list) -> float:
    """rho = 2e / s0; an s0 = int (1-u) v that is not positive fails the iterate."""
    if not s0 > 0.0:
        raise ConvergenceError(
            f"constraint integral int (1-u) v = {s0:.3e} is not positive; the "
            "iterate overshot u = 1 on the support of v", history=history)
    return 2.0 * e / s0


def _fourier_iteration(v: Potential, e: float, config: SolverConfig, grid: RadialGrid,
                       u0: np.ndarray | None):
    """Self-consistent k-space iteration; returns (u, rho, iterations, history).

    Type-II Anderson mixing (Walker & Ni 2011) of the closed-form map G: the
    next iterate is G(u) - dG gamma, where gamma fits f = G(u) - u in least
    squares by the last ``_ANDERSON_DEPTH`` differences of f, dG holds those
    of G; when max|f| grows the history restarts from its newest difference.
    The fixed point is that of u = G(u); stops at max|f| <= outer_tol and
    returns G(u) and its rho, or raises ConvergenceError once max|f| is not
    finite or has set no new minimum for ``_STALL_WINDOW`` steps.

    A step is one DST-I each way on raw arrays; the transform scales, a^2
    and the radicand floor are formed once per solve, and no field is built.
    """
    r, k = grid.r, grid.k
    # the transform pair's scales with DST-I's factor 2 folded in (exact)
    to_k = 2.0 * np.pi * grid.dr / k
    to_r = grid.dk / (4.0 * np.pi**2 * r)
    a = k**2 / (4.0 * e) + 1.0
    a2 = a * a
    floor = -1e-12 * a * a
    v_vals = v.samples.values
    u = np.zeros(grid.n) if u0 is None else u0
    s, radicand, f, f_prev = (np.empty(grid.n) for _ in range(4))
    d_f = np.empty((_ANDERSON_DEPTH, grid.n))
    d_g = np.empty_like(d_f)
    g_prev = None
    filled = 0          # differences stored since the last restart
    history = []
    for it in range(1, config.max_outer + 1):
        np.subtract(1.0, u, out=s)
        s *= v_vals
        # transient u > 1 overshoot; clamped S keeps the radicand safe
        np.maximum(s, 0.0, out=s)
        rho = _density(e, _s_moment(v, s, grid, 0), history)
        y = dst1(r * s)
        y *= to_k
        y *= rho / (2.0 * e)
        np.subtract(a2, y, out=radicand)
        bad = radicand < floor
        if np.any(bad):
            k_bad = k[int(np.argmax(bad))]
            raise InvariantViolation(
                f"radicand of the k-space root went negative at k = {k_bad:.6g} "
                f"(min {np.min(radicand):.3e}); the grid under-resolves this "
                "state - increase n and/or r_max"
            )
        np.maximum(radicand, 0.0, out=radicand)
        # a - sqrt(a^2 - y) cancels catastrophically at large k; this form
        # keeps full relative precision in the spectral tail: y becomes rho*uhat
        np.sqrt(radicand, out=radicand)
        radicand += a
        y /= radicand
        y /= rho
        y *= k
        g = dst1(y)
        g *= to_r
        np.subtract(g, u, out=f)
        delta = float(np.max(np.abs(f)))
        history.append(delta)
        if not np.isfinite(delta):
            raise ConvergenceError(
                f"k-space iterate is not finite on step {it}", history=history)
        if delta <= config.outer_tol:
            return g, rho, it, history
        if it - 1 - int(np.argmin(history)) >= _STALL_WINDOW:
            raise ConvergenceError(
                f"k-space iteration stalled: no new minimum of max|G(u) - u| in "
                f"{_STALL_WINDOW} steps (best {min(history):.3e})", history=history)
        u = g
        if g_prev is not None:
            filled = 1 if delta > history[-2] else filled + 1
            slot = (filled - 1) % _ANDERSON_DEPTH
            np.subtract(f, f_prev, out=d_f[slot])
            np.subtract(g, g_prev, out=d_g[slot])
            depth = min(filled, _ANDERSON_DEPTH)
            gram = d_f[:depth] @ d_f[:depth].T
            gamma = np.linalg.lstsq(gram, d_f[:depth] @ f, rcond=None)[0]
            u = g - gamma @ d_g[:depth]
        f, f_prev = f_prev, f
        g_prev = g
    raise ConvergenceError(
        f"k-space iteration did not reach {config.outer_tol} in "
        f"{config.max_outer} iterations (last delta {history[-1]:.3e})",
        history=history,
    )


def _monotone_iteration(v: Potential, e: float, config: SolverConfig, grid: RadialGrid):
    """Monotone Newton (Ortega & Rheinboldt 1970, 13.3) on the real-space system
    from u_0 = 0; returns (u, rho, iterations, monotone, history).

    The residual R(u) = v + 2e rho u*u - (-Delta + v + 4e) u has the Newton
    operator A - rho^2 (u*u) int v(.), A = -Delta + v + 4e(1 - C_{rho u}), so by
    Sherman-Morrison a step solves A a = R and A b = u*u by CG and moves by
    d = a + c b, c = rho^2 int v a / (1 - rho^2 int v b). At u_0 = 0, A = K_e^-1
    and b = 0: the first step is u_1 = K_e v. Stops at max|d| <= outer_tol.
    """
    v_vals = v.samples.values
    k2_4e = grid.k**2 + 4.0 * e
    history = []

    def solve(psi, multiplier, what):
        return require_converged(_preconditioned_cg(
            grid, psi, v_vals, multiplier, config.inner_tol, config.inner_max_iter),
            f"Newton solve for {what} on step {it}", history)

    d = require_converged(apply_Ke(v.samples, e, v, tol=config.inner_tol,
                                   max_iter=config.inner_max_iter), "K_e v solve").values
    u = np.zeros(grid.n)
    rho = _density(e, _constraint_integral(v, u, grid), history)
    monotone = True
    for it in range(1, config.max_outer + 1):
        if it > 1:
            u_hat = fourier_radial(RadialField(grid, u, POSITION)).values
            conv = inverse_fourier_radial(RadialField(grid, u_hat * u_hat, FREQUENCY)).values
            lap4e = inverse_fourier_radial(RadialField(grid, k2_4e * u_hat, FREQUENCY)).values
            multiplier = k2_4e - 4.0 * e * rho * u_hat
            if not np.all(multiplier > 0.0):
                raise ConvergenceError(
                    f"Newton multiplier k^2 + 4e(1 - rho uhat) reached "
                    f"{np.min(multiplier):.3e} on step {it}", history=history)
            a = solve(v_vals + 2.0 * e * rho * conv - lap4e - v_vals * u, multiplier, "a")
            b = solve(conv, multiplier, "b")
            denominator = 1.0 - rho**2 * _s_moment(v, v_vals * b, grid, 0)
            if not denominator > 0.0:
                raise ConvergenceError(
                    f"Newton denominator 1 - rho^2 int v b = {denominator:.3e} is not "
                    f"positive on step {it}", history=history)
            d = a + rho**2 * _s_moment(v, v_vals * a, grid, 0) / denominator * b
        delta = float(np.max(np.abs(d)))
        history.append(delta)
        if np.min(d) < -1e-9:
            monotone = False
        u = u + d
        rho_new = _density(e, _constraint_integral(v, u, grid), history)
        if rho_new < rho - 1e-9 * rho:
            monotone = False
        rho = rho_new
        if delta <= config.outer_tol:
            return u, rho, it, monotone, history
    raise ConvergenceError(
        f"monotone Newton did not reach {config.outer_tol} in "
        f"{config.max_outer} iterations (last delta {history[-1]:.3e})",
        history=history,
    )


def _solve(v: Potential, e: float, config: SolverConfig, grid: RadialGrid,
           u0: np.ndarray | None):
    """Reach the fixed point at e on ``grid`` by the configured scheme, as
    ``solve_fixed_e`` describes, but build no state; returns (u, rho,
    iterations, scheme_used, monotone, gap). ``monotone`` is None when no
    monotone construction ran, ``gap`` when no cross-validation did.
    """
    if config.scheme == CROSS_VALIDATED:
        u_f, rho_f, it_f, _ = _fourier_iteration(v, e, config, grid, u0)
        u_m, _, it_m, monotone, _ = _monotone_iteration(v, e, config, grid)
        gap = float(np.max(np.abs(u_f - u_m)))
        if gap > 1e-6:
            raise InvariantViolation(
                f"scheme cross-validation failed: L-inf gap {gap:.3e} exceeds 1e-6"
            )
        return u_f, rho_f, it_f + it_m, CROSS_VALIDATED, monotone, gap
    scheme_used = MONOTONE
    if config.scheme == FOURIER:
        try:
            u, rho, it, _ = _fourier_iteration(v, e, config, grid, u0)
            return u, rho, it, FOURIER, None, None
        except ConvergenceError:
            warnings.warn(
                "k-space iteration stalled; falling back to the monotone scheme",
                QualityWarning, stacklevel=3,
            )
            scheme_used = MONOTONE + "(fallback)"
    u, rho, it, monotone, _ = _monotone_iteration(v, e, config, grid)
    return u, rho, it, scheme_used, monotone, None


def _build_state(v: Potential, e: float, config: SolverConfig, grid: RadialGrid,
                 u_values: np.ndarray, rho: float, iterations: int, scheme_used: str,
                 monotone: bool | None, gap: float | None) -> SolutionState:
    u = RadialField(grid, u_values, POSITION)
    u_hat_plain = fourier_radial(u)
    rho_u_hat = RadialField(grid, np.clip(rho * u_hat_plain.values, 0.0, 1.0), FREQUENCY)
    s_vals = np.maximum((1.0 - u_values) * v.samples.values, 0.0)
    S = RadialField(grid, s_vals, POSITION)
    S_hat = fourier_radial(S)

    constraint = _constraint_integral(v, u_values, grid)
    constraint_residual = abs(constraint - 2.0 * e / rho) / (2.0 * e / rho)

    m2_s = _s_moment(v, s_vals, grid, 2)
    beta_curvature = rho * m2_s / 3.0

    tail = fit_tail_model(u_values, grid, e, rho, beta_curvature)
    integral_u = corrected_field_integral(u_values, grid, tail)
    tail_mass = rho * tail.tail_integral(grid.r_max)

    # PDE residual with the Laplacian applied spectrally
    conv = inverse_fourier_radial(
        RadialField(grid, u_hat_plain.values * u_hat_plain.values, FREQUENCY))
    lap4e = inverse_fourier_radial(
        RadialField(grid, (grid.k**2 + 4.0 * e) * u_hat_plain.values, FREQUENCY)
    )
    resid = (lap4e.values + v.samples.values * u_values
             - v.samples.values - 2.0 * e * rho * conv.values)
    pde_residual = float(np.sqrt(grid.integrate(resid**2))
                         / np.sqrt(grid.integrate(v.samples.values**2)))

    state = SolutionState(
        e=e, rho=rho, u=u, u_hat=rho_u_hat, S=S, S_hat=S_hat,
        potential=v, config=config, iterations=iterations, scheme_used=scheme_used,
        pde_residual=pde_residual, constraint_residual=constraint_residual,
        tail_mass=tail_mass, integral_u=integral_u,
        beta_curvature=beta_curvature, tail=tail, cross_check=gap,
        monotone_iterates=monotone,
    )
    state._cache["u_conv"] = conv
    return state


def solve_fixed_e(v: Potential, e: float, config: SolverConfig | None = None,
                  u0: RadialField | None = None) -> SolutionState:
    """Solve the system at fixed e; returns a converged SolutionState.

    With ``cross_validated`` both schemes run and must agree in L-infinity
    within 1e-6. The k-space scheme falls back to the monotone construction
    automatically if it fails to converge. The monotone scheme always starts
    from u_0 = 0, so only the k-space scheme uses ``u0``.
    """
    if e <= 0:
        raise ConfigurationError("solve_fixed_e needs e > 0")
    config = config or SolverConfig()
    r_max = config.r_max_for(e)
    if (config.n, r_max) != (v.grid.n, v.grid.r_max):
        v = v.resampled(make_grid(config.n, r_max))
    grid = v.grid
    u0_values = None
    if u0 is not None:
        if u0.grid != grid:
            raise ConfigurationError("warm start field lives on a different grid")
        u0_values = u0.values
    return _build_state(v, e, config, grid, *_solve(v, e, config, grid, u0_values))


# ---------------------------------------------------------------------------
# derivatives in e
# ---------------------------------------------------------------------------

def rho_prime(state: SolutionState) -> float:
    """Analytic drho/de from the closed ratio

        (e/rho) rho' = (1 + rho int (fK_e v)(rho u*u - 2u))
                       / (1 - rho^2 int (fK_e v) u*u).

    The denominator is provably positive; it is asserted here.
    """
    kv = state.frakKe_v().values
    grid = state.grid
    u = state.u.values
    conv = state.u_convolution().values
    rho = state.rho
    int_kv_conv = grid.integrate(kv * conv)
    int_kv_u = grid.integrate(kv * u)
    denominator = 1.0 - rho**2 * int_kv_conv
    if denominator <= 0.0:
        raise InvariantViolation(
            f"rho' denominator {denominator:.3e} is not positive; state is "
            "inconsistent (0 <= fK_e v <= 1 must have failed)"
        )
    numerator = 1.0 + rho * (rho * int_kv_conv - 2.0 * int_kv_u)
    return float(state.rho / state.e * numerator / denominator)


def u_prime(state: SolutionState, rho_prime_value: float) -> RadialField:
    """u' = fK_e(-4u + 2 rho u*u + 2 e rho' u*u), the e-derivative of u."""
    conv = state.u_convolution().values
    payload = RadialField(
        state.grid,
        -4.0 * state.u.values
        + (2.0 * state.rho + 2.0 * state.e * rho_prime_value) * conv,
        POSITION,
    )
    return require_converged(apply_frakKe(payload, state.context,
                                          tol=state.config.inner_tol,
                                          max_iter=state.config.inner_max_iter),
                             "fK_e solve for u'")


def u_prime_integral(state: SolutionState, uprime: RadialField,
                     rho_prime_value: float) -> float:
    """Tail-corrected int u' dx (u' inherits the r^-4 tail of u).

    The predicted r^-4 amplitude of u' is the e-derivative of the one for u,
    computable from local quadratures: with C = c4(e),
    C'/C = beta'/(2(2+beta)) - 1/(2e) - rho'/rho and
    beta' = (rho'/rho) beta - (rho/3) int |x|^2 v u' dx.
    """
    grid = state.grid
    beta = state.beta_curvature
    m2_vu = grid.integrate(grid.r**2 * state.potential.samples.values * uprime.values)
    beta_p = rho_prime_value / state.rho * beta - state.rho / 3.0 * m2_vu
    log_deriv = (beta_p / (2.0 * (2.0 + beta)) - 1.0 / (2.0 * state.e)
                 - rho_prime_value / state.rho)
    c4p = state.tail.c4 * log_deriv
    c6p = _fit_c6(uprime.values, grid, c4p, state.tail.window)
    return corrected_field_integral(uprime.values, grid, TailModel(c4p, c6p, state.tail.window))


def rho_prime_fd(v: Potential, state: SolutionState, rel_step: float = 1e-4) -> float:
    """Centered finite difference of rho(e) by two re-solves on the state's grid.

    Only rho is kept, so neither re-solve builds a state. The upper one starts
    from u(e); the lower one from the reflection 2 u(e) - u(e + de), whose
    error is O(de^2) rather than O(de).
    """
    de = rel_step * state.e
    v = v.resampled(state.grid)
    u = state.u.values
    u_hi, rho_hi, *_ = _solve(v, state.e + de, state.config, v.grid, u)
    _, rho_lo, *_ = _solve(v, state.e - de, state.config, v.grid, 2.0 * u - u_hi)
    return float((rho_hi - rho_lo) / (2.0 * de))


# ---------------------------------------------------------------------------
# sweeps and inversion
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    e: float
    rho: float = np.nan
    e_rho: float = np.nan
    rho_prime_analytic: float = np.nan
    rho_prime_fd: float = np.nan
    rho_second: float = np.nan
    convexity_indicator: float = np.nan
    regime: str = ""
    e_rho_increasing: bool = True
    state: SolutionState | None = None
    error: str | None = None


@dataclass
class SweepRecord:
    rows: list
    potential_name: str
    grid_n: int
    grid_r_max: float
    e_star: float
    e_large: float

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(row, name) for row in self.rows])

    @property
    def converged_rows(self) -> list:
        return [row for row in self.rows if row.error is None]


def _regime_label(e: float, v: Potential) -> str:
    if e < v.e_star:
        return "proven_small_e"
    if e > v.e_large:
        return "proven_large_e"
    return "outside proven monotonicity regime"


def sweep(v: Potential, e_values, config: SolverConfig | None = None,
          fd_check: bool = False) -> SweepRecord:
    """Warm-started continuation over an increasing e-grid.

    Produces rho, analytic rho', finite-difference rho' (from neighbor rows,
    or dedicated +-1e-4 e solves when ``fd_check``), rho'' by centered
    differencing of the analytic rho' column, the convexity indicator
    2 rho'^2 - rho rho'', and the e*rho(e) monotonicity flags. A row that
    fails to solve, or whose state breaks ``require_invariants``, records the
    error (and the state, if any) and the sweep continues.
    """
    e_values = np.asarray(list(e_values), dtype=float)
    if np.any(np.diff(e_values) <= 0):
        raise ConfigurationError("sweep needs strictly increasing e values")
    config = config or SolverConfig()
    grid = config.grid_for(float(e_values[0]))
    cfg = replace(config, r_max=grid.r_max)
    v = v.resampled(grid)

    rows = []
    u_prev = None
    for e in e_values:
        row = SweepRow(e=float(e), regime=_regime_label(float(e), v))
        try:
            state = solve_fixed_e(v, float(e), cfg,
                                  u0=u_prev if config.warm_start else None)
            row.state = state
            state.require_invariants()
            row.rho = state.rho
            row.e_rho = float(e) * state.rho
            row.rho_prime_analytic = rho_prime(state)
            if fd_check:
                row.rho_prime_fd = rho_prime_fd(v, state)
            u_prev = state.u
        except (ConvergenceError, InvariantViolation) as exc:
            row.error = str(exc)
        rows.append(row)

    good = [i for i, row in enumerate(rows) if row.error is None]
    # neighbor-based FD column where dedicated solves were not requested
    if not fd_check:
        for idx in range(len(good)):
            if 0 < idx < len(good) - 1:
                im, i0, ip = good[idx - 1], good[idx], good[idx + 1]
                hm = rows[i0].e - rows[im].e
                hp = rows[ip].e - rows[i0].e
                rows[i0].rho_prime_fd = float(
                    (hm**2 * rows[ip].rho - hp**2 * rows[im].rho
                     + (hp**2 - hm**2) * rows[i0].rho) / (hm * hp * (hm + hp))
                )
    # rho'' from the analytic rho' column and the convexity indicator
    for idx in range(1, len(good) - 1):
        im, i0, ip = good[idx - 1], good[idx], good[idx + 1]
        rows[i0].rho_second = float(
            (rows[ip].rho_prime_analytic - rows[im].rho_prime_analytic)
            / (rows[ip].e - rows[im].e)
        )
        rows[i0].convexity_indicator = float(
            2.0 * rows[i0].rho_prime_analytic**2 - rows[i0].rho * rows[i0].rho_second
        )
    for idx in range(1, len(good)):
        prev, cur = rows[good[idx - 1]], rows[good[idx]]
        if cur.e_rho <= prev.e_rho:
            cur.e_rho_increasing = False

    return SweepRecord(
        rows=rows, potential_name=v.name, grid_n=grid.n, grid_r_max=grid.r_max,
        e_star=v.e_star, e_large=v.e_large,
    )


def solve_fixed_rho(v: Potential, rho_target: float,
                    config: SolverConfig | None = None,
                    rho_rtol: float = 1e-8) -> SolutionState:
    """Invert rho(e): find e with rho(e) = rho_target.

    The initial bracket [rho ||v||_1 / 4, rho ||v||_1 / 2] is guaranteed by
    the density bracket 2e/||v||_1 <= rho(e) <= 4e/||v||_1. If the bracket
    does not straddle (possible outside the proven monotone regimes) a log
    scan locates sign changes and reports multiplicity.
    """
    if rho_target <= 0:
        raise ConfigurationError("solve_fixed_rho needs rho_target > 0")
    config = config or SolverConfig()
    v1 = v.norms.v_l1
    e_lo = rho_target * v1 / 4.0
    e_hi = rho_target * v1 / 2.0
    grid = config.grid_for(e_lo)
    cfg = replace(config, r_max=grid.r_max)
    v = v.resampled(grid)

    cache: dict[float, tuple] = {}      # e -> what _solve returned there
    warm: list = [None]

    def rho_defect(e: float) -> float:
        solved = _solve(v, e, cfg, v.grid, warm[0])
        warm[0] = solved[0]
        cache[e] = solved
        return solved[1] / rho_target - 1.0

    def root_state(e: float) -> SolutionState:
        solved = cache.get(e) or _solve(v, e, cfg, v.grid, warm[0])
        defect = abs(solved[1] - rho_target) / rho_target
        if defect > rho_rtol:
            raise ConvergenceError(
                f"density inversion stopped at |rho - target|/target = {defect:.3e}"
            )
        return _build_state(v, e, cfg, v.grid, *solved)

    f_lo = rho_defect(e_lo)
    f_hi = rho_defect(e_hi)
    if f_lo == 0.0:
        return root_state(e_lo)
    if f_hi == 0.0:
        return root_state(e_hi)
    if f_lo * f_hi > 0:
        # non-monotone or bracket-degenerate: scan for sign changes
        scan = np.geomspace(e_lo / 4.0, e_hi * 4.0, 25)
        values = [rho_defect(float(e)) for e in scan]
        crossings = [i for i in range(len(scan) - 1) if values[i] * values[i + 1] <= 0]
        if not crossings:
            raise ConvergenceError(
                f"no e with rho(e) = {rho_target:g} found in "
                f"[{scan[0]:.3g}, {scan[-1]:.3g}]"
            )
        if len(crossings) > 1:
            warnings.warn(
                f"rho(e) = {rho_target:g} has {len(crossings)} candidate roots; "
                "returning the smallest-e one", QualityWarning, stacklevel=2,
            )
        i = crossings[0]
        e_lo, e_hi = float(scan[i]), float(scan[i + 1])
        f_lo, f_hi = values[i], values[i + 1]

    e_root = brentq(rho_defect, e_lo, e_hi, xtol=1e-300, rtol=1e-14, maxiter=200)
    return root_state(float(e_root))
