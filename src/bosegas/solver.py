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
  u_0 = 0. The first step is u_1 = K_e v; each later one is one GMRES solve,
  inexact to the forcing NEWTON_FORCING, with the Newton operator, fK_e^-1 at
  the iterate plus a rank-one term (two CG solves where only they certify its
  denominator). Iterates increase pointwise toward the solution.

The k-space map u -> G(u) is iterated by type-II Anderson mixing of depth
``_ANDERSON_DEPTH``, restarted when max|G(u) - u| grows; its fixed point is
unchanged. It runs on raw sine coefficients through ``grids.dst1``, one
DST-I each way per step. A solve keeps its potential's grid when it equals
the config's.

``_solve`` reaches the fixed point (scheme dispatch, fallback,
cross-validation) as a ``Solved`` record, and ``_build_state`` turns it into
a SolutionState. Callers that need only rho read it off the record: the
finite-difference pair of ``rho_prime_fd``, which starts from the analytic
tangent u(e) +- de u'(e), and the probes of ``solve_fixed_rho``.

Solutions decay like r^-4, so plain grid quadrature of int u misses an
O(1/r_max) tail. Integrals of u carry a tail-and-image correction whose
leading coefficient comes from the exact small-k form of rho*uhat:
rho*uhat = 1 - sqrt(2+beta) kappa + O(kappa^2) with
beta = -(rho/4e) d^2/dkappa^2 Shat(0) = (rho/3) int |x|^2 S dx, giving
rho u ~ sqrt(2+beta)/(2 pi^2 sqrt(e)) r^-4. The grid's odd-periodization
images of that tail are differences of Hurwitz zeta values, summed as their
odd power series in r/2R and built once per grid (n, r_max). Moments of S
with an algebraic v restore v's tail by fixed weights, also built once per grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import binom, zeta

from .errors import ConfigurationError, ConvergenceError, InvariantViolation
from .grids import (FREQUENCY, POSITION, RadialField, RadialGrid, auto_r_max, dst1,
                    fourier_radial, inverse_fourier_radial, make_grid)
from .operators import OperatorContext, Resolvent, apply_frakKe, apply_Ke, require_converged
from .potentials import Potential, QualityWarning

FOURIER = "fourier_self_consistent"
MONOTONE = "real_space_monotone"
CROSS_VALIDATED = "cross_validated"
SCHEMES = (FOURIER, MONOTONE, CROSS_VALIDATED)
_OUTER_TOL = 1e-10      # max|G(u) - u| (k-space) or max|d| (Newton) at convergence
_MAX_OUTER = 500        # outer steps before either scheme gives up
_ANDERSON_DEPTH = 2     # past differences mixed by the k-space iteration
_STALL_WINDOW = 25      # k-space steps without a new minimum of max|f| before hand-over
_IMAGE_TERMS = 44       # odd terms of the image series; the last is < 1e-20 relative at x = 1/2
_FD_REL_STEP = 1e-4     # de / e of the centered difference in rho_prime_fd
_INVERSION_RTOL = 1e-8  # |rho - target| / target accepted at the root of solve_fixed_rho
_LOWER_END_PROBES = 12  # lower ends solve_fixed_rho tries, each a quarter of the last


@dataclass(frozen=True)
class SolverConfig:
    n: int = 4095                       # n+1 5-smooth: a fast DST-I
    r_max: float | None = None          # None: auto_r_max(e_min), 40 healing lengths
    scheme: str = FOURIER

    def __post_init__(self):
        if self.n < 16:
            raise ConfigurationError(f"solver grids need n >= 16, got {self.n}")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")

    def r_max_for(self, e_min: float) -> float:
        return self.r_max if self.r_max is not None else auto_r_max(e_min)

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


@dataclass(frozen=True)
class AuditRow:
    """One inequality lhs <= rhs evaluated on a state."""

    name: str
    lhs: float
    rhs: float
    passed: bool
    kind: str = "assert"        # "report" rows never gate anything
    note: str = ""

    @classmethod
    def check(cls, name, lhs, rhs, kind="assert", note="", slack=0.0) -> "AuditRow":
        """The row of lhs <= rhs + slack; a NaN side fails it."""
        return cls(name=name, lhs=float(lhs), rhs=float(rhs),
                   passed=bool(lhs <= rhs + slack), kind=kind, note=note)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


# rho <= 4e/||v||_1 holds exactly when int u v <= ||v||_1 / 2, which strong
# potentials break on every grid (u -> 1 on the support of v); a finer grid
# does not clear this row
_GRID_INDEPENDENT_ROWS = frozenset({"con4B_high"})


@dataclass
class SolutionState:
    """Converged bundle (e, rho, u, transforms, diagnostics) of one solve.

    The operator context, fK_e v and the observables' denominator D are
    computed on first use and kept for the state's lifetime. The r^-4 law
    rho u ~ rho tail.c4 r^-4 = sqrt(2+beta)/(2 pi^2 sqrt(e)) r^-4 takes beta = beta_curvature.
    """

    e: float
    rho: float
    u: RadialField
    u_hat: RadialField              # stores rho * uhat
    u_conv: RadialField             # u*u
    potential: Potential
    config: SolverConfig
    iterations: int
    scheme_used: str
    pde_residual: float
    constraint_residual: float
    integral_u: float               # tail- and image-corrected int u
    s_moment2: float                # int |x|^2 S, S = (1-u) v, tail of v restored
    radicand_min: float             # min over k of (kappa^2+1)^2 - (rho/2e) Shat(k)
    tail: TailModel
    cross_check: float | None = None
    monotone_iterates: bool | None = None

    @property
    def grid(self) -> RadialGrid:
        return self.u.grid

    @property
    def beta_curvature(self) -> float:
        """(rho/3) int |x|^2 S = -(rho/4e) d^2_kappa Shat(0): the beta of ``tail.c4``."""
        return self.rho * self.s_moment2 / 3.0

    @property
    def tail_mass(self) -> float:
        """rho * (tail integral beyond r_max)."""
        return self.rho * self.tail.tail_integral(self.grid.r_max)

    @cached_property
    def context(self) -> OperatorContext:
        return OperatorContext(e=self.e, v=self.potential, rho_u_hat=self.u_hat)

    def solve_frakKe(self, payload: RadialField, what: str) -> RadialField:
        """fK_e payload at this state, to INNER_TOL."""
        return require_converged(apply_frakKe(payload, self.context), f"fK_e solve for {what}")

    @cached_property
    def frakKe_v(self) -> RadialField:
        """fK_e v, the workhorse field of every derivative and observable."""
        return self.solve_frakKe(self.potential.samples, "v")

    @cached_property
    def D(self) -> float:
        """1 - rho int v fK_e(2u - rho u*u), the denominator the depletion and
        the momentum distribution share. fK_e is self-adjoint, so this is the
        quadrature 1 + rho(rho int (fK_e v) u*u - 2 int (fK_e v) u) against
        ``frakKe_v`` with no solve of its own, and the numerator of rho'."""
        kv, rho = self.frakKe_v.values, self.rho
        int_kv_conv = self.grid.integrate(kv * self.u_conv.values)
        return 1.0 + rho * (rho * int_kv_conv - 2.0 * self.grid.integrate(kv * self.u.values))

    def normalization_defect(self) -> float:
        return abs(self.rho * self.integral_u - 1.0)

    def bound_rows(self, norm_tol: float = 1e-6) -> list:
        """The proven state bounds rho int u = 1, 0 <= u <= 1 and
        2e/||v||_1 <= rho <= 4e/||v||_1 (Carlen, Jauslin & Lieb,
        arXiv:1912.04987), shared by the contract and ``bound_audit``."""
        e, rho, v1 = self.e, self.rho, self.potential.norms.v_l1
        u = self.u.values
        return [
            AuditRow.check("intu", self.normalization_defect(), norm_tol,
                           note="rho int u = 1 (tail-corrected quadrature)"),
            AuditRow.check("u_range_low", 0.0, np.min(u), slack=1e-10,
                           note="u >= 0 at every node"),
            AuditRow.check("u_range_high", np.max(u), 1.0, slack=1e-10,
                           note="u <= 1 at every node"),
            AuditRow.check("con4B_low", 2.0 * e / v1, rho, note="2e/||v||_1 <= rho"),
            AuditRow.check("con4B_high", rho, 4.0 * e / v1, note="rho <= 4e/||v||_1"),
        ]

    def check_invariants(self, norm_tol: float = 1e-6) -> dict:
        """The state contract, name -> AuditRow: ``bound_rows`` plus the
        constraint, radicand and PDE residuals."""
        rows = self.bound_rows(norm_tol) + [
            AuditRow.check("constraint", self.constraint_residual, 1e-8,
                           note="2e/rho = int (1-u) v, relative"),
            AuditRow.check("radicand", 0.0, self.radicand_min,
                           note="(kappa^2+1)^2 >= (rho/2e) Shat(k) on the k-grid"),
            AuditRow.check("pde_residual", self.pde_residual, 1e-7,
                           note="relative L2 residual of the pair equation"),
        ]
        return {row.name: row for row in rows}

    def require_invariants(self, norm_tol: float = 1e-6):
        """InvariantViolation naming every failed contract row; the grid hint
        is given only when a failed row is one refinement can move. With max
        u^2 below the smallest normal double, u*u underflows on every grid."""
        rows = self.check_invariants(norm_tol)
        failed = [row for row in rows.values() if not row.passed]
        if failed:
            fixed, note, tiny = _GRID_INDEPENDENT_ROWS, "", np.finfo(float).tiny
            if not rows["pde_residual"].passed and np.max(self.u.values) ** 2 < tiny:
                fixed, note = fixed | {"pde_residual"}, f"; max u^2 < {tiny:.3g}: u*u underflows"
            hint = ("; increase r_max and/or n"
                    if any(r.name not in fixed for r in failed) else "")
            raise InvariantViolation(
                "converged state violates "
                + ", ".join(f"{r.name} ({r.note}: {r.lhs:.6g} vs {r.rhs:.6g})" for r in failed)
                + hint + note
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


@lru_cache(maxsize=8)
def _tail_weights(grid: RadialGrid, tail_power: float, weight_power: int) -> np.ndarray:
    """Read-only weights g with g . S[-g.size:] the integral beyond r_max of
    4 pi r^(2+weight_power) (c1 r^-p + c2 r^-(p+2)), p = tail_power, fitted to S
    over r >= r_max/2 by least squares. The fit is linear, (c1, c2) = pinv(B) S,
    so g = pinv(B^T) t; built once per (grid, tail_power, weight_power)."""
    p, w, R = tail_power, weight_power, grid.r_max
    r = grid.r[grid.r >= 0.5 * R]
    t = 4.0 * np.pi * np.array([R ** (3.0 + w - p) / (p - 3.0 - w),
                                R ** (1.0 + w - p) / (p - 1.0 - w)])
    g = np.linalg.lstsq(np.column_stack([r ** (-p), r ** (-p - 2.0)]).T, t, rcond=None)[0]
    g.flags.writeable = False
    return g


def _s_moment(v: Potential, s_values: np.ndarray, grid: RadialGrid, weight_power: int) -> float:
    """int |x|^weight_power S d^3x with the algebraic tail of v restored."""
    if not v.moment_finite(weight_power):
        return np.inf
    base = grid.integrate(s_values if weight_power == 0 else grid.r**weight_power * s_values)
    if v.tail_power is None:
        return base
    tail = _tail_weights(grid, v.tail_power, weight_power)
    return base + np.dot(tail, s_values[-tail.size:])


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

@dataclass(frozen=True)
class Solved:
    """A fixed point and how it was reached, in SolutionState's field names."""

    u: np.ndarray
    rho: float
    iterations: int
    scheme_used: str
    history: list       # max|G(u) - u| (k-space) or max|d| (Newton) per step
    monotone_iterates: bool | None = None
    cross_check: float | None = None


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


def _spectral_terms(u: RadialField, e: float):
    """uhat, u*u and (-Delta + 4e) u of a position field, by three transforms;
    the first as raw values, the other two as fields."""
    u_hat = fourier_radial(u).values
    conv = inverse_fourier_radial(RadialField(u.grid, u_hat * u_hat, FREQUENCY))
    lap4e = inverse_fourier_radial(
        RadialField(u.grid, (u.grid.k**2 + 4.0 * e) * u_hat, FREQUENCY))
    return u_hat, conv, lap4e


def _kspace_map(v: Potential, e: float, grid: RadialGrid):
    """The closed-form map u -> (G(u), rho(u)) of the k-space scheme.

    A step is one DST-I each way on raw arrays. S = (1-u) v, its integral and
    (rho/2e) r S are formed on v's extent (v is 0 beyond it), the last in a kept
    zero-padded input; no field is built. ``history`` goes into the errors a
    step raises.
    """
    r, k, L = grid.r, grid.k, v.extent
    v_vals, r_L = v.samples.values[:L], r[:L]
    weights = _moment_weights(v, grid)[:L].copy()
    # the transform pair's scales with DST-I's factor 2 folded in (exact)
    to_k = 2.0 * np.pi * grid.dr / k
    to_r = grid.dk / (4.0 * np.pi**2 * r)
    a = k**2 / (4.0 * e) + 1.0
    a2 = a * a
    rs, radicand = np.zeros(grid.n), np.empty(grid.n)

    def step(u: np.ndarray, history: list):
        # transient u > 1 overshoot; clamped S keeps the radicand safe
        s = np.maximum((1.0 - u[:L]) * v_vals, 0.0)
        rho = _density(e, float(np.dot(weights, s)), history)
        np.multiply(r_L, s, out=rs[:L])
        rs[:L] *= rho / (2.0 * e)
        y = dst1(rs)            # y = (rho/2e) Shat / to_k
        np.multiply(to_k, y, out=radicand)
        np.subtract(a2, radicand, out=radicand)
        if radicand.min() < 0.0:
            bad = radicand < -1e-12 * a * a
            if np.any(bad):
                k_bad = k[int(np.argmax(bad))]
                raise InvariantViolation(
                    f"radicand of the k-space root went negative at k = {k_bad:.6g} "
                    f"(min {np.min(radicand):.3e}); the grid under-resolves this "
                    "state - increase n and/or r_max"
                )
            np.maximum(radicand, 0.0, out=radicand)
        # a - sqrt(a^2 - y) cancels catastrophically at large k; this form
        # keeps full relative precision in the spectral tail. y becomes
        # k uhat = (k to_k / rho) y / (a + sqrt), with k to_k = 2 pi dr
        np.sqrt(radicand, out=radicand)
        np.add(radicand, a, out=radicand)
        y /= radicand
        y *= 2.0 * np.pi * grid.dr / rho
        g = dst1(y)
        g *= to_r
        return g, rho

    return step


def _fourier_iteration(v: Potential, e: float, grid: RadialGrid,
                       u0: np.ndarray | None) -> Solved:
    """Self-consistent k-space iteration.

    Type-II Anderson mixing (Walker & Ni 2011) of the closed-form map G: the
    next iterate is G(u) - dG gamma, where gamma fits f = G(u) - u in least
    squares by the last ``_ANDERSON_DEPTH`` differences of f, dG holds those
    of G; when max|f| grows the history restarts from its newest difference.
    The fixed point is that of u = G(u); stops at max|f| <= _OUTER_TOL and
    returns G(u) and its rho, or raises ConvergenceError once max|f| is not
    finite or has set no new minimum for ``_STALL_WINDOW`` steps.
    """
    step = _kspace_map(v, e, grid)
    mix = np.zeros(grid.n)  # holds every mixed iterate
    u = mix if u0 is None else u0
    f, f_prev = np.empty(grid.n), np.empty(grid.n)
    d_f = np.empty((_ANDERSON_DEPTH, grid.n))
    d_g = np.empty_like(d_f)
    g_prev = None
    filled = 0          # differences stored since the last restart
    history = []
    for it in range(1, _MAX_OUTER + 1):
        g, rho = step(u, history)
        np.subtract(g, u, out=f)
        delta = float(max(f.max(), -f.min()))
        history.append(delta)
        if not np.isfinite(delta):
            raise ConvergenceError(
                f"k-space iterate is not finite on step {it}", history=history)
        if delta <= _OUTER_TOL:
            return Solved(g, rho, it, FOURIER, history)
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
            gram = np.array([[np.dot(p, q) for q in d_f[:depth]] for p in d_f[:depth]])
            gamma = np.linalg.lstsq(gram, d_f[:depth] @ f, rcond=None)[0]
            np.dot(gamma, d_g[:depth], out=mix)
            u = np.subtract(g, mix, out=mix)
        f, f_prev = f_prev, f
        g_prev = g
    raise ConvergenceError(
        f"k-space iteration did not reach {_OUTER_TOL} in "
        f"{_MAX_OUTER} iterations (last delta {history[-1]:.3e})",
        history=history,
    )


def _moment_weights(v: Potential, grid: RadialGrid) -> np.ndarray:
    """The vector g with g . s = _s_moment(v, s, grid, 0) for every s: the
    trapezoid weights plus the tail weights of ``_tail_weights``."""
    weights = 4.0 * np.pi * grid.dr * grid.r * grid.r
    if v.tail_power is not None:
        tail = _tail_weights(grid, v.tail_power, 0)
        weights[-tail.size:] += tail
    return weights


def _monotone_iteration(v: Potential, e: float, grid: RadialGrid) -> Solved:
    """Monotone Newton (Ortega & Rheinboldt 1970, 13.3) on the real-space system
    from u_0 = 0; ``monotone_iterates`` says whether u and rho never fell.

    The residual R(u) = v + 2e rho u*u - (-Delta + v + 4e) u has the Newton
    operator J = A - rho^2 (u*u) l, l(w) = int v w, A = -Delta + v +
    4e(1 - C_{rho u}). At u_0 = 0, A = K_e^-1 and u*u = 0: the first step is
    u_1 = K_e v. Each later step solves J d = R once, by ``Resolvent.solve_rank_one``
    (GMRES preconditioned by M - rho^2 (u*u) l, M the Resolvent's
    preconditioner of A, stopped at the relative residual NEWTON_FORCING:
    inexact, as Newton gains only ~1.2 digits a step), when its denominator
    delta_M = 1 - rho^2 l(M^-1 u*u) is positive: delta_M is a lower bound on
    the Sherman-Morrison denominator delta = 1 - rho^2 l(A^-1 u*u), so
    delta > 0 then holds.
    Otherwise (a strong v whose support is too wide for M to treat it
    exactly) the step solves A a = R and A b = u*u by CG and moves by
    d = a + c b, c = rho^2 l(a) / delta, with a delta that is not positive a
    ConvergenceError. l is the tail-restored ``_s_moment`` of v w, a dot with
    fixed weights. Stops at max|d| <= _OUTER_TOL.

    Newton's stopping rule leaves a uniform ~1e-13 error in u that int u
    weighs by the whole grid volume, so the converged iterate takes one
    closed-form k-space step u <- G(u) (2 DST-I, same rho), which rebuilds
    the tail from S = (1-u) v. Should that step fail, Newton's u is kept.
    """
    v_vals = v.samples.values
    k2_4e = grid.k**2 + 4.0 * e
    ell = _moment_weights(v, grid) * v_vals
    history = []

    def solve(solved, what):
        return require_converged(solved, f"Newton {what} on step {it}", history)

    d = require_converged(apply_Ke(v.samples, e, v), "K_e v solve").values
    u = np.zeros(grid.n)
    rho = _density(e, _constraint_integral(v, u, grid), history)
    monotone = True
    for it in range(1, _MAX_OUTER + 1):
        if it > 1:
            u_hat, conv, lap4e = _spectral_terms(RadialField(grid, u, POSITION), e)
            conv = conv.values
            multiplier = k2_4e - 4.0 * e * rho * u_hat
            if not np.all(multiplier > 0.0):
                raise ConvergenceError(
                    f"Newton multiplier k^2 + 4e(1 - rho uhat) reached "
                    f"{np.min(multiplier):.3e} on step {it}", history=history)
            resolvent = Resolvent(grid, v, multiplier)
            residual = v_vals + 2.0 * e * rho * conv - lap4e.values - v_vals * u
            d, report, _ = resolvent.solve_rank_one(residual, multiplier, conv, rho**2 * ell)
            if report is not None:
                d = solve((d, report), "GMRES solve")
            else:
                a = solve(resolvent.solve(residual, multiplier), "solve for a")
                b = solve(resolvent.solve(conv, multiplier), "solve for b")
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
        if delta <= _OUTER_TOL:
            try:
                u, _ = _kspace_map(v, e, grid)(u, history)
            except (ConvergenceError, InvariantViolation) as exc:
                warnings.warn(f"closed-form tail step after Newton failed ({exc}); "
                              "keeping the Newton iterate", QualityWarning, stacklevel=3)
            return Solved(u, rho, it, MONOTONE, history, monotone_iterates=monotone)
    raise ConvergenceError(
        f"monotone Newton did not reach {_OUTER_TOL} in "
        f"{_MAX_OUTER} iterations (last delta {history[-1]:.3e})",
        history=history,
    )


def _solve(v: Potential, e: float, config: SolverConfig, u0: np.ndarray | None) -> Solved:
    """Reach the fixed point at e on v's grid by the configured scheme, as
    ``solve_fixed_e`` describes, but build no state. Cross-validation returns
    the k-space record with both schemes' steps and the schemes' L-inf gap.
    """
    if not np.any(v.samples.values):
        raise InvariantViolation(f"v is 0 at every grid node (dr = {v.grid.dr:.6g}): the grid "
                                 "steps over its support; decrease dr (raise n or lower r_max)")
    if config.scheme == CROSS_VALIDATED:
        fourier = _fourier_iteration(v, e, v.grid, u0)
        newton = _monotone_iteration(v, e, v.grid)
        gap = float(np.max(np.abs(fourier.u - newton.u)))
        if gap > 1e-6:
            raise InvariantViolation(
                f"scheme cross-validation failed: L-inf gap {gap:.3e} exceeds 1e-6"
            )
        return replace(fourier, iterations=fourier.iterations + newton.iterations, cross_check=gap,
                       scheme_used=CROSS_VALIDATED, monotone_iterates=newton.monotone_iterates)
    if config.scheme == FOURIER:
        try:
            return _fourier_iteration(v, e, v.grid, u0)
        except ConvergenceError:
            warnings.warn(
                "k-space iteration stalled; falling back to the monotone scheme",
                QualityWarning, stacklevel=3,
            )
        return replace(_monotone_iteration(v, e, v.grid), scheme_used=MONOTONE + "(fallback)")
    return _monotone_iteration(v, e, v.grid)


def _build_state(v: Potential, e: float, config: SolverConfig, solved: Solved) -> SolutionState:
    grid, u_values, rho = v.grid, solved.u, solved.rho
    u = RadialField(grid, u_values, POSITION)
    s_vals = np.maximum((1.0 - u_values) * v.samples.values, 0.0)
    S_hat = fourier_radial(RadialField(grid, s_vals, POSITION))
    kappa2 = grid.k**2 / (4.0 * e)
    radicand_min = np.min((kappa2 + 1.0) ** 2 - rho / (2.0 * e) * S_hat.values)

    constraint = _constraint_integral(v, u_values, grid)
    constraint_residual = abs(constraint - 2.0 * e / rho) / (2.0 * e / rho)

    m2_s = _s_moment(v, s_vals, grid, 2)
    tail = fit_tail_model(u_values, grid, e, rho, rho * m2_s / 3.0)
    integral_u = corrected_field_integral(u_values, grid, tail)

    u_hat, conv, lap4e = _spectral_terms(u, e)
    rho_u_hat = RadialField(grid, np.clip(rho * u_hat, 0.0, 1.0), FREQUENCY)
    # PDE residual with the Laplacian applied spectrally, relative to ||v||_2 on
    # the grid; when v^2 underflows to 0 both norms are taken of x / max v
    resid = (lap4e.values + v.samples.values * u_values
             - v.samples.values - 2.0 * e * rho * conv.values)
    v_sq = grid.integrate(v.samples.values**2)
    if v_sq == 0.0:
        v_max = np.max(v.samples.values)
        resid, v_sq = resid / v_max, grid.integrate((v.samples.values / v_max) ** 2)
    pde_residual = float(np.sqrt(grid.integrate(resid**2)) / np.sqrt(v_sq))

    return SolutionState(
        e=e, rho=rho, u=u, u_hat=rho_u_hat, u_conv=conv,
        potential=v, config=config, iterations=solved.iterations,
        scheme_used=solved.scheme_used, pde_residual=pde_residual,
        constraint_residual=constraint_residual, integral_u=integral_u, s_moment2=m2_s,
        radicand_min=radicand_min, tail=tail, cross_check=solved.cross_check,
        monotone_iterates=solved.monotone_iterates,
    )


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
    u0_values = None
    if u0 is not None:
        if u0.grid != v.grid:
            raise ConfigurationError("warm start field lives on a different grid")
        u0_values = u0.values
    return _build_state(v, e, config, _solve(v, e, config, u0_values))


# ---------------------------------------------------------------------------
# derivatives in e
# ---------------------------------------------------------------------------

def rho_prime(state: SolutionState) -> float:
    """Analytic drho/de from the closed ratio

        (e/rho) rho' = (1 + rho int (fK_e v)(rho u*u - 2u))
                       / (1 - rho^2 int (fK_e v) u*u).

    The numerator is ``state.D``. The denominator is provably positive; it
    is asserted here.
    """
    int_kv_conv = state.grid.integrate(state.frakKe_v.values * state.u_conv.values)
    denominator = 1.0 - state.rho**2 * int_kv_conv
    if denominator <= 0.0:
        raise InvariantViolation(
            f"rho' denominator {denominator:.3e} is not positive; state is "
            "inconsistent (0 <= fK_e v <= 1 must have failed)"
        )
    return float(state.rho / state.e * state.D / denominator)


def u_prime(state: SolutionState, rho_prime_value: float) -> RadialField:
    """u' = fK_e(-4u + 2 rho u*u + 2 e rho' u*u), the e-derivative of u."""
    conv = state.u_conv.values
    payload = RadialField(
        state.grid,
        -4.0 * state.u.values
        + (2.0 * state.rho + 2.0 * state.e * rho_prime_value) * conv,
        POSITION,
    )
    return state.solve_frakKe(payload, "u'")


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


def rho_prime_fd(state: SolutionState) -> float:
    """Centered finite difference of rho(e) by two re-solves of the state's
    potential at e +- de, de = _FD_REL_STEP e, on the state's grid.

    Only rho is kept, so neither re-solve builds a state. They start from the
    tangent u(e) +- de u'(e), which is O(de^2) from either answer; u' costs one
    fK_e solve, rho' reuses the state's fK_e v. The start moves only the path:
    each re-solve still iterates to its own fixed point.
    """
    de = _FD_REL_STEP * state.e
    v, u = state.potential, state.u.values
    du = de * u_prime(state, rho_prime(state)).values
    rho_hi = _solve(v, state.e + de, state.config, u + du).rho
    rho_lo = _solve(v, state.e - de, state.config, u - du).rho
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

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(row, name) for row in self.rows])

    @property
    def converged_rows(self) -> list:
        return [row for row in self.rows if row.error is None]


_SMALL_E, _UNPROVEN = "proven_small_e", "outside proven monotonicity regime"


def _regime_label(e: float, v: Potential) -> str:
    """Which proven monotonicity regime of v, if any, contains e."""
    if e < v.e_star:
        return _SMALL_E
    if e > v.e_large:
        return "proven_large_e"
    return _UNPROVEN


def sweep(v: Potential, e_values, config: SolverConfig | None = None,
          fd_check: bool = False) -> SweepRecord:
    """Warm-started continuation over an increasing e-grid.

    Produces rho, analytic rho', finite-difference rho' (from neighbor rows,
    or ``rho_prime_fd`` re-solves when ``fd_check``), rho'' by centered
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
            state = solve_fixed_e(v, float(e), cfg, u0=u_prev)
            row.state = state
            state.require_invariants()
            row.rho = state.rho
            row.e_rho = float(e) * state.rho
            row.rho_prime_analytic = rho_prime(state)
            if fd_check:
                row.rho_prime_fd = rho_prime_fd(state)
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

    return SweepRecord(rows=rows)


def solve_fixed_rho(v: Potential, rho_target: float,
                    config: SolverConfig | None = None) -> SolutionState:
    """Invert rho(e): find e with rho(e) = rho_target, to _INVERSION_RTOL.

    rho(e) >= 2e/||v||_1 for every repulsive v (u >= 0; Carlen, Jauslin &
    Lieb, arXiv:1912.04987), so rho(e_hi) >= rho_target at e_hi = rho_target
    ||v||_1 / 2. e_lo starts at e_hi / 2 and, while rho(e_lo) > rho_target, the
    bracket moves down (e_hi <- e_lo, e_lo <- e_lo / 4; ``_LOWER_END_PROBES``
    lower ends at most) before brentq runs on it. The grid is sized from the
    first e_lo, so with an auto r_max a root far below it can fail ``intu``.
    """
    if rho_target <= 0:
        raise ConfigurationError("solve_fixed_rho needs rho_target > 0")
    config = config or SolverConfig()
    e_hi = rho_target * v.norms.v_l1 / 2.0
    e_lo = e_hi / 2.0
    grid = config.grid_for(e_lo)
    cfg = replace(config, r_max=grid.r_max)
    v = v.resampled(grid)

    cache: dict[float, Solved] = {}
    warm: list = [None]

    def rho_defect(e: float) -> float:
        if e not in cache:      # brentq re-evaluates the bracket ends
            cache[e] = _solve(v, e, cfg, warm[0])
            warm[0] = cache[e].u
        return cache[e].rho / rho_target - 1.0

    for _ in range(_LOWER_END_PROBES):
        if rho_defect(e_lo) <= 0:       # the first probe starts from u = 0
            break
        e_hi, e_lo = e_lo, e_lo / 4.0
    else:
        raise ConvergenceError(f"rho(e) > {rho_target:g} at every e tried, down to {e_hi:.3g}")
    if rho_defect(e_hi) < 0:            # a new probe only if the bracket never moved
        raise InvariantViolation(f"con4B_low (2e/||v||_1 <= rho) fails at e = {e_hi:.6g}, rho = "
                                 f"{cache[e_hi].rho:.6g}: the grid misintegrates v")
    # a bracket end with rho exactly on target is brentq's root, read from the cache
    e_root = float(brentq(rho_defect, e_lo, e_hi, xtol=1e-300, rtol=1e-14, maxiter=200))
    solved = cache.get(e_root) or _solve(v, e_root, cfg, warm[0])
    defect = abs(solved.rho - rho_target) / rho_target
    if defect > _INVERSION_RTOL:
        raise ConvergenceError(
            f"density inversion stopped at |rho - target|/target = {defect:.3e}"
        )
    return _build_state(v, e_root, cfg, solved)
