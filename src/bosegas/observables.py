"""Physical observables of a converged state and the inequality audit.

Everything here reduces to quadratures against one operator solve,
fK_e v (self-adjointness moves fK_e off u and 2u - rho u*u onto v), plus
one more fK_e application: the depletion cross-check, which must not share
the solve it checks. The depletion and the momentum distribution share one
denominator, ``SolutionState.D``:

    D = 1 - rho int v fK_e(2u - rho u*u) dx
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import gamma

from .errors import ConfigurationError
from .grids import POSITION, RadialField
from .operators import apply_frakKe, frakKe_l2_bound
from .potentials import power_or_inf
from .solver import (_SMALL_E, _UNPROVEN, AuditRow, SolutionState, SweepRecord,
                     _regime_label, rho_prime)

LHY_COEFFICIENT_FORMULA = "128/(15 sqrt(pi))"

# A cubic spline's end conditions reach d nodes inwards damped by about
# (2 - sqrt 3)^d, below 1e-36 at d = 64: a fit on the requested k-range
# padded by this many nodes gives the full-grid fit's samples.
_SPLINE_MARGIN = 64

# exp(-x) is exactly 0.0 in double precision for x > 745.2, so a probe bump
# is zero beyond sqrt(746) widths from its centre.
_BUMP_REACH = np.sqrt(746.0)

_PROBES = 10    # probe fields of the audit's ||fK_e psi||_2 row


def lhy_coefficient() -> float:
    """Second-order coefficient of the low-density energy expansion."""
    return 128.0 / (15.0 * np.sqrt(np.pi))


def bogolyubov_depletion(rho_a0_cubed: float) -> float:
    """Leading non-condensed fraction 8 sqrt(rho a0^3) / (3 sqrt(pi))."""
    return 8.0 * np.sqrt(rho_a0_cubed) / (3.0 * np.sqrt(np.pi))


def eta_nonnegativity_guaranteed(state: SolutionState) -> bool:
    """Small-density regime rho e^{-1/2} <= 2^(13/4) pi^2 / ||v||_1^2 in which
    the depletion is provably non-negative."""
    bound = 2.0 ** (13.0 / 4.0) * np.pi**2 / power_or_inf(state.potential.norms.v_l1, 2)
    return state.rho / np.sqrt(state.e) <= bound


def condensate_depletion(state: SolutionState) -> float:
    """Non-condensed fraction eta = rho int v fK_e u / D, with the numerator
    taken as rho int u fK_e v (fK_e is self-adjoint)."""
    numerator = state.rho * state.grid.integrate(state.u.values * state.frakKe_v.values)
    return float(numerator / state.D)


def depletion_consistency(state: SolutionState, eta: float) -> float:
    """Relative defect of eta reconstructed through the perturbation field
    s = fK_e(2 eta rho u*u - 2u - 4 eta u), eta = -(rho/2) int s v, an
    independent solve (<= 1e-6 on converged states; inf if it stalls)."""
    payload = RadialField(
        state.grid,
        2.0 * eta * state.rho * state.u_conv.values
        - 2.0 * state.u.values - 4.0 * eta * state.u.values,
        POSITION,
    )
    s_field, report = apply_frakKe(payload, state.context)
    if not report.converged:
        return np.inf
    v_vals = state.potential.samples.values
    eta_s = -0.5 * state.rho * state.grid.integrate(s_field.values * v_vals)
    return abs(eta_s - eta) / max(abs(eta), 1e-300)


def momentum_distribution(state: SolutionState, k_values) -> list:
    """Occupation M(k) = rho*uhat(k) * A(k) / D with the numerator integral

        A(k) = int v fK_e cos(k.x) dx = (vhat(k) - what_v(k)) / m(k),

    w_v = v * (fK_e v) and m(k) the Y_e multiplier. Returns (k, M(k)) pairs;
    requested wavenumbers are cubic-interpolated on the k-nodes that span
    them, padded by ``_SPLINE_MARGIN``.
    """
    k_values = np.atleast_1d(np.asarray(k_values, dtype=float))
    if not k_values.size:
        return []
    grid = state.grid
    if np.any(k_values <= 0) or np.any(k_values > grid.k[-1]):
        raise ConfigurationError(
            f"momentum samples need 0 < k <= {grid.k[-1]:g} on this grid"
        )
    kv = state.frakKe_v
    wv = RadialField(grid, state.potential.samples.values * kv.values, POSITION)
    from .grids import fourier_radial
    what_v = fourier_radial(wv)
    vhat = fourier_radial(state.potential.samples)

    lo = max(np.searchsorted(grid.k, k_values.min()) - _SPLINE_MARGIN, 0)
    near = slice(lo, np.searchsorted(grid.k, k_values.max()) + _SPLINE_MARGIN)
    ruh, vh, wh = (CubicSpline(grid.k[near], f.values[near])(k_values)
                   for f in (state.u_hat, vhat, what_v))
    m = k_values * k_values + 4.0 * state.e * (1.0 - ruh)
    out = [(float(k), float(x)) for k, x in zip(k_values, ruh * ((vh - wh) / m) / state.D)]
    negatives = [k for k, m in out if m < 0.0]
    if negatives:
        # no positivity guarantee exists at finite density; surface, don't hide
        import warnings
        from .potentials import QualityWarning
        warnings.warn(
            f"momentum distribution negative at {len(negatives)} of "
            f"{len(out)} sampled wavenumbers (first at k = {negatives[0]:.4g})",
            QualityWarning, stacklevel=2,
        )
    return out


def tan_constant(state: SolutionState) -> float:
    """Predicted k^-4 tail coefficient C2 = 4 e^2 / rho."""
    return 4.0 * state.e**2 / state.rho


def beta_moment(state: SolutionState) -> float:
    """beta = rho int |x|^2 v (1-u) dx, with the algebraic tail of v restored;
    three times the ``beta_curvature`` of the r^-4 law."""
    return float(state.rho * state.s_moment2)


@dataclass(frozen=True)
class DecayFit:
    measured_amplitude: float | None
    predicted_amplitude: float | None
    exponent: float | None
    window: tuple[float, float]
    note: str = ""


def decay_constant(state: SolutionState) -> DecayFit:
    """Tail law of rho*u against rho tail.c4 r^-4 = sqrt(2+beta)/(2 pi^2 sqrt(e)) r^-4
    with beta = ``state.beta_curvature`` = (rho/3) int |x|^2 S, not ``beta_moment``.

    The fit window sits well inside the truncation radius (boundary images
    distort the outermost nodes) and beyond several healing lengths. The law
    needs int |x|^2 v finite (beta); without it only the measured side is
    returned.
    """
    grid = state.grid
    hi = 0.3 * grid.r_max
    lo = max(hi / 10.0, 8.0 / np.sqrt(state.e))
    window = (lo, hi)
    if lo >= hi / 1.5:
        return DecayFit(None, None, None, window,
                        note="insufficient tail resolution: window collapsed")
    sel = (grid.r >= lo) & (grid.r <= hi)
    vals = state.rho * state.u.values[sel]
    if np.any(vals <= 0):
        return DecayFit(None, None, None, window,
                        note="non-positive tail samples; cannot fit the decay")
    x = np.log(grid.r[sel])
    y = np.log(vals)
    slope, intercept = np.polyfit(x, y, 1)
    measured = float(np.exp(np.mean(y + 4.0 * x)))
    if not state.potential.moment_finite(2):
        return DecayFit(measured, None, float(slope), window,
                        note="int |x|^2 v diverges: r^-4 amplitude law not applicable")
    return DecayFit(measured, float(state.rho * state.tail.c4), float(slope), window)


@dataclass(frozen=True)
class ObservableReport:
    """Everything observable about one converged state, computed once."""

    eta: float
    eta_bogolyubov: float
    eta_consistency: float
    eta_nonneg_guaranteed: bool
    beta: float
    decay: "DecayFit"
    tan_constant: float
    a0: float
    rho_a0_cubed: float
    lhy_ratio: float
    denominator: float
    momentum_samples: list          # (k, M, k^4 M) rows, may be empty


def observables_report(state: SolutionState, a0: float | None = None,
                       k_values=None) -> ObservableReport:
    """Bundle depletion, momentum, decay, and low-density diagnostics.

    The depletion and momentum distribution share the literal same
    denominator value; ``k_values`` defaults to the dilute-regime window
    [10 sqrt(e), min(100 sqrt(e), half the inverse potential range)] and may
    be empty when that window collapses.
    """
    if a0 is None:
        a0 = state.potential.a0
    eta = condensate_depletion(state)
    consistency = depletion_consistency(state, eta)
    lhy = lhy_compare([state], a0)[0]
    if k_values is None:
        k_lo = 10.0 * np.sqrt(state.e)
        k_hi = min(100.0 * np.sqrt(state.e),
                   0.5 / state.potential.range_hint,
                   float(state.grid.k[-1]))
        k_values = np.geomspace(k_lo, k_hi, 24) if k_hi > k_lo else []
    samples = momentum_distribution(state, k_values) if len(k_values) else []
    return ObservableReport(
        eta=eta,
        eta_bogolyubov=bogolyubov_depletion(lhy["rho_a0_cubed"]),
        eta_consistency=consistency,
        eta_nonneg_guaranteed=eta_nonnegativity_guaranteed(state),
        beta=beta_moment(state),
        decay=decay_constant(state),
        tan_constant=tan_constant(state),
        a0=a0,
        rho_a0_cubed=lhy["rho_a0_cubed"],
        lhy_ratio=lhy["lhy_ratio"],
        denominator=state.D,
        momentum_samples=[(k, m, k**4 * m) for k, m in samples],
    )


def lhy_compare(states, a0: float) -> list[dict]:
    """Per-state low-density energy diagnostics.

    lhy_ratio compares the measured next-to-leading correction against
    128/(15 sqrt(pi)) sqrt(rho a0^3); it tends to 1 as rho -> 0.
    """
    rows = []
    for state in states:
        x = state.rho * a0**3
        leading = state.e / (2.0 * np.pi * state.rho * a0)
        rows.append({
            "e": state.e,
            "rho": state.rho,
            "rho_a0_cubed": x,
            "e_over_leading": leading,
            "lhy_ratio": (leading - 1.0) / (lhy_coefficient() * np.sqrt(x)),
        })
    return rows


# ---------------------------------------------------------------------------
# the inequality audit
# ---------------------------------------------------------------------------

@dataclass
class BoundAudit:
    rows: list = field(default_factory=list)

    def add(self, name, lhs, rhs, kind="assert", note="", slack=0.0):
        self.rows.append(AuditRow.check(name, lhs, rhs, kind, note, slack))

    def row(self, name: str) -> AuditRow:
        return next(r for r in self.rows if r.name == name)

    @property
    def asserted_ok(self) -> bool:
        return all(r.passed for r in self.rows if r.kind == "assert")

    def failures(self) -> list:
        return [r for r in self.rows if r.kind == "assert" and not r.passed]


def u_lp_bound_constant(p: float, v_l1: float) -> float:
    """C_p = 2 (4 pi)^(1/p - 1) Gamma(3-p)^(1/p) (2p)^((p-3)/p) ||v||_1 in
    ||u||_p <= C_p e^((p-3)/(2p)); requires 1 <= p < 3."""
    return float(2.0 * (4.0 * np.pi) ** (1.0 / p - 1.0)
                 * gamma(3.0 - p) ** (1.0 / p)
                 * (2.0 * p) ** ((p - 3.0) / p) * v_l1)


def _u_lp_norm(state: SolutionState, p: float) -> float:
    if p == 1.0:
        # int u needs the tail restored; u >= 0 so the L1 norm is int u
        return state.integral_u
    return float(state.grid.integrate(np.abs(state.u.values) ** p) ** (1.0 / p))


def random_nonneg_fields(grid, seed: int = 20260810) -> list[RadialField]:
    """_PROBES reproducible smooth non-negative probe fields (Gaussian bumps)."""
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(_PROBES):
        amp = rng.uniform(0.5, 2.0)
        center = rng.uniform(0.0, 4.0)
        width = rng.uniform(0.5, 2.0)
        values = np.zeros_like(grid.r)
        near = slice(0, np.searchsorted(grid.r, center + _BUMP_REACH * width))
        values[near] = amp * np.exp(-((grid.r[near] - center) / width) ** 2)
        fields.append(RadialField(grid, values, POSITION))
    return fields


def bound_audit(state: SolutionState, sweep: SweepRecord | None = None,
                seed: int = 20260810) -> BoundAudit:
    """Evaluate the named inequality table on one converged state.

    The first rows are ``state.bound_rows()``, the state contract's bounds.
    Constants are recomputed from the potential norms on every call; rows
    marked ``report`` (the 2u >= rho u*u conjecture, regime-restricted
    bounds outside their regime) never fail the audit.
    """
    audit = BoundAudit(state.bound_rows())
    grid = state.grid
    e, rho = state.e, state.rho
    norms = state.potential.norms

    u_l2 = _u_lp_norm(state, 2.0)
    audit.add("sim6", u_l2, norms.v_l1 / (4.0 * np.sqrt(np.pi)) * e ** (-0.25),
              note="||u||_2 <= ||v||_1 e^(-1/4)/(4 sqrt(pi)) as printed")
    audit.add("sim6_proof", u_l2, norms.v_l1 / (2.0 * np.sqrt(np.pi)) * e ** (-0.25),
              note="same bound with the constant its proof yields (2x weaker)")
    audit.add("sim6Y", u_l2, norms.v_l2 / (2.0 * e),
              note="||u||_2 <= ||v||_2/(2e)")
    for p in (1.0, 1.5, 2.0, 2.5):
        audit.add(f"sim6B_p{p:g}", _u_lp_norm(state, p),
                  u_lp_bound_constant(p, norms.v_l1) * e ** ((p - 3.0) / (2.0 * p)),
                  note="||u||_p <= C_p e^((p-3)/2p)")

    kv = state.frakKe_v.values
    audit.add("kl1_low", 0.0, float(np.min(kv)), slack=1e-10,
              note="fK_e v >= 0 at every node")
    audit.add("kl1_high", float(np.max(kv)), 1.0, slack=1e-10,
              note="fK_e v <= 1 at every node")
    audit.add("kl1_strict", float(np.min(kv)), 1.0 - 1e-6,
              note="fK_e v < 1 somewhere")
    audit.add("vKv", grid.integrate(state.potential.samples.values * kv),
              norms.v_l1, note="int v fK_e v <= int v")

    worst_ratio = 0.0
    for psi in random_nonneg_fields(grid, seed=seed):
        out = state.solve_frakKe(psi, "an audit probe")
        ratio = out.norm_l2() / (frakKe_l2_bound(e) * psi.integral())
        worst_ratio = max(worst_ratio, ratio)
    audit.add("frakKL2", worst_ratio, 1.0,
              note=f"||fK_e psi||_2 <= (1/pi)(2e)^(-1/4) ||psi||_1, {_PROBES} probes")

    regime = _regime_label(e, state.potential)
    in_small_e = regime == _SMALL_E
    rp = rho_prime(state)
    audit.add("rhopb2", rp, 16.0 / norms.v_l1,
              kind="assert" if in_small_e else "report",
              note="rho' <= 16/||v||_1" + ("" if in_small_e else " (outside proven regime)"))
    audit.add("rho_prime_positive", 0.0, rp,
              kind="report" if regime == _UNPROVEN else "assert",
              note="rho' > 0" + ("" if in_small_e else " (regime-dependent)"))

    gb = 2.0 * state.u.values - rho * state.u_conv.values
    audit.add("gb_conjecture", 0.0, float(np.min(gb)), kind="report", slack=1e-10,
              note="conjecture - report only: 2u - rho u*u >= 0")

    if sweep is not None:
        ok_rows = sweep.converged_rows
        increasing = all(row.e_rho_increasing for row in ok_rows)
        audit.add("parmon", 0.0 if increasing else 1.0, 0.5,
                  note="e*rho(e) strictly increasing across the sweep")
    return audit
