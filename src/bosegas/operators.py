"""Resolvent operators acting on radial fields.

Four operators, all positivity preserving for repulsive v:

  G_e  = (-Delta + 4e)^-1                       diagonal in k
  K_e  = (-Delta + v + 4e)^-1                   conjugate gradients
  Y_e  = (-Delta + 4e(1 - C_{rho u}))^-1        diagonal in k
  fK_e = (-Delta + v + 4e(1 - C_{rho u}))^-1    conjugate gradients

C_{rho u} is convolution by rho*u (a probability density), so Y_e's Fourier
multiplier is 1/(k^2 + 4e(1 - rho*uhat(k))), bounded below by sqrt(8e)|k|.
With v >= 0 both K_e^-1 and fK_e^-1 are self-adjoint and positive in the
r^2 dr inner product, which is what conjugate gradients needs.

K_e and fK_e are (kM + v)^-1 with kM diagonal in k (G_e^-1, Y_e^-1), and
the Newton operator of the monotone scheme is the same kM + v less a rank-one
term; one Resolvent solves all three. Its preconditioner inverts kM + v
exactly where v lives on at most _SUPPORT_MAX grid nodes (a
capacitance-matrix correction to kM^-1), so such solves take one or two
iterations whatever the strength of v; for a wider support it is kM^-1
alone. An OperatorContext builds its Resolvent once for all its fK_e solves.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve, solve_triangular

from .errors import (ConfigurationError, ConvergenceError, GridMismatchError,
                     InvariantViolation)
from .grids import (FREQUENCY, POSITION, RadialField, RadialGrid, dst1,
                    fourier_radial, inverse_fourier_radial)
from .potentials import Potential, QualityWarning

INNER_TOL = 1e-12
"""Relative residual of every CG solve (K_e, fK_e, Newton's first step and its
two-CG fallback), read when a solve stops. The recomputed residual floors above
it, higher for larger n and rougher payloads (fK_e u: ~2e-12 at n=4095, 6e-11
at n=161999); below that, ``final_residual`` is the CG recurrence's estimate."""
NEWTON_FORCING = 1e-3
"""Relative residual of each Newton step's GMRES solve, read when it stops: a
fixed inexact-Newton forcing term (Dembo, Eisenstat & Steihaug 1982). Newton
gains ~1.2 digits a step on wide supports, so digits past this one buy nothing:
step counts, monotone iterates and rho (to ~1e-13) matched INNER_TOL's."""
MAX_ITER = 10_000        # CG iterations before a solve is reported unconverged
POSITIVITY_SLACK = 1e-10
_SUPPORT_RTOL = 1e-14    # v above this fraction of max v is on the preconditioner's support
_SUPPORT_MAX = 256       # largest support treated exactly; a wider one gets no correction
_KRYLOV_MAX = 40         # GMRES iterations (basis vectors) before a solve is unconverged


@dataclass(frozen=True)
class LinearSolveReport:
    """One K_e, fK_e or Newton solve; ``final_residual`` is the relative
    forward residual ||psi - A w|| / ||psi|| carried by the CG recurrence or
    GMRES's least-squares problem, not recomputed (see INNER_TOL for its
    round-off floor)."""

    iterations: int
    final_residual: float
    converged: bool


@dataclass(frozen=True)
class OperatorContext:
    """Frozen ingredients of Y_e and fK_e for one converged state."""

    e: float
    v: Potential
    rho_u_hat: RadialField   # the function rho * uhat(k) on the k-grid

    def __post_init__(self):
        if self.e <= 0:
            raise ConfigurationError("operator context needs e > 0")
        if self.v.grid != self.grid:
            raise GridMismatchError("operator context: v and rho_u_hat live on different grids")
        if self.rho_u_hat.space != FREQUENCY:
            raise ConfigurationError("rho_u_hat must be frequency-tagged")
        w = self.rho_u_hat.values
        if np.any(w < -1e-9) or np.any(w > 1.0 + 1e-9):
            k_bad = self.grid.k[int(np.argmax((w < -1e-9) | (w > 1.0 + 1e-9)))]
            raise InvariantViolation(
                f"rho*uhat out of (0, 1) at k = {k_bad:.6g}; state is not a valid "
                "solution (refine the grid or check the input)"
            )
        m = self.multiplier()
        floor = np.sqrt(8.0 * self.e) * self.grid.k
        bad = m < floor * (1.0 - 1e-9)
        if np.any(bad):
            k_bad = self.grid.k[int(np.argmax(bad))]
            raise InvariantViolation(
                f"multiplier k^2 + 4e(1 - rho*uhat) below its sqrt(8e)k floor at "
                f"k = {k_bad:.6g}; state violates the spectral lower bound"
            )

    @property
    def grid(self) -> RadialGrid:
        return self.rho_u_hat.grid

    def multiplier(self) -> np.ndarray:
        k = self.grid.k
        return k * k + 4.0 * self.e * (1.0 - self.rho_u_hat.values)

    @cached_property
    def resolvent(self) -> Resolvent:
        """fK_e, built on first use and shared by every solve in this context."""
        return Resolvent(self.grid, self.v, self.multiplier())


def _multiply_in_k(psi: RadialField, multiplier: np.ndarray) -> RadialField:
    """Transform to k, scale by a Fourier multiplier, transform back."""
    psi_hat = fourier_radial(psi)
    return inverse_fourier_radial(
        RadialField(psi.grid, psi_hat.values * multiplier, FREQUENCY)
    )


def _output_field(psi: RadialField, out: np.ndarray, label: str) -> RadialField:
    """The position field of an operator's output values, with sub-1e-10
    negative ringing on sign-definite output clamped; warns if worse."""
    if np.all(psi.values >= 0) and out.size:
        scale = max(float(np.max(np.abs(out))), 1e-300)
        worst = float(np.min(out))
        if worst < -POSITIVITY_SLACK * scale:
            warnings.warn(
                f"{label} lost positivity beyond ringing tolerance "
                f"(min {worst:.3e} vs scale {scale:.3e}); grid may be under-resolved",
                QualityWarning, stacklevel=3,
            )
        elif worst < 0:
            out = np.where(out < 0, 0.0, out)
    return RadialField(psi.grid, out, POSITION)


def apply_Ge(psi: RadialField, e: float) -> RadialField:
    """G_e psi, Fourier multiplier 1/(k^2+4e); kernel exp(-2 sqrt(e)|x|)/(4 pi |x|)."""
    if e <= 0:
        raise ConfigurationError("apply_Ge needs e > 0")
    out = _multiply_in_k(psi, 1.0 / (psi.grid.k**2 + 4.0 * e))
    return _output_field(psi, out.values, "G_e")


def apply_Ye(psi: RadialField, ctx: OperatorContext) -> RadialField:
    """Y_e psi through the diagonal multiplier of the context."""
    out = _multiply_in_k(psi, 1.0 / ctx.multiplier())
    return _output_field(psi, out.values, "Y_e")


def _end(x: np.ndarray, limit: int):
    """1 + the last nonzero node of x (not all 0), or None if one is at or past ``limit``."""
    return None if np.any(x[limit:]) else int(np.flatnonzero(x[:limit])[-1]) + 1


class Resolvent:
    """(kM + v)^-1 on raw arrays, kM diagonal in k with entries ``multiplier``
    and v a Potential's samples, by conjugate gradients preconditioned with
    M^-1, M = kM + P D P^T on y = r*w, where P selects the m nodes where
    v > _SUPPORT_RTOL max v and D = diag(v) there; and (kM + v - c g^T)^-1, a
    rank-one update of it, by GMRES preconditioned with (M - c g^T)^-1
    (``solve_rank_one``). Both kernels apply M^-1 through ``_precondition``.

    As a matrix kM^-1 = dst1(dst1(.) q), q = 1/(2(n+1) multiplier) (DST-I
    twice is 2(n+1) times the identity), is Toeplitz minus Hankel,
    (kM^-1)_ij = c(|i-j|) - c(i+j+2) with c the DCT-I of [0, q, 0], even
    about N = n+1. Its first column is c(i) - c(i+2), so (kM^-1)_ij is the
    sum of that column over |i-j|, |i-j|+2, ..., i+j: two same-parity prefix
    sums of one column, which costs one kM^-1 application and no m x n table
    (and no transform of a new length). By Woodbury, M^-1 s = kM^-1 (s - P x)
    with x = D^1/2 C^-1 D^1/2 (kM^-1 s)_P and C = I + D^1/2 (kM^-1)_PP D^1/2,
    the capacitance matrix (Buzbee, Dorr, George & Golub 1971; Proskurowski &
    Widlund 1976), Cholesky-factored once here. It keeps m-sized arrays and the
    prefix sums (short solves read them), not q: ``solve`` takes the multiplier.

    When the support of v has more than _SUPPORT_MAX nodes, m = 0 and M = kM.
    """

    def __init__(self, grid: RadialGrid, v: Potential, multiplier: np.ndarray):
        self.grid, self.v_values = grid, v.samples.values
        support = np.flatnonzero(self.v_values > _SUPPORT_RTOL * np.max(self.v_values))
        self.support = support if support.size <= _SUPPORT_MAX else support[:0]
        self.reach = grid.n // max(self.support.size, 1)   # short solves: m L <= n
        self.v_end = v.extent if self.support.size and v.extent <= self.reach else None
        if self.support.size:
            n, last = grid.n, int(self.support[-1])
            unit_hat = 2.0 * np.sin(np.pi / (n + 1) * np.arange(1, n + 1))   # dst1 of e_0
            column = dst1(unit_hat * self._kM_inverse_scale(multiplier))
            top = last + (last if self.v_end is None else max(last, self.reach - 1))  # max i + j
            if top >= n:    # c even about N makes the column odd about index n
                column = np.concatenate((column, [0.0], -column[:0:-1]))
            # prefix[t + 2] = column[t] + column[t - 2] + ...
            self.prefix = np.zeros(top + 3)
            self.prefix[2::2] = np.cumsum(column[:top + 1:2])
            self.prefix[3::2] = np.cumsum(column[1:top + 1:2])
            self.d_half = np.sqrt(self.v_values[self.support])
            capacitance = self.d_half[:, None] * self._block(self.support)
            capacitance *= self.d_half
            capacitance[np.diag_indices_from(capacitance)] += 1.0
            try:
                self.factor = cho_factor(capacitance)
            except (ValueError, LinAlgError):   # not finite, or not numerically positive
                raise ConvergenceError(
                    f"capacitance matrix of v on its {self.support.size} support nodes "
                    f"cannot be factored (max v = {np.max(self.v_values):.3e})") from None

    def _kM_inverse_scale(self, multiplier: np.ndarray) -> np.ndarray:
        """q with kM^-1 y = dst1(dst1(y) q) on y = r*w."""
        return 1.0 / (2.0 * (self.grid.n + 1) * multiplier)

    def _block(self, nodes: np.ndarray) -> np.ndarray:
        """(kM^-1)_ij for i in P and j in ``nodes``, from the prefix sums."""
        i = self.support[:, None]
        return self.prefix[i + nodes + 2] - self.prefix[np.abs(i - nodes)]

    def _precondition(self, s: np.ndarray, q: np.ndarray, work: np.ndarray, table=None):
        """(M^-1 s, s - P x) on y = r*w, x = D^1/2 C^-1 D^1/2 (kM^-1 s)_P, so
        that kM M^-1 s = s - P x: two DST-I calls, or four and an m x m
        triangular solve pair when corrected, two fewer if (kM^-1 s)_P is
        ``table`` @ s[:L] (``solve``). ``s - P x`` is written into ``work``,
        or is ``s`` itself when m = 0."""
        if table is None:
            z = dst1(s)
            z *= q
            z = dst1(z)
            if not self.support.size:
                return z, s
        z_P = z[self.support] if table is None else table @ s[:table.shape[1]]
        # a non-finite x (v overflowing the scale of s) makes the Krylov solve break down
        x = self.d_half * cho_solve(self.factor, self.d_half * z_P, check_finite=False)
        np.copyto(work, s)
        work[self.support] -= x
        z = dst1(work)
        z *= q
        return dst1(z), work

    def solve(self, psi: np.ndarray, multiplier: np.ndarray):
        """Solve (kM + v) w = psi, kM with the ``multiplier`` this Resolvent
        was built with; returns (w values, LinearSolveReport).

        Conjugate gradients in the r^2 dr inner product, run on y = r*w: there
        the inner product is a plain dot (its 4 pi dr cancels in every ratio)
        and v is diagonal. z = M^-1 r is kM^-1 (r - P x), and kM z = r - P x,
        so kM p follows from the recurrence kM p <- (r - P x) + beta kM p. An
        iteration costs four DST-I calls and an m x m triangular solve pair,
        or two DST-I calls when m = 0 (then P x = 0 and M = kM) or when psi
        and v end before node L, m L <= n: then every r = r - alpha (v p +
        kM p) does too, and (kM^-1 r)_P is an m x L product. Stops when
        the recursively updated relative residual ||r|| / ||psi|| reaches
        INNER_TOL, or unconverged after MAX_ITER iterations; the true residual
        of w levels off above 1e-12 relative, so checking it against a
        tighter tolerance would never stop. A breakdown (r.z or p.Ap not
        positive and finite, e.g. by underflow or overflow) ends the solve
        unconverged.
        """
        grid, v_values = self.grid, self.v_values
        res_y = grid.r * psi
        psi_sq = float(np.dot(res_y, res_y))
        if psi_sq == 0.0:
            return np.zeros(grid.n), LinearSolveReport(0, 0.0, True)
        q = self._kM_inverse_scale(multiplier)
        y, p, kMp, Ap = (np.zeros(grid.n) for _ in range(4))
        work = np.empty(grid.n)
        res = 1.0                  # ||r|| / ||psi|| at w = 0
        rz_prev = np.inf           # makes the first beta zero
        end = self.v_end and _end(res_y, self.reach)      # m L <= n, or None
        table = self._block(np.arange(max(end, self.v_end))) if end else None
        for it in range(1, MAX_ITER + 1):
            z, kMz = self._precondition(res_y, q, work, table)
            rz = float(np.dot(res_y, z))
            beta = rz / rz_prev
            p *= beta
            p += z
            kMp *= beta
            kMp += kMz
            np.multiply(v_values, p, out=Ap)
            Ap += kMp
            pAp = float(np.dot(p, Ap))
            if not (0.0 < rz < np.inf and 0.0 < pAp < np.inf):   # breakdown
                return y / grid.r, LinearSolveReport(it - 1, res, False)
            alpha = rz / pAp
            y += alpha * p
            res_y -= alpha * Ap
            res = float(np.sqrt(np.dot(res_y, res_y) / psi_sq))
            if res <= INNER_TOL:
                return y / grid.r, LinearSolveReport(it, res, True)
            rz_prev = rz
        return y / grid.r, LinearSolveReport(MAX_ITER, res, False)

    def solve_rank_one(self, psi: np.ndarray, multiplier: np.ndarray, c: np.ndarray,
                       g: np.ndarray):
        """Solve (kM + v - c g^T) w = psi, g^T w the dot g.w, kM as in
        ``solve``; returns (w values, LinearSolveReport, delta_M), or
        (None, None, delta_M) without iterating when delta_M <= 0.

        GMRES (Saad & Schultz 1986) on y = r*w, right-preconditioned by
        P = M - c g^T, which Sherman-Morrison applies from b = M^-1 c:
        P^-1 s = M^-1 s + b (g.M^-1 s) / delta_M, delta_M = 1 - g.b. With
        E = diag(v) off the support, kM + v = M + E, so the preconditioned
        operator is I + E P^-1: an iteration is one M^-1 (``_precondition``),
        a diagonal product and a Gram-Schmidt pass, and the operator is I
        itself when v lives on the support. The basis is kept as separate length-n vectors,
        with the P^-1 of each, so w needs no last P^-1. Stops when the
        least-squares residual ||psi - (kM + v - c g^T) w|| / ||psi|| reaches
        NEWTON_FORCING (the Newton step is inexact); unconverged after
        _KRYLOV_MAX iterations or on a breakdown (a zero or non-finite rotation).

        With c, g >= 0, delta_M is at most delta = 1 - g.(kM + v)^-1 c, the
        Sherman-Morrison denominator of the system itself: M <= kM + v, both
        inverses preserve positivity, and M^-1 c - (kM + v)^-1 c =
        M^-1 E (kM + v)^-1 c >= 0. So delta_M > 0 certifies delta > 0.
        """
        grid = self.grid
        r = grid.r
        res_y = r * psi
        beta = float(np.sqrt(np.dot(res_y, res_y)))
        q = self._kM_inverse_scale(multiplier)
        work = np.empty(grid.n)
        b, _ = self._precondition(r * c, q, work)
        g_y = g / r
        delta_M = 1.0 - float(np.dot(g_y, b))
        if not delta_M > 0.0:
            return None, None, delta_M
        if beta == 0.0:
            return np.zeros(grid.n), LinearSolveReport(0, 0.0, True), delta_M
        hessenberg = np.zeros((_KRYLOV_MAX + 1, _KRYLOV_MAX))
        cosines, sines = np.zeros(_KRYLOV_MAX), np.zeros(_KRYLOV_MAX)
        rhs = np.zeros(_KRYLOV_MAX + 1)     # beta e_1 under the rotations so far
        rhs[0] = beta
        res_y /= beta
        basis, images = [res_y], []         # v_j and P^-1 v_j

        def iterate(k, res, converged):
            coef = solve_triangular(hessenberg[:k, :k], rhs[:k])
            y = np.zeros(grid.n)
            for a, z in zip(coef, images):
                y += a * z
            return y / r, LinearSolveReport(k, res, converged), delta_M

        res = 1.0
        for j in range(_KRYLOV_MAX):
            z, _ = self._precondition(basis[j], q, work)
            z += b * (float(np.dot(g_y, z)) / delta_M)
            images.append(z)
            t = self.v_values * z
            t[self.support] = 0.0               # E z
            t += basis[j]
            h = hessenberg[:, j]
            for i, v_i in enumerate(basis):     # modified Gram-Schmidt
                h[i] = np.dot(v_i, t)
                t -= h[i] * v_i
            h[j + 1] = np.sqrt(np.dot(t, t))
            for i in range(j):                  # earlier rotations
                h[i], h[i + 1] = (cosines[i] * h[i] + sines[i] * h[i + 1],
                                  cosines[i] * h[i + 1] - sines[i] * h[i])
            norm = float(np.hypot(h[j], h[j + 1]))
            if not (norm > 0.0 and np.isfinite(norm)):     # breakdown
                return np.zeros(grid.n), LinearSolveReport(j, res, False), delta_M
            cosines[j], sines[j] = h[j] / norm, h[j + 1] / norm
            next_norm = h[j + 1]
            h[j], h[j + 1] = norm, 0.0
            rhs[j + 1] = -sines[j] * rhs[j]
            rhs[j] *= cosines[j]
            res = abs(float(rhs[j + 1])) / beta
            if res <= NEWTON_FORCING:
                return iterate(j + 1, res, True)
            t /= next_norm
            basis.append(t)
        return iterate(_KRYLOV_MAX, res, False)


def require_converged(solved, what: str, history=None):
    """The output of a ``(values, LinearSolveReport)`` solve; ConvergenceError
    naming ``what`` if the solve stalled."""
    out, report = solved
    if not report.converged:
        raise ConvergenceError(f"{what} stalled at residual {report.final_residual:.3e}",
                               history=history)
    return out


def apply_Ke(psi: RadialField, e: float, v: Potential) -> tuple[RadialField, LinearSolveReport]:
    """K_e psi = (-Delta + v + 4e)^-1 psi by conjugate gradients preconditioned
    with G_e^-1 + v on the support of v."""
    if e <= 0:
        raise ConfigurationError("apply_Ke needs e > 0")
    multiplier = psi.grid.k**2 + 4.0 * e
    out, report = Resolvent(psi.grid, v, multiplier).solve(psi.values, multiplier)
    return _output_field(psi, out, "K_e"), report


def apply_frakKe(psi: RadialField, ctx: OperatorContext) -> tuple[RadialField, LinearSolveReport]:
    """fK_e psi by conjugate gradients preconditioned with Y_e^-1 + v on the
    support of v."""
    out, report = ctx.resolvent.solve(psi.values, ctx.multiplier())
    return _output_field(psi, out, "fK_e"), report


def symmetry_check(phi: RadialField, psi: RadialField, ctx: OperatorContext) -> float:
    """Relative defect of int phi fK_e psi = int psi fK_e phi (self-adjointness)."""
    k_psi = require_converged(apply_frakKe(psi, ctx), "fK_e solve in symmetry check")
    k_phi = require_converged(apply_frakKe(phi, ctx), "fK_e solve in symmetry check")
    a = ctx.grid.integrate(phi.values * k_psi.values)
    b = ctx.grid.integrate(psi.values * k_phi.values)
    return abs(a - b) / max(abs(a), 1e-300)


def frakKe_l2_bound(e: float) -> float:
    """Operator constant of ||fK_e psi||_2 <= (1/pi) (2e)^(-1/4) ||psi||_1."""
    return (2.0 * e) ** (-0.25) / np.pi


def xi_flatness(ctx: OperatorContext, rho_u: RadialField) -> dict:
    """Relative deviation of xi = Y_e(rho u) from its small-e constant
    sqrt(2e)/(3 pi^2) at the probe radii 0.1, 1 and 10."""
    from .grids import evaluate

    xi = apply_Ye(rho_u, ctx)
    target = np.sqrt(2.0 * ctx.e) / (3.0 * np.pi**2)
    deviations = {}
    for r in (0.1, 1.0, 10.0):
        deviations[r] = abs(evaluate(xi, r) - target) / (np.sqrt(2.0 * ctx.e))
    return {"target": target, "deviations": deviations,
            "max_deviation": max(deviations.values())}
