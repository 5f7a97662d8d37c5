"""The three benchmark workloads: inputs from a seed, set-up, run, checks.

Each workload is a fixed library job at pinned grid sizes. The seed only
jitters the energy points by at most 2% in log and picks the probe seed of
the inequality audit; everything the library sees is generated here.

A workload is split into ``setup`` (grid and potential build, norms, a0:
everything before the first solve) and ``run`` (the solves and their
consumers). ``run`` returns a list of operations, each an ``(label, ok,
detail)`` triple, judged against the acceptance tolerances and against
the reference densities in ``reference_rho.json``.

The library is reached only through module attributes looked up at call
time (``solver.solve_fixed_e``, not a name bound at import), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("dilute_audit", "continuation", "crossval")

# Largest log-jitter applied to an energy point, and the offsets at which
# reference_rho.json tabulates rho around each nominal point; the offsets
# must span [-JITTER, JITTER] for the interpolation to stay accurate.
JITTER = 0.02
REFERENCE_OFFSETS = (-0.02, -0.01, 0.0, 0.01, 0.02)
REFERENCE_RTOL = 1e-7

NORM_TOL = 1e-6          # |rho int u - 1|, criterion 4
FD_RTOL = 0.01           # analytic vs finite-difference rho', criterion 9
GAP_TOL = 1e-6           # scheme cross-validation gap, criterion 13

# Problem sizes. "full" is what the benchmark measures; "tiny" keeps every
# code path but runs in seconds, for the harness self-check.
SIZES = {
    "full": {
        "dilute_audit": dict(n=161999, e=1e-4, r_max=400.0 / math.sqrt(1e-4)),
        "continuation": dict(n=161999, e_min=1e-6, rows=8,
                             r_max=40.0 / math.sqrt(1e-6)),
        "crossval": dict(n=12149, r_max=600.0),
    },
    "tiny": {
        "dilute_audit": dict(n=2999, e=0.05, r_max=40.0 / math.sqrt(0.05)),
        "continuation": dict(n=3599, e_min=1e-2, rows=3,
                             r_max=40.0 / math.sqrt(1e-2)),
        "crossval": dict(n=5999, r_max=600.0),
    },
}

# Gaussian(amp 1, width 1) has ||v||_1 = pi^(3/2), so e_star = sqrt(2).
E_STAR_GAUSS = math.sqrt(2.0)
CROSSVAL_E = {"gaussian": (0.01, 0.1, 1.0),
              "explicit": (0.1, 0.3, 1.0),
              "tabulated": (0.01, 0.1, 1.0)}

REFERENCE_FILE = Path(__file__).with_name("reference_rho.json")


@dataclass(frozen=True)
class Inputs:
    """Everything a workload run depends on, generated from the seed."""

    workload: str
    nominal: dict          # family -> nominal energy points
    energies: dict         # family -> jittered energy points
    probe_seed: int


def make_inputs(workload: str, seed: int, size: str = "full") -> Inputs:
    """Jittered energy points and audit probe seed for one workload."""
    if workload not in NAMES:
        raise ValueError(f"unknown workload {workload!r}; pick one of {NAMES}")
    p = SIZES[size][workload]
    if workload == "dilute_audit":
        nominal = {"gaussian": (p["e"],)}
    elif workload == "continuation":
        nominal = {"gaussian": tuple(float(e) for e in np.geomspace(
            p["e_min"], E_STAR_GAUSS / 10.0, p["rows"]))}
    else:
        nominal = dict(CROSSVAL_E)
        if size == "tiny":
            nominal = {k: v[-1:] for k, v in nominal.items()}
    rng = np.random.default_rng(seed)
    energies = {}
    for family in sorted(nominal):
        points = nominal[family]
        shifts = rng.uniform(-JITTER, JITTER, len(points))
        energies[family] = tuple(float(e * math.exp(s)) for e, s in zip(points, shifts))
    probe_seed = int(rng.integers(0, 2**31 - 1))
    return Inputs(workload, nominal, energies, probe_seed)


# ---------------------------------------------------------------------------
# reference densities
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    with REFERENCE_FILE.open() as fh:
        return json.load(fh)


def reference_rho(table: dict, workload: str, family: str, e_nominal: float,
                  e: float) -> float:
    """rho at e from the tabulated values around e_nominal (quartic in log e)."""
    entry = next(item for item in table[workload][family]
                 if math.isclose(item["e"], e_nominal, rel_tol=1e-12))
    offsets = np.array(table["offsets"])
    coeffs = np.polyfit(offsets, np.log(entry["rho"]), len(offsets) - 1)
    return float(np.exp(np.polyval(coeffs, math.log(e / e_nominal))))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def _tabulated_pairs():
    return [(r, math.exp(-r)) for r in np.linspace(0.0, 30.0, 600)]


def setup(workload: str, size: str = "full") -> dict:
    """Grid, potentials with norms and a0, and the solver config."""
    from bosegas import grids, potentials, solver

    p = SIZES[size][workload]
    scheme = solver.CROSS_VALIDATED if workload == "crossval" else solver.FOURIER
    config = solver.SolverConfig(n=p["n"], r_max=p["r_max"], scheme=scheme)
    grid = grids.make_grid(p["n"], p["r_max"])
    pots = {"gaussian": potentials.gaussian_potential(1.0, 1.0, grid)}
    if workload == "crossval":
        spec = potentials.ExplicitSolutionSpec(b=1.0, c=0.5, e=1.0)
        pots["explicit"] = potentials.explicit_potential(spec, grid)
        pots["tabulated"] = potentials.tabulated_potential(_tabulated_pairs(), grid)
    a0 = {}
    for name, v in pots.items():
        v.norms
        a0[name] = v.a0
    return {"config": config, "grid": grid, "potentials": pots, "a0": a0}


# ---------------------------------------------------------------------------
# runs and checks
# ---------------------------------------------------------------------------

def _state_problems(state, rho_ref: float | None) -> list[str]:
    """Acceptance checks every solved state must pass."""
    from bosegas import errors

    problems = []
    try:
        state.require_invariants(norm_tol=NORM_TOL)
    except errors.InvariantViolation as exc:
        problems.append(str(exc))
    defect = state.normalization_defect()
    if not defect <= NORM_TOL:
        problems.append(f"|rho int u - 1| = {defect:.3e}")
    if rho_ref is not None:
        rel = abs(state.rho - rho_ref) / rho_ref
        if not rel <= REFERENCE_RTOL:
            problems.append(f"rho {state.rho:.12g} vs reference {rho_ref:.12g} "
                            f"(rel {rel:.2e})")
    return problems


def _ref(table, inputs: Inputs, family: str, i: int) -> float | None:
    if table is None:
        return None
    return reference_rho(table, inputs.workload, family,
                         inputs.nominal[family][i], inputs.energies[family][i])


def run(inputs: Inputs, env: dict, table: dict | None) -> list[tuple]:
    """Run the workload; returns one (label, ok, detail) per operation.

    A library exception fails the operation it happened in and every
    operation after it.
    """
    runner = {"dilute_audit": _dilute_audit, "continuation": _continuation,
              "crossval": _crossval}[inputs.workload]
    ops: list[tuple] = []
    planned = (2 if inputs.workload == "dilute_audit"
               else sum(len(v) for v in inputs.energies.values()))
    try:
        runner(inputs, env, table, ops)
    except Exception as exc:  # a failed library call is a failed operation
        ops.append(("exception", False, f"{type(exc).__name__}: {exc}"))
    while len(ops) < planned:
        ops.append(("not run", False, "an earlier operation raised"))
    return ops


def _dilute_audit(inputs, env, table, ops):
    from bosegas import observables, solver

    e = inputs.energies["gaussian"][0]
    v = env["potentials"]["gaussian"]
    state = solver.solve_fixed_e(v, e, env["config"])
    problems = _state_problems(state, _ref(table, inputs, "gaussian", 0))
    ops.append(("solve", not problems, "; ".join(problems)))

    report = observables.observables_report(state, a0=env["a0"]["gaussian"])
    audit = observables.bound_audit(state, seed=inputs.probe_seed)
    problems = [f"audit row {row.name} failed" for row in audit.failures()]
    if not all(map(math.isfinite, (report.eta, report.denominator, report.beta))):
        problems.append("non-finite observable")
    ops.append(("audit", not problems, "; ".join(problems)))


def _continuation(inputs, env, table, ops):
    from bosegas import solver

    record = solver.sweep(env["potentials"]["gaussian"], inputs.energies["gaussian"],
                          env["config"], fd_check=True)
    for i, row in enumerate(record.rows):
        if row.error is not None:
            ops.append((f"row {i}", False, row.error))
            continue
        problems = _state_problems(row.state, _ref(table, inputs, "gaussian", i))
        fd_rel = abs(row.rho_prime_analytic - row.rho_prime_fd) / abs(row.rho_prime_fd)
        if not fd_rel <= FD_RTOL:
            problems.append(f"FD rho' rel {fd_rel:.2e}")
        if not row.e_rho_increasing:
            problems.append("e*rho not increasing")
        ops.append((f"row {i}", not problems, "; ".join(problems)))


def _crossval(inputs, env, table, ops):
    from bosegas import solver

    for family in sorted(inputs.energies):
        v = env["potentials"][family]
        for i, e in enumerate(inputs.energies[family]):
            state = solver.solve_fixed_e(v, e, env["config"])
            problems = _state_problems(state, _ref(table, inputs, family, i))
            if not (state.cross_check is not None and state.cross_check <= GAP_TOL):
                problems.append(f"scheme gap {state.cross_check}")
            if not state.monotone_iterates:
                problems.append("monotone iterates not increasing")
            ops.append((f"{family} e={e:.4g}", not problems, "; ".join(problems)))
