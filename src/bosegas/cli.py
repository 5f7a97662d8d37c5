"""Batch command-line surface and machine-readable report emission.

Modes: solve, sweep, invert, observables, audit, validate-explicit.
Configuration comes from a flat key=value file ('#' comments) and/or flags;
flags override file keys. Outputs are CSV data tables (deterministic,
byte-identical for identical config and build) or a schema-versioned JSON
bundle; momentum tables land in separate files keyed by state.

Exit codes: 0 success, 2 configuration error, 3 convergence failure,
4 invariant violation, 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
import warnings
from dataclasses import MISSING, dataclass, field, fields
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .errors import BosegasError, ConfigurationError, InvariantViolation
from .grids import auto_r_max, fast_grid_size
from .observables import beta_moment, bound_audit, observables_report
from .potentials import (ExplicitSolutionSpec, explicit_potential,
                         gaussian_potential, potential_from_file)
from .solver import (FOURIER, SCHEMES, SolverConfig, solve_fixed_e, solve_fixed_rho,
                     sweep)

SCHEMA_VERSION = 2

MODES = ("solve", "sweep", "invert", "observables", "audit", "validate-explicit")
POTENTIALS = ("gaussian", "explicit", "tabulated")

# the keys each mode, and each potential, requires
_REQUIRES = {
    "solve": ("e", "potential"), "observables": ("e", "potential"),
    "audit": ("e", "potential"), "sweep": ("e_min", "e_max", "e_steps", "potential"),
    "invert": ("rho", "potential"), "validate-explicit": ("b", "c", "e"),
    "gaussian": ("amp", "width"), "explicit": ("b", "c"), "tabulated": ("table",),
}


def _key(default=None, *, choices=None, positive=False, help=None):
    return field(default=default,
                 metadata={"choices": choices, "positive": positive, "help": help})


@dataclass
class RunConfig:
    """Every configuration key, declared once. A field is both the file key
    and the flag (its name dashed); its metadata holds the allowed values,
    whether it must be positive and finite, and its help text."""

    mode: str = _key(MISSING, choices=MODES)
    potential: str | None = _key(choices=POTENTIALS)
    table: str | None = _key(help="two-column (r, v) text file")
    amp: float | None = _key(positive=True)
    width: float | None = _key(positive=True)
    b: float | None = _key(positive=True)
    c: float | None = _key()
    v_e: float | None = _key(positive=True,
                             help="construction energy of the explicit potential")
    e: float | None = _key(positive=True)
    e_min: float | None = _key(positive=True)
    e_max: float | None = _key(positive=True)
    e_steps: int | None = _key(positive=True)
    rho: float | None = _key(positive=True)
    grid_n: int | None = _key()
    r_max: float | None = _key(positive=True)
    scheme: str = _key(FOURIER, choices=SCHEMES)
    k_min: float | None = _key(positive=True)
    k_max: float | None = _key(positive=True)
    k_steps: int = _key(24, positive=True)
    out: str = _key("report")
    format: str = _key("csv", choices=("csv", "json"))


# each key's value parser: its annotation with None dropped
_PARSERS = {name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
            for name, hint in get_type_hints(RunConfig).items()}


def parse_config(text: str, overrides: dict | None = None) -> RunConfig:
    """Parse flat key=value text; collect every validation error at once."""
    errors = []
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errors.append(f"line {lineno}: expected key=value, got {body!r}")
            continue
        key, _, value = body.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _PARSERS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            raw[key] = _PARSERS[key](value)
        except ValueError:
            errors.append(f"line {lineno}: cannot parse {key}={value!r} as "
                          f"{_PARSERS[key].__name__}")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in _PARSERS:
            errors.append(f"unknown option {key!r}")
            continue
        raw[key] = value

    for f in fields(RunConfig):
        value = raw.get(f.name)
        if value is None:
            if f.default is MISSING:
                errors.append(f"missing required key {f.name!r}")
        elif f.metadata["choices"] and value not in f.metadata["choices"]:
            errors.append(f"unknown {f.name} {value!r}; expected one of "
                          f"{f.metadata['choices']}")
        elif f.metadata["positive"] and not 0 < value < np.inf:
            errors.append(f"'{f.name}' must be positive and finite, got {value}")
    if "k_min" in raw and "k_max" in raw and not raw["k_min"] < raw["k_max"]:
        errors.append(f"'k_max - k_min' must be positive and finite, got "
                      f"{raw['k_max'] - raw['k_min']} (the momentum window is empty)")
    for kind, names in (("mode", MODES), ("potential", POTENTIALS)):
        if raw.get(kind) in names:
            errors += [f"{kind}={raw[kind]} requires '{key}'"
                       for key in _REQUIRES[raw[kind]] if key not in raw]
    if (raw.get("potential") == "explicit" and raw.get("mode") in ("sweep", "invert")
            and "v_e" not in raw):
        errors.append("potential=explicit needs 'v_e' for sweep/invert "
                      "(the potential is built at a fixed energy)")

    if errors:
        raise ConfigurationError(errors)
    return RunConfig(**raw)


# ---------------------------------------------------------------------------
# report bundle
# ---------------------------------------------------------------------------

@dataclass
class ReportBundle:
    metadata: dict
    columns: list
    rows: list
    audit_columns: list
    audit_rows: list
    momentum_tables: dict
    warnings: list


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(x) for x in row])
    return buf.getvalue()


def _json_rows(rows) -> list:
    """The rows with null where the CSV writes nan or inf, which JSON cannot hold."""
    return [[None if isinstance(x, float) and not np.isfinite(x) else x for x in row]
            for row in rows]


def emit(bundle: ReportBundle, fmt: str, out: str) -> list:
    """Write the bundle as ``fmt`` to files named from ``out``; returns the
    list of files written."""
    written = []
    if fmt == "csv":
        tables = [(f"{out}.csv", bundle.columns, bundle.rows)]
        if bundle.audit_rows:
            tables.append((f"{out}_audit.csv", bundle.audit_columns, bundle.audit_rows))
        tables += [(f"{out}_momentum_{key}.csv", cols, rows)
                   for key, (cols, rows) in bundle.momentum_tables.items()]
        for path, cols, rows in tables:
            with open(path, "w") as fh:
                fh.write(_csv_text(cols, rows))
            written.append(path)
    elif fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "metadata": bundle.metadata,
            "table": {"columns": bundle.columns, "rows": _json_rows(bundle.rows)},
            "audit": {"columns": bundle.audit_columns, "rows": _json_rows(bundle.audit_rows)},
            "momentum": {k: {"columns": c, "rows": _json_rows(r)}
                         for k, (c, r) in bundle.momentum_tables.items()},
            "warnings": bundle.warnings,
        }
        path = f"{out}.json"
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True, allow_nan=False)
            fh.write("\n")
        written.append(path)
    else:
        raise ConfigurationError(f"unknown format {fmt!r}")
    return written


# ---------------------------------------------------------------------------
# mode implementations
# ---------------------------------------------------------------------------

def _solver_config(config: RunConfig, e_min: float, range_hint: float,
                   scale: float) -> SolverConfig:
    r_max = config.r_max if config.r_max is not None else auto_r_max(e_min, scale)
    if config.grid_n is not None:
        n = config.grid_n
    else:
        dr = min(0.25, range_hint / 8.0)
        n = fast_grid_size(min(max(int(r_max / dr), 4096), 4_000_000))
    return SolverConfig(n=n, r_max=r_max, scheme=config.scheme)


def _build_potential(config: RunConfig, grid, default_e: float | None):
    if config.potential == "gaussian":
        return gaussian_potential(config.amp, config.width, grid)
    if config.potential == "explicit":
        v_e = config.v_e if config.v_e is not None else default_e
        spec = ExplicitSolutionSpec(b=config.b, c=config.c, e=v_e)
        return explicit_potential(spec, grid)
    if config.potential == "tabulated":
        return potential_from_file(config.table, grid)
    raise ConfigurationError(f"mode={config.mode} requires a potential")


def _state_row(state):
    return {
        "e": state.e, "rho": state.rho, "e_rho": state.e * state.rho,
        "iterations": state.iterations, "scheme": state.scheme_used,
        "pde_residual": state.pde_residual,
        "constraint_residual": state.constraint_residual,
        "normalization_defect": state.normalization_defect(),
        "tail_mass": state.tail_mass,
    }


def _audit_table(audit):
    columns = ["name", "lhs", "rhs", "margin", "passed", "kind", "note"]
    rows = [[r.name, r.lhs, r.rhs, r.margin, r.passed, r.kind, r.note]
            for r in audit.rows]
    return columns, rows


def run(config: RunConfig) -> ReportBundle:
    """Execute one mode; raises package errors for the exit-code mapping."""
    t_start = time.perf_counter()
    momentum_tables = {}
    audit_cols, audit_rows = [], []

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")

        if config.mode == "validate-explicit":
            spec = ExplicitSolutionSpec(b=config.b, c=config.c, e=config.e)
            scale = 800.0 * np.sqrt(config.e) / config.b   # ~800/b of truncation
            solver_cfg = _solver_config(config, config.e, 1.0 / config.b, scale)
            v = explicit_potential(spec, solver_cfg.grid_for(config.e))
            state = solve_fixed_e(v, config.e, solver_cfg)
            u_exact = spec.u_profile(state.grid.r)
            max_err = float(np.max(np.abs(state.u.values - u_exact)))
            rho_err = abs(state.rho - spec.rho) / spec.rho
            row = _state_row(state)
            row.update({
                "max_u_error": max_err, "rho_exact": spec.rho,
                "rho_rel_error": rho_err, "beta_exact": spec.beta,
                "beta_measured": beta_moment(state),
            })
            state.require_invariants()
            if max_err > 1e-4 or rho_err > 1e-6:
                raise InvariantViolation(
                    f"closed-form validation failed: max|u - u_exact| = {max_err:.3e}, "
                    f"rho error {rho_err:.3e}; refine the grid (grid_n, r_max)"
                )
            columns, rows = list(row), [list(row.values())]

        elif config.mode in ("solve", "observables", "audit"):
            solver_cfg = _solver_config(config, config.e, _range_hint(config), 400.0)
            v = _build_potential(config, solver_cfg.grid_for(config.e), config.e)
            state = solve_fixed_e(v, config.e, solver_cfg)
            state.require_invariants()
            row = _state_row(state)
            if config.mode == "observables":
                k_lo = config.k_min or 10.0 * np.sqrt(state.e)
                k_hi = config.k_max or min(100.0 * np.sqrt(state.e),
                                           0.5 / _range_hint(config),
                                           float(state.grid.k[-1]))
                if k_hi <= k_lo and (config.k_min or config.k_max):
                    raise ConfigurationError(
                        f"momentum window is empty: k_min = {k_lo:g} >= k_max = "
                        f"{k_hi:g} (set k_min below k_max)")
                ks = np.geomspace(k_lo, k_hi, config.k_steps) if k_hi > k_lo else []
                report = observables_report(state, a0=v.a0, k_values=ks)
                row.update({
                    "eta": report.eta,
                    "eta_bogolyubov": report.eta_bogolyubov,
                    "a0": report.a0, "rho_a0_cubed": report.rho_a0_cubed,
                    "lhy_ratio": report.lhy_ratio,
                    "beta": report.beta,
                    "decay_measured": _maybe(report.decay.measured_amplitude),
                    "decay_predicted": _maybe(report.decay.predicted_amplitude),
                    "decay_exponent": _maybe(report.decay.exponent),
                    "tan_constant": report.tan_constant,
                    "obs_denominator": report.denominator,
                })
                if report.momentum_samples:
                    momentum_tables[f"e{state.e:g}"] = (
                        ["k", "M", "k4_M"],
                        [list(row_) for row_ in report.momentum_samples],
                    )
                else:
                    warnings.warn(
                        f"momentum window [{k_lo:g}, {k_hi:g}] is empty (10 sqrt(e) "
                        "exceeds the inverse potential width); pass k_min/k_max "
                        "to sample the distribution", UserWarning, stacklevel=1,
                    )
            if config.mode == "audit":
                audit = bound_audit(state)
                audit_cols, audit_rows = _audit_table(audit)
                failures = audit.failures()
                if failures:
                    raise InvariantViolation(
                        "bound audit failed: " + ", ".join(r.name for r in failures)
                    )
            columns, rows = list(row), [list(row.values())]

        elif config.mode == "invert":
            solver_cfg = _solver_config(
                config, config.rho * 2.0, _range_hint(config), 400.0)
            v = _build_potential(config, solver_cfg.grid_for(config.rho * 2.0),
                                 config.v_e)
            state = solve_fixed_rho(v, config.rho, solver_cfg)
            state.require_invariants()
            row = _state_row(state)
            row["rho_target"] = config.rho
            columns, rows = list(row), [list(row.values())]

        elif config.mode == "sweep":
            e_values = np.geomspace(config.e_min, config.e_max, config.e_steps)
            solver_cfg = _solver_config(config, config.e_min, _range_hint(config), 40.0)
            v = _build_potential(config, solver_cfg.grid_for(config.e_min),
                                 config.v_e)
            record = sweep(v, e_values, solver_cfg)
            columns = ["e", "rho", "rho_prime_analytic", "rho_prime_fd", "e_rho",
                       "convexity_indicator", "regime", "e_rho_increasing", "error"]
            rows = [[r.e, r.rho, r.rho_prime_analytic, r.rho_prime_fd, r.e_rho,
                     r.convexity_indicator, r.regime, r.e_rho_increasing,
                     r.error or ""] for r in record.rows]
            if config.e_steps < 3:
                warnings.warn("insufficient rows for convexity columns",
                              UserWarning, stacklevel=1)
        else:
            raise ConfigurationError(f"unhandled mode {config.mode!r}")

    seen, warn_list = set(), []
    for w in caught:
        msg = str(w.message)
        if msg not in seen:
            seen.add(msg)
            warn_list.append(msg)

    metadata = {
        "mode": config.mode,
        "potential": config.potential,
        "scheme": config.scheme,
        "version": __version__,
        "schema_version": SCHEMA_VERSION,
        "wall_time_s": time.perf_counter() - t_start,
        "out": config.out,
        "format": config.format,
    }
    return ReportBundle(
        metadata=metadata, columns=columns, rows=rows,
        audit_columns=audit_cols, audit_rows=audit_rows,
        momentum_tables=momentum_tables, warnings=warn_list,
    )


def _maybe(x):
    return np.nan if x is None else x


def _range_hint(config: RunConfig) -> float:
    if config.potential == "gaussian" and config.width:
        return config.width
    if config.potential == "explicit" and config.b:
        return 1.0 / config.b
    return 1.0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_argparser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosegas",
        description="Ground-state pair-correlation solver for the repulsive Bose gas",
    )
    parser.add_argument("--config", help="key=value config file ('#' comments)")
    for f in fields(RunConfig):
        parser.add_argument("--" + f.name.replace("_", "-"), type=_PARSERS[f.name],
                            choices=f.metadata["choices"], help=f.metadata["help"])
    return parser


def main(argv=None) -> int:
    args = build_argparser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k != "config"}
    try:
        text = ""
        if args.config:
            with open(args.config) as fh:
                text = fh.read()
        config = parse_config(text, overrides)
        bundle = run(config)
        files = emit(bundle, config.format, config.out)
    except ConfigurationError as exc:
        for message in exc.messages:
            print(f"config error: {message}", file=sys.stderr)
        return exc.exit_code
    except BosegasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    for message in bundle.warnings:
        print(f"warning: {message}", file=sys.stderr)
    for path in files:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
