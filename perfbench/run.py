"""Benchmark of bosegas: three fixed library workloads, end to end and by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from anywhere inside a source checkout; the library is imported from
``src/`` next to this directory, nothing is installed. Workloads (see
``workloads.py``): ``dilute_audit``, ``continuation``, ``crossval``.

Each repetition is one fresh worker process (``worker.py``) that imports
the library, sets up, runs the reference kernel, runs the workload once,
checks every answer, runs the reference kernel again and exits. Exactly one
worker runs at a time (a closed loop with one job, as a batch user runs
it), with the BLAS/OpenMP pools pinned to one thread. Repetitions continue
until the workload itself has run for ``--seconds``; at least one runs.

``--trace 0`` reports the end-to-end metrics, as medians over repetitions:

    wall_ref     workload wall time / reference-kernel time (ref)
    cpu_ref      workload process user+sys CPU / the reference's CPU (ref);
                 rises above wall_ref when a change buys speed with threads
    peak_rss_mb  peak resident set of the worker process (MB)
    setup_s      import + grid + potentials with norms and a0 (s), in
                 seconds at reference speed: raw time * REF_UNIT_S / the
                 reference timed right after set-up in the same process;
                 median over at least SETUP_SAMPLES fresh processes
    ok_frac      operations that passed every check / attempted (1)

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``layertrace.METRICS`` from the traced ones, plus
``trace.wall_s`` and ``trace.overhead_frac`` (traced / untraced wall - 1,
within run-to-run noise of a few percent). Spans go to ``.perfbench_out/``
in the checkout.

``--selfcheck`` runs every workload twice, traced, at tiny grid sizes and
checks the harness itself: every layer a workload is claimed to exercise
has nonzero counts, counts repeat exactly, spans nest, and self times sum
to no more than the traced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import METRICS
from workloads import NAMES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 7
REF_UNIT_S = 1.0             # a reference this long leaves setup_s unscaled
RUN_TIMEOUT = 170.0          # seconds for a whole run, workers included

END_TO_END = {"wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB",
              "setup_s": "s", "ok_frac": "1"}
PER_LAYER = dict(METRICS, **{"trace.wall_s": "s", "trace.overhead_frac": "1"})

# Layer metrics (or traced calls) each workload must exercise; the
# self-check fails if any of them reads zero at tiny size.
COMMON = ["grids.transforms", "grids.transform_points", "grids.field_inits",
          "solver.solves", "solver.outer_iters", "solver.tail_calls",
          "potentials.build_s", "potentials.norms_s", "potentials.a0_s"]
CLAIMS = {
    "dilute_audit": COMMON + ["operators.frakKe_solves", "operators.frakKe_iters",
                              "solver.rho_prime_s", "observables.report_s",
                              "observables.audit_s"],
    "continuation": COMMON + ["operators.frakKe_solves", "operators.frakKe_iters",
                              "solver.warm_outer_iters_per_solve",
                              "solver.rho_prime_s"],
    "crossval": COMMON + ["operators.Ke_solves", "operators.Ke_iters"],
}


class HarnessError(RuntimeError):
    """The benchmark itself could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    return env


def worker(args: list, deadline: float) -> dict:
    """Run worker.py to completion; returns its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"worker timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise HarnessError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def wall_ref(rep: dict) -> float:
    return rep["wall_s"] / rep["ref_s"]


def cpu_ref(rep: dict) -> float:
    return rep["cpu_s"] / rep["ref_cpu_s"]


def describe(label: str, rep: dict):
    ok = sum(1 for op in rep["ops"] if op[1])
    print(f"# {label}: wall {rep['wall_s']:.3f} s, cpu {rep['cpu_s']:.3f} s, "
          f"ref {rep['ref_s']:.3f} s ({rep['ref_chunks']} chunks), "
          f"wall_ref {wall_ref(rep):.4f}, cpu_ref {cpu_ref(rep):.4f}, "
          f"rss {rep['peak_rss_mb']:.1f} MB, setup {rep['setup_s']:.3f} s "
          f"(ref {rep['setup_ref_s']:.3f} s), "
          f"ops {ok}/{len(rep['ops'])} ok")
    for op in rep["ops"]:
        if not op[1]:
            print(f"#   FAILED {op[0]}: {op[2]}")


def repeat(base: list, seconds: float, deadline: float, traced: bool, seed: int):
    """Repetitions (plain, or plain+traced pairs) until `seconds` measured."""
    plain, tracedreps, measured = [], [], 0.0
    while not plain or measured < seconds:
        rep = worker(base, deadline)
        describe(f"rep {len(plain) + 1}", rep)
        plain.append(rep)
        measured += rep["wall_s"]
        if traced:
            spans = OUT_DIR / f"spans-{base[1]}-{seed}-{len(tracedreps) + 1}.jsonl"
            rep = worker(base + ["--trace", 1, "--spans-out", spans], deadline)
            describe(f"traced rep {len(tracedreps) + 1}", rep)
            tracedreps.append(rep)
            measured += rep["wall_s"]
        # stop early rather than let the next repetition overrun the deadline
        if deadline - time.monotonic() < 2.5 * max(r["wall_s"] for r in plain):
            break
    return plain, tracedreps


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_TIMEOUT
    base = ["--workload", workload, "--seed", seed]
    plain, traced = repeat(base, seconds, deadline, trace, seed)
    first = plain[0]
    print(f"# env {json.dumps(first['env'], sort_keys=True)}")
    print(f"# inputs {json.dumps(first['inputs'], sort_keys=True)}")
    reps = plain + traced
    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(1 for r in reps for op in r["ops"] if not op[1])

    if not trace:
        setups = [(r["setup_s"], r["setup_ref_s"]) for r in plain]
        while len(setups) < SETUP_SAMPLES:
            rep = worker(base + ["--setup-only"], deadline)
            setups.append((rep["setup_s"], rep["setup_ref_s"]))
        print("# setup samples (raw s / reference s): "
              + ", ".join(f"{s:.3f}/{r:.3f}" for s, r in setups))
        values = {
            "wall_ref": statistics.median(map(wall_ref, plain)),
            "cpu_ref": statistics.median(map(cpu_ref, plain)),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "setup_s": statistics.median(s * REF_UNIT_S / r for s, r in setups),
            "ok_frac": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    else:
        metrics = layer_metrics(plain, traced)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(plain: list, traced: list) -> dict:
    for rep in traced:
        if rep["trace_problems"]:
            raise HarnessError("malformed trace: " + "; ".join(rep["trace_problems"]))
    counts = [{k: v for k, v in r["layers"].items() if METRICS[k] == "count"}
              for r in traced]
    if any(c != counts[0] for c in counts):
        raise HarnessError("layer counts differ between traced repetitions")
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in METRICS}
    wall = statistics.median(r["wall_s"] for r in traced)
    values["trace.wall_s"] = wall
    # Raw walls: the reference chunks read differently inside a traced
    # process (up to 10% on continuation), so wall_ref would bias this.
    values["trace.overhead_frac"] = (wall / statistics.median(r["wall_s"] for r in plain)
                                     - 1.0)
    for name, unit in METRICS.items():
        if unit == "s":
            print(f"# share {name}: {values[name] / wall:.3f} of traced wall")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def spec_problems() -> list[str]:
    """Differences between BENCHMARK.json and what this harness reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, want in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        have = {m["name"]: m["unit"] for m in spec[key]}
        if have != want:
            problems.append(f"BENCHMARK.json {key} lists {have}, the harness {want}")
    if [w["name"] for w in spec["workloads"]] != list(NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    return problems


def selfcheck() -> int:
    deadline = time.monotonic() + 600.0
    problems = spec_problems()
    for name, claims in CLAIMS.items():
        base = ["--workload", name, "--seed", 1, "--size", "tiny", "--trace", 1]
        reps = [worker(base, deadline) for _ in range(2)]
        layers = reps[0]["layers"]
        problems += [f"{name}: {p}" for r in reps for p in r["trace_problems"]]
        problems += [f"{name}: {m} is zero" for m in claims if not layers[m] > 0]
        if reps[0]["calls"] != reps[1]["calls"] or any(
                reps[0]["layers"][m] != reps[1]["layers"][m]
                for m, unit in METRICS.items() if unit == "count"):
            problems.append(f"{name}: counts differ between two traced runs")
        print(f"# selfcheck {name}: {reps[0]['spans']} spans, "
              f"{sum(op[1] for op in reps[0]['ops'])}/{len(reps[0]['ops'])} ops ok")
    for p in problems:
        print(f"SELFCHECK FAILED {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=20201027)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "bosegas" / "__init__.py").is_file():
        print(f"no bosegas source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            ap.error("--workload is required unless --selfcheck is given")
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
