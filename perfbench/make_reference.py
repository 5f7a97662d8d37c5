"""Regenerate reference_rho.json: rho at fixed offsets around each energy point.

    PYTHONPATH=src python3 perfbench/make_reference.py

For every nominal energy point of every workload, solves cold (k-space
scheme, the workload's own pinned grid) at e * exp(offset) for each offset
in ``workloads.REFERENCE_OFFSETS``. The benchmark interpolates these in
log e to the seed-jittered energy it actually ran and compares the density
it got. Run it only when a change of the library is meant to change rho;
the file is the benchmark's record of the answers.
"""

import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def tabulate(workload: str) -> dict:
    from bosegas import solver

    env = workloads.setup(workload)
    config = replace(env["config"], scheme=solver.FOURIER)
    nominal = workloads.make_inputs(workload, 0).nominal
    out = {}
    for family in sorted(nominal):
        entries = []
        for e in nominal[family]:
            rho = [solver.solve_fixed_e(env["potentials"][family],
                                        e * math.exp(s), config).rho
                   for s in workloads.REFERENCE_OFFSETS]
            entries.append({"e": e, "rho": rho})
            print(f"{workload} {family} e={e:.6g}: {rho}", file=sys.stderr)
        out[family] = entries
    return out


def main() -> int:
    table = {"offsets": list(workloads.REFERENCE_OFFSETS)}
    for name in workloads.NAMES:
        t0 = time.perf_counter()
        table[name] = tabulate(name)
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    workloads.REFERENCE_FILE.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
