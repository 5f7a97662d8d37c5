"""One fresh process running one workload once; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only]
                                [--trace 0|1] [--size full|tiny]

``run.py`` starts it with the thread pools pinned and ``src`` on the path.
Set-up time runs from the first line of this file (before numpy, scipy and
bosegas are imported) to the end of ``workloads.setup``; one reference is
timed right after it, to scale it. Reference-kernel
chunks run on a timer during the workload (``refkernel.Sampler``); their
time is taken out of the workload's wall and CPU time. CPU time and peak
resident set are this process's own.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import bosegas  # noqa: E402  (its import time is part of set-up)
import layertrace  # noqa: E402
import refkernel  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "bosegas": bosegas.__version__,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None,
                    help="write the trace's spans here as JSON lines")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    env = workloads.setup(args.workload, args.size)
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s, "setup_ref_s": refkernel.Sampler().reference_now(),
           "env": environment()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    table = workloads.load_reference() if args.size == "full" else None
    with refkernel.Sampler() as sampler:
        cpu0, t0 = time.process_time(), time.perf_counter()
        ops = workloads.run(inputs, env, table)
        t1, cpu1 = time.perf_counter(), time.process_time()
    paused_wall, paused_cpu = sampler.paused(t0, t1)
    sampler.top_up()
    out.update(
        wall_s=t1 - t0 - paused_wall, cpu_s=cpu1 - cpu0 - paused_cpu,
        ref_s=sampler.reference_s, ref_cpu_s=sampler.reference_cpu_s,
        ref_chunks=len(sampler.walls),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        ops=[list(op) for op in ops],
        inputs={"energies": inputs.energies, "probe_seed": inputs.probe_seed},
    )
    if tracer is not None:
        tracer.finish()
        tracer.pauses = sampler.pauses
        out["layers"] = tracer.metrics()
        out["calls"] = tracer.span_stats()[0]
        out["trace_problems"] = tracer.check()
        out["spans"] = len(tracer.names)
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
