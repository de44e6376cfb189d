"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload train_gate --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the program is imported from the
checkout's own `src/`. With `--trace 0` the result holds the end-to-end
metrics; with `--trace 1` the per-layer metrics of a traced run of the same
code. The line before it is a JSON object with the run's environment and
check details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Run BLAS single-threaded; returns the CPUs this process may use.

    OpenBLAS threads spin while they wait for each other. When the host runs
    other work on the second CPU's core, a two-thread GEMM waits for the slow
    thread: batched scoring fell from 450 to 200 pairs/s in some runs. One
    thread slows in proportion to the load instead, and costs at most 12%
    (on fusion_paper) on a quiet machine.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    if not (SRC / "csafm" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SRC / 'csafm'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    import csafm
    import layers
    import workloads

    if Path(csafm.__file__).resolve().parent != (SRC / "csafm").resolve():
        print(f"error: csafm imported from {csafm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = layers.LayerTracer().install() if args.trace else layers.NullTracer()
    try:
        out = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    finally:
        if args.trace:
            tracer.uninstall()

    # the mean, not the median: on a shared 2-vCPU VM the CPU switched between
    # a fast state and one ~40% slower, every few ms to every few tens of
    # seconds, and a median of short operations jumped between the two while
    # the mean follows the share of time in each (README, "Steadiness")
    op_ms_mean = 1000.0 * statistics.fmean(out.op_s)
    if args.trace:
        values = tracer.report(out.phase, op_ms_mean)
        units = dict(layers.metric_names())
    else:
        values = {
            "setup_s": statistics.median(out.setup_s),
            "op_ms_mean": op_ms_mean,
            "pairs_per_s": out.pairs / out.pairs_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "op_ms_mean": "ms", "pairs_per_s": "pairs/s",
                 "peak_rss_mb": "MiB"}
    failures = sorted(set(out.failures))
    for f in failures:
        print(f"check failed: {f}", file=sys.stderr)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        **{var: os.environ[var] for var in BLAS_VARS},
    }
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "ops": len(out.op_s), "setups": len(out.setup_s),
                      "op_ms_p50": 1000.0 * statistics.median(out.op_s),
                      "env": env, **out.info}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
