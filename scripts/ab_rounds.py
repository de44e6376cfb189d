"""Time a base revision against this checkout in one process, in alternating rounds.

    python3 scripts/ab_rounds.py --base HEAD~1 --workload fusion_paper --rounds 20 --workdir /tmp/ab

Each round runs one benchmark workload, the function perfbench/run.py calls
from perfbench/workloads.py, once on each side for --seconds, the side that
goes first alternating from round to round; round i runs seed i on both
sides. The base revision's committed files are exported with `git archive`
into a fresh directory under --workdir, as record_bench.py does. Both
checkouts' `csafm` and benchmark modules are then imported into this
process: `sys.modules` is purged of them between the two imports, and each
side's workload keeps its own module objects. BLAS runs on one thread, as
run.py pins it. One untimed round per side goes first, so the cached
weights and warm buffers a workload makes on its first call are not timed.

It prints each side's median of the rounds' op_ms_mean, the median over
rounds of the paired ratio change/base, and how many rounds the change won.
Separate benchmark runs also carry the drift between processes; alternating
rounds pair each measurement with one taken moments apart.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from record_bench import ROOT, export_base  # noqa: E402

sys.path.pop(0)

BENCH_MODULES = ("csafm", "layers", "reference", "run", "workloads")


def load_workload(checkout: Path, name: str):
    """Workload `name` of checkout/perfbench/workloads.py on that checkout's
    csafm, as a function of (seed, seconds) that runs it untraced."""
    for mod in [m for m in sys.modules if m.split(".")[0] in BENCH_MODULES]:
        del sys.modules[mod]
    paths = [str(checkout / "src"), str(checkout / "perfbench")]
    sys.path[:0] = paths
    try:
        import run
        run.pin_blas_threads()  # before the first import of numpy loads BLAS
        import layers
        import workloads
    finally:
        del sys.path[:len(paths)]
    return lambda seed, seconds: workloads.WORKLOADS[name](seed, seconds, layers.NullTracer())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--workload", required=True,
                    choices=("train_gate", "recognize", "fusion_paper"))
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seconds", type=float, default=5.0,
                    help="seconds each side runs the workload per round")
    ap.add_argument("--workdir", required=True, type=Path,
                    help="directory for the export of the base revision")
    args = ap.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    sides = {"base": export_base(args.base, args.workdir), "change": ROOT}
    runs = {side: load_workload(path, args.workload) for side, path in sides.items()}

    def op_ms_mean(side: str, seed: int) -> float:
        out = runs[side](seed, args.seconds)
        for f in sorted(set(out.failures)):
            print(f"check failed on {side}, seed {seed}: {f}", file=sys.stderr)
        return 1000.0 * statistics.fmean(out.op_s)

    for side in runs:
        op_ms_mean(side, 0)
    ms = {side: [] for side in runs}
    for i in range(1, args.rounds + 1):
        for side in (("base", "change") if i % 2 else ("change", "base")):
            ms[side].append(op_ms_mean(side, i))
    pairs = list(zip(ms["base"], ms["change"]))
    for side, values in ms.items():
        print(f"{side}: median op_ms_mean {statistics.median(values):.3f} ms "
              f"over {len(values)} rounds")
    print(f"{args.workload}: paired median ratio change/base "
          f"{statistics.median(c / b for b, c in pairs):.4f}, "
          f"change faster in {sum(c < b for b, c in pairs)}/{len(pairs)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
