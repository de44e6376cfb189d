"""Record a BENCH_<n>.json: the benchmark on a base revision against this checkout.

    python3 scripts/record_bench.py --base HEAD~1 --out BENCH_7.json --workdir /tmp/bench

The base revision's committed files are exported with `git archive` into a
fresh directory under --workdir; the change is this checkout as it stands,
uncommitted edits and new files included, copied into another. Both sides
run from fresh directories because the directory a run starts in moves
`fusion_paper` peak_rss_mb by a few MiB with the same code, and the two
directory names have one length, as that length moves it too. So with a
change committed, --base HEAD~1 names its parent. For each workload in BENCHMARK.json it runs
`perfbench/run.py` for BENCHMARK.json's run_seconds, in 10 pairs of base and
change at --trace 0, then 2 pairs at --trace 1. Pair i uses seed i (from 1),
and the side that runs first alternates from pair to pair. A run that exits
non-zero, prints no result line or reports `correct: false` has failed; it is
kept in `runs` and left out of the statistics, and a pair with a failed side
is not compared. The file holds:

- end_to_end: per workload and metric, each side's median, quartiles (as
  perfbench/README.md defines them, `statistics.quantiles(values, n=4)`)
  and runs, and how many pairs the change won (a tie counts for neither side);
- failures: per workload and side, the runs that failed out of those made,
  and the operations that failed out of those attempted, traced runs included;
- per_layer: per workload and metric, each side's median over its traced runs;
- environment: the run line's environment (CPU count, python, numpy, BLAS
  and its thread settings) and the CPU model;
- runs: every run made, with its seed, side, order, wall time and checks.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# prefix of each side's export directory; one length, so neither side's path is longer
EXPORT_PREFIXES = {"base": "base-", "change": "chng-"}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export_base(rev: str, workdir: Path) -> Path:
    """The committed files of `rev` in a new directory under workdir."""
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    dest = Path(tempfile.mkdtemp(prefix=EXPORT_PREFIXES["base"], dir=workdir))
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest)
    return dest


def export_change(workdir: Path) -> Path:
    """The files of this checkout that git tracks or would add, as they stand,
    in a new directory under workdir; tracked files deleted here are left out."""
    dest = Path(tempfile.mkdtemp(prefix=EXPORT_PREFIXES["change"], dir=workdir))
    for rel in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if rel and (ROOT / rel).is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / rel, dest / rel)
    return dest


PAIRS = 10
TRACED_PAIRS = 2
RESULT_FIELDS = ("correct", "attempted", "failed", "metrics")


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run; its result line and info line, or its error output.

    A run that exits 0 but whose last two lines are not an info object and a
    result object with every field read here is recorded with exit -1.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    try:
        info, result = (json.loads(line) for line in p.stdout.strip().splitlines()[-2:])
        well_formed = (isinstance(info, dict) and "env" in info and isinstance(result, dict)
                       and all(k in result for k in RESULT_FIELDS))
    except ValueError:  # fewer than two lines, or one that is not JSON
        well_formed = False
    if p.returncode != 0 or not well_formed:
        return {"exit": p.returncode or -1, "wall_s": wall, "stderr": p.stderr[-2000:]}
    return {"exit": 0, "wall_s": wall, "info": info, "result": result,
            "stderr": p.stderr[-2000:]}


def ok(r: dict) -> bool:
    return r["exit"] == 0 and r["result"]["correct"]


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="revision to compare against")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--workdir", required=True, type=Path,
                    help="directory for the exports of both sides")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: (m["better"], m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]}
    args.workdir.mkdir(parents=True, exist_ok=True)
    sides = {"base": export_base(args.base, args.workdir), "change": export_change(args.workdir)}
    # edited tracked files and new files git does not ignore, as the runs found them
    dirty = git("status", "--porcelain") != ""

    runs = []
    for w in workloads:
        for trace, pairs in ((0, PAIRS), (1, TRACED_PAIRS)):
            for i in range(pairs):
                seed = i + 1
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for pos, side in enumerate(order):
                    r = run_once(sides[side], w, seed, seconds, trace)
                    r.update(workload=w, seed=seed, trace=trace, side=side, first=pos == 0)
                    runs.append(r)
                    print(f"{w} trace={trace} seed={seed} {side}: "
                          f"{'ok' if ok(r) else 'FAILED'} "
                          f"in {r['wall_s']:.1f} s", file=sys.stderr, flush=True)

    def values(w, trace, side):
        return [r for r in runs if r["workload"] == w and r["trace"] == trace
                and r["side"] == side and ok(r)]

    end_to_end, failures, per_layer = {}, {}, {}
    for w in workloads:
        rows = {}
        for name in [m["name"] for m in spec["end_to_end"]]:
            by_side = {s: {r["seed"]: r["result"]["metrics"][name]["value"]
                           for r in values(w, 0, s)} for s in ("base", "change")}
            seeds = sorted(set(by_side["base"]) & set(by_side["change"]))
            if not seeds:
                continue
            sign = 1 if better[name][0] == "higher" else -1
            wins = sum(sign * (by_side["change"][s] - by_side["base"][s]) > 0 for s in seeds)
            rows[name] = {"unit": better[name][1], "better": better[name][0],
                          "base": summary([by_side["base"][s] for s in seeds]),
                          "change": summary([by_side["change"][s] for s in seeds]),
                          "change_wins": wins, "pairs": len(seeds)}
        end_to_end[w] = rows
        failures[w] = {}
        for s in ("base", "change"):
            tried = [r for r in runs if r["workload"] == w and r["side"] == s]
            done = [r["result"] for r in tried if r["exit"] == 0]
            failures[w][s] = {"runs_failed": sum(not ok(r) for r in tried),
                              "runs": len(tried),
                              "ops_failed": sum(d["failed"] for d in done),
                              "ops_attempted": sum(d["attempted"] for d in done)}
        layer = {}
        for s in ("base", "change"):
            for r in values(w, 1, s):
                for name, m in r["result"]["metrics"].items():
                    layer.setdefault(name, {"unit": m["unit"]}).setdefault(s, []).append(m["value"])
        per_layer[w] = {name: {"unit": v["unit"],
                               **{s: statistics.median(v[s]) for s in ("base", "change") if s in v}}
                        for name, v in layer.items()}

    env = next((r["info"]["env"] for r in runs if r["exit"] == 0), {})
    out = {
        "base": git("rev-parse", args.base),
        "change": git("rev-parse", "HEAD") + (" + edits" if dirty else ""),
        "run_seconds": seconds,
        "environment": {**env, "cpu": cpu_model()},
        "end_to_end": end_to_end,
        "failures": failures,
        "per_layer": per_layer,
        "runs": [{k: r.get(k) for k in ("workload", "trace", "seed", "side", "first", "exit",
                                         "wall_s")}
                 | {"correct": r["result"]["correct"] if r["exit"] == 0 else False,
                    "failed": r["result"]["failed"] if r["exit"] == 0 else None,
                    "attempted": r["result"]["attempted"] if r["exit"] == 0 else None}
                 for r in runs],
    }
    args.out.write_text(json.dumps(out, indent=1, sort_keys=False) + "\n")
    bad = [r for r in runs if not ok(r)]
    for r in bad:
        print(f"run failed: {r['workload']} seed {r['seed']} {r['side']}: {r['stderr']}",
              file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
