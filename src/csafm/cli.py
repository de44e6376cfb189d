"""Command-line entry points: synth, train, eval, ablate, verify.

Batch tooling only: progress lines go to stderr, results go to files in
the configured output directory (or stdout for eval/verify reports).
Every command is deterministic given its inputs, except the wall-clock
field in summaries.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .config import RunConfig, load_config, load_json, resolve_dataset
from .data import SynthSpec, synth_write
from .errors import ConfigError, CsafmError, DimensionError
from .fusion import FusionVariant
from .model import FpvCsafmModel, UnimodalClassifier, load, save
from .tensor import Rng, derive_seed
from .train import cir, history_csv, predict, split_dataset, train_loop, usable_cpus


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _build_model(cfg: RunConfig, dataset) -> object:
    labels = [s.label for s in dataset]
    classes = max(labels) + 1
    fp_size = (dataset[0].fp.h, dataset[0].fp.w)
    fv_size = (dataset[0].fv.h, dataset[0].fv.w)
    rng = Rng(derive_seed(cfg.seed, "init"))
    if cfg.modality == "fused":
        return FpvCsafmModel.build(
            classes=classes, fp_size=fp_size, fv_size=fv_size,
            variant=cfg.variant, rng=rng, r1=cfg.r1, r2=cfg.r2,
            width_multiplier=cfg.width_multiplier,
        )
    size = fp_size if cfg.modality == "fp" else fv_size
    return UnimodalClassifier.build(
        classes=classes, image_size=size, modality=cfg.modality,
        rng=rng, width_multiplier=cfg.width_multiplier,
    )


def _check_out_dir(path: str) -> Path:
    """path, checked without making it. An empty path would write into the
    working directory, so it is an error, as is a path to a file or through one."""
    if not path:
        raise ConfigError("output directory path is empty")
    out = Path(path)
    nearest = next(p for p in (out, *out.parents) if p.exists())
    if not nearest.is_dir():
        raise ConfigError(f"cannot make output directory {path}: {nearest} is not a directory")
    return out


def _out_dir(path: str) -> Path:
    """path, checked and made a directory with its parents."""
    out = _check_out_dir(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot make output directory {path}: {e}") from None
    return out


def train_and_write(cfg: RunConfig, quiet: bool = False) -> dict:
    """Train per config and write weights.csafm, history.csv and summary.json
    to cfg.out_dir; returns the summary. Run by train's and ablate's workers.
    A run refused for its dataset or model makes no directory."""
    t0 = time.monotonic()
    dataset = resolve_dataset(cfg)
    model = _build_model(cfg, dataset)
    out = _out_dir(cfg.out_dir)

    def report(epoch, loss, val):
        if not quiet:
            _progress(f"epoch {epoch}/{cfg.epochs} loss {loss:.6f} val_cir {val:.2f}")

    result = train_loop(model, dataset, cfg, progress=report)
    wall = time.monotonic() - t0
    save(model, out / "weights.csafm")
    (out / "history.csv").write_text(history_csv(result.history), encoding="utf-8")
    summary = {
        "variant": cfg.variant.name,
        "modality": cfg.modality,
        "seed": cfg.seed,
        "best_val_cir": result.best_val_cir,
        "test_cir": result.test_cir,
        "epochs_run": len(result.history),
        "wall_seconds": round(wall, 3),
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if not quiet:
        _progress(f"wrote {out / 'weights.csafm'}, history.csv, summary.json")
    return summary


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    _check_out_dir(cfg.out_dir)  # before a worker spends time on the dataset
    _train_in_workers([cfg])
    return 0


def _check_image_sizes(model, dataset) -> None:
    """Every image must have the size in the weights' header.

    Another size can shrink to the same feature map and score without
    any error, on inputs the weights were never trained on.
    """
    for modality, size in model.image_sizes.items():
        got = sorted({(getattr(s, modality).h, getattr(s, modality).w) for s in dataset})
        if got != [tuple(size)]:
            raise DimensionError(
                f"weights were trained on {modality} images of {size[0]}x{size[1]}, "
                f"dataset has " + ", ".join(f"{h}x{w}" for h, w in got)
            )


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    dataset = resolve_dataset(cfg)
    model = load(args.weights)
    samples, labels, split = split_dataset(dataset, cfg.seed, cfg.split)
    classes = int(labels.max()) + 1
    if model.classes != classes:
        raise DimensionError(
            f"weights were trained for {model.classes} classes, dataset has {classes}"
        )
    _check_image_sizes(model, dataset)
    test_cir = cir(predict(model, samples, split.test, cfg.batch), labels[split.test])
    print(json.dumps({"test_cir": test_cir, "n_test": len(split.test)}, sort_keys=True))
    return 0


_ABLATION_ORDER = [v.name for v in FusionVariant]
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextmanager
def _blas_pinned_pool(workers: int):
    """A pool whose workers run BLAS at one thread unless the caller set a
    count. It spawns, because BLAS reads these variables once, when numpy
    loads it: a spawned child imports numpy after they are set, and a
    forked one would keep the parent's BLAS. (train_loop's validation
    worker forks on purpose, to run at its parent's thread count.) The
    parent's environment comes back on every exit. Spinning OpenBLAS
    threads made two 2-thread workers on a 2-vCPU VM take 165 s on the
    seed-7 gate ablation, against 46 s at one."""
    unset = [v for v in _BLAS_VARS if v not in os.environ]
    os.environ.update(dict.fromkeys(unset, "1"))
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            yield pool
    finally:
        for v in unset:
            os.environ.pop(v, None)


def _train_in_workers(cfgs: list[RunConfig], workers: int = 1) -> list[dict]:
    """train_and_write each config in a pinned pool of at most `workers`
    processes; returns the summaries in config order. One run reports each
    epoch. Several run quietly, each reporting its test CIR as it completes,
    and a failed run's error names its variant."""
    quiet = len(cfgs) > 1
    summaries = []
    with _blas_pinned_pool(min(len(cfgs), workers)) as pool:
        runs = [pool.submit(train_and_write, cfg, quiet) for cfg in cfgs]
        for cfg, run in zip(cfgs, runs):
            try:
                summary = run.result()
            except CsafmError as e:
                pool.shutdown(cancel_futures=True)
                if not quiet:
                    raise
                raise type(e)(f"variant {cfg.variant.name} failed: {e}") from None
            if quiet:
                _progress(f"{cfg.variant.name}: test_cir {summary['test_cir']:.2f}")
            summaries.append(summary)
    return summaries


def cmd_ablate(args) -> int:
    cfg = _load_run_config(args)
    out = _check_out_dir(cfg.out_dir)
    summaries = _train_in_workers(
        [replace(cfg, modality="fused", variant=FusionVariant[v],
                 out_dir=str(out / "variants" / v)) for v in _ABLATION_ORDER], usable_cpus())
    lines = ["variant,best_val_cir,test_cir"]
    lines += [f"{v},{s['best_val_cir']:.6f},{s['test_cir']:.6f}"
              for v, s in zip(_ABLATION_ORDER, summaries)]
    (out / "ablation.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _progress(f"wrote {out / 'ablation.csv'}")
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec.from_dict(load_json(args.spec)) if args.spec else SynthSpec()
    out = _out_dir(args.out)
    # class directories left by an earlier set would be read as more classes
    if any(out.iterdir()):
        raise ConfigError(f"output directory {args.out} is not empty; synth writes only into "
                          "a new or empty directory")
    rng = Rng(derive_seed(args.seed, "synthdata"))
    n = synth_write(spec, rng, out)
    _progress(f"wrote {n} PGM files across {spec.classes} classes under {out}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_all
    return 0 if run_all() else 1


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "out", None) is not None:
        cfg = replace(cfg, out_dir=args.out)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="csafm",
        description="Two-modality attention-fusion classifier: data synthesis, "
                    "training, evaluation, ablation sweeps, and self-verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic paired-PGM dataset")
    p.add_argument("--spec", help="JSON synthesis spec (defaults built in)")
    p.add_argument("--out", required=True, help="output dataset directory")
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train one model per a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="override config out_dir")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="test-split CIR of saved weights")
    p.add_argument("--weights", required=True)
    p.add_argument("--config", required=True, help="config naming the dataset/split")
    p.add_argument("--seed", type=int, default=None, help="override split seed")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="train every fusion variant; emit a CSV table")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", default=None, help="override config out_dir")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("verify", help="run the built-in oracle/gradient checks")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CsafmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
