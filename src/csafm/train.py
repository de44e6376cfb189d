"""Adam updates, stratified splits, the training loop, and the CIR metric.

The loop is fully deterministic: the split derives from the run seed,
epoch e shuffles with Rng(seed + e), and every update is plain numpy.
lr = 0 freezes the model completely (no parameter updates and no
running-statistic updates), so evaluation metrics cannot drift.

Where the process may use two or more CPUs, epoch e's validation runs in
a forked worker process on a copy of the model state while the loop
trains epoch e+1. The worker runs the same `predict` on the same bits at
the parent's BLAS thread count, so the history and the weights do not
depend on where it ran.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError, CsafmError, DataError, DimensionError, NumericalError, ParameterError,
)
from .tensor import Rng, Tensor, no_grad
from .ops import softmax_xent

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter moment estimates keyed by parameter name."""

    lr: float = 1e-4
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lr < 0:
            raise ParameterError(f"lr must be >= 0, got {self.lr}")


def adam_step(params: Sequence[tuple[str, Tensor]], st: AdamState) -> None:
    """Bias-corrected Adam update in place; a missing grad counts as zero.

    Moments live in the parameter dtype; the correction and update are
    computed in float64 so the first step with unit gradient lands at
    lr/(1+eps) to storage rounding.
    """
    st.step += 1
    t = st.step
    for name, p in params:
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise DimensionError(f"grad shape {g.shape} != param shape {p.data.shape} for {name}")
        if name not in st.m:
            st.m[name] = np.zeros_like(p.data)
            st.v[name] = np.zeros_like(p.data)
        m, v = st.m[name], st.v[name]
        if m.shape != p.data.shape:
            raise DimensionError(f"moment shape {m.shape} stale for {name}")
        dt = p.data.dtype.type
        b1, b2 = dt(ADAM_BETA1), dt(ADAM_BETA2)
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * (g * g)
        # corrections use the storage-rounded betas the decays actually applied
        c1 = 1.0 / (1.0 - float(b1) ** t)
        c2 = 1.0 / (1.0 - float(b2) ** t)
        upd = st.lr * (m.astype(np.float64) * c1) / (
            np.sqrt(v.astype(np.float64) * c2) + ADAM_EPS
        )
        p.data -= upd.astype(p.data.dtype)


def cir(preds: np.ndarray, labels: np.ndarray) -> float:
    """Correct identification rate: 100 * matches / N."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.size == 0:
        raise ParameterError("cir of empty prediction vector")
    if preds.shape != labels.shape:
        raise DimensionError(f"preds {preds.shape} vs labels {labels.shape}")
    return 100.0 * float((preds == labels).sum()) / preds.size


@dataclass
class SplitPlan:
    """Disjoint stratified index sets over a class-major sample ordering."""

    train: list
    val: list
    test: list


def make_split(
    n_per_class: int,
    classes: int,
    seed: int,
    fractions: tuple[float, float, float] = (0.3, 0.4, 0.3),
) -> SplitPlan:
    """Seeded per-class shuffle, then contiguous train/val/test slices.

    Flat sample index = class * n_per_class + within-class index, so the
    caller must order samples class-major. Each fraction of n_per_class
    must be a whole number of samples, at least one.
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ParameterError(f"split fractions sum to {sum(fractions)}, need 1.0")
    counts = []
    for f in fractions:
        x = f * n_per_class
        if abs(x - round(x)) > 1e-9 or round(x) == 0:
            raise ParameterError(f"fraction {f} of {n_per_class} samples per class "
                                 f"is {x:.10g} samples, not a whole number of at least 1")
        counts.append(round(x))
    rng = Rng(seed).spawn("split")
    tr, va, te = [], [], []
    for c in range(classes):
        perm = list(range(n_per_class))
        rng.shuffle(perm)
        base = c * n_per_class
        tr.extend(base + i for i in perm[: counts[0]])
        va.extend(base + i for i in perm[counts[0] : counts[0] + counts[1]])
        te.extend(base + i for i in perm[counts[0] + counts[1] :])
    return SplitPlan(train=tr, val=va, test=te)


def batch_tensors(dataset, idxs) -> tuple[Tensor, Tensor, np.ndarray]:
    """Stack the selected samples into (fp, fv, labels) batch arrays."""
    fps = [dataset[i].fp.data for i in idxs]
    fvs = [dataset[i].fv.data for i in idxs]
    if any(a.shape != fps[0].shape for a in fps) or any(a.shape != fvs[0].shape for a in fvs):
        raise DataError("samples have differing image sizes; cannot batch")
    labels = np.array([dataset[i].label for i in idxs], dtype=np.int64)
    return Tensor(np.concatenate(fps, axis=0)), Tensor(np.concatenate(fvs, axis=0)), labels


def predict(model, dataset, idxs, batch: int) -> np.ndarray:
    """Eval-mode argmax class predictions over the given sample indices."""
    out = np.empty(len(idxs), dtype=np.int64)
    with no_grad():
        for s in range(0, len(idxs), batch):
            chunk = idxs[s : s + batch]
            fp, fv, _ = batch_tensors(dataset, chunk)
            logits = model.forward_batch(fp, fv, "eval")
            out[s : s + len(chunk)] = logits.data.reshape(len(chunk), -1).argmax(axis=1)
    return out


def _check_finite(loss_val: float, params) -> None:
    if not np.isfinite(loss_val):
        raise NumericalError("non-finite training loss at softmax_xent")
    for name, p in params:
        if p.grad is not None and not np.isfinite(p.grad).all():
            raise NumericalError(f"non-finite gradient in {name}")


@dataclass
class TrainResult:
    history: list          # (epoch, train_loss, val_cir) rows, epoch 1-based
    best_val_cir: float
    best_epoch: int
    test_cir: float


def history_csv(history) -> str:
    lines = ["epoch,train_loss,val_cir"]
    lines += [f"{e},{l:.6f},{c:.6f}" for e, l, c in history]
    return "\n".join(lines) + "\n"


def class_major(dataset) -> list:
    """Stable-sort samples by label so split index arithmetic applies."""
    return sorted(dataset, key=lambda s: s.label)


def split_dataset(dataset, seed: int, fractions) -> tuple[list, np.ndarray, SplitPlan]:
    """Class-major samples, their labels, and the seeded stratified split.

    Every class must hold the same number of samples; otherwise the
    per-class index arithmetic of make_split would slice across classes.
    """
    samples = class_major(dataset)
    labels = np.array([s.label for s in samples])
    counts = np.bincount(labels, minlength=int(labels.max()) + 1)
    if (counts != counts[0]).any():
        raise DataError(f"per-class counts differ: {counts.tolist()}")
    split = make_split(int(counts[0]), len(counts), seed, tuple(fractions))
    return samples, labels, split


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, which `taskset`
    narrows); 1 where the platform cannot say. It sizes `csafm ablate`'s
    pool and decides whether _val_pass forks its worker."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _serve_val(conn, parent_end, model, samples, idxs, batch) -> None:
    """The validation worker: for each state copy the parent sends, write it
    into this process's model and reply (True, predictions), or (False, the
    error). Returns when the parent closes its end of the pipe."""
    parent_end.close()  # so that a parent's death reads as end of file here
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent ends this process
    arrays = [arr for _, arr, _ in model.state_entries()]
    while True:
        try:
            state = conn.recv()
        except EOFError:
            return
        for arr, saved in zip(arrays, state):
            arr[...] = saved
        try:
            reply = (True, predict(model, samples, idxs, batch))
        except Exception as e:
            reply = (False, e)
        conn.send(reply)


@contextmanager
def _val_pass(model, samples, idxs, batch: int):
    """(submit, collect) for the val-split predictions of model states.

    submit(state) starts predict on a state_entries() copy, and collect()
    returns the predictions of the last state submitted. With two or more
    usable CPUs and the fork start method, one forked worker predicts
    while the caller goes on; it inherits the model, the samples and the
    BLAS state, and it is gone when the block exits. Otherwise submit
    calls predict on the model in process, which then holds that state.
    So does a daemonic process, which may start no child, and one that
    runs other threads: a fork copies only the calling thread, and a lock
    another thread held at that moment would stay held in the child.
    """
    # imported here: a process that only predicts would load it for nothing,
    # and it raised recognize's peak RSS by 1 MiB
    import multiprocessing

    if (usable_cpus() < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon or threading.active_count() > 1):
        done = []
        yield (lambda state: done.append(predict(model, samples, idxs, batch))), done.pop
        return
    ctx = multiprocessing.get_context("fork")
    conn, theirs = ctx.Pipe()
    proc = ctx.Process(target=_serve_val, args=(theirs, conn, model, samples, idxs, batch),
                       name="csafm-val", daemon=True)
    proc.start()
    theirs.close()  # so that the worker's death reads as end of file here

    def died() -> CsafmError:
        proc.join(5.0)
        return CsafmError(f"the validation worker exited with code {proc.exitcode}")

    def submit(state) -> None:
        try:
            conn.send(state)
        except OSError:
            raise died() from None

    def collect() -> np.ndarray:
        try:
            ok, got = conn.recv()
        except (EOFError, OSError):
            raise died() from None
        if not ok:
            raise got
        return got

    try:
        yield submit, collect
    except BaseException:
        proc.kill()  # it may be mid-predict, on a state nobody will read
        raise
    finally:
        conn.close()  # an idle worker reads end of file and returns
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()


def train_loop(
    model,
    dataset,
    cfg,
    progress: Optional[Callable[[int, float, float], None]] = None,
) -> TrainResult:
    """Run cfg.epochs of shuffled mini-batch Adam; keep the best-val weights.

    After each epoch's last Adam step the model state is copied, and its
    val-split predictions run beside the next epoch's training (see
    _val_pass). So epoch e's history row, its progress call and its
    best-state check come after epoch e+1 has trained, in epoch order;
    the last epoch's come after the loop. The model ends restored to its
    best-validation state; test CIR is computed on that state, in process.
    """
    samples, labels, split = split_dataset(dataset, cfg.seed, cfg.split)

    params = model.parameters()
    opt = AdamState(lr=cfg.lr)
    learning = cfg.lr > 0
    n_train = len(split.train)
    if learning and (n_train % cfg.batch or cfg.batch) == 1:
        # train-mode batchnorm of a one-sample batch fails once a map is 1x1
        raise ConfigError(
            f"a train split of {n_train} samples at batch {cfg.batch} leaves a "
            f"batch of one sample; every training batch needs at least two"
        )
    mode = "train" if learning else "eval"

    best_val = -1.0
    best_epoch = 0
    best_state = None
    history = []

    def finish(epoch, train_loss, state, preds) -> None:
        nonlocal best_val, best_epoch, best_state
        val_cir = cir(preds, labels[split.val])
        history.append((epoch, train_loss, val_cir))
        if progress is not None:
            progress(epoch, train_loss, val_cir)
        if val_cir > best_val:
            best_val = val_cir
            best_epoch = epoch
            best_state = state

    with _val_pass(model, samples, split.val, cfg.batch) as (submit, collect):
        pending = None
        for epoch in range(1, cfg.epochs + 1):
            order = list(split.train)
            Rng(cfg.seed + epoch).shuffle(order)
            loss_sum = 0.0
            for s in range(0, len(order), cfg.batch):
                chunk = order[s : s + cfg.batch]
                fp, fv, y = batch_tensors(samples, chunk)
                logits = model.forward_batch(fp, fv, mode)
                loss, _ = softmax_xent(logits, y)
                loss_sum += loss.item() * len(chunk)
                if learning:
                    for _, p in params:
                        p.grad = None
                    loss.backward()
                    _check_finite(loss.item(), params)
                    adam_step(params, opt)
            state = [arr.copy() for _, arr, _ in model.state_entries()]
            preds = collect() if pending is not None else None
            submit(state)
            if pending is not None:
                finish(*pending, preds)
            pending = (epoch, loss_sum / len(order), state)
        if pending is not None:
            finish(*pending, collect())

    if best_state is not None:
        for (_, arr, _), saved in zip(model.state_entries(), best_state):
            arr[...] = saved
    test_cir = cir(predict(model, samples, split.test, cfg.batch), labels[split.test])
    return TrainResult(history=history, best_val_cir=best_val,
                       best_epoch=best_epoch, test_cir=test_cir)
