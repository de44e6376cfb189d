"""Per-layer timing of the csafm modules, taken from outside the program.

`LayerTracer.install()` replaces public functions at each module's import
site (`csafm.backbone.conv2d`, `csafm.fusion.conv2d`, ...) with timing
wrappers, so the same kernel called from the backbone and from the fusion
block is reported apart. Every graph node such a wrapper returns gets its
`_backward` closure wrapped too, so backward time lands on the op that
built the node without any kernel being edited. `uninstall()` restores the
originals.

Time is kept per phase. The workload names the phase it is in (`step`,
`eval`, `sweep`, `setup`, ...), and the report divides one phase's totals by
that phase's unit count: ms per train step, per eval batch or per sweep.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import csafm.backbone
import csafm.config
import csafm.data
import csafm.fusion
import csafm.model
import csafm.tensor
import csafm.train

Tensor = csafm.tensor.Tensor

# Leaf ops: (module, attribute, row). Their rows never overlap, so together
# with backward traversal, Adam and batching they account for a whole step.
LEAF_OPS = [
    (csafm.backbone, "conv2d", "backbone.conv2d"),
    (csafm.backbone, "batchnorm", "backbone.batchnorm"),
    (csafm.backbone, "relu", "backbone.relu"),
    (csafm.backbone, "maxpool2d", "backbone.maxpool2d"),
    (csafm.fusion, "conv2d", "fusion.conv2d"),
    (csafm.fusion, "pwconv", "fusion.pwconv"),
    (csafm.fusion, "batchnorm", "fusion.batchnorm"),
    (csafm.fusion, "sigmoid", "fusion.sigmoid"),
    (csafm.fusion, "gap", "fusion.gap"),
    (csafm.fusion, "relu", "fusion.relu"),
    (csafm.fusion, "ewise_add", "fusion.ewise"),
    (csafm.fusion, "ewise_mul", "fusion.ewise"),
    (csafm.fusion, "one_minus", "fusion.ewise"),
    (csafm.fusion, "center_crop", "fusion.crop"),
    (csafm.fusion, "concat_channels", "fusion.concat"),
    (csafm.model, "flatten", "head.flatten"),
    (csafm.model, "fully_connected", "head.fully_connected"),
    (csafm.train, "softmax_xent", "head.softmax_xent"),
]
LEAF_ROWS = sorted({row for _, _, row in LEAF_OPS})
VARIANTS = [v.name for v in csafm.fusion.FusionVariant]

# Calls timed once each, reported in ms per call from the setup phase.
SETUP_CALLS = [
    (csafm.config, "synth_generate", "data.synth"),
    (csafm.data, "ingest_dir", "data.ingest"),
    (csafm.model, "load", "model.load"),
]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for row in LEAF_ROWS:
        out += [(f"{row}.fwd_ms", "ms"), (f"{row}.bwd_ms", "ms")]
    out += [("backbone.fp.fwd_ms", "ms"), ("backbone.fv.fwd_ms", "ms"),
            ("backbone.conv2d.macs", "count"),
            ("fusion.fuse.fwd_ms", "ms"), ("fusion.fuse.bwd_ms", "ms")]
    for v in VARIANTS:
        out += [(f"fusion.{v}.fwd_ms", "ms"), (f"fusion.{v}.bwd_ms", "ms")]
    out += [("tensor.backward.self_ms", "ms"), ("tensor.nodes", "count"),
            ("train.step.fwd_ms", "ms"), ("train.step.bwd_ms", "ms"),
            ("train.adam_ms", "ms"), ("train.batch_ms", "ms"),
            ("train.predict_ms", "ms")]
    out += [(f"{row}_ms", "ms") for _, _, row in SETUP_CALLS]
    out += [("trace.unit_ms", "ms"), ("trace.rows_ms", "ms"),
            ("trace.covered_pct", "%"), ("trace.op_ms_mean", "ms")]
    return out


class NullTracer:
    """Stands in for LayerTracer when tracing is off; patches nothing."""

    @contextmanager
    def phase(self, name: str):
        yield

    def add_units(self, phase: str, count: int, seconds: float) -> None:
        pass


class LayerTracer:
    def __init__(self):
        self.seconds = defaultdict(float)   # (phase, key) -> s
        self.counts = defaultdict(int)      # (phase, key) -> count
        self.units = defaultdict(int)       # phase -> units (steps, batches, sweeps)
        self.unit_s = defaultdict(float)    # phase -> s spent in those units
        self._phase = "other"
        self._scopes: list[str] = []
        self._closure_s = 0.0
        self._model = None
        self._step_t0 = None
        self._saved: list[tuple[object, str, object]] = []

    # -- bookkeeping ---------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        prev, self._phase = self._phase, name
        try:
            yield
        finally:
            self._phase = prev

    def add_units(self, phase: str, count: int, seconds: float) -> None:
        self.units[phase] += count
        self.unit_s[phase] += seconds

    def _add(self, key: str, dt: float) -> None:
        self.seconds[(self._phase, key)] += dt

    def _count(self, key: str, n: int = 1) -> None:
        self.counts[(self._phase, key)] += n

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _track(self, out, row: str) -> None:
        """Time the backward closure of each fresh graph node in `out`."""
        nodes = out if isinstance(out, tuple) else (out,)
        scopes = tuple(self._scopes)
        for t in nodes:
            if not isinstance(t, Tensor) or t._backward is None:
                continue
            if getattr(t._backward, "traced", False):
                continue  # a node passed through unchanged, e.g. a no-op crop
            self._count("tensor.nodes")
            t._backward = self._timed_closure(t._backward, row, scopes)

    def _timed_closure(self, bw, row: str, scopes: tuple):
        def closure(g):
            t0 = perf_counter()
            bw(g)
            dt = perf_counter() - t0
            self._closure_s += dt
            self._add(row + ".bwd", dt)
            for s in scopes:
                self._add(s + ".bwd", dt)
        closure.traced = True
        return closure

    # -- wrappers ------------------------------------------------------------
    def _leaf(self, fn, row: str):
        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self._add(row + ".fwd", perf_counter() - t0)
            if row == "backbone.conv2d":
                x, p = args[0], args[1]
                n, oc, oh, ow = out.dims
                self._count("backbone.conv2d.macs", n * oc * oh * ow * x.c * p.k * p.k)
            if row == "head.softmax_xent":
                self._add("train.step.fwd", perf_counter() - t0)
            self._track(out, row)
            return out
        return wrapped

    def _timed(self, fn, key: str):
        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._add(key, perf_counter() - t0)
                self._count(key)
        return wrapped

    def _fuse_scope(self, fn):
        def wrapped(f_fp, f_fv, st, mode):
            scopes = ("fusion.fuse", f"fusion.{st.variant.name}")
            self._scopes.extend(scopes)
            t0 = perf_counter()
            try:
                return fn(f_fp, f_fv, st, mode)
            finally:
                dt = perf_counter() - t0
                del self._scopes[-2:]
                for s in scopes:
                    self._add(s + ".fwd", dt)
        return wrapped

    def _branch_scope(self, fn):
        def wrapped(img, s, mode):
            m = self._model
            name = "backbone.fv" if m is not None and s is m.fv_backbone else "backbone.fp"
            t0 = perf_counter()
            try:
                return fn(img, s, mode)
            finally:
                self._add(name + ".fwd", perf_counter() - t0)
        return wrapped

    def _forward_batch(self, fn):
        def wrapped(model, fp_img, fv_img, mode):
            prev, self._model = self._model, model
            t0 = perf_counter()
            try:
                return fn(model, fp_img, fv_img, mode)
            finally:
                self._add("train.step.fwd", perf_counter() - t0)
                self._model = prev
        return wrapped

    def _backward(self, fn):
        def wrapped(t, seed=None):
            closures0 = self._closure_s
            t0 = perf_counter()
            try:
                return fn(t, seed)
            finally:
                dt = perf_counter() - t0
                self._add("train.step.bwd", dt)
                self._add("tensor.backward.self", dt - (self._closure_s - closures0))
        return wrapped

    def _predict(self, fn):
        def wrapped(*args, **kwargs):
            # Validation inside train_loop gets its own phase, so that the
            # step phase holds train steps only.
            inner = "val" if self._phase == "step" else self._phase
            t0 = perf_counter()
            try:
                with self.phase(inner):
                    return fn(*args, **kwargs)
            finally:
                self._add("train.predict", perf_counter() - t0)
                self._count("train.predict")
        return wrapped

    def _batch(self, fn):
        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            if self._phase == "step":
                self._step_t0 = t0
            out = fn(*args, **kwargs)
            self._add("train.batch", perf_counter() - t0)
            return out
        return wrapped

    def _adam(self, fn):
        def wrapped(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            t1 = perf_counter()
            self._add("train.adam", t1 - t0)
            if self._phase == "step" and self._step_t0 is not None:
                self.add_units("step", 1, t1 - self._step_t0)
                self._step_t0 = None
            return out
        return wrapped

    def install(self) -> "LayerTracer":
        for mod, attr, row in LEAF_OPS:
            self._patch(mod, attr, self._leaf(getattr(mod, attr), row))
        for mod, attr, key in SETUP_CALLS:
            self._patch(mod, attr, self._timed(getattr(mod, attr), key))
        for mod in (csafm.model, csafm.fusion):
            self._patch(mod, "ablation_fuse", self._fuse_scope(mod.ablation_fuse))
        self._patch(csafm.model, "backbone_features",
                    self._branch_scope(csafm.model.backbone_features))
        fm = csafm.model.FpvCsafmModel
        self._patch(fm, "forward_batch", self._forward_batch(fm.forward_batch))
        self._patch(Tensor, "backward", self._backward(Tensor.backward))
        tr = csafm.train
        self._patch(tr, "predict", self._predict(tr.predict))
        self._patch(tr, "batch_tensors", self._batch(tr.batch_tensors))
        self._patch(tr, "adam_step", self._adam(tr.adam_step))
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- report --------------------------------------------------------------
    def report(self, phase: str, op_ms_mean: float) -> dict[str, float]:
        """Per-layer metrics of one phase, in ms (or counts) per unit."""
        units = self.units[phase]
        if units < 1:
            raise RuntimeError(f"no units were recorded in phase {phase!r}")

        def per_unit_ms(key):
            return 1000.0 * self.seconds[(phase, key)] / units

        def per_call_ms(ph, key):
            calls = self.counts[(ph, key)]
            return 1000.0 * self.seconds[(ph, key)] / calls if calls else 0.0

        out: dict[str, float] = {}
        for name, unit in metric_names():
            key = name.rsplit("_", 1)[0] if name.endswith("_ms") else name
            if unit == "count":
                out[name] = self.counts[(phase, name)] / units
            elif name.startswith("trace."):
                continue
            elif name == "train.predict_ms":
                out[name] = per_call_ms(phase, "train.predict")
            elif key in {row for _, _, row in SETUP_CALLS}:
                out[name] = per_call_ms("setup", key)
            else:
                out[name] = per_unit_ms(key)
        rows = sum(out[f"{r}.{d}_ms"] for r in LEAF_ROWS for d in ("fwd", "bwd"))
        rows += out["tensor.backward.self_ms"] + out["train.adam_ms"] + out["train.batch_ms"]
        unit_ms = 1000.0 * self.unit_s[phase] / units
        out["trace.unit_ms"] = unit_ms
        out["trace.rows_ms"] = rows
        out["trace.covered_pct"] = 100.0 * rows / unit_ms
        out["trace.op_ms_mean"] = op_ms_mean
        return out
