"""Quick checks of the benchmark itself.

    python3 -m pytest perfbench -q

The float64 references must agree with csafm on tiny shapes, the traced
per-op rows must account for the traced train step, tracing must leave the
program's results and functions as they were, and the runner must refuse
to run without the program's source.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import csafm  # noqa: E402
from csafm import FpvCsafmModel, FusionState, FusionVariant, Rng, Tensor  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

TOL = 1e-4


def uniform(rng, dims, lo=0.0, hi=1.0):
    return rng.uniform(int(np.prod(dims)), lo, hi).reshape(dims)


def randomize_running_stats(entries, rng):
    for name, arr, kind in entries:
        if kind == "running_stat":
            lo = 0.5 if name.endswith("var") else -0.5
            arr[...] = uniform(rng.spawn(name), arr.shape, lo, 1.5)


def test_reference_forward_matches_program(tmp_path):
    rng = Rng(11)
    # fp 96x96 gives a 2x2 map, fv 64x96 a 1x2 map, so the crop runs
    model = FpvCsafmModel.build(classes=5, fp_size=(96, 96), fv_size=(64, 96),
                                variant=FusionVariant.CSAFM, rng=rng.spawn("model"),
                                r1=4, r2=4, width_multiplier=1 / 16)
    randomize_running_stats(model.state_entries(), rng)
    path = tmp_path / "w.csafm"
    csafm.save(model, path)
    fp = uniform(rng.spawn("fp"), (3, 1, 96, 96))
    fv = uniform(rng.spawn("fv"), (3, 1, 64, 96))
    with csafm.no_grad():
        got = model.forward_batch(Tensor(fp.astype(np.float32)), Tensor(fv.astype(np.float32)),
                                  "eval").data.reshape(3, -1)
    meta, arrays = reference.read_weights(path)
    want = reference.logits(meta, arrays, fp, fv)
    assert np.abs(got - want).max() <= TOL * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("variant", list(FusionVariant))
def test_formula_recomputation_matches_program(variant, mode):
    rng = Rng(22).spawn(variant.name, mode)
    st = FusionState.init(variant, 8, 4, 4, rng.spawn("state"))
    if st.spatial is not None:
        for bn in (st.spatial.bn1, st.spatial.bn2):
            bn.running_mean[:] = uniform(rng.spawn("mean", bn.channels), (bn.channels,), -0.5)
            bn.running_var[:] = uniform(rng.spawn("var", bn.channels), (bn.channels,), 0.5)
    a = uniform(rng.spawn("a"), (2, 8, 4, 5)).astype(np.float32)
    b = uniform(rng.spawn("b"), (2, 8, 3, 6)).astype(np.float32)
    params = reference.state_arrays(st)
    fa, fb = csafm.standardize(Tensor(a), Tensor(b))
    got = csafm.ablation_fuse(fa, fb, st, mode).data
    a_c, b_c = reference.crop_pair(a.astype(np.float64), b.astype(np.float64))
    want = reference.fuse(variant.name, a_c, b_c, params, mode)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= TOL * max(1.0, np.abs(want).max())


def test_gate_check_allows_only_float32_rounding():
    pre = np.array([0.0, 5.0, 20.0, -20.0, -120.0], dtype=np.float32).reshape(1, 5, 1, 1)
    gate = csafm.ops.sigmoid(Tensor(pre)).data.ravel()
    pre = pre.ravel()
    assert gate[2] == 1 and gate[4] == 0
    assert workloads.gates_outside_0_1(pre, gate) == 0
    wrong = gate.copy()
    wrong[1] = 1.0    # sigmoid(5) = 0.9933 cannot round to 1
    wrong[3] = 0.0    # sigmoid(-20) = 2e-9 is a normal float32
    assert workloads.gates_outside_0_1(pre, wrong) == 2


def test_traced_rows_cover_train_step_and_change_nothing():
    cfg = csafm.RunConfig.from_dict({**workloads.GATE_RUN, "epochs": 2, "seed": 3})
    dataset = csafm.resolve_dataset(cfg)
    plain = workloads._build(cfg, dataset)
    csafm.train_loop(plain, dataset, cfg)

    originals = (csafm.backbone.conv2d, csafm.model.ablation_fuse, Tensor.backward)
    tracer = layers.LayerTracer().install()
    try:
        traced = workloads._build(cfg, dataset)
        with tracer.phase("step"):
            csafm.train_loop(traced, dataset, cfg)
    finally:
        tracer.uninstall()
    assert (csafm.backbone.conv2d, csafm.model.ablation_fuse, Tensor.backward) == originals
    assert workloads.weights_digest(traced) == workloads.weights_digest(plain)

    report = tracer.report("step", 1.0)
    assert tracer.units["step"] == 2 * 3   # 48 training pairs in batches of 16
    assert 90.0 <= report["trace.covered_pct"] <= 110.0, report["trace.covered_pct"]
    assert report["backbone.conv2d.bwd_ms"] > 0 and report["fusion.conv2d.bwd_ms"] > 0
    assert report["train.predict_ms"] > 0 and report["train.adam_ms"] > 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns(".cache", ".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "fusion_paper",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
