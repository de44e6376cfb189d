"""Release gates. Each test is one criterion; run with -v for a line per gate.

The training gate (test_fused_variants_beat_unimodal_baselines) drives the
real CLI on the default 16-class synthetic set three times and takes a few
minutes; everything else is seconds.
"""

import json
import time

import numpy as np
import pytest

from csafm import (
    BnParams,
    ChannelAttnState,
    ConvParams,
    FpvCsafmModel,
    FusionVariant,
    Rng,
    SpatialAttnState,
    Tensor,
    WeightFileMagicError,
    WeightFileTruncatedError,
    WeightFileVersionError,
    batchnorm,
    check_gradients,
    cir,
    conv2d,
    csafm_fuse,
    ewise_add,
    ewise_mul,
    feature_shape,
    fully_connected,
    gap,
    load,
    maxpool2d,
    mean_all,
    pwconv,
    relu,
    save,
    scaled_channels,
    sigmoid,
    softmax_xent,
    standardize,
)
from csafm.backbone import CONV_PADS, CONV_STRIDES, KERNELS
from csafm.cli import main

from csafm import oracles


def rand_t(rng, dims, dtype=np.float32, grad=False, lo=-1.0, hi=1.0):
    n = int(np.prod(dims))
    return Tensor(rng.uniform(n, lo, hi).astype(dtype).reshape(dims),
                  requires_grad=grad)


def test_forward_kernels_match_naive_oracles():
    """conv within 1e-5 of the six-loop oracle, pool exact, 200 cases, <30s."""
    t0 = time.monotonic()
    rng = Rng(1001)
    for t in range(100):
        g = rng.spawn("conv", t)
        n, ic, oc = 1 + int(g.below(2)), 1 + int(g.below(4)), 1 + int(g.below(4))
        k = (1, 3, 5)[int(g.below(3))]
        stride, pad = 1 + int(g.below(2)), int(g.below(3))
        h, w = k + int(g.below(8)), k + int(g.below(8))
        x = rand_t(g.spawn("x"), (n, ic, h, w))
        wt = rand_t(g.spawn("w"), (oc, ic, k, k))
        b = rand_t(g.spawn("b"), (1, oc, 1, 1))
        got = conv2d(x, ConvParams(wt, b, stride, pad)).data
        want = oracles.conv2d_loops(
            x.data.astype(np.float64), wt.data.astype(np.float64),
            b.data.reshape(-1).astype(np.float64), stride, pad)
        assert np.abs(got.astype(np.float64) - want).max() <= 1e-5
    for t in range(100):
        g = rng.spawn("pool", t)
        n, c = 1 + int(g.below(2)), 1 + int(g.below(4))
        k = 2 + int(g.below(3))
        stride, pad = 1 + int(g.below(2)), int(g.below(k))
        h, w = k + int(g.below(8)), k + int(g.below(8))
        x = rand_t(g.spawn("x"), (n, c, h, w))
        got = maxpool2d(x, k, stride, pad).data
        assert np.array_equal(got, oracles.maxpool_loops(x.data, k, stride, pad))
    assert time.monotonic() - t0 < 30.0


def _worst(build_loss, params, sample=10):
    errs = check_gradients(build_loss, params, sample=sample)
    return max(errs.values())


def _sq(t):
    return mean_all(ewise_mul(t, t))


def test_gradients_match_numeric_derivatives():
    """f64 gradchecks: every layer <1e-6; backbone, fusion, e2e <1e-5; <2min."""
    t0 = time.monotonic()
    rng = Rng(2002)

    x = rand_t(rng.spawn("cx"), (2, 2, 6, 7), np.float64, grad=True)
    w = rand_t(rng.spawn("cw"), (3, 2, 3, 3), np.float64, grad=True)
    b = rand_t(rng.spawn("cb"), (1, 3, 1, 1), np.float64, grad=True)
    cp = ConvParams(w, b, stride=2, pad=1)
    assert _worst(lambda: _sq(conv2d(x, cp)),
                  [("x", x), ("w", w), ("b", b)]) < 1e-6

    x = rand_t(rng.spawn("px"), (2, 3, 4, 5), np.float64, grad=True)
    pw = rand_t(rng.spawn("pw"), (4, 3, 1, 1), np.float64, grad=True)
    pb = rand_t(rng.spawn("pb"), (1, 4, 1, 1), np.float64, grad=True)
    pp = ConvParams(pw, pb, stride=1, pad=0)
    assert _worst(lambda: _sq(pwconv(x, pp)),
                  [("x", x), ("w", pw), ("b", pb)]) < 1e-6

    x = rand_t(rng.spawn("mx"), (2, 2, 6, 6), np.float64, grad=True)
    assert _worst(lambda: _sq(maxpool2d(x, 3, 2, 1)), [("x", x)]) < 1e-6

    x = rand_t(rng.spawn("bx"), (3, 4, 3, 3), np.float64, grad=True)
    bn = BnParams.init(4, dtype=np.float64)
    bn.gamma.data[:] += 0.1 * rng.spawn("bg").uniform(4).reshape(1, 4, 1, 1)
    tgt = Tensor(-rng.spawn("bt").uniform(x.data.size, -1, 1).reshape(x.dims))

    def bn_loss():
        frozen = BnParams(bn.gamma, bn.beta,
                          bn.running_mean.copy(), bn.running_var.copy())
        d = ewise_add(batchnorm(x, frozen, "train"), tgt)
        return mean_all(ewise_mul(d, d))

    assert _worst(bn_loss, [("x", x), ("gamma", bn.gamma), ("beta", bn.beta)]) < 1e-6

    x = rand_t(rng.spawn("rx"), (2, 3, 4, 4), np.float64, grad=True)
    x.data += 0.2 * np.sign(x.data)  # keep probes away from the relu kink
    assert _worst(lambda: _sq(relu(x)), [("x", x)]) < 1e-6
    x.grad = None
    assert _worst(lambda: _sq(sigmoid(x)), [("x", x)]) < 1e-6

    x = rand_t(rng.spawn("gx"), (2, 3, 5, 4), np.float64, grad=True)
    assert _worst(lambda: _sq(gap(x)), [("x", x)]) < 1e-6

    x = rand_t(rng.spawn("fx"), (3, 6, 1, 1), np.float64, grad=True)
    fw = rand_t(rng.spawn("fw"), (4, 6, 1, 1), np.float64, grad=True)
    fb = rand_t(rng.spawn("fb"), (1, 4, 1, 1), np.float64, grad=True)
    assert _worst(lambda: _sq(fully_connected(x, fw, fb)),
                  [("x", x), ("w", fw), ("b", fb)]) < 1e-6

    logits = rand_t(rng.spawn("sx"), (4, 5, 1, 1), np.float64, grad=True)
    labels = np.array([0, 3, 2, 4])
    assert _worst(lambda: softmax_xent(logits, labels)[0],
                  [("logits", logits)]) < 1e-6

    # width-multiplied backbone; conv biases sit before train-mode
    # batchnorm so their true gradient is zero and they are not probed
    from csafm import BackboneState, backbone_features
    bb = BackboneState.init(Rng(77), width_multiplier=1.0 / 16.0, dtype=np.float64)
    img = rand_t(rng.spawn("img"), (2, 1, 40, 40), np.float64, grad=True)
    btgt = Tensor(-rng.spawn("btgt").uniform(2 * 32, -1, 1).reshape(2, 32, 1, 1))

    def bb_loss():
        d = ewise_add(backbone_features(img, bb, "train"), btgt)
        return mean_all(ewise_mul(d, d))

    probes = [("img", img),
              ("conv1.w", bb.convs[0].weight), ("conv3.w", bb.convs[2].weight),
              ("bn2.gamma", bb.bns[1].gamma), ("bn4.beta", bb.bns[3].beta),
              ("bn5.gamma", bb.bns[4].gamma)]
    assert _worst(bb_loss, probes, sample=6) < 1e-5

    ca = ChannelAttnState.init(8, 4, rng.spawn("ca"), dtype=np.float64)
    sa = SpatialAttnState.init(8, 4, rng.spawn("sa"), dtype=np.float64)
    fa = rand_t(rng.spawn("fa"), (2, 8, 4, 4), np.float64, grad=True)
    fb_ = rand_t(rng.spawn("fb2"), (2, 8, 4, 4), np.float64, grad=True)

    def fuse_loss():
        return _sq(csafm_fuse(fa, fb_, ca, sa, "eval"))

    fprobes = [("a", fa), ("b", fb_),
               ("ca.pw1.w", ca.pw1.weight), ("ca.pw2.w", ca.pw2.weight),
               ("sa.conv1.w", sa.conv1.weight), ("sa.conv2.w", sa.conv2.weight)]
    assert _worst(fuse_loss, fprobes, sample=6) < 1e-5

    model = FpvCsafmModel.build(
        classes=3, fp_size=(20, 20), fv_size=(20, 20),
        variant=FusionVariant.CSAFM, rng=Rng(88), r1=4, r2=4,
        width_multiplier=1.0 / 16.0, dtype=np.float64)
    mfp = rand_t(rng.spawn("mfp"), (2, 1, 20, 20), np.float64)
    mfv = rand_t(rng.spawn("mfv"), (2, 1, 20, 20), np.float64)
    mlabels = np.array([0, 2])

    def e2e_loss():
        return softmax_xent(model.forward_batch(mfp, mfv, "eval"), mlabels)[0]

    eprobes = [("fp.conv1.w", model.fp_backbone.convs[0].weight),
               ("fv.conv3.w", model.fv_backbone.convs[2].weight),
               ("fusion.ca.pw2.w", model.fusion.channel.pw2.weight),
               ("fusion.sa.conv1.w", model.fusion.spatial.conv1.weight),
               ("head.w", model.head_w)]
    assert _worst(e2e_loss, eprobes, sample=5) < 1e-5
    assert time.monotonic() - t0 < 120.0


def test_zeroed_attention_gives_exact_quarter_sum():
    """All-zero attention weights reduce fusion to 0.25*(a+b), bit exact;
    with random weights both gate maps stay strictly inside (0, 1)."""
    rng = Rng(3003)
    ca = ChannelAttnState.init(8, 4, rng.spawn("ca"))
    sa = SpatialAttnState.init(8, 4, rng.spawn("sa"))
    for _, t in list(ca.parameters()) + list(sa.parameters()):
        t.data[:] = 0.0
    for mode in ("train", "eval"):
        a = rand_t(rng.spawn("a", mode), (2, 8, 5, 5))
        b = rand_t(rng.spawn("b", mode), (2, 8, 5, 5))
        z = csafm_fuse(a, b, ca, sa, mode)
        want = np.float32(0.25) * (a.data + b.data)
        assert np.array_equal(z.data, want)

    for t in range(100):
        if t % 25 == 0:
            g = rng.spawn("init", t)
            ca = ChannelAttnState.init(8, 4, g.spawn("ca"))
            sa = SpatialAttnState.init(8, 4, g.spawn("sa"))
        a = rand_t(rng.spawn("ga", t), (1, 8, 5, 5))
        b = rand_t(rng.spawn("gb", t), (1, 8, 5, 5))
        _, parts = csafm_fuse(a, b, ca, sa, "eval", return_parts=True)
        for key in ("f_c_final", "f_s_final"):
            v = parts[key].data
            assert (v > 0.0).all() and (v < 1.0).all()


def test_backbone_and_standardize_shape_contract():
    assert feature_shape(200, 400) == (512, 4, 7)
    for h, w in ((200, 400), (64, 64), (97, 123), (33, 250)):
        want = oracles.backbone_shape(
            h, w, scaled_channels(1.0), KERNELS, CONV_STRIDES, CONV_PADS)
        assert feature_shape(h, w) == want
    a = Tensor.zeros((1, 512, 4, 7))
    b = Tensor.zeros((1, 512, 3, 9))
    sa_, sb_ = standardize(a, b)
    assert sa_.dims == (1, 512, 3, 7)
    assert sb_.dims == (1, 512, 3, 7)


def _train_cli(cfg: dict, path, out) -> dict:
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    return json.loads((out / "summary.json").read_text())


def test_fused_variants_beat_unimodal_baselines(tmp_path):
    """Default 16-class synthetic task, three seeds: unimodal stalls at or
    below 40 CIR, every fused variant clears both baselines by 20 points,
    and full fusion reaches 90+ without trailing plain addition by more
    than 2 points on at least two seeds. Budget: 60 epochs, 10 minutes."""
    t0 = time.monotonic()
    base = {
        "dataset": {"synth": {
            "grid": [4, 4], "fp_size": [64, 96], "fv_size": [48, 80],
            "noise_sigma": 0.1, "samples_per_class": 10,
        }},
        "r1": 4, "r2": 4, "lr": 0.003, "batch": 16, "epochs": 40,
        "width_multiplier": 0.125,
    }
    assert base["epochs"] <= 60
    strong_csafm = 0
    for seed in (7, 8, 9):
        uni = {}
        for modality in ("fp", "fv"):
            cfg = {**base, "modality": modality, "seed": seed}
            out = tmp_path / f"s{seed}_{modality}"
            uni[modality] = _train_cli(
                cfg, tmp_path / f"s{seed}_{modality}.json", out)["test_cir"]
        cfg_path = tmp_path / f"s{seed}_ablate.json"
        cfg_path.write_text(json.dumps({**base, "modality": "fused", "seed": seed}))
        out = tmp_path / f"s{seed}_ablate"
        assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,best_val_cir,test_cir"
        assert len(lines) == 8
        fused = {ln.split(",")[0]: float(ln.split(",")[2]) for ln in lines[1:]}
        assert set(fused) == {v.name for v in FusionVariant}

        assert uni["fp"] <= 40.0, f"seed {seed}: fp baseline {uni['fp']}"
        assert uni["fv"] <= 40.0, f"seed {seed}: fv baseline {uni['fv']}"
        floor = max(uni.values()) + 20.0
        for name, score in fused.items():
            assert score >= floor, f"seed {seed}: {name} {score} < {floor}"
        if fused["CSAFM"] >= 90.0 and fused["CSAFM"] >= fused["SERIAL_SUM"] - 2.0:
            strong_csafm += 1
    assert strong_csafm >= 2
    assert time.monotonic() - t0 < 600.0


def test_training_reproducibility(tmp_path, config_file):
    path, _ = config_file()
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["train", "--config", str(path), "--out", str(d)]) == 0
    assert (d1 / "history.csv").read_bytes() == (d2 / "history.csv").read_bytes()
    assert (d1 / "weights.csafm").read_bytes() == (d2 / "weights.csafm").read_bytes()


def test_weight_file_round_trip_and_corruption(tmp_path):
    model = FpvCsafmModel.build(
        classes=4, fp_size=(33, 33), fv_size=(33, 33),
        variant=FusionVariant.CSAFM, rng=Rng(4004), r1=4, r2=4,
        width_multiplier=0.125)
    path = tmp_path / "w.csafm"
    save(model, path)
    again = load(path)
    for (n1, a1, _), (n2, a2, _) in zip(model.state_entries(),
                                        again.state_entries()):
        assert n1 == n2
        assert np.array_equal(a1, a2)

    buf = path.read_bytes()
    caught = []
    bad_magic = tmp_path / "m.csafm"
    bad_magic.write_bytes(b"XSAF" + buf[4:])
    with pytest.raises(WeightFileMagicError) as e1:
        load(bad_magic)
    caught.append(type(e1.value))
    truncated = tmp_path / "t.csafm"
    truncated.write_bytes(buf[: len(buf) - 64])
    with pytest.raises(WeightFileTruncatedError) as e2:
        load(truncated)
    caught.append(type(e2.value))
    bad_version = tmp_path / "v.csafm"
    bad_version.write_bytes(buf[:4] + (99).to_bytes(4, "little") + buf[8:])
    with pytest.raises(WeightFileVersionError) as e3:
        load(bad_version)
    caught.append(type(e3.value))
    assert len(set(caught)) == 3


def test_recognition_rate_definition():
    assert cir(np.array([0, 1, 2, 2]), np.array([0, 1, 2, 3])) == 75.0
    assert cir(np.array([4, 0, 1]), np.array([4, 0, 1])) == 100.0
    r = np.random.default_rng(5005)
    preds = r.integers(0, 6, 60)
    labels = r.integers(0, 6, 60)
    base = cir(preds, labels)
    for _ in range(100):
        perm = r.permutation(60)
        assert cir(preds[perm], labels[perm]) == base
