"""Self-contained correctness checks runnable from the command line.

Each check is a named function that raises AssertionError on failure,
through _require rather than assert, so `python -O` checks the same
criteria; run_all prints one PASS/FAIL line per check and reports overall
success.
CHECKS is the one list of release criteria: `csafm verify` runs it, and
so does the test suite, one test per entry. A criterion lives here only,
and tests/ holds what no entry checks: a new case of a criterion goes
into its entry, where the shipped command runs it too. The oracles
(csafm.oracles and the closed forms here) are deliberately naive and
independent of the production kernels they certify.
"""

from __future__ import annotations

import os
import sys
import tempfile
from typing import Callable

import numpy as np

from . import ops, oracles
from .backbone import (
    CONV_PADS,
    CONV_STRIDES,
    KERNELS,
    BackboneState,
    backbone_features,
    feature_shape,
    scaled_channels,
)
from .errors import (
    WeightFileError,
    WeightFileMagicError,
    WeightFileTruncatedError,
    WeightFileVersionError,
)
from .fusion import (
    ChannelAttnState,
    FusionVariant,
    SpatialAttnState,
    csafm_fuse,
    standardize,
)
from .gradcheck import check_gradients
from .model import FpvCsafmModel, load, save
from .tensor import Rng, Tensor, ewise_add, ewise_mul
from .train import AdamState, adam_step, cir


def _require(ok, msg: str = "") -> None:
    """Raise AssertionError(msg) unless ok; unlike assert, python -O keeps it."""
    if not ok:
        raise AssertionError(msg)


def _rand(rng: Rng, dims, dtype=np.float32, requires_grad=False, lo=-1.0, hi=1.0) -> Tensor:
    n = int(np.prod(dims))
    return Tensor(rng.uniform(n, lo, hi).astype(dtype).reshape(dims),
                  requires_grad=requires_grad)


def check_conv_forward_oracle() -> None:
    rng = Rng(1001)
    for t in range(100):
        geo = rng.spawn("conv", t)
        n, ic, oc = 1 + int(geo.below(2)), 1 + int(geo.below(4)), 1 + int(geo.below(4))
        k = (1, 2, 3, 5)[int(geo.below(4))]
        stride, pad = 1 + int(geo.below(2)), int(geo.below(3))
        h, w = k + int(geo.below(8)), k + int(geo.below(8))
        x = _rand(geo.spawn("x"), (n, ic, h, w))
        wt = _rand(geo.spawn("w"), (oc, ic, k, k))
        b = _rand(geo.spawn("b"), (1, oc, 1, 1))
        got = ops.conv2d(x, ops.ConvParams(wt, b, stride, pad)).data
        want = oracles.conv2d_loops(x.data, wt.data, b.data.reshape(-1), stride, pad)
        _require(got.shape == want.shape, f"conv gives {got.shape}, loop oracle {want.shape}")
        err = float(np.abs(got.astype(np.float64) - want).max())
        _require(err <= 1e-5, f"conv deviates from loop oracle by {err}")


def check_pool_forward_oracle() -> None:
    rng = Rng(1001)
    for t in range(100):
        geo = rng.spawn("pool", t)
        n, c = 1 + int(geo.below(2)), 1 + int(geo.below(4))
        k = 2 + int(geo.below(3))
        stride, pad = 1 + int(geo.below(2)), int(geo.below(k))
        h, w = k + int(geo.below(8)), k + int(geo.below(8))
        x = _rand(geo.spawn("x"), (n, c, h, w))
        got = ops.maxpool2d(x, k, stride, pad).data
        want = oracles.maxpool_loops(x.data, k, stride, pad)
        _require(np.array_equal(got, want), "maxpool deviates from scan oracle")


def _gradcheck_layer(build_loss, params, tol) -> None:
    errs = check_gradients(build_loss, params, sample=12)
    worst = max(errs.values())
    _require(worst < tol, f"gradcheck rel err {worst:.3g} >= {tol}")


def _sq_mean(t: Tensor) -> Tensor:
    """Smooth scalar test loss: mean of elementwise squares."""
    return ops.mean_all(ewise_mul(t, t))


def check_conv_gradcheck() -> None:
    rng = Rng(303)
    # (input dims, out channels, k, stride, pad)
    for (n, c, h, w), oc, k, stride, pad in (((2, 2, 6, 7), 3, 3, 2, 1),
                                             ((2, 3, 6, 7), 4, 3, 1, 1),
                                             ((1, 2, 9, 8), 3, 5, 2, 2)):
        geo = rng.spawn(k, stride, pad)
        x = _rand(geo.spawn("x"), (n, c, h, w), dtype=np.float64, requires_grad=True)
        wt = _rand(geo.spawn("w"), (oc, c, k, k), dtype=np.float64, requires_grad=True)
        b = _rand(geo.spawn("b"), (1, oc, 1, 1), dtype=np.float64, requires_grad=True)
        p = ops.ConvParams(wt, b, stride, pad)
        _gradcheck_layer(lambda: _sq_mean(ops.conv2d(x, p)), [("x", x), ("w", wt), ("b", b)], 1e-6)


def check_pwconv_gradcheck() -> None:
    rng = Rng(2002)
    x = _rand(rng.spawn("px"), (2, 3, 4, 5), dtype=np.float64, requires_grad=True)
    w = _rand(rng.spawn("pw"), (4, 3, 1, 1), dtype=np.float64, requires_grad=True)
    b = _rand(rng.spawn("pb"), (1, 4, 1, 1), dtype=np.float64, requires_grad=True)
    p = ops.ConvParams(w, b, stride=1, pad=0)

    def loss():
        return _sq_mean(ops.pwconv(x, p))

    _gradcheck_layer(loss, [("x", x), ("w", w), ("b", b)], 1e-6)


def check_pool_gradcheck() -> None:
    rng = Rng(404)
    x = _rand(rng.spawn("x"), (2, 2, 6, 6), dtype=np.float64, requires_grad=True)

    def loss():
        return _sq_mean(ops.maxpool2d(x, 3, 2, 1))

    _gradcheck_layer(loss, [("x", x)], 1e-6)


def check_batchnorm_gradcheck() -> None:
    rng = Rng(505)
    x = _rand(rng.spawn("x"), (3, 4, 3, 3), dtype=np.float64, requires_grad=True)
    p = ops.BnParams.init(4, dtype=np.float64)
    p.gamma.data[:] = 1.0 + 0.1 * rng.spawn("g").uniform(4).reshape(1, 4, 1, 1)
    p.beta.data[:] = 0.1 * rng.spawn("b").uniform(4).reshape(1, 4, 1, 1)
    # squared distance to a fixed target; a plain square of the output is
    # nearly invariant to x (normalization cancels it) and roundoff-bound
    target = Tensor(-rng.spawn("t").uniform(x.data.size, -1, 1).reshape(x.dims))

    def loss():
        p2 = ops.BnParams(p.gamma, p.beta, p.running_mean.copy(), p.running_var.copy())
        d = ewise_add(ops.batchnorm(x, p2, "train"), target)
        return ops.mean_all(ewise_mul(d, d))

    _gradcheck_layer(loss, [("x", x), ("gamma", p.gamma), ("beta", p.beta)], 1e-6)


def check_batchnorm_eval_affine() -> None:
    rng = Rng(606)
    x = _rand(rng.spawn("x"), (2, 3, 4, 4))
    p = ops.BnParams.init(3)
    p.running_mean[:] = rng.spawn("m").uniform(3).astype(np.float32)
    p.running_var[:] = (0.5 + rng.spawn("v").uniform(3)).astype(np.float32)
    p.gamma.data[:] = (0.5 + rng.spawn("g").uniform(3)).reshape(1, 3, 1, 1)
    p.beta.data[:] = rng.spawn("b").uniform(3).astype(np.float32).reshape(1, 3, 1, 1)
    got = ops.batchnorm(x, p, "eval").data
    rm = p.running_mean.reshape(1, 3, 1, 1)
    rv = p.running_var.reshape(1, 3, 1, 1)
    want = p.gamma.data * (x.data - rm) / np.sqrt(rv + np.float32(ops.BN_EPS)) + p.beta.data
    err = float(np.abs(got - want).max())
    _require(err <= 1e-6, f"eval batchnorm deviates from affine oracle by {err}")


def check_activation_gradchecks() -> None:
    rng = Rng(707)
    pos = _rand(rng.spawn("x"), (2, 3, 4, 4), dtype=np.float64, requires_grad=True, lo=0.1, hi=1.0)
    # both signs, every input at least 0.2 away from the relu kink
    signed = _rand(rng.spawn("rx"), (2, 3, 4, 4), dtype=np.float64, requires_grad=True)
    signed.data += 0.2 * np.sign(signed.data)
    # shifted, so the upstream gradient is not zero where relu gives 0
    shift = Tensor(rng.spawn("t").uniform(96, -1, 1).reshape(2, 3, 4, 4))
    for x in (pos, signed):
        for act in (ops.relu, ops.sigmoid):
            _gradcheck_layer(lambda: _sq_mean(ewise_add(act(x), shift)), [("x", x)], 1e-6)
    # at the kink no finite difference can tell: relu passes nothing at -0 or +0
    x = Tensor(np.array([-2.0, -0.0, 0.0, 0.5]).reshape(1, 1, 2, 2), requires_grad=True)
    g = np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 2, 2)
    y = ops.relu(x)
    y.backward(g)
    want_y, want_dx = oracles.relu_where(x.data, g)
    _require(np.array_equal(y.data, want_y) and np.array_equal(x.grad, want_dx),
             f"relu at the kink gives {y.data.ravel()} and gradient {x.grad.ravel()}")


def check_gap_oracle() -> None:
    rng = Rng(808)
    x = _rand(rng.spawn("x"), (2, 3, 5, 4))
    got = ops.gap(x).data
    want = oracles.gap_loops(x.data.astype(np.float64))
    _require(got.shape == want.shape, f"gap gives {got.shape}, loop mean {want.shape}")
    err = float(np.abs(got.astype(np.float64) - want).max())
    _require(err <= 1e-6, f"gap deviates from loop mean by {err}")
    x64 = Tensor(x.data.astype(np.float64), requires_grad=True)

    def loss():
        return _sq_mean(ops.gap(x64))

    _gradcheck_layer(loss, [("x", x64)], 1e-6)


def check_fc_gradcheck() -> None:
    rng = Rng(909)
    x = _rand(rng.spawn("x"), (3, 6, 1, 1), dtype=np.float64, requires_grad=True)
    w = _rand(rng.spawn("w"), (4, 6, 1, 1), dtype=np.float64, requires_grad=True)
    b = _rand(rng.spawn("b"), (1, 4, 1, 1), dtype=np.float64, requires_grad=True)

    def loss():
        return _sq_mean(ops.fully_connected(x, w, b))

    _gradcheck_layer(loss, [("x", x), ("w", w), ("b", b)], 1e-6)


def check_softmax_xent_grad() -> None:
    rng = Rng(111)
    logits = _rand(rng.spawn("l"), (4, 5, 1, 1), dtype=np.float64, requires_grad=True)
    labels = np.array([0, 3, 2, 4])
    loss, probs = ops.softmax_xent(logits, labels)
    loss.backward()
    onehot = np.zeros((4, 5))
    onehot[np.arange(4), labels] = 1.0
    want = (probs.data.reshape(4, 5) - onehot) / 4.0
    err = float(np.abs(logits.grad.reshape(4, 5) - want).max())
    _require(err <= 1e-12, f"softmax/xent gradient deviates from closed form by {err}")
    _gradcheck_layer(lambda: ops.softmax_xent(logits, labels)[0], [("logits", logits)], 1e-6)


def check_backbone_gradcheck() -> None:
    # conv biases sit before train-mode batchnorm, so their true gradient
    # is zero and they are not probed
    rng = Rng(2002)
    bb = BackboneState.init(Rng(77), width_multiplier=1.0 / 16.0, dtype=np.float64)
    img = _rand(rng.spawn("img"), (2, 1, 40, 40), dtype=np.float64, requires_grad=True)
    target = Tensor(-rng.spawn("btgt").uniform(2 * 32, -1, 1).reshape(2, 32, 1, 1))

    def loss():
        d = ewise_add(backbone_features(img, bb, "train"), target)
        return ops.mean_all(ewise_mul(d, d))

    probe = [("img", img),
             ("conv1.weight", bb.convs[0].weight), ("conv3.weight", bb.convs[2].weight),
             ("bn2.gamma", bb.bns[1].gamma), ("bn4.beta", bb.bns[3].beta),
             ("bn5.gamma", bb.bns[4].gamma)]
    errs = check_gradients(loss, probe, sample=6)
    worst = max(errs.values())
    _require(worst < 1e-5, f"backbone gradcheck rel err {worst:.3g}")


def _zeroed_attention(c: int, r: int, keep_gammas: bool):
    rng = Rng(0)
    ca = ChannelAttnState.init(c, r, rng.spawn("ca"))
    sa = SpatialAttnState.init(c, r, rng.spawn("sa"))
    for _, t in ca.parameters():
        t.data[:] = 0.0
    # every spatial parameter, or all but the batchnorm gammas, which stay 1
    for name, t in sa.parameters():
        if not (keep_gammas and name.endswith(".gamma")):
            t.data[:] = 0.0
    return ca, sa


def check_fusion_half_identity() -> None:
    """Zero attention parameters collapse both gates to 1/2, so Z = (a+b)/4."""
    rng = Rng(222)
    for keep_gammas in (True, False):
        ca, sa = _zeroed_attention(8, 4, keep_gammas)
        for mode in ("train", "eval"):
            for size in (4, 5):
                a = _rand(rng.spawn("a", mode, size), (2, 8, size, size))
                b = _rand(rng.spawn("b", mode, size), (2, 8, size, size))
                z = csafm_fuse(a, b, ca, sa, mode)
                want = np.float32(0.25) * (a.data + b.data)
                _require(np.array_equal(z.data, want),
                         f"zero-attention fusion != 0.25*(a+b) exactly ({mode}, gammas kept: {keep_gammas})")


def check_fusion_coefficient_range() -> None:
    rng = Rng(333)
    # (mode, draws, fresh attention weights every so many draws, input dims)
    for mode, draws, every, dims in (("eval", 100, 25, (1, 8, 5, 5)),
                                     ("train", 10, 1, (2, 8, 4, 4))):
        for t in range(draws):
            if t % every == 0:
                ca = ChannelAttnState.init(8, 4, rng.spawn("ca", mode, t))
                sa = SpatialAttnState.init(8, 4, rng.spawn("sa", mode, t))
            a = _rand(rng.spawn("a", mode, t), dims)
            b = _rand(rng.spawn("b", mode, t), dims)
            _, parts = csafm_fuse(a, b, ca, sa, mode, return_parts=True)
            for key in ("f_c_final", "f_s_final"):
                v = parts[key].data
                _require((v > 0).all() and (v < 1).all(), f"{key} outside (0,1) in {mode}")


def check_fusion_gradcheck() -> None:
    rng = Rng(2002)
    ca = ChannelAttnState.init(8, 4, rng.spawn("ca"), dtype=np.float64)
    sa = SpatialAttnState.init(8, 4, rng.spawn("sa"), dtype=np.float64)
    a = _rand(rng.spawn("fa"), (2, 8, 4, 4), dtype=np.float64, requires_grad=True)
    b = _rand(rng.spawn("fb2"), (2, 8, 4, 4), dtype=np.float64, requires_grad=True)

    for mode in ("eval", "train"):
        # in train mode the spatial conv biases sit before batchnorm, so
        # their true gradient is zero and they are not probed
        probe = [("a", a), ("b", b)] + ca.parameters() + [
            (n, t) for n, t in sa.parameters() if mode == "eval" or not n.endswith(".bias")]
        errs = check_gradients(lambda: _sq_mean(csafm_fuse(a, b, ca, sa, mode)), probe, sample=6)
        worst = max(errs.values())
        _require(worst < 1e-5, f"fusion block gradcheck rel err {worst:.3g} ({mode})")


def check_shape_pipeline() -> None:
    c, h, w = feature_shape(200, 400)
    _require((c, h, w) == (512, 4, 7), f"200x400 backbone shape {(c, h, w)} != (512,4,7)")
    rng = Rng(321)
    random_sizes = [(33 + int(rng.below(467)), 33 + int(rng.below(467))) for _ in range(100)]
    for h, w in [(200, 400), (64, 64), (97, 123), (33, 250)] + random_sizes:
        want = oracles.backbone_shape(h, w, scaled_channels(1.0), KERNELS, CONV_STRIDES, CONV_PADS)
        got = feature_shape(h, w)
        _require(got == want, f"{h}x{w} backbone shape {got} != shape oracle {want}")
    a = Tensor(np.zeros((1, 512, 4, 7), dtype=np.float32))
    b = Tensor(np.zeros((1, 512, 3, 9), dtype=np.float32))
    sa, sb = standardize(a, b)
    _require(sa.dims == (1, 512, 3, 7) and sb.dims == (1, 512, 3, 7),
             f"standardize produced {sa.dims} / {sb.dims}")


def check_e2e_gradcheck() -> None:
    rng = Rng(444)
    m = FpvCsafmModel.build(
        classes=3, fp_size=(20, 20), fv_size=(20, 20),
        variant=FusionVariant.CSAFM, rng=rng.spawn("model"),
        r1=4, r2=4, width_multiplier=1.0 / 16.0, dtype=np.float64,
    )
    fp = _rand(rng.spawn("fp"), (2, 1, 20, 20), dtype=np.float64)
    fv = _rand(rng.spawn("fv"), (2, 1, 20, 20), dtype=np.float64)
    labels = np.array([0, 2])
    probe = [
        ("fp.conv1.weight", m.fp_backbone.convs[0].weight),
        ("fv.conv3.weight", m.fv_backbone.convs[2].weight),
        ("fv.conv5.weight", m.fv_backbone.convs[4].weight),
        ("fusion.pw1.weight", m.fusion.channel.pw1.weight),
        ("fusion.pw2.weight", m.fusion.channel.pw2.weight),
        ("fusion.spconv1.weight", m.fusion.spatial.conv1.weight),
        ("fusion.spconv2.weight", m.fusion.spatial.conv2.weight),
        ("head.weight", m.head_w),
    ]

    for mode in ("eval", "train"):
        errs = check_gradients(lambda: ops.softmax_xent(m.forward_batch(fp, fv, mode), labels)[0],
                               probe, sample=6)
        worst = max(errs.values())
        _require(worst < 1e-5, f"end-to-end gradcheck rel err {worst:.3g} ({mode})")


def check_weight_roundtrip() -> None:
    rng = Rng(555)
    m = FpvCsafmModel.build(
        classes=4, fp_size=(33, 33), fv_size=(33, 33),
        variant=FusionVariant.CSAFM, rng=rng.spawn("model"),
        r1=4, r2=4, width_multiplier=1.0 / 16.0,
    )
    fp = _rand(rng.spawn("fp"), (2, 1, 33, 33))
    fv = _rand(rng.spawn("fv"), (2, 1, 33, 33))
    m.forward_batch(fp, fv, "train")  # running stats away from their init values
    before = m.forward_batch(fp, fv, "eval").data.copy()
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "w.csafm")
        save(m, path)
        m2 = load(path)
        with open(path, "rb") as f:
            buf = f.read()
        for want, forged in ((WeightFileMagicError, b"XSAF" + buf[4:]),
                             (WeightFileTruncatedError, buf[:-64]),
                             (WeightFileTruncatedError, buf[:2]),
                             (WeightFileVersionError, buf[:4] + (99).to_bytes(4, "little") + buf[8:])):
            bad = os.path.join(td, "bad.csafm")
            with open(bad, "wb") as f:
                f.write(forged)
            try:
                load(bad)
            except WeightFileError as e:
                _require(type(e) is want,
                         f"{want.__name__} expected, load raised {type(e).__name__}")
            else:
                raise AssertionError(f"load accepted a file that should raise {want.__name__}")
    saved = {n: (a, k) for n, a, k in m.state_entries()}
    loaded = {n: (a, k) for n, a, k in m2.state_entries()}
    _require(saved.keys() == loaded.keys(), "round trip altered the entry names")
    for n, (a1, k1) in saved.items():
        a2, k2 = loaded[n]
        _require(k1 == k2 and a1.shape == a2.shape and (a1 == a2).all(), f"round trip altered {n}")
    after = m2.forward_batch(fp, fv, "eval").data
    _require((before == after).all(), "round trip altered eval logits")


def check_adam_first_step() -> None:
    # on step one m-hat / (sqrt(v-hat) + eps) = g / (g + eps) for g > 0: about 1 at any scale
    for dtype in (np.float32, np.float64):
        for g in (1.0, 0.37):
            p = Tensor(np.ones((1, 1, 1, 1), dtype=dtype), requires_grad=True)
            p.grad = np.full((1, 1, 1, 1), g, dtype=dtype)
            adam_step([("p", p)], AdamState(lr=0.01))
            delta = float(p.data.reshape(())) - 1.0
            want = -0.01 / (1.0 + 1e-8)
            _require(abs(delta - want) <= 0.01 * 1e-5,
                     f"first Adam step {delta} != {want} ({np.dtype(dtype).name}, gradient {g})")
    st2 = AdamState(lr=0.01)
    q = Tensor(np.full((1, 1, 1, 1), 3.0, dtype=np.float32), requires_grad=True)
    q.grad = np.zeros((1, 1, 1, 1), dtype=np.float32)
    adam_step([("q", q)], st2)
    _require(float(q.data.reshape(())) == 3.0, "zero gradient moved a parameter")


def check_cir_definition() -> None:
    _require(cir(np.array([0, 1, 2, 2]), np.array([0, 1, 2, 3])) == 75.0)
    _require(cir(np.array([4, 0, 1]), np.array([4, 0, 1])) == 100.0)
    _require(cir(np.array([1]), np.array([0])) == 0.0)
    r = np.random.default_rng(5005)
    preds, labels = r.integers(0, 6, 60), r.integers(0, 6, 60)
    base = cir(preds, labels)
    for _ in range(100):
        perm = r.permutation(60)
        _require(cir(preds[perm], labels[perm]) == base, "CIR depends on sample order")


CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("conv_forward_oracle", check_conv_forward_oracle),
    ("conv_gradcheck", check_conv_gradcheck),
    ("pwconv_gradcheck", check_pwconv_gradcheck),
    ("pool_forward_oracle", check_pool_forward_oracle),
    ("pool_gradcheck", check_pool_gradcheck),
    ("batchnorm_gradcheck", check_batchnorm_gradcheck),
    ("batchnorm_eval_affine", check_batchnorm_eval_affine),
    ("activation_gradchecks", check_activation_gradchecks),
    ("gap_oracle", check_gap_oracle),
    ("fc_gradcheck", check_fc_gradcheck),
    ("softmax_xent_grad", check_softmax_xent_grad),
    ("backbone_gradcheck", check_backbone_gradcheck),
    ("fusion_half_identity", check_fusion_half_identity),
    ("fusion_coefficient_range", check_fusion_coefficient_range),
    ("fusion_gradcheck", check_fusion_gradcheck),
    ("shape_pipeline", check_shape_pipeline),
    ("e2e_gradcheck", check_e2e_gradcheck),
    ("weight_roundtrip", check_weight_roundtrip),
    ("adam_first_step", check_adam_first_step),
    ("cir_definition", check_cir_definition),
]


def run_all(out=None) -> bool:
    """Run every check; print one PASS/FAIL line each; True iff all pass."""
    out = out if out is not None else sys.stdout
    ok = True
    for name, fn in CHECKS:
        try:
            fn()
        except Exception as e:  # report and continue; the suite must finish
            ok = False
            print(f"FAIL {name}: {e}", file=out)
        else:
            print(f"PASS {name}", file=out)
    return ok
