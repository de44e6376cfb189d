"""Each release check fails on a fault that it exists to catch.

A fault is one monkeypatched production function (or constant). A check
that passes with its fault in place checks nothing; the cases marked
"new" are caught only by a case that the check gained when its test twin
was folded into it.
"""

import os

import numpy as np
import pytest

from csafm import WeightFileMagicError, backbone, fusion, model, ops, train, verify


def _off(fn, change=lambda a: a * 1.01, when=lambda *args: True):
    """fn with `change` applied to its output (the loss, for a tuple) where
    `when` holds; the backward stays that of fn."""
    def faulty(*args):
        out = fn(*args)
        if when(*args):
            t = out[0] if isinstance(out, tuple) else out
            t.data = change(t.data)
        return out
    return faulty


def _load_without_running_stats(load):
    def faulty(path):
        m = load(path)
        for name, a, kind in m.state_entries():
            if kind == "running_stat":
                a[:] = 1.0 if name.endswith("running_var") else 0.0
        return m
    return faulty


def _load_short_as_bad_magic(load):
    def faulty(path):
        if os.path.getsize(path) < 8:
            raise WeightFileMagicError(f"{path}: bad magic")
        return load(path)
    return faulty


def _sgd_step(adam_step):
    def faulty(params, st):
        for _, p in params:
            p.data -= st.lr * p.grad
    return faulty


# (check, fault id, module, attribute, fault built from the original)
FAULTS = [
    ("conv_forward_oracle", "even_kernel_new", ops, "conv2d", lambda f: _off(f, when=lambda x, p: p.k == 2)),
    ("conv_forward_oracle", "padded", ops, "conv2d", lambda f: _off(f, when=lambda x, p: p.pad > 0)),
    ("conv_gradcheck", "stride_1_new", ops, "conv2d", lambda f: _off(f, when=lambda x, p: p.stride == 1)),
    ("conv_gradcheck", "k5_new", ops, "conv2d", lambda f: _off(f, when=lambda x, p: p.k == 5)),
    ("pwconv_gradcheck", "any", ops, "pwconv", _off),
    ("pool_forward_oracle", "padded", ops, "maxpool2d", lambda f: _off(f, when=lambda x, k, s, pad: pad > 0)),
    ("pool_gradcheck", "any", ops, "maxpool2d", _off),
    ("batchnorm_gradcheck", "train", ops, "batchnorm", lambda f: _off(f, when=lambda x, p, mode: mode == "train")),
    ("batchnorm_eval_affine", "eval", ops, "batchnorm", lambda f: _off(f, when=lambda x, p, mode: mode == "eval")),
    ("activation_gradchecks", "relu", ops, "relu", _off),
    ("activation_gradchecks", "sigmoid", ops, "sigmoid", _off),
    ("gap_oracle", "any", ops, "gap", _off),
    ("fc_gradcheck", "any", ops, "fully_connected", _off),
    ("softmax_xent_grad", "loss", ops, "softmax_xent", _off),
    ("backbone_gradcheck", "conv", backbone, "conv2d", _off),
    ("fusion_half_identity", "gate", fusion, "sigmoid", _off),
    ("fusion_coefficient_range", "centred_gate", fusion, "sigmoid", lambda f: _off(f, change=lambda a: a - 0.5)),
    ("fusion_gradcheck", "pwconv", fusion, "pwconv", _off),
    ("fusion_gradcheck", "train_batchnorm_new", fusion, "batchnorm",
     lambda f: _off(f, when=lambda x, p, mode: mode == "train")),
    ("shape_pipeline", "ceil_rounding", backbone, "conv_out_size",
     lambda f: lambda size, k, s, pad: -(-(size + 2 * pad - k) // s) + 1),
    ("shape_pipeline", "no_crop", verify, "standardize", lambda f: lambda a, b: (a, b)),
    ("e2e_gradcheck", "head", model, "fully_connected", _off),
    ("e2e_gradcheck", "train_batchnorm_new", backbone, "batchnorm",
     lambda f: _off(f, when=lambda x, p, mode: mode == "train")),
    ("weight_roundtrip", "running_stats_new", verify, "load", _load_without_running_stats),
    ("weight_roundtrip", "two_byte_file_new", verify, "load", _load_short_as_bad_magic),
    ("adam_first_step", "sgd_new", verify, "adam_step", _sgd_step),
    ("adam_first_step", "float32_only_new", verify, "adam_step",
     lambda f: lambda params, st: f([(n, p) for n, p in params if p.data.dtype == np.float32], st)),
    ("adam_first_step", "no_eps", train, "ADAM_EPS", lambda eps: 0.0),
    ("cir_definition", "fraction", verify, "cir", lambda f: lambda p, l: f(p, l) / 100.0),
    ("cir_definition", "drops_partial_batch", verify, "cir", lambda f: lambda p, l: f(p[:50], l[:50])),
]


@pytest.mark.parametrize("check, module, attr, fault", [f[:1] + f[2:] for f in FAULTS],
                         ids=[f"{f[0]}-{f[1]}" for f in FAULTS])
def test_release_check_catches(check, module, attr, fault, monkeypatch):
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    with pytest.raises(AssertionError):
        dict(verify.CHECKS)[check]()
