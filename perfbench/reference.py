"""Float64 numpy recomputation of the model, written apart from csafm.

Nothing here calls a csafm kernel. The weight-file parser follows the v1
layout (magic, version, JSON header, float32 blobs); the forward pass
follows the paper's layer recipe: five conv/bn/relu/maxpool stages per
branch, centre crop to the common map size, the CSAFM block

    Z = f_fp * Fc * Fs + f_fv * (1 - Fc) * (1 - Fs)

with Fc = sigmoid(x * A_c(x)), Fs = sigmoid(f_c * A_s(f_c)), x = f_fp + f_fv,
and a fully connected head. The benchmark compares the program's outputs
with these to a float32 tolerance.
"""

from __future__ import annotations

import json
import struct

import numpy as np

BN_EPS = 1e-5
CONV_STRIDES = (2, 1, 1, 1, 1)
CONV_PADS = (3, 1, 1, 1, 1)
POOL_K, POOL_S, POOL_P = 3, 2, 1
SPATIAL_PAD = 3


def read_weights(path) -> tuple[dict, dict[str, np.ndarray]]:
    """(meta, name -> float64 array) from a v1 weight file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:4] != b"CSAF":
        raise ValueError(f"{path}: not a csafm weight file")
    version, hlen = struct.unpack_from("<II", buf, 4)
    if version != 1:
        raise ValueError(f"{path}: format version {version}, reference reads 1")
    header = json.loads(buf[12:12 + hlen])
    off = 12 + hlen
    arrays = {}
    for entry in header["tensors"]:
        dims = struct.unpack_from("<4I", buf, off)
        count = int(np.prod(dims))
        data = np.frombuffer(buf, dtype="<f4", count=count, offset=off + 16)
        arrays[entry["name"]] = data.astype(np.float64).reshape(dims)
        off += 16 + 4 * count
    if off != len(buf):
        raise ValueError(f"{path}: {len(buf) - off} bytes after the last blob")
    return header["meta"], arrays


def conv(x, w, b, stride: int, pad: int):
    """Zero-padded cross-correlation, accumulated one kernel tap at a time."""
    n, _, h, wd = x.shape
    oc, _, k, _ = w.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    out = np.zeros((n, oh, ow, oc))
    for i in range(k):
        for j in range(k):
            tap = xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            out += np.einsum("nchw,oc->nhwo", tap, w[:, :, i, j], optimize=True)
    return out.transpose(0, 3, 1, 2) + b.reshape(1, oc, 1, 1)


def bn_eval(x, gamma, beta, mean, var):
    c = (1, -1, 1, 1)
    return (x - mean.reshape(c)) / np.sqrt(var.reshape(c) + BN_EPS) * gamma.reshape(c) \
        + beta.reshape(c)


def bn_train(x, gamma, beta):
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    return bn_eval(x, gamma, beta, mean, var)


def relu(x):
    return np.maximum(x, 0.0)


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def maxpool(x, k: int = POOL_K, stride: int = POOL_S, pad: int = POOL_P):
    _, _, h, w = x.shape
    oh = (h + 2 * pad - k) // stride + 1
    ow = (w + 2 * pad - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), constant_values=-np.inf)
    out = np.full(x.shape[:2] + (oh, ow), -np.inf)
    for i in range(k):
        for j in range(k):
            out = np.maximum(out, xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride])
    return out


def crop(x, h: int, w: int):
    oh = (x.shape[2] - h) // 2
    ow = (x.shape[3] - w) // 2
    return x[:, :, oh:oh + h, ow:ow + w]


def crop_pair(a, b):
    h = min(a.shape[2], b.shape[2])
    w = min(a.shape[3], b.shape[3])
    return crop(a, h, w), crop(b, h, w)


def channel_map(x, p: dict):
    """A_c(x) = pw2(relu(pw1(gap(x)))), shape (n, C, 1, 1)."""
    g = x.mean(axis=(2, 3), keepdims=True)
    y = relu(conv(g, p["channel.pw1.weight"], p["channel.pw1.bias"], 1, 0))
    return conv(y, p["channel.pw2.weight"], p["channel.pw2.bias"], 1, 0)


def spatial_map(x, p: dict, mode: str):
    """A_s(x) = sigmoid(bn2(conv2(relu(bn1(conv1(x)))))), 7x7 convs."""
    def bn(y, name):
        if mode == "train":
            return bn_train(y, p[f"{name}.gamma"], p[f"{name}.beta"])
        return bn_eval(y, p[f"{name}.gamma"], p[f"{name}.beta"],
                       p[f"{name}.running_mean"], p[f"{name}.running_var"])
    y = conv(x, p["spatial.conv1.weight"], p["spatial.conv1.bias"], 1, SPATIAL_PAD)
    y = relu(bn(y, "spatial.bn1"))
    y = conv(y, p["spatial.conv2.weight"], p["spatial.conv2.bias"], 1, SPATIAL_PAD)
    return sigmoid(bn(y, "spatial.bn2"))


def fuse(variant: str, a, b, p: dict, mode: str):
    """Fused map of two equal-shape feature maps for one fusion variant."""
    if variant == "SERIAL_SUM":
        return a + b
    if variant == "PARALLEL_CONCAT":
        return np.concatenate([a, b], axis=1)
    x = a + b
    if variant == "CSAFM":
        f_c = x * channel_map(x, p)
        gates = [sigmoid(f_c), sigmoid(f_c * spatial_map(f_c, p, mode))]
    elif variant == "CHANNEL_ONLY":
        gates = [sigmoid(x * channel_map(x, p))]
    elif variant == "SPATIAL_ONLY":
        gates = [sigmoid(x * spatial_map(x, p, mode))]
    elif variant == "PARALLEL_CS":
        gates = [sigmoid(x * channel_map(x, p)), sigmoid(x * spatial_map(x, p, mode))]
    elif variant == "SEQ_SC":
        f_s = x * spatial_map(x, p, mode)
        gates = [sigmoid(f_s), sigmoid(f_s * channel_map(f_s, p))]
    else:
        raise ValueError(f"no reference for fusion variant {variant!r}")
    w_fp = np.prod(gates, axis=0)
    w_fv = np.prod([1.0 - g for g in gates], axis=0)
    return a * w_fp + b * w_fv


def branch(img, p: dict, prefix: str):
    """Eval-mode backbone features of one modality."""
    x = img
    for i in range(5):
        s = f"{prefix}.conv{i + 1}"
        x = conv(x, p[f"{s}.weight"], p[f"{s}.bias"], CONV_STRIDES[i], CONV_PADS[i])
        bn = f"{prefix}.bn{i + 1}"
        x = bn_eval(x, p[f"{bn}.gamma"], p[f"{bn}.beta"],
                    p[f"{bn}.running_mean"], p[f"{bn}.running_var"])
        x = maxpool(relu(x))
    return x


def logits(meta: dict, arrays: dict, fp_img, fv_img):
    """Eval-mode logits (n, classes) of a fused model read by read_weights."""
    if meta.get("kind") != "fused" or meta.get("literal_double_mul"):
        raise ValueError("the reference covers fused models without literal_double_mul")
    a, b = crop_pair(branch(fp_img, arrays, "fp"), branch(fv_img, arrays, "fv"))
    fusion = {k[len("fusion."):]: v for k, v in arrays.items() if k.startswith("fusion.")}
    z = fuse(meta["variant"], a, b, fusion, "eval")
    w = arrays["head.weight"]
    flat = z.reshape(z.shape[0], -1)
    return flat @ w.reshape(w.shape[0], -1).T + arrays["head.bias"].reshape(1, -1)


def state_arrays(st) -> dict[str, np.ndarray]:
    """name -> float64 array for a fusion state, keyed as in the weight file."""
    out = {}
    if st.channel is not None:
        for k, t in st.channel.parameters():
            out[f"channel.{k}"] = t.data.astype(np.float64)
    if st.spatial is not None:
        for k, t in st.spatial.parameters():
            out[f"spatial.{k}"] = t.data.astype(np.float64)
        for name in ("bn1", "bn2"):
            bn = getattr(st.spatial, name)
            out[f"spatial.{name}.running_mean"] = bn.running_mean.astype(np.float64)
            out[f"spatial.{name}.running_var"] = bn.running_var.astype(np.float64)
    return out
