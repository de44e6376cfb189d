"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written the slow, obvious way (explicit
loops, per-pixel arithmetic, or the plain numpy expression). The module
imports numpy and nothing from the rest of the package, so the kernels it
checks, in `csafm verify` and in the tests, share no code with it.
"""

import numpy as np


def out_size(size, k, stride, pad):
    return (size + 2 * pad - k) // stride + 1


def conv2d_loops(x, w, b, stride, pad):
    """Six-loop cross-correlation. x (n,c,h,w), w (co,c,k,k), b (co,)."""
    n, c, h, wd = x.shape
    co, ci, k, k2 = w.shape
    if ci != c or k != k2:  # not assert: python -O would drop it
        raise AssertionError(f"weight {w.shape} does not fit input {x.shape}")
    oh = out_size(h, k, stride, pad)
    ow = out_size(wd, k, stride, pad)
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    out = np.zeros((n, co, oh, ow), dtype=np.float64)
    for ni in range(n):
        for oi in range(co):
            for yi in range(oh):
                for xi in range(ow):
                    acc = 0.0
                    for ci_ in range(c):
                        for ky in range(k):
                            for kx in range(k):
                                acc += (xp[ni, ci_, yi * stride + ky, xi * stride + kx]
                                        * w[oi, ci_, ky, kx])
                    out[ni, oi, yi, xi] = acc + b[oi]
    return out


def im2col_loops(x, k, stride, pad):
    """Zero-padded patch matrix of x (n,c,h,w): one row per output pixel in
    (n, y, x) order, columns in (ky, kx, c) order."""
    n, c, h, w = x.shape
    oh = out_size(h, k, stride, pad)
    ow = out_size(w, k, stride, pad)
    col = np.zeros((n * oh * ow, k * k * c), dtype=x.dtype)
    for ni in range(n):
        for yi in range(oh):
            for xi in range(ow):
                row = (ni * oh + yi) * ow + xi
                for ky in range(k):
                    for kx in range(k):
                        r, q = yi * stride + ky - pad, xi * stride + kx - pad
                        if 0 <= r < h and 0 <= q < w:
                            for ci in range(c):
                                col[row, (ky * k + kx) * c + ci] = x[ni, ci, r, q]
    return col


def maxpool_loops(x, k, stride, pad):
    """Window-scan max pool over a -inf padded input."""
    n, c, h, w = x.shape
    oh = out_size(h, k, stride, pad)
    ow = out_size(w, k, stride, pad)
    xp = np.full((n, c, h + 2 * pad, w + 2 * pad), -np.inf, dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    out = np.empty((n, c, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(oh):
                for xi in range(ow):
                    win = xp[ni, ci, yi * stride:yi * stride + k,
                             xi * stride:xi * stride + k]
                    out[ni, ci, yi, xi] = win.max()
    return out


def maxpool_chain(x, k, stride, pad):
    """Max pool as a running np.maximum over the k*k strided taps of the
    -inf padded input, from tap (0, 0) on in row-major order. On a tie
    np.maximum returns its second operand, here the running max, so the
    earliest tap's value (and sign of zero) is kept; of two NaNs it returns
    the first, so the latest NaN tap's payload is kept."""
    n, c, h, w = x.shape
    oh = out_size(h, k, stride, pad)
    ow = out_size(w, k, stride, pad)
    xp = np.full((n, c, h + 2 * pad, w + 2 * pad), -np.inf, dtype=x.dtype)
    xp[:, :, pad:pad + h, pad:pad + w] = x
    taps = [xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride]
            for i in range(k) for j in range(k)]
    out = taps[0].copy()
    for t in taps[1:]:
        np.maximum(t, out, out=out)
    return out


def maxpool_backward_loops(x, g, k, stride, pad):
    """Route each output's gradient to the first row-major argmax of its window.

    Outputs are visited in row-major order, and padding never wins.
    """
    n, c, h, w = x.shape
    dx = np.zeros(x.shape, dtype=g.dtype)
    for ni in range(n):
        for ci in range(c):
            for yi in range(g.shape[2]):
                for xi in range(g.shape[3]):
                    best = None
                    for ky in range(k):
                        for kx in range(k):
                            r = yi * stride + ky - pad
                            q = xi * stride + kx - pad
                            if 0 <= r < h and 0 <= q < w and (
                                    best is None or x[ni, ci, r, q] > x[ni, ci][best]):
                                best = (r, q)
                    dx[ni, ci][best] += g[ni, ci, yi, xi]
    return dx


def conv2d_backward_loops(x, w, g, stride, pad):
    """dx, dw, db of conv2d_loops for upstream gradient g, summed in float64."""
    n, c, h, wd = x.shape
    co, _, k, _ = w.shape
    xp = np.zeros((n, c, h + 2 * pad, wd + 2 * pad), dtype=np.float64)
    xp[:, :, pad:pad + h, pad:pad + wd] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros(w.shape, dtype=np.float64)
    db = np.zeros(co, dtype=np.float64)
    for ni in range(n):
        for oi in range(co):
            for yi in range(g.shape[2]):
                for xi in range(g.shape[3]):
                    gv = float(g[ni, oi, yi, xi])
                    db[oi] += gv
                    for ci in range(c):
                        for ky in range(k):
                            for kx in range(k):
                                r, q = yi * stride + ky, xi * stride + kx
                                dw[oi, ci, ky, kx] += gv * xp[ni, ci, r, q]
                                dxp[ni, ci, r, q] += gv * w[oi, ci, ky, kx]
    return dxp[:, :, pad:pad + h, pad:pad + wd], dw, db


def relu_where(x, g):
    """relu as np.where(x > 0, x, 0), and its gradient for upstream g."""
    mask = x > 0
    return np.where(mask, x, x.dtype.type(0)), g * mask


def sigmoid_branches(x, g):
    """Stable two-branch sigmoid: 1/(1+exp(-x)) for x >= 0, exp(x)/(1+exp(x))
    below, each evaluated everywhere and picked by np.where; and its gradient."""
    with np.errstate(over="ignore"):
        out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                       np.exp(np.minimum(x, 0)) / (1.0 + np.exp(np.minimum(x, 0))))
    out = out.astype(x.dtype)
    return out, g * out * (1.0 - out)


def batchnorm_np(x, gamma, beta, running_mean, running_var, g, mode,
                 momentum=0.1, eps=1e-5):
    """Batchnorm over (n, h, w) via np.mean and np.var, and its backward for g.

    gamma and beta are (1, c, 1, 1); the running stats are (c,) and are not
    modified. Returns out, dx, dgamma, dbeta and the running mean and
    variance after the step, unchanged in eval mode.
    """
    dt = x.dtype
    eps = dt.type(eps)
    c = x.shape[1]
    axes = (0, 2, 3)
    rm, rv = running_mean.copy(), running_var.copy()
    if mode == "train":
        mu = x.mean(axis=axes, keepdims=True)
        var = x.var(axis=axes, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = (x - mu) * inv_std
        mom = dt.type(momentum)
        rm = rm * (1 - mom) + mom * mu.reshape(c)
        rv = rv * (1 - mom) + mom * var.reshape(c)
        gm = g.mean(axis=axes, keepdims=True)
        gxm = (g * xhat).mean(axis=axes, keepdims=True)
        dx = gamma * inv_std * (g - gm - xhat * gxm)
    else:
        inv_std = 1.0 / np.sqrt(rv.reshape(1, c, 1, 1) + eps)
        xhat = (x - rm.reshape(1, c, 1, 1)) * inv_std
        dx = g * (gamma * inv_std)
    out = gamma * xhat + beta
    dgamma = (g * xhat).sum(axis=axes).reshape(1, c, 1, 1)
    dbeta = g.sum(axis=axes).reshape(1, c, 1, 1)
    return out, dx, dgamma, dbeta, rm, rv


def gap_loops(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c, 1, 1), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            out[ni, ci, 0, 0] = sum(
                x[ni, ci, yi, xi] for yi in range(h) for xi in range(w)
            ) / (h * w)
    return out


def pwconv_matvec(x, w, b):
    """1x1 conv as a per-pixel matrix-vector product."""
    n, c, h, wd = x.shape
    co = w.shape[0]
    m = w.reshape(co, c)
    out = np.empty((n, co, h, wd), dtype=np.float64)
    for ni in range(n):
        for yi in range(h):
            for xi in range(wd):
                out[ni, :, yi, xi] = m @ x[ni, :, yi, xi] + b
    return out


def crop_center(x, h, w):
    """Center crop by slicing, offsets floor((H-h)/2)."""
    top = (x.shape[2] - h) // 2
    left = (x.shape[3] - w) // 2
    return x[:, :, top:top + h, left:left + w]


def backbone_shape(h, w, channels, kernels, strides, pads, pool_k=3, pool_s=2, pool_p=1):
    """Shape arithmetic for a conv+pool stage stack; returns (c, h, w)."""
    for k, s, p in zip(kernels, strides, pads):
        h = out_size(h, k, s, p)
        w = out_size(w, k, s, p)
        h = out_size(h, pool_k, pool_s, pool_p)
        w = out_size(w, pool_k, pool_s, pool_p)
    return channels[-1], h, w


def nearest_centroid(train_x, train_y, test_x):
    """Classify flattened images by distance to per-class mean."""
    classes = int(train_y.max()) + 1
    cents = np.stack([train_x[train_y == c].mean(axis=0) for c in range(classes)])
    d = ((test_x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
    return d.argmin(axis=1)
