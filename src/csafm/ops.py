"""Forward and backward implementations of every layer primitive.

Convolution is cross-correlation (no kernel flip) with symmetric zero
padding. All ops preserve the input dtype so the float64 gradient-check
path runs through identical code.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .errors import DimensionError, ParameterError
from .tensor import Tensor, accumulate_grad, make_node


def conv_out_size(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


class StateTree:
    """A model part whose tensors named() lists once, in save order, as
    (name, value, kind): kind "param" for a trainable Tensor, "running_stat"
    for a running-statistics array. parameters(), state_entries() and so the
    weight file, its loader and best-epoch snapshots all read that walk."""

    def named(self) -> Iterator[tuple[str, Union[Tensor, np.ndarray], str]]:
        raise NotImplementedError

    def named_under(self, prefix: str) -> Iterator[tuple[str, Union[Tensor, np.ndarray], str]]:
        for name, t, kind in self.named():
            yield f"{prefix}.{name}", t, kind

    def parameters(self) -> list[tuple[str, Tensor]]:
        return [(name, t) for name, t, kind in self.named() if kind == "param"]

    def state_entries(self) -> list[tuple[str, np.ndarray, str]]:
        return [(name, t.data if kind == "param" else t, kind) for name, t, kind in self.named()]


@dataclass
class ConvParams(StateTree):
    """Weights for one convolution: weight (out_c, in_c, kh, kw), bias (1, out_c, 1, 1).

    he_init holds the weight channels-last in memory: its data is the
    (out_c, in_c, kh, kw) transpose of an (out_c, kh, kw, in_c) buffer, the
    (i, j, c) column order of conv2d's patch matrix. So the forward GEMM
    reads it in place and backward writes dw in the same order, with no
    relayout copy per call. Every reader of values sees the logical
    (out_c, in_c, kh, kw) array, and the weight file stores it row-major in
    that order. conv2d takes a C-ordered weight as well, at the cost of a
    channels-last copy per call, and gives the same bytes.
    """

    weight: Tensor
    bias: Tensor
    stride: int = 1
    pad: int = 0

    def __post_init__(self):
        oc, ic, kh, kw = self.weight.dims
        if kh != kw:
            raise DimensionError(f"square kernels only; got {kh}x{kw}")
        if self.bias.dims != (1, oc, 1, 1):
            raise DimensionError(
                f"bias dims {self.bias.dims} do not match out channels {oc}"
            )
        if self.stride < 1 or self.pad < 0:
            raise ParameterError(f"bad stride/pad: {self.stride}/{self.pad}")

    @property
    def out_c(self) -> int:
        return self.weight.dims[0]

    @property
    def in_c(self) -> int:
        return self.weight.dims[1]

    @property
    def k(self) -> int:
        return self.weight.dims[2]

    @classmethod
    def he_init(cls, in_c, out_c, k, stride, pad, rng, dtype=np.float32) -> "ConvParams":
        # He-normal: std = sqrt(2 / fan_in), zero bias
        if min(in_c, out_c, k) < 1:
            raise ParameterError(
                f"channel counts and kernel must be >= 1, got {in_c}/{out_c}/{k}"
            )
        std = float(np.sqrt(2.0 / (in_c * k * k)))
        w = np.empty((out_c, k, k, in_c), dtype=dtype).transpose(0, 3, 1, 2)
        # the draws fill the logical (out_c, in_c, k, k) order, as a C-ordered weight's would
        w[...] = rng.normal(out_c * in_c * k * k, 0.0, std).reshape(w.shape)
        weight = Tensor(w, requires_grad=True)
        bias = Tensor(np.zeros((1, out_c, 1, 1), dtype=dtype), requires_grad=True)
        return cls(weight=weight, bias=bias, stride=stride, pad=pad)

    def named(self):
        yield "weight", self.weight, "param"
        yield "bias", self.bias, "param"


BN_MOMENTUM = 0.1  # weight of the batch moments in each running-statistics update
BN_EPS = 1e-5  # added to the variance before its square root


@dataclass
class BnParams(StateTree):
    """Batch-norm state: learnable gamma/beta plus running statistics.

    Running statistics track the biased (1/m) batch moments; eval mode
    normalizes by them, so running_var stays >= 0.
    """

    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray

    def __post_init__(self):
        c = self.gamma.dims[1]
        if self.beta.dims != (1, c, 1, 1):
            raise DimensionError("gamma/beta channel counts differ")
        if self.running_mean.shape != (c,) or self.running_var.shape != (c,):
            raise DimensionError("running stats must be per-channel vectors")

    @property
    def channels(self) -> int:
        return self.gamma.dims[1]

    @classmethod
    def init(cls, c: int, dtype=np.float32) -> "BnParams":
        return cls(
            gamma=Tensor(np.ones((1, c, 1, 1), dtype=dtype), requires_grad=True),
            beta=Tensor(np.zeros((1, c, 1, 1), dtype=dtype), requires_grad=True),
            running_mean=np.zeros(c, dtype=dtype),
            running_var=np.ones(c, dtype=dtype),
        )

    def named(self):
        yield "gamma", self.gamma, "param"
        yield "beta", self.beta, "param"
        yield "running_mean", self.running_mean, "running_stat"
        yield "running_var", self.running_var, "running_stat"


def _pad(a: np.ndarray, pad: int, value: float) -> np.ndarray:
    """a with `pad` cells of `value` around its last two axes; half the cost of np.pad."""
    n, c, h, w = a.shape
    out = np.full((n, c, h + 2 * pad, w + 2 * pad), value, dtype=a.dtype)
    out[:, :, pad : pad + h, pad : pad + w] = a
    return out


def _pad_cl(x: np.ndarray, pad: int) -> np.ndarray:
    """(n, c, h, w) -> zero-padded channels-last (n, h + 2*pad, w + 2*pad, c), one transposing copy."""
    n, c, h, w = x.shape
    out = np.zeros((n, h + 2 * pad, w + 2 * pad, c), dtype=x.dtype)
    out[:, pad : pad + h, pad : pad + w] = x.transpose(0, 2, 3, 1)
    return out


def _view(a: np.ndarray, shape, offset: int, strides) -> np.ndarray:
    """Read-only view of the C-contiguous array a, from byte `offset` on.

    The ndarray constructor builds it in about 1.2 us where as_strided
    takes 5-7 us, and refuses a view that would overrun a's buffer.
    """
    v = np.ndarray(shape, a.dtype, a, offset, strides)
    v.flags.writeable = False
    return v


def _windows(xpl: np.ndarray, k, s: int, oh: int, ow: int, origin=(0, 0)) -> np.ndarray:
    """Read-only (n, oh, ow, kh, kw, c) view of the windows of a C-contiguous
    padded (n, H, W, c) input.

    k is the window, an int for k x k or a (kh, kw) pair. Window (y, x) starts
    at row i0 + s*y, column j0 + s*x of xpl, where (i0, j0) is origin; xpl
    may extend past the last window. The far edge of the last window is
    checked here, so an overrun fails with a DimensionError.
    """
    kh, kw = (k, k) if isinstance(k, int) else k
    i0, j0 = origin
    n, hp, wp, c = xpl.shape
    if i0 + s * (oh - 1) + kh > hp or j0 + s * (ow - 1) + kw > wp:
        raise DimensionError(
            f"{oh}x{ow} windows of {kh}x{kw} at stride {s} from ({i0}, {j0}) "
            f"do not fit a {hp}x{wp} input")
    sn, sh, sw, sc = xpl.strides
    return _view(xpl, (n, oh, ow, kh, kw, c), i0 * sh + j0 * sw,
                 (sn, s * sh, s * sw, sh, sw, sc))


def _im2col(xpl: np.ndarray, k, s: int, oh: int, ow: int, origin=(0, 0)) -> np.ndarray:
    """(n, H, W, c) padded input -> (n*oh*ow, kh*kw*c) patch matrix, columns in (i, j, c) order."""
    win = _windows(xpl, k, s, oh, ow, origin)
    n, _, _, kh, kw, c = win.shape
    return win.reshape(n * oh * ow, kh * kw * c)


def _live_taps(k: int, s: int, pad: int, size: int, o: int) -> tuple[int, int]:
    """The hull [lo, hi) of the kernel offsets along one axis that can read the input.

    Offset i reads padded cells i, i + s, ..., i + s*(o-1), and the input
    holds cells [pad, pad + size). So an offset below pad - s*(o-1) reads
    only leading padding, and one at or above pad + size only trailing.
    The hull can still hold an offset that reads only padding: when a
    stride steps over a one-cell input (k=3, stride 2, pad 2 on one cell
    keeps offsets 0-2, of which 1 reads padding at both outputs). Such an
    offset multiplies zeros, so the output stays exact and only its work
    is wasted; no backbone or fusion convolution has this geometry.
    _tap_windows, which backward uses, leaves it out.
    """
    return max(0, pad - s * (o - 1)), min(k, pad + size)


@functools.lru_cache(maxsize=1024)
def _tap_windows(k: int, s: int, pad: int, size: int, o: int) -> tuple[tuple[int, slice, slice], ...]:
    """(t, outputs, inputs) along one axis for each kernel offset t that reads the input.

    Output y reads input cell s*y + t - pad, which lies in [0, size) for
    ceil((pad - t)/s) <= y <= (size - 1 + pad - t)//s. `outputs` is that
    window and `inputs` the cells it reads. An offset whose window is empty
    reads only padding and is left out. A model has a handful of conv
    geometries, so the tuples are cached: building one took 4-7 us, as
    much as a tap's GEMM at batch 1.
    """
    taps = []
    for t in range(k):
        lo, hi = max(0, -((t - pad) // s)), min(o, (size - 1 + pad - t) // s + 1)
        if lo < hi:
            first = s * lo + t - pad
            taps.append((t, slice(lo, hi), slice(first, first + s * (hi - lo - 1) + 1, s)))
    return tuple(taps)


def conv2d(x: Tensor, p: ConvParams) -> Tensor:
    """Cross-correlation with zero padding and per-channel bias.

    Forward takes one of three forms, picked by the conv's shape alone:

    - c > oc, a conv that narrows its channels (the attention blocks'
      conv1 and pw1, 512->32 at the paper's width): one GEMM per live tap
      (i, j), the shifted form backward uses. Each tap adds its (m, c)
      input cells times w[:, :, i, j].T, (c, oc), into a zeroed
      channels-last output, over only the outputs whose read at that tap
      lands inside the input (_tap_windows), in row-major tap order, so
      the bits repeat from run to run. No patch matrix is built, as in
      memory-efficient convolution (Cho & Brand 2017): for the 512->32
      conv on the paper's 3x7 map at batch 16 it was a 24 MB copy, 55% of
      whose products read padding, and the forward fell from 12.1 to
      5.3 ms. At batch 1 a tap's GEMM has one or two rows, and the loop's
      few us per tap show: the gate task's 64->16 conv on its 1x2 map
      (three live taps) went from 31 to 38 us, and its pw1 from 21 to 17.
    - c = 1 (stage 1 on the grayscale image): a tap-major im2col GEMM, as
      below but with the matrix built as (kh*kw, n*oh*ow) in one copy of
      long rows, since a window row is only kw floats long, and the
      weight multiplying it from the left. That GEMM sums the same
      products in the same order as the pixel-major one; the stage-1
      forward fell from 3.5 to 2.2 ms at batch 16 on 64x96 images.
    - otherwise (every other backbone conv, and the attention's widening
      conv2, where per tap measured even): one im2col GEMM (Chellapilla
      et al. 2006), the patch matrix (n*oh*ow, kh*kw*c) times the weight
      as (oc, kh*kw*c), transposed. The patch matrix is built from a
      channels-last padded input with columns in (i, j, c) order, so each
      window row it copies is one run of kw*c contiguous floats rather
      than c runs of kw, and the GEMM sums over K in (i, j, c) order. A
      weight from ConvParams.he_init is held in that (oc, i, j, c) order,
      so with every tap live the GEMM reads it in place, where a per-call
      relayout copy took 193 us of a 2.4 ms batch-1 gate forward.

    Timings are medians at BLAS 1 thread on a 2-vCPU VM. The im2col forms
    use only the live taps: the kernel rows [i0, i1) and columns [j0, j1)
    that can read the input (_live_taps). A tap outside them multiplies
    padding zeros at every output pixel, as the 7x7, pad-3 attention
    convolutions do on a 3x7 or 1x2 fused map; on the backbone every tap
    is live. The GEMM sums fewer zero terms, and its K blocking moves
    with K, so where taps are trimmed the output moves in the last bits.

    Backward is one GEMM per tap (i, j) that reads the input, the shifted
    GEMM form of convolution (Vasudevan et al. 2017), over only the
    outputs whose read at that tap lands inside the input (_tap_windows):
    with g cut to that window as an (m, oc) matrix gs and xw the (m, c)
    input cells it reads, dw[i, j] = gs.T xw and dx[cells] += gs w[:, :, i, j],
    added in row-major tap order into an unpadded channels-last dx. Of a
    channels-last weight, w[:, :, i, j] is an (oc, c) matrix with unit
    inner stride; np.dot still copies it, as it does any operand that is
    not contiguous, into a C-ordered (oc, c) matrix. dw is built in a +0
    (oc, kh, kw, c) buffer, so a tap that reads only padding keeps +0, and
    handed over as its (oc, c, kh, kw) transpose: the grad has the strides
    of a he_init weight, and so do Adam's moments. At
    c = 1 (stage 1 on the grayscale image) a per-tap dw would be a GEMV,
    twice as slow, so dw there stays one GEMM of g against the patch
    matrix, rebuilt from the padded input: kept alive from forward, the
    patch matrices of all stages would raise peak memory at once. When
    that image needs no dx, backward ends there.

    Bits: each dx cell sums the same products in the same tap order as a
    per-tap loop over all outputs, whose other products land in padding,
    so dx equals that loop's bit for bit at the gate and paper shapes; on
    a tiny map (3x3 at stride 2) a short window's GEMM moved the last bit.
    Each dw GEMM sums over only its window's pixels, with N = c where the
    patch-matrix GEMM had N = kh*kw*c, and BLAS picks its kernel by shape,
    so dw moves in the last bits against that GEMM at backbone stages 2
    to 4 and at the gate task's 8-to-64-channel attention conv, and keeps
    them at the paper's attention convs.
    """
    n, c, h, w = x.dims
    if c != p.in_c:
        raise DimensionError(f"conv2d input has {c} channels, weights expect {p.in_c}")
    k, s, pad = p.k, p.stride, p.pad
    oh = conv_out_size(h, k, s, pad)
    ow = conv_out_size(w, k, s, pad)
    if oh < 1 or ow < 1:
        raise DimensionError(
            f"conv2d output dims {oh}x{ow} non-positive for input {h}x{w}, "
            f"kernel {k}, stride {s}, pad {pad}"
        )
    oc = p.out_c

    # np.dot, not @, and g_oc and g_cl as copies: BLAS picks its kernel by
    # layout and shape, and the kernels sum in different orders, so another
    # layout of the backward operands changes the low bits of dw and dx.
    # w_l is the weight as (oc, kh, kw, c): a view of a he_init weight, a copy
    # of a C-ordered one. Both layouts then give the GEMMs the same operands,
    # whose layout sets the low bits. It comes before the input copies: in
    # the other order glibc kept more heap, and the fusion_paper benchmark
    # peaked 3.9 MiB higher
    w_l = np.ascontiguousarray(p.weight.data.transpose(0, 2, 3, 1))
    if c > oc:
        # per tap: each live tap adds its (m, c) input cells times its (c, oc)
        # weight w_l[:, i, j].T into the outputs that read them, in row-major
        # tap order. np.dot copies that strided operand into a C-ordered
        # matrix; one copy of all taps was slower below a few taps
        w_t = w_l.transpose(1, 2, 3, 0)
        x_cl = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1))
        out_cl = np.zeros((n, oh, ow, oc), dtype=x.data.dtype)
        cols = _tap_windows(k, s, pad, w, ow)
        for i, oy, iy in _tap_windows(k, s, pad, h, oh):
            for j, ox, ix in cols:
                o = out_cl[:, oy, ox]
                o += np.dot(x_cl[:, iy, ix].reshape(-1, c), w_t[i, j]).reshape(o.shape)
        out = out_cl.transpose(0, 3, 1, 2)
    else:
        # w_cl, the live taps as a matrix, is a view unless columns are
        # trimmed from more than one row
        i0, i1 = _live_taps(k, s, pad, h, oh)
        j0, j1 = _live_taps(k, s, pad, w, ow)
        kh, kw = i1 - i0, j1 - j0
        w_cl = w_l[:, i0:i1, j0:j1].reshape(oc, kh * kw * c)
        xpl = _pad_cl(x.data, pad)
        win = _windows(xpl, (kh, kw), s, oh, ow, (i0, j0))
        if c == 1:
            # tap-major (kh*kw, n*oh*ow): one copy of rows n*oh*ow long, where the
            # pixel-major matrix copies rows of kw floats; the same sums come out
            col_t = win.transpose(3, 4, 5, 0, 1, 2).reshape(kh * kw, n * oh * ow)
            out = np.dot(w_cl, col_t).reshape(oc, n, oh, ow).transpose(1, 0, 2, 3)
        else:
            out = np.dot(win.reshape(n * oh * ow, kh * kw * c), w_cl.T)
            out = out.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2)
    out = np.ascontiguousarray(out)
    out += p.bias.data

    def bw(g: np.ndarray) -> None:
        accumulate_grad(p.bias, g.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1), fresh=True)
        dw = np.zeros((oc, k, k, c), dtype=g.dtype)  # channels-last, as he_init holds w
        if c == 1:
            # a per-tap dw would be a GEMV, twice as slow as this one GEMM
            g_oc = g.transpose(1, 0, 2, 3).reshape(oc, n * oh * ow)
            dw_live = np.dot(g_oc, _im2col(xpl, (kh, kw), s, oh, ow, (i0, j0)))
            dw[:, i0:i1, j0:j1] = dw_live.reshape(oc, kh, kw, c)
        if c > 1 or x.requires_grad:
            # g_cl (n, oh, ow, oc) is cut to each tap's output window, and
            # xs, the unpadded channels-last input, and dx (n, h, w, c) to
            # the input cells that window reads
            g_cl = np.ascontiguousarray(g.transpose(0, 2, 3, 1))
            xs = x_cl if c > oc else xpl[:, pad : pad + h, pad : pad + w]
            dx = np.zeros((n, h, w, c), dtype=g.dtype) if x.requires_grad else None
            cols = _tap_windows(k, s, pad, w, ow)
            for i, oy, iy in _tap_windows(k, s, pad, h, oh):
                for j, ox, ix in cols:
                    gs = g_cl[:, oy, ox].reshape(-1, oc)
                    if c > 1:
                        dw[:, i, j] = np.dot(gs.T, xs[:, iy, ix].reshape(-1, c))
                    if dx is not None:
                        dx_win = dx[:, iy, ix]
                        dx_win += np.dot(gs, w_l[:, i, j]).reshape(dx_win.shape)
            if dx is not None:
                accumulate_grad(x, np.ascontiguousarray(dx.transpose(0, 3, 1, 2)), fresh=True)
        accumulate_grad(p.weight, dw.transpose(0, 3, 1, 2), fresh=True)

    return make_node(out, (x, p.weight, p.bias), bw)


def pwconv(x: Tensor, p: ConvParams) -> Tensor:
    """Pointwise (1x1) convolution mixing channels without spatial extent."""
    if p.k != 1 or p.stride != 1 or p.pad != 0:
        raise ParameterError(
            f"pwconv requires k=1, stride=1, pad=0; got k={p.k} "
            f"stride={p.stride} pad={p.pad}"
        )
    return conv2d(x, p)


def maxpool2d(x: Tensor, k: int, stride: int, pad: int) -> Tensor:
    """Per-window max; gradient routes to the first argmax in row-major scan.

    Forward copies the k*k shifted, strided slices ("taps") of the
    -inf-padded input into one contiguous (k*k, n, c, oh, ow) buffer, in
    reverse row-major tap order, and takes one np.maximum.reduce over its
    first axis: no argmax, which eval never needs. A running np.maximum
    over the k*k strided views, whose inner loops are 1-24 floats long,
    cost about twice as much at batch 1 over the gate task's ten pools,
    and as much at batch 16. The reduce returns
    its second operand on a tie and its first on two NaNs, so the reversed
    order keeps the first tap's value of a tie, and a 0.0/-0.0 tie gives
    the first argmax's sign; a window holding NaNs gives its last NaN.
    These are the bytes of a running np.maximum from tap 0 on
    (oracles.maxpool_chain). The buffer lives for the call only.

    Backward finds the first argmax as the lowest offset whose tap equals
    the max, and a window whose max is NaN routes to its first NaN, as
    np.argmax does. The gradient is then added with np.add.at in
    row-major output order, so an input pixel shared by overlapping
    windows sums their gradients in a fixed order.
    """
    n, c, h, w = x.dims
    oh = conv_out_size(h, k, stride, pad)
    ow = conv_out_size(w, k, stride, pad)
    if oh < 1 or ow < 1:
        raise DimensionError(
            f"maxpool2d output dims {oh}x{ow} non-positive for input {h}x{w}"
        )

    xp = _pad(x.data, pad, -np.inf)
    kk = k * k
    sn, sc, sh, sw = xp.strides
    # (k, k, n, c, oh, ow) view of the taps from the last (k-1, k-1) back to
    # (0, 0); the reshape gathers them in that order in one copy
    taps = _view(xp, (k, k, n, c, oh, ow), (k - 1) * (sh + sw),
                 (-sh, -sw, sn, sc, stride * sh, stride * sw))
    out = np.maximum.reduce(taps.reshape(kk, n, c, oh, ow), axis=0)
    if np.isneginf(out).any():
        raise DimensionError("maxpool2d window entirely in padding")

    def tap(t: int) -> np.ndarray:
        # (n, c, oh, ow) strided view of xp at window offset t = i*k + j
        i, j = divmod(t, k)
        return xp[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]

    def bw(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # first argmax = the lowest offset whose tap equals the max: a running
        # minimum of (t on a hit, kk elsewhere), in in-place integer ufuncs,
        # which are 2-3x faster than a masked np.copyto per tap
        arg = np.full(out.shape, kk, dtype=np.min_scalar_type(kk))
        hit = np.empty(out.shape, dtype=bool)
        cand = np.empty_like(arg)
        for t in range(kk):
            np.equal(tap(t), out, out=hit)
            np.multiply(hit, arg.dtype.type(kk - t), out=cand)
            np.subtract(arg.dtype.type(kk), cand, out=cand)
            np.minimum(arg, cand, out=arg)
        nan = arg == kk  # a NaN max equals no tap
        if nan.any():
            for t in reversed(range(kk)):
                arg[nan & np.isnan(tap(t))] = t
        # flat index into xp of each window's top-left cell, plus its argmax offset
        hp, wp = xp.shape[2:]
        offset = np.array([i * wp + j for i in range(k) for j in range(k)])
        corner = ((np.arange(n * c).reshape(n, c, 1, 1) * hp
                   + np.arange(oh).reshape(oh, 1) * stride) * wp
                  + np.arange(ow) * stride)
        dxp = np.zeros(xp.size, dtype=xp.dtype)
        np.add.at(dxp, (corner + offset[arg]).ravel(), g.ravel())
        accumulate_grad(x, dxp.reshape(xp.shape)[:, :, pad : pad + h, pad : pad + w])

    return make_node(out, (x,), bw)


def batchnorm(x: Tensor, p: BnParams, mode: str) -> Tensor:
    """Per-channel normalization over (n,h,w); train mode updates running stats.

    Train mode takes d = x - mean(x) once and the biased variance as
    sum(d*d)/m: the reductions np.var makes, in the same order, so the
    results are bit-identical to np.mean and np.var without np.var's
    second pass for its own mean. d is then scaled in place into xhat.
    Backward sums g and g*xhat once each. Eval mode runs the same chain on
    the running statistics.
    """
    if mode not in ("train", "eval"):
        raise ParameterError(f"mode must be 'train' or 'eval', got {mode!r}")
    n, c, h, w = x.dims
    if c != p.channels:
        raise DimensionError(f"batchnorm input has {c} channels, params expect {p.channels}")
    dt = x.data.dtype
    eps = dt.type(BN_EPS)
    axes = (0, 2, 3)
    m = n * h * w

    if mode == "train":
        if m < 2:
            raise DimensionError(f"train-mode batchnorm needs n*h*w >= 2, got {m}")
        mu = x.data.mean(axis=axes, keepdims=True)
        xhat = x.data - mu
        var = (xhat * xhat).sum(axis=axes, keepdims=True) / m
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat *= inv_std

        mom = dt.type(BN_MOMENTUM)
        p.running_mean *= 1 - mom
        p.running_mean += mom * mu.reshape(c)
        p.running_var *= 1 - mom
        p.running_var += mom * var.reshape(c)
    else:
        inv_std = 1.0 / np.sqrt(p.running_var.reshape(1, c, 1, 1) + eps)
        xhat = x.data - p.running_mean.reshape(1, c, 1, 1)
        xhat *= inv_std
    out = p.gamma.data * xhat
    out += p.beta.data

    def bw(g: np.ndarray) -> None:
        gs = g.sum(axis=axes, keepdims=True)
        gx = (g * xhat).sum(axis=axes, keepdims=True)
        accumulate_grad(p.beta, gs, fresh=True)
        accumulate_grad(p.gamma, gx, fresh=True)
        if not x.requires_grad:
            return
        if mode == "eval":
            accumulate_grad(x, g * (p.gamma.data * inv_std), fresh=True)
            return
        dx = g - gs / m
        dx -= xhat * (gx / m)
        dx *= p.gamma.data * inv_std
        accumulate_grad(x, dx, fresh=True)

    return make_node(out, (x, p.gamma, p.beta), bw)


def relu(x: Tensor) -> Tensor:
    """max(0, x) with +0 for every x that is not above zero; gradient 0 there.

    x > 0 gives x; -0, +0, negatives, -inf and NaN all give +0. np.fmax
    drops a NaN for the 0 operand, and adding +0 turns a -0 into +0, so
    the result equals np.where(x > 0, x, 0) bit for bit in one branch-free
    pass. There is no np.where because it branches on every element and
    took about ten times as long at the stage-1 shape (16, 8, 32, 48).
    np.maximum(x, 0) alone is not equal: it keeps -0 and propagates NaN.
    """
    mask = x.data > 0
    out = np.fmax(x.data, 0)
    out += 0

    def bw(g: np.ndarray) -> None:
        accumulate_grad(x, g * mask, fresh=True)

    return make_node(out, (x,), bw)


def sigmoid(x: Tensor) -> Tensor:
    """1/(1+exp(-x)), with one exp that never overflows.

    e = exp(-|x|) lies in [0, 1]. Where x >= 0 the result is 1/(1+e),
    elsewhere e/(1+e); the numerator is fmax(e, x >= 0), which is 1 where
    x >= 0 because e <= 1. These are the two branches of the usual stable
    form with the same operations, so the result is the same bit for bit
    as picking between them with np.where, which would evaluate both
    branches, three exps in all, and branch on every element. A NaN input
    gives NaN (in float64 with the sign bit set).
    """
    d = x.data
    e = np.exp(-np.abs(d))
    out = np.fmax(e, d >= 0)
    e += 1
    out /= e

    def bw(g: np.ndarray) -> None:
        t = g * out
        t *= 1.0 - out
        accumulate_grad(x, t, fresh=True)

    return make_node(out, (x,), bw)


def gap(x: Tensor) -> Tensor:
    """Global average pool: mean over (h,w) per channel, output (n,c,1,1)."""
    hw = x.h * x.w
    out = x.data.mean(axis=(2, 3), keepdims=True)

    def bw(g: np.ndarray) -> None:
        accumulate_grad(x, np.broadcast_to(g / hw, x.dims))

    return make_node(out, (x,), bw)


def mean_all(x: Tensor) -> Tensor:
    """Mean over every element, as a (1,1,1,1) scalar node."""
    size = x.data.size
    out = np.array(x.data.mean(), dtype=x.data.dtype).reshape(1, 1, 1, 1)

    def bw(g: np.ndarray) -> None:
        accumulate_grad(x, np.broadcast_to(g.reshape(()) / size, x.dims).astype(x.data.dtype),
                        fresh=True)

    return make_node(out, (x,), bw)


def flatten(x: Tensor) -> Tensor:
    """(n,c,h,w) -> (n, c*h*w, 1, 1), data order preserved."""
    n = x.n
    out = x.data.reshape(n, -1, 1, 1)

    def bw(g: np.ndarray) -> None:
        accumulate_grad(x, g.reshape(x.dims))

    return make_node(out, (x,), bw)


def he_fc(d_in: int, d_out: int, rng, dtype=np.float32) -> tuple[Tensor, Tensor]:
    """Fully connected weight (d_out, d_in, 1, 1), He-normal on the fan-in d_in, and a zero bias."""
    std = float(np.sqrt(2.0 / d_in))
    w = rng.normal(d_out * d_in, 0.0, std).astype(dtype).reshape(d_out, d_in, 1, 1)
    return (Tensor(w, requires_grad=True),
            Tensor(np.zeros((1, d_out, 1, 1), dtype=dtype), requires_grad=True))


def fully_connected(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map on flattened rows: (n,d,1,1) x (d_out,d,1,1) -> (n,d_out,1,1)."""
    n, d = x.n, x.c
    if x.h != 1 or x.w != 1:
        raise DimensionError(f"fully_connected expects flattened input, got {x.dims}")
    d_out, d_w = w.dims[0], w.dims[1]
    if d_w != d or w.dims[2:] != (1, 1):
        raise DimensionError(f"weight dims {w.dims} incompatible with input dim {d}")
    if b.dims != (1, d_out, 1, 1):
        raise DimensionError(f"bias dims {b.dims} do not match output dim {d_out}")
    x2 = x.data.reshape(n, d)
    w2 = w.data.reshape(d_out, d)
    out = (x2 @ w2.T + b.data.reshape(1, d_out)).reshape(n, d_out, 1, 1)

    def bw(g: np.ndarray) -> None:
        g2 = g.reshape(n, d_out)
        accumulate_grad(b, g2.sum(axis=0).reshape(1, d_out, 1, 1), fresh=True)
        accumulate_grad(w, (g2.T @ x2).reshape(d_out, d, 1, 1), fresh=True)
        if x.requires_grad:
            accumulate_grad(x, (g2 @ w2).reshape(x.dims), fresh=True)

    return make_node(out, (x, w, b), bw)


def softmax_xent(logits: Tensor, labels: np.ndarray) -> tuple[Tensor, Tensor]:
    """Row-wise stable softmax + mean cross-entropy.

    Returns (loss, probs): loss is a (1,1,1,1) graph node whose backward
    seeds (probs - onehot)/n into the logits; probs is detached.
    """
    n, k = logits.n, logits.c
    if logits.h != 1 or logits.w != 1:
        raise DimensionError(f"logits must be (n,k,1,1), got {logits.dims}")
    y = np.asarray(labels)
    if y.shape != (n,):
        raise DimensionError(f"labels shape {y.shape} != batch size {n}")
    if y.min() < 0 or y.max() >= k:
        raise ParameterError(f"label out of range [0,{k}): {y.min()}..{y.max()}")

    z = logits.data.reshape(n, k)
    z = z - z.max(axis=1, keepdims=True)
    ez = np.exp(z)
    p = ez / ez.sum(axis=1, keepdims=True)
    nll = -np.log(np.maximum(p[np.arange(n), y], np.finfo(z.dtype).tiny))
    loss_val = np.array(nll.mean(), dtype=z.dtype).reshape(1, 1, 1, 1)

    def bw(g: np.ndarray) -> None:
        d = p.copy()
        d[np.arange(n), y] -= 1
        d *= g.reshape(()) / n
        accumulate_grad(logits, d.reshape(logits.dims), fresh=True)

    loss = make_node(loss_val, (logits,), bw)
    probs = Tensor(p.reshape(n, k, 1, 1).copy())
    return loss, probs
