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


def _row_cols(x: np.ndarray, k: int, pad: int, ow: int, j0: int, j1: int) -> np.ndarray:
    """(n, c, h, w) -> the width-only patch matrix (h, n*ow, kw*c) of a stride-1
    conv over the live kernel columns [j0, j1): entry [y, n*ow + ox, (j - j0)*c + ci]
    is x[n, ci, y, ox + j - pad], zero off the map. One copy, from x as
    (h, n, ow + kw - 1, c) zero-padded by pad - j0 columns in front, so the
    rows one kernel row reads are one contiguous block."""
    n, c, h, w = x.shape
    kw = j1 - j0
    xp = np.zeros((h, n, ow + kw - 1, c), dtype=x.dtype)
    xp[:, :, pad - j0 : pad - j0 + w] = x.transpose(2, 0, 3, 1)
    s0, s1, s2, s3 = xp.strides
    return _view(xp, (h, n, ow, kw, c), 0, (s0, s1, s2, s2, s3)).reshape(h, n * ow, kw * c)


def _row_taps(w_l: np.ndarray, i: int, j0: int, j1: int) -> np.ndarray:
    """Kernel row i's live taps [j0, j1) of a (oc, kh, kw, c) weight as one
    (kw*oc, c) matrix, rows in (j, o) order, in one copy. Made per row and
    dropped after its GEMM: a copy of all rows kept from forward to backward
    raised the fusion_paper benchmark's peak RSS by 2 MiB."""
    oc, _, _, c = w_l.shape
    return np.ascontiguousarray(w_l[:, i, j0:j1].transpose(1, 0, 2)).reshape((j1 - j0) * oc, c)


def _sample_cols(xpl: np.ndarray, kh: int, kw: int, s: int, oh: int, ow: int,
                 i0: int, j0: int) -> np.ndarray:
    """(n, H, W, 1) padded image -> its per-sample patch matrices (n, kh*kw, oh*ow),
    rows in (i, j) tap order from (i0, j0), in one copy of rows oh*ow long."""
    win = _windows(xpl, (kh, kw), s, oh, ow, (i0, j0))
    return win.transpose(0, 3, 4, 5, 1, 2).reshape(xpl.shape[0], kh * kw, oh * ow)


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

    Each pass picks its form from the shape alone, by one rule: rows where
    the stride is 1 and the kernel is taller than the map (k > h).

    - forward: rows there unless c = oc; otherwise per sample at c = 1,
      and im2col, k = 1 included, at c > 1;
    - backward: rows there; otherwise per-sample dw at c = 1 with taps for
      dx, and taps at c > 1.

    Each form, with the measurement that keeps it (medians of alternating
    rounds in one process at BLAS 1 thread on a 2-vCPU VM; the history is
    in CHANGES.md):

    - im2col (Chellapilla et al. 2006): the patch matrix (n*oh*ow,
      kh*kw*c) times the weight as (oc, kh*kw*c), transposed. Its columns
      are in (i, j, c) order, so each window row it copies from the
      channels-last padded input is one run of kw*c floats, and a he_init
      weight is held in that (oc, i, j, c) order, so the GEMM reads it in
      place. At k = 1 the channels-last input is the patch matrix. It
      keeps the c = oc forward where k > h: a row forward on backbone
      stage 5's 2x3 map took 34.3 us at batch 1 against im2col's 25.5.
    - per sample (stage 1 on the grayscale image): the patch matrix is
      built tap-major per sample, (n, kh*kw, oh*ow), in one copy of rows
      oh*ow long where a pixel-major row would be kw floats. Forward is
      np.matmul(w, col), which writes the NCHW output with no transpose;
      dw sums the per-sample products g[n] col[n].T over n. At batch 16 on
      64x96 images forward went from 1.50 to 1.09 ms, and forward plus
      backward from 4.53 to 2.93 ms.
    - rows (one GEMM per kernel row, after memory-efficient convolution,
      Cho & Brand 2017): the operands are copied once into (h, n, w, c)
      order, so the rows that kernel row i reads, or writes, are one
      contiguous block. Row i's kw width taps are then gathered (a
      width-only im2col, _row_cols) or scattered on whichever side has
      fewer channels. On a map shorter than the kernel a per-tap GEMM is a
      few output rows tall: at batch 16 rows took the paper's 512->32
      attention conv from 12.3 to 9.4 ms forward plus backward and its
      32->512 conv from 13.8 to 9.8 ms, and the narrowing forward builds
      no patch matrix, which at 512->32 would be a 24 MB copy.
    - taps (the shifted GEMM form, Vasudevan et al. 2017): one GEMM per
      tap (i, j) over only the outputs whose read at that tap lands inside
      the input (_tap_windows): with g cut to that window as an (m, oc)
      matrix gs and xw the (m, c) input cells it reads, dw[i, j] = gs.T xw
      and dx[cells] += gs w[:, :, i, j], in row-major tap order. On maps
      at least as tall as the kernel rows took 1.03 to 1.43 times its
      backward time at batch 16 on backbone stages 2-4, and 1.10 to 1.44
      times on the 1x1 pw convs; on stage 5's 2x3 map, where k > h, 0.96
      times.

    Every form uses only the taps that read the input: those _tap_windows
    keeps, or their hull, the kernel rows [i0, i1) and columns [j0, j1)
    from the first to the last of them, empty when every tap on an axis
    reads padding. A tap outside them multiplies padding zeros at every
    output pixel, as the 7x7, pad-3 attention convs do on a 3x7 or 1x2
    fused map. dw is built in an (oc, kh, kw, c) buffer, and a tap that
    reads only padding gets +0: every form writes the whole hull, so only
    the frame outside it is zeroed (a full fill cost 153 us on each of the
    paper's attention convs), unless a stride longer than the map leaves a
    dead tap inside it. dw is handed over as its (oc, c, kh, kw)
    transpose: the grad has the strides of a he_init weight.

    Bits: every form sums in a fixed order, so the bits repeat from run to
    run at a fixed BLAS thread count. Each form sums in its own order, so
    each has its own last bits; trimming taps from the im2col GEMM moves
    its K blocking, and so its last bits, against an untrimmed GEMM.
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
    rows = _tap_windows(k, s, pad, h, oh)
    cols = _tap_windows(k, s, pad, w, ow)
    i0, i1 = (rows[0][0], rows[-1][0] + 1) if rows else (0, 0)
    j0, j1 = (cols[0][0], cols[-1][0] + 1) if cols else (0, 0)
    kh, kw = i1 - i0, j1 - j0

    # Every GEMM operand has a fixed layout: BLAS picks its kernel by layout
    # and shape, and the kernels sum in different orders, so another layout
    # of an operand changes the low bits. np.dot copies an operand that is
    # not contiguous; np.matmul reads a strided matrix in place.
    # w_l is the weight as (oc, kh, kw, c): a view of a he_init weight, a copy
    # of a C-ordered one. Both layouts then give the GEMMs the same operands.
    # w_l comes before the input copies: in the other order glibc kept more
    # heap, and the fusion_paper benchmark peaked 3.9 MiB higher
    w_l = np.ascontiguousarray(p.weight.data.transpose(0, 2, 3, 1))
    rows_form = s == 1 and k > h  # the kernel is taller than the map
    if rows_form and c > oc:
        # rows, scattering; x_h is x as (h, n, w, c)
        x_h = np.ascontiguousarray(x.data.transpose(2, 0, 3, 1))
        out_h = np.zeros((oh, n, ow, oc), dtype=x.data.dtype)
        for i, oy, iy in rows:
            xi = x_h[iy]
            part = np.dot(xi.reshape(-1, c), _row_taps(w_l, i, j0, j1).T)
            part = part.reshape(xi.shape[:3] + (kw, oc))
            for j, ox, ix in cols:
                o = out_h[oy, :, ox]
                o += part[:, :, ix, j - j0]
        out = np.ascontiguousarray(out_h.transpose(1, 3, 0, 2))
    elif rows_form and c < oc:
        # rows, gathering: w_rows[:, i] is row i's live taps as an (oc, kw*c)
        # view, which np.matmul reads in place
        xcol = _row_cols(x.data, k, pad, ow, j0, j1)
        w_rows = w_l.reshape(oc, k, k * c)[:, :, j0 * c : j1 * c]
        out_h = np.zeros((oh, n * ow, oc), dtype=x.data.dtype)
        for i, oy, iy in rows:
            o = out_h[oy].reshape(-1, oc)
            o += np.matmul(xcol[iy].reshape(-1, kw * c), w_rows[:, i].T)
        out = np.ascontiguousarray(out_h.reshape(oh, n, ow, oc).transpose(1, 3, 0, 2))
    else:
        # per sample or im2col; w_cl, the live taps as a matrix, is a view
        # unless columns are trimmed from more than one row
        xpl = _pad_cl(x.data, pad)
        w_cl = w_l[:, i0:i1, j0:j1].reshape(oc, kh * kw * c)
        if c == 1:
            out = np.matmul(w_cl, _sample_cols(xpl, kh, kw, s, oh, ow, i0, j0))
            out = out.reshape(n, oc, oh, ow)
        else:
            out = np.dot(_im2col(xpl, (kh, kw), s, oh, ow, (i0, j0)), w_cl.T)
            out = np.ascontiguousarray(out.reshape(n, oh, ow, oc).transpose(0, 3, 1, 2))
    out += p.bias.data

    def bw(g: np.ndarray) -> None:
        accumulate_grad(p.bias, g.sum(axis=(0, 2, 3)).reshape(1, -1, 1, 1), fresh=True)
        # channels-last, as he_init holds w. Every form below overwrites the
        # live hull [i0:i1, j0:j1], so only the taps outside it are set to +0,
        # unless a stride longer than the map leaves dead taps inside it
        dw = np.empty((oc, k, k, c), dtype=g.dtype)
        if len(rows) < kh or len(cols) < kw:
            dw.fill(0)
        else:
            dw[:, :i0] = 0
            dw[:, i1:] = 0
            dw[:, i0:i1, :j0] = 0
            dw[:, i0:i1, j1:] = 0
        want_dx = x.requires_grad
        if rows_form:
            # rows; g_h and dx_h are (oh, n, ow, oc) and (h, n, w, c)
            g_h = np.ascontiguousarray(g.transpose(2, 0, 3, 1))
            dx_h = np.zeros((h, n, w, c), dtype=g.dtype) if want_dx else None
            if c > oc:
                # gcol[oy, n*w + ix, (j - j0)*oc + o] = g[n, o, oy, ix - j + pad],
                # zero where that column is off the map: g padded by a
                # columns in front, read with the tap axis running backwards
                a = j1 - 1 - pad
                gp = np.zeros((oh, n, w + kw - 1, oc), dtype=g.dtype)
                lo, hi = max(0, -a), min(ow, w + kw - 1 - a)
                gp[:, :, lo + a : hi + a] = g_h[:, :, lo:hi]
                s0, s1, s2, s3 = gp.strides
                gcol = _view(gp, (oh, n, w, kw, oc), (kw - 1) * s2,
                             (s0, s1, s2, -s2, s3)).reshape(oh, n * w, kw * oc)
                for i, oy, iy in rows:
                    gi = gcol[oy].reshape(-1, kw * oc)
                    dw_i = np.dot(gi.T, x_h[iy].reshape(-1, c))
                    dw[:, i, j0:j1] = dw_i.reshape(kw, oc, c).transpose(1, 0, 2)
                    if want_dx:
                        d = dx_h[iy]
                        d += np.dot(gi, _row_taps(w_l, i, j0, j1)).reshape(d.shape)
            else:
                # row i's live taps of w and of dw as (oc, kw*c) views, which
                # np.matmul reads and writes in place
                w_rows = w_l.reshape(oc, k, k * c)[:, :, j0 * c : j1 * c]
                dw_rows = dw.reshape(oc, k, k * c)[:, :, j0 * c : j1 * c]
                xcol = _row_cols(x.data, k, pad, ow, j0, j1)
                for i, oy, iy in rows:
                    gi = g_h[oy].reshape(-1, oc)
                    np.matmul(gi.T, xcol[iy].reshape(-1, kw * c), out=dw_rows[:, i])
                    if want_dx:
                        q = np.matmul(gi, w_rows[:, i])
                        q = q.reshape(g_h[oy].shape[:3] + (kw, c))
                        for j, ox, ix in cols:
                            d = dx_h[iy, :, ix]
                            d += q[:, :, ox, j - j0]
            if want_dx:
                accumulate_grad(x, np.ascontiguousarray(dx_h.transpose(1, 3, 0, 2)), fresh=True)
        else:
            if c == 1:
                col = _sample_cols(xpl, kh, kw, s, oh, ow, i0, j0)
                dw_n = np.matmul(g.reshape(n, oc, oh * ow), col.transpose(0, 2, 1))
                dw[:, i0:i1, j0:j1] = dw_n.sum(axis=0).reshape(oc, kh, kw, 1)
            if c > 1 or want_dx:
                # taps: g_cl (n, oh, ow, oc) is cut to each tap's output
                # window, and xs, the unpadded channels-last input, and dx
                # (n, h, w, c) to the input cells that window reads
                g_cl = np.ascontiguousarray(g.transpose(0, 2, 3, 1))
                xs = xpl[:, pad : pad + h, pad : pad + w]
                if want_dx:
                    dx = np.zeros((n, h, w, c), dtype=g.dtype)
                    # each tap's (oc, c) weight, contiguous: np.dot would copy a
                    # strided w_l[:, i, j] at every tap
                    w_t = np.ascontiguousarray(w_l.transpose(1, 2, 0, 3))
                for i, oy, iy in rows:
                    for j, ox, ix in cols:
                        gs = g_cl[:, oy, ox].reshape(-1, oc)
                        if c > 1:
                            dw[:, i, j] = np.dot(gs.T, xs[:, iy, ix].reshape(-1, c))
                        if want_dx:
                            dx_win = dx[:, iy, ix]
                            dx_win += np.dot(gs, w_t[i, j]).reshape(dx_win.shape)
                if want_dx:
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
    first axis. A running np.maximum over the k*k strided views, whose
    inner loops are 1-24 floats long, cost about twice as much at batch 1
    over the gate task's ten pools, and as much at batch 16. The reduce
    returns its second operand on a tie and its first on two NaNs, so the
    reversed order keeps the first tap's value of a tie, and a 0.0/-0.0
    tie gives the first argmax's sign; a window holding NaNs gives its
    last NaN.
    These are the bytes of a running np.maximum from tap 0 on
    (oracles.maxpool_chain). The buffer lives for the forward only.

    When the output is a graph node, forward also finds each window's
    first argmax, as the lowest offset whose tap equals the max, on the
    buffer's contiguous planes, and keeps only that offset, in uint8, for
    backward; a window whose max is NaN routes to its first NaN, as
    np.argmax does. The search on the contiguous planes took 0.70 ms
    over the gate task's ten pool shapes at batch 16, where the same
    search over the k*k strided views of the padded input in backward
    took 1.74 ms. Eval builds no argmax. Backward adds the gradient with
    np.add.at in row-major output order, so an input pixel shared by
    overlapping windows sums their gradients in a fixed order. It goes
    straight into the unpadded input, through a flat index built in place
    in int32 (no argmax lies in the padding), and dx is handed over
    without a copy: this took 17% less time than indexing the padded
    input. The running minimum was the fastest first-argmax search
    measured: np.argmax over the gathered taps took 3.5 times as long, a
    lookup of the lowest bit of the packed hits 1.1 times, and a
    row-then-column argmax 16 times.
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
    buf = taps.reshape(kk, n, c, oh, ow)
    out = np.maximum.reduce(buf, axis=0)
    if np.isneginf(out).any():
        raise DimensionError("maxpool2d window entirely in padding")

    def bw(g: np.ndarray) -> None:
        # flat index into x of each window's argmax: its offset (i*w + j), plus
        # the window's top-left cell, which may lie in the padding; the argmax
        # never does, since a max of -inf was rejected above. Built in place,
        # in int32 wherever x's size allows
        idx = np.array([i * w + j for i in range(k) for j in range(k)],
                       dtype=np.int32 if x.data.size < 2**31 else np.int64)[arg]
        idx += (np.arange(n * c, dtype=idx.dtype) * (h * w)).reshape(n, c, 1, 1)
        idx += (np.arange(oh, dtype=idx.dtype) * (stride * w) - pad * w).reshape(oh, 1)
        idx += np.arange(ow, dtype=idx.dtype) * stride - pad
        dx = np.zeros(x.data.size, dtype=x.data.dtype)
        np.add.at(dx, idx.ravel(), g.ravel())
        accumulate_grad(x, dx.reshape(x.dims), fresh=True)

    y = make_node(out, (x,), bw)
    if y.requires_grad:
        # first argmax = the lowest offset whose tap equals the max: a running
        # minimum of (t on a hit, kk elsewhere) over tap t's plane buf[kk-1-t],
        # in in-place integer ufuncs, which are 2-3x faster than a masked
        # np.copyto per tap
        arg = np.full(out.shape, kk, dtype=np.min_scalar_type(kk))
        hit = np.empty(out.shape, dtype=bool)
        cand = np.empty_like(arg)
        for t in range(kk):
            np.equal(buf[kk - 1 - t], out, out=hit)
            np.multiply(hit, arg.dtype.type(kk - t), out=cand)
            np.subtract(arg.dtype.type(kk), cand, out=cand)
            np.minimum(arg, cand, out=arg)
        nan = arg == kk  # a NaN max equals no tap
        if nan.any():
            for t in reversed(range(kk)):
                arg[nan & np.isnan(buf[kk - 1 - t])] = t
    return y


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
