import functools
import tracemalloc

import numpy as np
import pytest

from csafm import (
    BnParams,
    ConvParams,
    DimensionError,
    ParameterError,
    Rng,
    Tensor,
    check_gradients,
    ewise_mul,
)
from csafm import ops
from csafm.backbone import CONV_PADS, CONV_STRIDES, KERNELS, POOL_K, POOL_P, POOL_S

from csafm import oracles
from csafm.gradcheck import numeric_grad


def rand_t(rng, dims, scale=1.0, dtype=np.float32, grad=False):
    t = Tensor.zeros(dims, dtype=dtype, requires_grad=grad)
    t.data[...] = rng.normal(t.data.size, 0.0, scale).reshape(dims)
    return t


def conv_params(rng, c_in, c_out, k, stride, pad, dtype=np.float64):
    p = ConvParams.he_init(c_in, c_out, k, stride, pad, rng, dtype=dtype)
    return p


def sq_loss(y):
    return ops.mean_all(ewise_mul(y, y))


# (n, c, h, w, co, k, stride, pad) shapes on which conv2d trims kernel taps
# that read only padding
TRIMMED_TAPS = {
    "map_2x3": (2, 8, 2, 3, 4, 7, 1, 3),           # attention convs on a 2x3 fused map
    "stride2_overhang": (1, 3, 3, 3, 4, 7, 2, 3),  # first and last taps of each axis dead
    "map_1x9": (2, 4, 1, 9, 3, 7, 1, 3),           # one live kernel row
    "map_1x1_k3": (2, 5, 1, 1, 3, 3, 1, 1),        # one live tap
    "single_channel_trimmed": (2, 1, 2, 3, 4, 7, 1, 3),  # c = 1 with trimmed taps
    "empty_row_hull": (2, 3, 1, 4, 2, 1, 2, 1),  # every kernel row reads padding
}


# (n, c, h, w, co, k, stride, pad) shapes with c > co: conv2d's forward
# runs one GEMM per live kernel row on the paper shape, where the kernel is
# taller than the map, and im2col on narrowing_k1 and
# narrowing_stride2_dead_tap
NARROWING = {
    "paper_3x7_narrowing": (2, 512, 3, 7, 32, 7, 1, 3),  # the paper's 512->32 attention conv
    "narrowing_stride2_dead_tap": (2, 6, 1, 3, 4, 3, 2, 2),  # kernel row 1 reads only padding
    "narrowing_k1": (2, 24, 3, 5, 6, 1, 1, 0),  # pointwise, as the channel attention's pw1
}


@functools.lru_cache(maxsize=None)
def narrowing_case(name):
    """float64 input, weight and bias of NARROWING[name], and their loop-oracle output."""
    n, c, h, w, co, k, stride, pad = NARROWING[name]
    rng = Rng(103)
    x = rng.normal(n * c * h * w).reshape(n, c, h, w)
    wt = rng.normal(co * c * k * k, 0.0, float(np.sqrt(2.0 / (c * k * k)))).reshape(co, c, k, k)
    b = rng.normal(co, 0.0, 0.1)
    return x, wt, b, oracles.conv2d_loops(x, wt, b, stride, pad)


# (n, c, h, w, co, k, stride, pad) at stride 1 with the kernel taller than
# the map, where conv2d's backward, and its forward unless c = co, runs one
# GEMM per live kernel row: c > co, c < co and c = co
ROWS = {
    "paper_3x7_narrowing": NARROWING["paper_3x7_narrowing"],
    "paper_3x7_widening": (2, 32, 3, 7, 512, 7, 1, 3),  # the paper's 32->512 attention conv
    "gate_1x2_narrowing": (2, 64, 1, 2, 16, 7, 1, 3),  # the gate task's attention convs
    "gate_1x2_widening": (2, 16, 1, 2, 64, 7, 1, 3),
    "map_2x3_k3": (2, 64, 2, 3, 64, 3, 1, 1),  # backbone stage 5 on the gate task
}


@functools.lru_cache(maxsize=None)
def rows_case(name):
    """float64 input, weight, bias and output gradient of ROWS[name], and the
    loop oracles' out, dx, dw and db; a NARROWING shape reuses its inputs."""
    n, c, h, w, co, k, stride, pad = ROWS[name]
    rng = Rng(105)
    if name in NARROWING:
        x, wt, b, out = narrowing_case(name)
    else:
        x = rng.normal(n * c * h * w).reshape(n, c, h, w)
        wt = rng.normal(co * c * k * k, 0.0, float(np.sqrt(2.0 / (c * k * k)))).reshape(co, c, k, k)
        b = rng.normal(co, 0.0, 0.1)
        out = oracles.conv2d_loops(x, wt, b, stride, pad)
    g = rng.normal(out.size).reshape(out.shape)
    return (x, wt, b, g, (out, *oracles.conv2d_backward_loops(x, wt, g, stride, pad)))


class TestConvForward:
    @pytest.mark.parametrize("n,c,h,w,co,k,stride,pad", TRIMMED_TAPS.values(), ids=TRIMMED_TAPS)
    def test_matches_loop_oracle_trimmed_taps(self, n, c, h, w, co, k, stride, pad):
        rng = Rng(102)
        x = rand_t(rng, (n, c, h, w))
        p = conv_params(rng, c, co, k, stride, pad, dtype=np.float32)
        p.bias.data[...] = rng.normal(co, 0.0, 0.1).reshape(1, co, 1, 1)
        got = ops.conv2d(x, p).data
        want = oracles.conv2d_loops(
            x.data.astype(np.float64), p.weight.data.astype(np.float64),
            p.bias.data.reshape(-1).astype(np.float64), stride, pad)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-5 * max(1.0, float(np.max(np.abs(want))))

    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("name", NARROWING)
    def test_narrowing_matches_loop_oracle(self, name, dtype, tol):
        # the float32 run reads the oracle's inputs rounded to float32, an
        # error far inside tol
        x, wt, b, want = narrowing_case(name)
        stride, pad = NARROWING[name][6:]
        p = ConvParams(Tensor(wt.astype(dtype), requires_grad=True),
                       Tensor(b.astype(dtype).reshape(1, -1, 1, 1), requires_grad=True),
                       stride, pad)
        got = ops.conv2d(Tensor(x.astype(dtype)), p).data
        assert got.dtype == dtype and got.shape == want.shape
        assert np.max(np.abs(got - want)) <= tol * max(1.0, float(np.max(np.abs(want))))

    def test_narrowing_forward_builds_no_patch_matrix(self):
        # paper shape, batch 16: the (16*3*7, 5*7*512) float32 patch matrix of
        # the live taps would take 24.1 MB
        rng = Rng(104)
        x = rand_t(rng, (16, 512, 3, 7))
        p = conv_params(rng, 512, 32, 7, 1, 3, dtype=np.float32)
        patch_bytes = 16 * 3 * 7 * 5 * 7 * 512 * 4
        tracemalloc.start()
        try:
            ops.conv2d(x, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < patch_bytes / 4, peak

    def test_known_tiny_case(self):
        # 1x1 input, k=1: conv is just w*x + b
        x = Tensor.full((1, 1, 1, 1), 3.0)
        p = ConvParams.he_init(1, 1, 1, 1, 0, Rng(0))
        p.weight.data[...] = 2.0
        p.bias.data[...] = 0.5
        assert ops.conv2d(x, p).data[0, 0, 0, 0] == pytest.approx(6.5)

    def test_stride_two_downsamples(self):
        x = rand_t(Rng(5), (1, 2, 8, 10))
        p = conv_params(Rng(6), 2, 3, 3, 2, 1, dtype=np.float32)
        y = ops.conv2d(x, p)
        assert y.dims == (1, 3, 4, 5)

    def test_channel_mismatch_raises(self):
        x = Tensor.zeros((1, 3, 4, 4))
        p = ConvParams.he_init(2, 4, 3, 1, 1, Rng(0))
        with pytest.raises(DimensionError):
            ops.conv2d(x, p)

    def test_kernel_larger_than_padded_input_raises(self):
        x = Tensor.zeros((1, 1, 2, 2))
        p = ConvParams.he_init(1, 1, 5, 1, 0, Rng(0))
        with pytest.raises(DimensionError):
            ops.conv2d(x, p)


class TestConvBackward:
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("n,c,h,w,co,k,stride,pad", [
        (2, 1, 12, 14, 4, 7, 2, 3),  # stage 1: 7x7, stride 2, pad 3 on the image
        (2, 8, 1, 2, 2, 7, 1, 3),    # fusion spatial attention: 7x7, pad 3 on a 1x2 map
        (2, 16, 3, 7, 4, 7, 1, 3),   # paper-shape attention: 7x7, pad 3 overhangs a 3x7 map
        *TRIMMED_TAPS.values(),
    ], ids=["stage1", "fusion_1x2", "paper_3x7", *TRIMMED_TAPS])
    def test_matches_loop_oracle(self, n, c, h, w, co, k, stride, pad, dtype, tol):
        rng = Rng(204)
        x = rand_t(rng, (n, c, h, w), dtype=dtype, grad=True)
        p = conv_params(rng, c, co, k, stride, pad, dtype=dtype)
        y = ops.conv2d(x, p)
        g = rand_t(rng, y.dims, dtype=dtype).data
        y.backward(g)
        dx, dw, db = oracles.conv2d_backward_loops(
            x.data.astype(np.float64), p.weight.data.astype(np.float64),
            g.astype(np.float64), stride, pad)
        for name, got, want in (("dx", x.grad, dx), ("dw", p.weight.grad, dw),
                                ("db", p.bias.grad.reshape(-1), db)):
            assert got.dtype == dtype and got.shape == want.shape, name
            scale = max(1.0, float(np.max(np.abs(want))))
            assert np.max(np.abs(got - want)) <= tol * scale, name


    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
    @pytest.mark.parametrize("name", ROWS)
    def test_rows_match_loop_oracles(self, name, dtype, tol):
        # the float32 run reads the oracles' inputs rounded to float32, an
        # error far inside tol
        x, wt, b, g, want = rows_case(name)
        stride, pad = ROWS[name][6:]
        xt = Tensor(x.astype(dtype), requires_grad=True)
        p = ConvParams(Tensor(wt.astype(dtype), requires_grad=True),
                       Tensor(b.astype(dtype).reshape(1, -1, 1, 1), requires_grad=True),
                       stride, pad)
        y = ops.conv2d(xt, p)
        y.backward(g.astype(dtype))
        got = (y.data, xt.grad, p.weight.grad, p.bias.grad.reshape(-1))
        for label, a, ref in zip(("out", "dx", "dw", "db"), got, want):
            assert a.dtype == dtype and a.shape == ref.shape, label
            assert np.max(np.abs(a - ref)) <= tol * max(1.0, float(np.max(np.abs(ref)))), label

    def test_dead_tap_weight_grads_are_positive_zero(self):
        # 7x7, pad 3 on a 2x3 map: kernel rows 2..4 and columns 1..5 read the input
        rng = Rng(206)
        x = rand_t(rng, (2, 4, 2, 3), grad=True)
        p = conv_params(rng, 4, 3, 7, 1, 3, dtype=np.float32)
        y = ops.conv2d(x, p)
        y.backward(rand_t(rng, y.dims).data)
        assert [t for t, _, _ in ops._tap_windows(7, 1, 3, 2, 2)] == [2, 3, 4]
        assert [t for t, _, _ in ops._tap_windows(7, 1, 3, 3, 3)] == [1, 2, 3, 4, 5]
        live = np.zeros((7, 7), dtype=bool)
        live[2:5, 1:6] = True
        dead = p.weight.grad[:, :, ~live]
        assert np.all(dead == 0) and not np.signbit(dead).any()
        assert np.all(p.weight.grad[:, :, live] != 0)


    @pytest.mark.parametrize("c", [1, 3], ids=["per_sample", "taps"])
    @pytest.mark.parametrize("k,stride,pad,live", [(3, 2, 2, [0, 2]), (2, 3, 2, [])],
                             ids=["dead_tap_inside_hull", "no_live_tap"])
    def test_dead_taps_get_positive_zero_in_every_form(self, c, k, stride, pad, live):
        # on a 1x1 map a stride longer than the map can skip a kernel offset:
        # outputs 0 and 1 read the pixel at offsets 2 and 0, and nothing reads
        # offset 1, which lies inside the hull of the live ones
        rng = Rng(209)
        x = rand_t(rng, (2, c, 1, 1), grad=True)
        p = conv_params(rng, c, 4, k, stride, pad, dtype=np.float32)
        y = ops.conv2d(x, p)
        g = -np.abs(rand_t(rng, y.dims).data)
        y.backward(g)
        assert [t for t, _, _ in ops._tap_windows(k, stride, pad, 1, y.dims[2])] == live
        mask = np.zeros((k, k), dtype=bool)
        mask[np.ix_(live, live)] = True
        dead = p.weight.grad[:, :, ~mask]
        assert dead.size and np.all(dead == 0) and not np.signbit(dead).any()
        _, dw, _ = oracles.conv2d_backward_loops(
            x.data.astype(np.float64), p.weight.data.astype(np.float64),
            g.astype(np.float64), stride, pad)
        assert np.max(np.abs(p.weight.grad - dw)) <= 1e-5 * max(1.0, float(np.max(np.abs(dw))))

    def test_input_without_grad_gets_no_dx(self):
        # c > 1 with no dx wanted: the tap loop still gives dw
        rng = Rng(207)
        x = rand_t(rng, (2, 6, 3, 7), dtype=np.float64)
        p = conv_params(rng, 6, 4, 7, 1, 3)
        y = ops.conv2d(x, p)
        g = rand_t(rng, y.dims, dtype=np.float64).data
        y.backward(g)
        _, dw, db = oracles.conv2d_backward_loops(x.data, p.weight.data, g, 1, 3)
        assert x.grad is None
        assert np.max(np.abs(p.weight.grad - dw)) <= 1e-12 * max(1.0, float(np.max(np.abs(dw))))
        assert np.max(np.abs(p.bias.grad.reshape(-1) - db)) <= 1e-12 * max(1.0, float(np.max(np.abs(db))))

    @pytest.mark.parametrize("c,co", [(512, 32), (32, 512)], ids=["reduce", "expand"])
    def test_backward_repeats_bit_for_bit(self, c, co):
        # the paper's spatial-attention convs: 7x7, pad 3 on a 3x7 map
        rng = Rng(208)
        x = rand_t(rng, (2, c, 3, 7), grad=True)
        p = conv_params(rng, c, co, 7, 1, 3, dtype=np.float32)
        g = rand_t(rng, (2, co, 3, 7)).data
        grads = []
        for _ in range(2):
            x.grad = p.weight.grad = p.bias.grad = None
            ops.conv2d(x, p).backward(g)
            grads.append([t.grad.tobytes() for t in (x, p.weight, p.bias)])
        assert grads[0] == grads[1]


class TestConvWeightLayouts:
    """conv2d gives the same bytes for a weight held C-ordered as for the same
    values held channels-last, as ConvParams.he_init holds them: every form
    reads its GEMM operands from the same contiguous (oc, kh, kw, c) array,
    a view of the channels-last weight and a copy of the C-ordered one."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n,c,h,w,co,k,stride,pad", [
        (2, 1, 12, 14, 4, 7, 2, 3),   # stage 1 on the image
        (2, 8, 9, 11, 16, 3, 1, 1),   # a backbone stage
        (3, 6, 5, 4, 5, 3, 2, 1),     # stride 2
        (2, 32, 4, 6, 8, 1, 1, 0),    # pointwise
        *TRIMMED_TAPS.values(),
        *NARROWING.values(),
        *(ROWS[name] for name in ROWS if name not in NARROWING),
    ], ids=["stage1", "stage", "stride2", "pointwise", *TRIMMED_TAPS, *NARROWING,
            *(name for name in ROWS if name not in NARROWING)])
    def test_c_ordered_and_channels_last_agree(self, n, c, h, w, co, k, stride, pad, dtype):
        rng = Rng(209)
        cl = conv_params(rng, c, co, k, stride, pad, dtype=dtype)
        assert cl.weight.data.transpose(0, 2, 3, 1).flags.c_contiguous
        cl.bias.data[...] = rand_t(rng, cl.bias.dims, dtype=dtype).data
        c_ord = ConvParams(Tensor(np.ascontiguousarray(cl.weight.data), requires_grad=True),
                           Tensor(cl.bias.data.copy(), requires_grad=True), stride, pad)
        x = rand_t(rng, (n, c, h, w), dtype=dtype)
        g = None
        got = []
        for p in (cl, c_ord):
            xt = Tensor(x.data.copy(), requires_grad=True)
            y = ops.conv2d(xt, p)
            if g is None:
                g = rand_t(rng, y.dims, dtype=dtype).data
            y.backward(g)
            got.append([a.tobytes() for a in (y.data, xt.grad, p.weight.grad, p.bias.grad)])
        for name, a, b in zip(("out", "dx", "dw", "db"), *got):
            assert a == b, name


class TestTapWindows:
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 5, 7])
    def test_matches_brute_force(self, k, s):
        for pad in range(4):
            for size in range(1, 11):
                o = ops.conv_out_size(size, k, s, pad)
                if o < 1:
                    continue
                taps = ops._tap_windows(k, s, pad, size, o)
                for t in range(k):
                    reads = {y: s * y + t - pad for y in range(o) if 0 <= s * y + t - pad < size}
                    got = [(outs, ins) for tt, outs, ins in taps if tt == t]
                    if not reads:
                        assert got == [], (k, s, pad, size, t)
                        continue
                    (outs, ins), = got
                    assert list(range(o)[outs]) == list(reads), (k, s, pad, size, t)
                    assert list(range(size)[ins]) == list(reads.values()), (k, s, pad, size, t)


class TestLiveTaps:
    @pytest.mark.parametrize("h,w", [(64, 96), (48, 80), (200, 400), (160, 560)],
                             ids=["gate_fp", "gate_fv", "paper_fp", "paper_fv"])
    def test_every_backbone_tap_is_live(self, h, w):
        # the backbone's convolutions trim nothing, so their bits cannot move
        for k, s, pad in zip(KERNELS, CONV_STRIDES, CONV_PADS):
            oh, ow = ops.conv_out_size(h, k, s, pad), ops.conv_out_size(w, k, s, pad)
            for size, o in ((h, oh), (w, ow)):
                taps = [t for t, _, _ in ops._tap_windows(k, s, pad, size, o)]
                assert taps == list(range(k)), (size, k, s, pad)
            h = ops.conv_out_size(oh, POOL_K, POOL_S, POOL_P)
            w = ops.conv_out_size(ow, POOL_K, POOL_S, POOL_P)


class TestIm2col:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_matches_loop_oracle(self, k, stride):
        rng = Rng(205)
        pad = k // 2
        x = rand_t(rng, (2, 3, 9, 8)).data
        oh, ow = oracles.out_size(9, k, stride, pad), oracles.out_size(8, k, stride, pad)
        got = ops._im2col(ops._pad_cl(x, pad), k, stride, oh, ow)
        assert np.array_equal(got, oracles.im2col_loops(x, k, stride, pad))

    def test_windows_past_the_input_rejected(self):
        # _windows refuses a window that overruns with a DimensionError of its own
        xpl = np.zeros((1, 5, 5, 2), dtype=np.float32)
        assert ops._windows(xpl, 3, 2, 2, 2).shape == (1, 2, 2, 3, 3, 2)
        with pytest.raises(DimensionError):
            ops._windows(xpl, 3, 2, 3, 2)
        with pytest.raises(DimensionError):
            ops._windows(xpl, (3, 4), 1, 3, 3)
        with pytest.raises(DimensionError):
            ops._windows(xpl, 3, 2, 2, 2, (0, 1))

    def test_windows_from_an_origin_match_a_sliced_input(self):
        xpl = np.arange(2 * 7 * 6 * 3, dtype=np.float32).reshape(2, 7, 6, 3)
        got = ops._windows(xpl, (2, 3), 2, 3, 2, (1, 1))
        want = ops._windows(np.ascontiguousarray(xpl[:, 1:, 1:]), (2, 3), 2, 3, 2)
        assert np.array_equal(got, want) and not got.flags.writeable


class TestPwconv:
    def test_rejects_non_pointwise_params(self):
        p = ConvParams.he_init(2, 2, 3, 1, 1, Rng(0))
        with pytest.raises(ParameterError):
            ops.pwconv(Tensor.zeros((1, 2, 4, 4)), p)


class TestMaxpool:
    def test_exact_values_small(self):
        x = Tensor.from_flat([1, 2, 3, 4, 5, 6, 7, 8, 9], (1, 1, 3, 3))
        y = ops.maxpool2d(x, 2, 1, 0)
        assert np.array_equal(y.data.reshape(-1), [5, 6, 8, 9])

    def test_backward_routes_to_argmax(self):
        x = Tensor.from_flat([1, 5, 2, 3], (1, 1, 2, 2), dtype=np.float64)
        x.requires_grad = True
        ops.maxpool2d(x, 2, 1, 0).backward()
        assert np.array_equal(x.grad.reshape(-1), [0, 1, 0, 0])

    def test_tie_gradient_goes_to_first(self):
        x = Tensor.from_flat([7, 7, 7, 7], (1, 1, 2, 2), dtype=np.float64)
        x.requires_grad = True
        ops.maxpool2d(x, 2, 1, 0).backward()
        assert np.array_equal(x.grad.reshape(-1), [1, 0, 0, 0])

    def test_nan_window_routes_to_first_nan(self):
        x = Tensor.from_flat([1, np.nan, 3, np.nan], (1, 1, 2, 2), dtype=np.float64)
        x.requires_grad = True
        y = ops.maxpool2d(x, 2, 1, 0)
        assert np.isnan(y.data).all()
        y.backward(np.array([5.0]).reshape(1, 1, 1, 1))
        assert np.array_equal(x.grad.reshape(-1), [0, 5, 0, 0])

    def test_signed_zero_tie_keeps_first_value(self):
        for first in (-0.0, 0.0):
            x = Tensor.from_flat([first, -first, -first, -first], (1, 1, 2, 2))
            y = ops.maxpool2d(x, 2, 1, 0).data
            assert np.signbit(y[0, 0, 0, 0]) == np.signbit(first)

    @pytest.mark.parametrize("k,stride,pad", [(3, 2, 1), (3, 1, 1), (2, 1, 0), (2, 2, 0)])
    def test_backward_matches_first_argmax_oracle(self, k, stride, pad):
        # values from {0,1,2} tie inside windows and across overlapping windows
        r = np.random.default_rng(403)
        for dtype in (np.float32, np.float64):
            x = Tensor(r.integers(0, 3, (2, 3, 7, 8)).astype(dtype), requires_grad=True)
            y = ops.maxpool2d(x, k, stride, pad)
            g = r.standard_normal(y.dims).astype(dtype)
            y.backward(g)
            want = oracles.maxpool_backward_loops(x.data, g, k, stride, pad)
            assert x.grad.dtype == dtype
            assert np.array_equal(x.grad, want)

    def test_all_padding_window_rejected(self):
        # pad so wide that a window could sit entirely off the input
        with pytest.raises(DimensionError):
            ops.maxpool2d(Tensor.zeros((1, 1, 2, 2)), 2, 1, 2)


class TestBatchnorm:
    def test_train_normalizes_batch(self):
        rng = Rng(501)
        x = rand_t(rng, (4, 3, 5, 5), scale=3.0)
        x.data += 2.0
        p = BnParams.init(3)
        y = ops.batchnorm(x, p, "train").data
        m = y.mean(axis=(0, 2, 3))
        v = y.var(axis=(0, 2, 3))
        assert np.max(np.abs(m)) < 1e-5
        assert np.max(np.abs(v - 1.0)) < 1e-4

    def test_train_updates_running_stats(self):
        x = rand_t(Rng(502), (8, 2, 4, 4), scale=2.0)
        p = BnParams.init(2)
        ops.batchnorm(x, p, "train")
        bm = x.data.mean(axis=(0, 2, 3))
        bv = x.data.var(axis=(0, 2, 3))  # biased, matches the stored stat
        assert np.allclose(p.running_mean, 0.1 * bm, atol=1e-6)
        assert np.allclose(p.running_var, 0.9 * 1.0 + 0.1 * bv, atol=1e-6)

    def test_eval_uses_running_stats_only(self):
        p = BnParams.init(2)
        p.running_mean[...] = [1.0, -1.0]
        p.running_var[...] = [4.0, 0.25]
        x = Tensor.full((3, 2, 2, 2), 1.0)
        y = ops.batchnorm(x, p, "eval").data
        assert np.allclose(y[:, 0], (1.0 - 1.0) / np.sqrt(4.0 + 1e-5), atol=1e-6)
        assert np.allclose(y[:, 1], (1.0 + 1.0) / np.sqrt(0.25 + 1e-5), atol=1e-5)
        # eval must not touch the stats
        assert p.running_mean[0] == 1.0

    def test_single_element_batch_rejected_in_train(self):
        with pytest.raises(DimensionError):
            ops.batchnorm(Tensor.zeros((1, 2, 1, 1)), BnParams.init(2), "train")

    def test_bad_mode_rejected(self):
        with pytest.raises(ParameterError):
            ops.batchnorm(Tensor.zeros((2, 2, 2, 2)), BnParams.init(2), "fit")

    def test_gradcheck_eval_mode(self):
        rng = Rng(504)
        x = rand_t(rng, (2, 3, 3, 3), dtype=np.float64, grad=True)
        p = BnParams.init(3, dtype=np.float64)
        p.running_var[...] = 0.5
        errs = check_gradients(
            lambda: sq_loss(ops.batchnorm(x, p, "eval")),
            [("x", x), ("gamma", p.gamma), ("beta", p.beta)],
            sample=12, seed=5)
        assert max(errs.values()) < 1e-6


class TestActivations:
    def test_sigmoid_range_and_symmetry(self):
        x = rand_t(Rng(601), (1, 1, 10, 10), scale=4.0)
        y = ops.sigmoid(x).data
        assert y.min() > 0.0 and y.max() < 1.0
        neg = ops.sigmoid(Tensor(-x.data)).data
        assert np.allclose(y + neg, 1.0, atol=1e-6)

    def test_sigmoid_extreme_inputs_stay_finite(self):
        x = Tensor.from_flat([-500.0, -50.0, 50.0, 500.0], (1, 1, 1, 4))
        y = ops.sigmoid(x).data
        assert np.all(np.isfinite(y))
        assert y[0, 0, 0, 0] == 0.0 or y[0, 0, 0, 0] < 1e-20
        assert y[0, 0, 0, 3] == pytest.approx(1.0)


def same_bits(got, want, what):
    """Equal dtype, shape and bytes; NaN positions compared by isnan only."""
    assert got.dtype == want.dtype and got.shape == want.shape, what
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), what
    assert got[~nan].tobytes() == want[~nan].tobytes(), what


def with_specials(x, finite=False):
    """x with its leading cells set to +-0, +-subnormals and, unless finite, +-inf and NaN."""
    tiny = np.finfo(x.dtype).smallest_subnormal
    sp = [0.0, -0.0, tiny, -tiny, 3 * tiny, -3 * tiny]
    if not finite:
        sp += [np.inf, -np.inf, np.nan]
    k = min(len(sp), x.size)
    x.reshape(-1)[:k] = sp[:k]
    return x


DTYPES = [np.float32, np.float64]
# batchnorm at the train_gate backbone stages (fp 64x96 and fv 48x80 at
# width 0.125, batch 16) and at m = n*h*w = 2
BN_SHAPES = [(16, 8, 32, 48), (16, 16, 16, 24), (16, 32, 8, 12), (16, 64, 4, 6),
             (16, 64, 2, 3), (16, 8, 24, 40), (16, 16, 12, 20), (16, 32, 6, 10),
             (16, 64, 3, 5), (2, 5, 1, 1), (1, 4, 1, 2)]


class TestObviousFormsBitIdentical:
    """relu, sigmoid and batchnorm equal the np.where / np.var forms in
    csafm/oracles.py byte for byte, forward, backward and running stats;
    the maxpool forward equals the running np.maximum there."""

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_relu(self, dtype):
        r = np.random.default_rng(801)
        x = with_specials(r.standard_normal((16, 8, 32, 48)).astype(dtype))
        g = r.standard_normal(x.shape).astype(dtype)
        t = Tensor(x.copy(), requires_grad=True)
        y = ops.relu(t)
        y._backward(g)
        want, want_dx = oracles.relu_where(x, g)
        same_bits(y.data, want, "relu out")
        same_bits(t.grad, want_dx, "relu dx")
        assert not np.signbit(y.data).any()  # -0 and NaN give +0

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sigmoid(self, dtype):
        r = np.random.default_rng(802)
        edges = [c + np.linspace(-1.0, 1.0, 257) for c in (17, 88, 104, 709, 745)]
        near = np.concatenate(edges + [-e for e in edges])
        x = np.concatenate([near, 30.0 * r.standard_normal(16 * 512 * 3 * 7 - near.size)])
        x = with_specials(x.astype(dtype).reshape(16, 512, 3, 7))
        g = r.standard_normal(x.shape).astype(dtype)
        t = Tensor(x.copy(), requires_grad=True)
        with np.errstate(over="raise"):
            y = ops.sigmoid(t)
        y._backward(g)
        want, want_dx = oracles.sigmoid_branches(x, g)
        same_bits(y.data, want, "sigmoid out")
        same_bits(t.grad, want_dx, "sigmoid dx")

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_batchnorm(self, dtype, mode):
        r = np.random.default_rng(803)
        for shape in BN_SHAPES:
            c = shape[1]
            x = with_specials((3.0 * r.standard_normal(shape) + 1.5).astype(dtype), finite=True)
            g = r.standard_normal(shape).astype(dtype)
            p = BnParams.init(c, dtype=dtype)
            p.gamma.data[...] = r.standard_normal((1, c, 1, 1))
            p.beta.data[...] = r.standard_normal((1, c, 1, 1))
            p.running_mean[...] = r.standard_normal(c)
            p.running_var[...] = r.random(c) + 0.5
            want = oracles.batchnorm_np(x, p.gamma.data.copy(), p.beta.data.copy(),
                                        p.running_mean, p.running_var, g, mode)
            t = Tensor(x.copy(), requires_grad=True)
            y = ops.batchnorm(t, p, mode)
            y._backward(g)
            got = (y.data, t.grad, p.gamma.grad, p.beta.grad, p.running_mean, p.running_var)
            for name, a, b in zip(("out", "dx", "dgamma", "dbeta", "running_mean",
                                   "running_var"), got, want):
                same_bits(a, b, f"batchnorm {mode} {shape} {name}")

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_maxpool(self, dtype):
        """Ties of +-0, NaN payloads of both signs and -inf: the gathered
        reduce keeps the bytes of the running np.maximum, payloads included."""
        r = np.random.default_rng(804)
        bits = np.uint32 if dtype == np.float32 else np.uint64
        quiet = bits(np.array(np.nan, dtype).view(bits))
        for dims, k, stride, pad in [(d, POOL_K, POOL_S, POOL_P) for d in POOL_SHAPES] + [
                ((2, 3, 7, 8), 2, 1, 0), ((2, 3, 9, 7), 3, 1, 1), ((1, 2, 9, 9), 4, 3, 2)]:
            x = r.integers(-2, 3, dims).astype(dtype)  # small integers: many ties
            x[(x == 0) & (r.random(dims) < 0.5)] = -0.0
            x[r.random(dims) < 0.02] = -np.inf
            nan = r.random(dims) < 0.05
            payload = quiet | r.integers(1, 1 << 20, nan.sum()).astype(bits)
            sign = bits(1) << bits(8 * x.itemsize - 1)
            payload[r.random(payload.size) < 0.5] |= sign
            x.view(bits)[nan] = payload
            got = ops.maxpool2d(Tensor(x), k, stride, pad).data
            want = oracles.maxpool_chain(x, k, stride, pad)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (dims, k, stride, pad)
            assert np.isnan(got).any() and np.signbit(got[np.isnan(got)]).any()


# maxpool inputs of backbone stages 1-4 on the train_gate task (fp 64x96 and
# fv 48x80 at width 0.125, batch 16)
POOL_SHAPES = [(16, 8, 32, 48), (16, 16, 16, 24), (16, 32, 8, 12), (16, 64, 4, 6),
               (16, 8, 24, 40), (16, 16, 12, 20), (16, 32, 6, 10), (16, 64, 3, 5)]


class TestPoolReluOrder:
    """The backbone pools before relu; the paper's stage has relu first.

    relu is monotone, so both orders give the same bytes forward, and the
    same input gradient under ==: a window whose max is positive routes to
    the same first argmax, and one whose max is not positive passes a zero,
    +0 in one order and possibly -0 in the other. The data hold ties, +-0
    and -inf. A window holding NaN is where the orders part: relu first
    turns the NaN into +0 and the pool takes the window's largest other
    value and routes its gradient there, while pool first takes the NaN,
    relu makes it +0 and the gradient is zero.
    """

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("dims", POOL_SHAPES, ids=lambda d: "x".join(map(str, d)))
    def test_orders_agree(self, dims, dtype):
        r = np.random.default_rng(811)
        x = r.integers(-3, 4, dims).astype(dtype)  # small integers: many ties and zeros
        x[(x == 0) & (r.random(dims) < 0.5)] = -0.0
        x[r.random(dims) < 0.02] = -np.inf
        n, c, h, w = dims
        oh, ow = (ops.conv_out_size(e, POOL_K, POOL_S, POOL_P) for e in (h, w))
        g = r.standard_normal((n, c, oh, ow)).astype(dtype)
        g[r.random(g.shape) < 0.1] = -0.0
        pool_first = Tensor(x.copy(), requires_grad=True)
        relu_first = Tensor(x.copy(), requires_grad=True)
        a = ops.relu(ops.maxpool2d(pool_first, POOL_K, POOL_S, POOL_P))
        b = ops.maxpool2d(ops.relu(relu_first), POOL_K, POOL_S, POOL_P)
        assert a.data.dtype == b.data.dtype and a.data.tobytes() == b.data.tobytes()
        a.backward(g)
        b.backward(g)
        assert np.array_equal(pool_first.grad, relu_first.grad)
        assert np.count_nonzero(pool_first.grad) > 0


class TestReductions:
    def test_mean_all_is_scalar_mean(self):
        x = rand_t(Rng(703), (2, 3, 4, 5), dtype=np.float64, grad=True)
        y = ops.mean_all(x)
        assert y.dims == (1, 1, 1, 1)
        assert y.item() == pytest.approx(float(x.data.mean()))
        y.backward()
        assert np.allclose(x.grad, 1.0 / x.data.size)


class TestShapeOps:
    def test_flatten_unflatten_round_trip(self):
        x = rand_t(Rng(801), (2, 3, 4, 5), dtype=np.float64, grad=True)
        f = ops.flatten(x)
        assert f.dims == (2, 60, 1, 1)
        assert np.array_equal(f.data.reshape(2, 3, 4, 5), x.data)
        sq_loss(f).backward()
        assert x.grad.shape == (2, 3, 4, 5)
        assert np.allclose(x.grad, 2.0 * x.data / x.data.size)


class TestFullyConnected:
    def test_matches_matmul(self):
        rng = Rng(901)
        x = rand_t(rng, (3, 5, 1, 1))
        w = rand_t(rng, (4, 5, 1, 1))
        b = rand_t(rng, (1, 4, 1, 1))
        got = ops.fully_connected(x, w, b).data
        want = (x.data.reshape(3, 5) @ w.data.reshape(4, 5).T
                + b.data.reshape(4)).reshape(3, 4, 1, 1)
        assert np.allclose(got, want, atol=1e-6)

    def test_shape_validation(self):
        x = Tensor.zeros((2, 5, 1, 1))
        with pytest.raises(DimensionError):
            ops.fully_connected(x, Tensor.zeros((4, 6, 1, 1)), Tensor.zeros((1, 4, 1, 1)))
        with pytest.raises(DimensionError):
            ops.fully_connected(x, Tensor.zeros((4, 5, 1, 1)), Tensor.zeros((1, 3, 1, 1)))
        with pytest.raises(DimensionError):
            ops.fully_connected(Tensor.zeros((2, 5, 2, 1)),
                                Tensor.zeros((4, 5, 1, 1)), Tensor.zeros((1, 4, 1, 1)))


class TestSoftmaxXent:
    def test_loss_matches_closed_form(self):
        rng = Rng(1001)
        logits = rand_t(rng, (4, 5, 1, 1), scale=2.0, dtype=np.float64)
        labels = np.array([0, 2, 4, 1])
        loss, probs = ops.softmax_xent(logits, labels)
        z = logits.data.reshape(4, 5)
        z = z - z.max(axis=1, keepdims=True)
        p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        want = -np.log(p[np.arange(4), labels]).mean()
        assert loss.item() == pytest.approx(want, rel=1e-12)
        assert np.allclose(probs.data.reshape(4, 5), p, atol=1e-12)

    def test_label_out_of_range(self):
        logits = Tensor.zeros((2, 3, 1, 1))
        with pytest.raises(ParameterError):
            ops.softmax_xent(logits, np.array([0, 3]))
        with pytest.raises(ParameterError):
            ops.softmax_xent(logits, np.array([-1, 0]))

    def test_extreme_logits_finite(self):
        logits = Tensor.from_flat([1000.0, -1000.0, 0.0, 999.0, 998.0, -999.0],
                                  (2, 3, 1, 1), dtype=np.float64)
        loss, _ = ops.softmax_xent(logits, np.array([0, 1]))
        assert np.isfinite(loss.item())


class TestNumericGrad:
    def test_probes_reach_a_transposed_view(self):
        """numeric_grad perturbs the tensor itself: a non-contiguous float64
        parameter, as a channels-last conv weight is, gets every probe, and
        its values come back unchanged."""
        buf = np.random.default_rng(806).standard_normal((2, 3, 3, 4))
        x = Tensor(buf.transpose(0, 3, 1, 2), requires_grad=True)
        assert not x.data.flags.c_contiguous
        kept = x.data.copy()
        idx, num = numeric_grad(lambda: ops.mean_all(ewise_mul(x, x)), x)
        want = (2.0 * kept / kept.size).reshape(-1)[idx]
        assert idx.size == kept.size
        assert np.max(np.abs(num - want)) <= 1e-8
        assert np.array_equal(x.data, kept)
        errs = check_gradients(lambda: ops.mean_all(ewise_mul(x, x)), [("x", x)], sample=10)
        assert errs["x"] < 1e-6


class TestConvParamsInit:
    def test_he_scaled_weights(self):
        p = ConvParams.he_init(8, 16, 3, 1, 1, Rng(77))
        fan_in = 8 * 9
        assert p.weight.data.std() == pytest.approx(np.sqrt(2.0 / fan_in), rel=0.15)
        assert np.all(p.bias.data == 0.0)
        assert p.weight.requires_grad and p.bias.requires_grad

    def test_rejects_bad_geometry(self):
        with pytest.raises(ParameterError):
            ConvParams.he_init(0, 4, 3, 1, 1, Rng(0))
        with pytest.raises(ParameterError):
            ConvParams.he_init(2, 4, 0, 1, 1, Rng(0))
        with pytest.raises(ParameterError):
            ConvParams.he_init(2, 4, 3, 0, 1, Rng(0))
        with pytest.raises(ParameterError):
            ConvParams.he_init(2, 4, 3, 1, -1, Rng(0))
