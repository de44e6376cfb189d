import numpy as np
import pytest

from csafm import (
    ChannelAttnState,
    ConfigError,
    DimensionError,
    FusionState,
    FusionVariant,
    Rng,
    SpatialAttnState,
    Tensor,
    ablation_fuse,
    center_crop,
    channel_attention_map,
    check_gradients,
    concat_channels,
    csafm_fuse,
    ewise_mul,
    ifi,
    spatial_attention_map,
    standardize,
)
from csafm import ops

from csafm import oracles


def rand_map(seed, dims, dtype=np.float32, grad=False):
    r = Rng(seed)
    t = Tensor.zeros(dims, dtype=dtype, requires_grad=grad)
    t.data[...] = r.normal(t.data.size).reshape(dims)
    return t


def zeroed_states(c, r, dtype=np.float32):
    ca = ChannelAttnState.init(c, r, Rng(1), dtype=dtype)
    sa = SpatialAttnState.init(c, r, Rng(2), dtype=dtype)
    for _, t in ca.parameters() + sa.parameters():
        t.data[...] = 0.0
    return ca, sa


class TestVariantTags:
    def test_tag_round_trip(self):
        for v in FusionVariant:
            assert FusionVariant.from_tag(v.name) is v

    def test_unknown_tag_lists_choices(self):
        with pytest.raises(ConfigError, match="CSAFM"):
            FusionVariant.from_tag("CBAM")

    def test_state_holds_only_needed_parts(self):
        mk = lambda v: FusionState.init(v, 8, 4, 4, Rng(0))
        st = mk(FusionVariant.CHANNEL_ONLY)
        assert st.channel is not None and st.spatial is None
        st = mk(FusionVariant.SPATIAL_ONLY)
        assert st.channel is None and st.spatial is not None
        for v in (FusionVariant.SERIAL_SUM, FusionVariant.PARALLEL_CONCAT):
            st = mk(v)
            assert st.channel is None and st.spatial is None
            assert st.parameters() == []
        st = mk(FusionVariant.CSAFM)
        assert st.channel is not None and st.spatial is not None

    def test_reduction_must_divide_channels(self):
        with pytest.raises(ConfigError):
            ChannelAttnState.init(8, 3, Rng(0))
        with pytest.raises(ConfigError):
            SpatialAttnState.init(8, 5, Rng(0))


class TestStandardize:
    def test_crops_to_common_minimum(self):
        a = rand_map(1, (2, 4, 4, 7))
        b = rand_map(2, (2, 4, 3, 9))
        ca, cb = standardize(a, b)
        assert ca.dims == (2, 4, 3, 7)
        assert cb.dims == (2, 4, 3, 7)

    def test_equal_shapes_pass_through(self):
        a = rand_map(3, (1, 2, 5, 5))
        b = rand_map(4, (1, 2, 5, 5))
        ca, cb = standardize(a, b)
        assert ca is a and cb is b

    def test_crop_content_matches_slice_oracle(self):
        a = rand_map(5, (2, 3, 6, 9))
        b = rand_map(6, (2, 3, 4, 5))
        ca, cb = standardize(a, b)
        assert np.array_equal(ca.data, oracles.crop_center(a.data, 4, 5))
        assert np.array_equal(cb.data, b.data)

    def test_batch_channel_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            standardize(rand_map(7, (1, 2, 4, 4)), rand_map(8, (1, 3, 4, 4)))

    def test_center_crop_gradient_zero_pads(self):
        x = rand_map(9, (1, 1, 4, 4), dtype=np.float64, grad=True)
        y = center_crop(x, 2, 2)
        ops.mean_all(y).backward()
        inner = x.grad[:, :, 1:3, 1:3]
        assert np.allclose(inner, 0.25)
        total = x.grad.sum()
        assert total == pytest.approx(1.0)
        x.grad[:, :, 1:3, 1:3] = 0
        assert np.all(x.grad == 0)

    def test_center_crop_too_large_rejected(self):
        with pytest.raises(DimensionError):
            center_crop(rand_map(10, (1, 1, 3, 3)), 4, 2)


class TestAttentionMaps:
    def test_channel_map_shape(self):
        s = ChannelAttnState.init(8, 4, Rng(20))
        x = rand_map(21, (3, 8, 5, 6))
        assert channel_attention_map(x, s).dims == (3, 8, 1, 1)

    def test_channel_map_ignores_spatial_layout(self):
        """Built on a global pool, so pixel shuffles cannot change it."""
        s = ChannelAttnState.init(8, 4, Rng(22))
        x = rand_map(23, (2, 8, 4, 4))
        a1 = channel_attention_map(x, s).data
        r = np.random.default_rng(0)
        flat = x.data.reshape(2, 8, 16)[:, :, r.permutation(16)]
        a2 = channel_attention_map(Tensor(flat.reshape(2, 8, 4, 4).copy()), s).data
        assert np.allclose(a1, a2, atol=1e-6)

    def test_channel_map_zero_params_zero_output(self):
        ca, _ = zeroed_states(8, 4)
        x = rand_map(24, (2, 8, 4, 4))
        assert np.all(channel_attention_map(x, ca).data == 0.0)

    def test_spatial_map_shape_and_range(self):
        s = SpatialAttnState.init(8, 4, Rng(25))
        x = rand_map(26, (2, 8, 6, 5))
        a = spatial_attention_map(x, s, "train").data
        assert a.shape == (2, 8, 6, 5)
        assert a.min() > 0.0 and a.max() < 1.0

    def test_spatial_map_is_half_at_zero_params(self):
        _, sa = zeroed_states(8, 4)
        x = rand_map(27, (2, 8, 4, 4))
        a = spatial_attention_map(x, sa, "train").data
        assert np.all(a == np.float32(0.5))

    def test_channel_mismatch_rejected(self):
        s = ChannelAttnState.init(8, 4, Rng(28))
        with pytest.raises(DimensionError):
            channel_attention_map(rand_map(29, (1, 4, 3, 3)), s)


class TestCsafmFuse:
    def test_quarter_sum_identity_with_zeroed_attention(self):
        """Zero parameters collapse both gates to 1/2, so Z = (a+b)/4."""
        ca, sa = zeroed_states(8, 4)
        for mode in ("train", "eval"):
            a = rand_map(30, (2, 8, 4, 4))
            b = rand_map(31, (2, 8, 4, 4))
            z = csafm_fuse(a, b, ca, sa, mode).data
            want = np.float32(0.25) * (a.data + b.data)
            assert np.array_equal(z, want), mode

    def test_parts_expose_intermediates(self):
        ca = ChannelAttnState.init(8, 4, Rng(41))
        sa = SpatialAttnState.init(8, 4, Rng(42))
        a = rand_map(43, (2, 8, 4, 4))
        b = rand_map(44, (2, 8, 4, 4))
        z, parts = csafm_fuse(a, b, ca, sa, "train", return_parts=True)
        assert set(parts) == {"ifi", "f_c", "f_c_final", "f_s", "f_s_final"}
        assert np.array_equal(parts["ifi"].data, a.data + b.data)
        assert parts["f_c"].dims == a.dims

    def test_output_bounded_by_input_magnitudes(self):
        # w1*w2 and (1-w1)(1-w2) each lie in (0,1)
        ca = ChannelAttnState.init(8, 4, Rng(45))
        sa = SpatialAttnState.init(8, 4, Rng(46))
        a = rand_map(47, (2, 8, 4, 4))
        b = rand_map(48, (2, 8, 4, 4))
        z = csafm_fuse(a, b, ca, sa, "train").data
        bound = np.abs(a.data) + np.abs(b.data) + 1e-6
        assert np.all(np.abs(z) <= bound)

    def test_input_shape_mismatch_rejected(self):
        ca, sa = zeroed_states(8, 4)
        with pytest.raises(DimensionError):
            csafm_fuse(rand_map(49, (1, 8, 4, 4)), rand_map(50, (1, 8, 4, 5)),
                       ca, sa, "train")

    def test_literal_double_mul_changes_output(self):
        ca = ChannelAttnState.init(8, 4, Rng(51))
        sa = SpatialAttnState.init(8, 4, Rng(52))
        a = rand_map(53, (2, 8, 4, 4))
        b = rand_map(54, (2, 8, 4, 4))
        z0 = csafm_fuse(a, b, ca, sa, "train", literal_double_mul=False).data
        z1 = csafm_fuse(a, b, ca, sa, "train", literal_double_mul=True).data
        assert not np.array_equal(z0, z1)

    def test_gradcheck_full_block(self):
        """Both inputs and every attention parameter, f64, 1x8x4x4."""
        ca = ChannelAttnState.init(8, 4, Rng(55), dtype=np.float64)
        sa = SpatialAttnState.init(8, 4, Rng(56), dtype=np.float64)
        a = rand_map(57, (2, 8, 4, 4), dtype=np.float64, grad=True)
        b = rand_map(58, (2, 8, 4, 4), dtype=np.float64, grad=True)

        def loss():
            z = csafm_fuse(a, b, ca, sa, "train")
            return ops.mean_all(ewise_mul(z, z))

        probe = ([("f_fp", a), ("f_fv", b)] + ca.parameters()
                 + [(n, t) for n, t in sa.parameters() if "bias" not in n])
        errs = check_gradients(loss, probe, sample=8, seed=14)
        for name, e in errs.items():
            assert e < 1e-5, f"{name}: {e}"


class TestAblationVariants:
    def fuse(self, variant, seed=0, **kw):
        st = FusionState.init(variant, 8, 4, 4, Rng(seed), **kw)
        a = rand_map(200, (2, 8, 4, 4))
        b = rand_map(201, (2, 8, 4, 4))
        return a, b, ablation_fuse(a, b, st, "train")

    def test_serial_sum_is_plain_addition(self):
        a, b, z = self.fuse(FusionVariant.SERIAL_SUM)
        assert np.array_equal(z.data, a.data + b.data)

    def test_serial_sum_symmetric_bitwise(self):
        st = FusionState.init(FusionVariant.SERIAL_SUM, 8, 4, 4, Rng(0))
        a = rand_map(202, (2, 8, 4, 4))
        b = rand_map(203, (2, 8, 4, 4))
        z1 = ablation_fuse(a, b, st, "train").data
        z2 = ablation_fuse(b, a, st, "train").data
        assert np.array_equal(z1, z2)

    def test_parallel_concat_stacks_channels(self):
        a, b, z = self.fuse(FusionVariant.PARALLEL_CONCAT)
        assert z.dims == (2, 16, 4, 4)
        assert np.array_equal(z.data[:, :8], a.data)
        assert np.array_equal(z.data[:, 8:], b.data)

    def test_channel_only_zeroed_gives_half_blend(self):
        st = FusionState.init(FusionVariant.CHANNEL_ONLY, 8, 4, 4, Rng(1))
        for _, t in st.parameters():
            t.data[...] = 0.0
        a = rand_map(204, (2, 8, 4, 4))
        b = rand_map(205, (2, 8, 4, 4))
        z = ablation_fuse(a, b, st, "train").data
        want = np.float32(0.5) * (a.data + b.data)
        assert np.array_equal(z, want)

    def test_attention_variants_preserve_shape(self):
        for v in (FusionVariant.CSAFM, FusionVariant.CHANNEL_ONLY,
                  FusionVariant.SPATIAL_ONLY, FusionVariant.PARALLEL_CS,
                  FusionVariant.SEQ_SC, FusionVariant.SERIAL_SUM):
            _, _, z = self.fuse(v, seed=3)
            assert z.dims == (2, 8, 4, 4), v

    def test_variants_actually_differ(self):
        outs = {}
        for v in (FusionVariant.CSAFM, FusionVariant.PARALLEL_CS, FusionVariant.SEQ_SC):
            _, _, z = self.fuse(v, seed=4)
            outs[v] = z.data
        assert not np.array_equal(outs[FusionVariant.CSAFM],
                                  outs[FusionVariant.PARALLEL_CS])
        assert not np.array_equal(outs[FusionVariant.CSAFM],
                                  outs[FusionVariant.SEQ_SC])

    def test_concat_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            concat_channels(rand_map(206, (1, 4, 3, 3)), rand_map(207, (1, 4, 3, 4)))

    def test_ifi_matches_add(self):
        a = rand_map(208, (1, 2, 3, 3))
        b = rand_map(209, (1, 2, 3, 3))
        assert np.array_equal(ifi(a, b).data, a.data + b.data)
