import numpy as np
import pytest

from csafm import (
    AdamState,
    DimensionError,
    Rng,
    Tensor,
    UnimodalClassifier,
    adam_step,
)
from csafm import backbone as bb
from csafm import ops


class TestShapeArithmetic:
    def test_small_square_collapses_to_one_pixel(self):
        assert bb.feature_shape(64, 64) == (512, 1, 1)

    def test_width_multiplier_scales_channels_only(self):
        c, h, w = bb.feature_shape(64, 96, 0.25)
        assert (h, w) == bb.feature_shape(64, 96)[1:]
        assert c == round(512 * 0.25)

    def test_scaled_channels_floor_at_one(self):
        assert bb.scaled_channels(1.0) == (64, 128, 256, 512, 512)
        assert all(c >= 1 for c in bb.scaled_channels(0.001))

    def test_degenerate_input_saturates_at_one_pixel(self):
        # the stage paddings keep every intermediate size >= 1
        assert bb.feature_shape(1, 1) == (512, 1, 1)


class TestForward:
    def test_output_shape_and_determinism(self):
        s = bb.BackboneState.init(Rng(11), width_multiplier=0.125)
        x = Tensor(np.random.default_rng(0).normal(
            size=(2, 1, 48, 64)).astype(np.float32))
        y1 = bb.backbone_features(x, s, "eval")
        y2 = bb.backbone_features(x, s, "eval")
        assert y1.dims == (2,) + bb.feature_shape(48, 64, 0.125)
        assert np.array_equal(y1.data, y2.data)

    def test_multichannel_input_rejected(self):
        s = bb.BackboneState.init(Rng(11), width_multiplier=0.125)
        with pytest.raises(DimensionError):
            bb.backbone_features(Tensor.zeros((1, 3, 48, 64)), s, "eval")

    def test_same_seed_same_init(self):
        a = bb.BackboneState.init(Rng(21), width_multiplier=0.25)
        b = bb.BackboneState.init(Rng(21), width_multiplier=0.25)
        for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)

    def test_parameter_names_cover_all_stages(self):
        s = bb.BackboneState.init(Rng(3), width_multiplier=0.125)
        names = [n for n, _ in s.parameters()]
        for i in range(1, 6):
            assert f"conv{i}.weight" in names
            assert f"bn{i}.gamma" in names


class TestClassify:
    def test_logit_shape(self):
        m = UnimodalClassifier.build(classes=5, image_size=(40, 40), modality="fp",
                                     rng=Rng(7), width_multiplier=0.125)
        x = Tensor(np.random.default_rng(1).normal(
            size=(3, 1, 40, 40)).astype(np.float32))
        y = m.forward_batch(x, None, "eval")
        assert y.dims == (3, 5, 1, 1)


class TestLearning:
    def test_separable_classes_reach_full_accuracy(self):
        """Four constant-intensity classes should be trivially learnable."""
        rng = Rng(55)
        m = UnimodalClassifier.build(classes=4, image_size=(36, 36), modality="fp",
                                     rng=rng, width_multiplier=0.125)
        levels = [0.1, 0.35, 0.65, 0.9]
        r = np.random.default_rng(2)
        xs, ys = [], []
        for label, lv in enumerate(levels):
            for _ in range(6):
                img = np.full((1, 36, 36), lv, dtype=np.float32)
                img += r.normal(0, 0.02, img.shape).astype(np.float32)
                xs.append(img)
                ys.append(label)
        x = Tensor(np.stack(xs))
        y = np.array(ys)
        params = m.parameters()
        opt = AdamState(lr=3e-3)
        # fixed step count: running stats need ~80 updates to settle for eval
        for step in range(80):
            for _, t in params:
                t.grad = None
            logits = m.forward_batch(x, None, "train")
            loss, _ = ops.softmax_xent(logits, y)
            loss.backward()
            adam_step(params, opt)
        logits = m.forward_batch(x, None, "eval")
        pred = logits.data.reshape(len(y), 4).argmax(axis=1)
        assert np.array_equal(pred, y)
