import hashlib
import json
import re
import resource
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from csafm import (
    ConfigError,
    DimensionError,
    FpvCsafmModel,
    FusionVariant,
    ParameterError,
    Rng,
    RunConfig,
    SynthSpec,
    Tensor,
    UnimodalClassifier,
    WeightFileError,
    WeightFileMagicError,
    WeightFileShapeError,
    WeightFileStructureError,
    WeightFileTruncatedError,
    WeightFileValueError,
    WeightFileVersionError,
    check_gradients,
    ewise_add,
    ewise_mul,
    load,
    save,
)
from csafm import backbone as bb
from csafm import fusion as fu
from csafm import ops
from csafm.train import AdamState, adam_step


def small_fused(variant=FusionVariant.CSAFM, seed=1, **kw):
    return FpvCsafmModel.build(
        classes=4, fp_size=(24, 24), fv_size=(20, 28), variant=variant,
        rng=Rng(seed), r1=4, r2=4, width_multiplier=0.125, **kw)


def batch_images(seed, n, fp_hw=(24, 24), fv_hw=(20, 28)):
    r = Rng(seed)
    fp = Tensor(r.normal(n * fp_hw[0] * fp_hw[1]).reshape(
        n, 1, *fp_hw).astype(np.float32))
    fv = Tensor(r.normal(n * fv_hw[0] * fv_hw[1]).reshape(
        n, 1, *fv_hw).astype(np.float32))
    return fp, fv


class TestFusedForward:
    def test_logit_shape(self):
        m = small_fused()
        fp, fv = batch_images(2, 3)
        y = m.forward_batch(fp, fv, "eval")
        assert y.dims == (3, 4, 1, 1)

    def test_eval_forward_deterministic(self):
        m = small_fused()
        fp, fv = batch_images(3, 2)
        y1 = m.forward_batch(fp, fv, "eval").data
        y2 = m.forward_batch(fp, fv, "eval").data
        assert np.array_equal(y1, y2)

    def test_string_variant_rejected(self):
        # a tag string once built a fusion with no gates, and forward raised KeyError
        with pytest.raises(ConfigError, match="'CSAFM'"):
            small_fused(variant="CSAFM")

    def test_batch_size_mismatch_rejected(self):
        m = small_fused()
        fp, _ = batch_images(4, 2)
        _, fv = batch_images(5, 3)
        with pytest.raises(DimensionError):
            m.forward_batch(fp, fv, "eval")

    def test_serial_sum_equals_manual_composition(self):
        m = small_fused(variant=FusionVariant.SERIAL_SUM)
        fp, fv = batch_images(6, 2)
        want = ops.fully_connected(
            ops.flatten(fu.ifi(*fu.standardize(
                bb.backbone_features(fp, m.fp_backbone, "eval"),
                bb.backbone_features(fv, m.fv_backbone, "eval")))),
            m.head_w, m.head_b).data
        got = m.forward_batch(fp, fv, "eval").data
        assert np.array_equal(got, want)

    def test_parallel_concat_head_doubles_input(self):
        m = small_fused(variant=FusionVariant.PARALLEL_CONCAT)
        plain = small_fused(variant=FusionVariant.CSAFM)
        assert m.head_w.dims[1] == 2 * plain.head_w.dims[1]
        fp, fv = batch_images(7, 2)
        assert m.forward_batch(fp, fv, "eval").dims == (2, 4, 1, 1)

    def test_every_variant_runs_both_modes(self):
        fp, fv = batch_images(8, 2)
        for v in FusionVariant:
            m = small_fused(variant=v, seed=9)
            for mode in ("train", "eval"):
                y = m.forward_batch(fp, fv, mode)
                assert y.dims == (2, 4, 1, 1), (v, mode)
                assert np.all(np.isfinite(y.data)), (v, mode)

    def test_wrong_image_size_raises_at_head(self):
        m = FpvCsafmModel.build(
            classes=3, fp_size=(96, 96), fv_size=(96, 96),
            variant=FusionVariant.SERIAL_SUM, rng=Rng(10),
            width_multiplier=0.125)
        fp, fv = batch_images(11, 1, fp_hw=(48, 48), fv_hw=(48, 48))
        with pytest.raises(DimensionError, match="drifted"):
            m.forward_batch(fp, fv, "eval")
        u = UnimodalClassifier.build(classes=3, image_size=(96, 96), modality="fv",
                                     rng=Rng(10), width_multiplier=0.125)
        with pytest.raises(DimensionError, match="drifted"):
            u.forward_batch(fp, fv, "eval")

    def test_literal_double_mul_refused(self):
        # the keyword stays for callers that pass False; the gate is F = A(x)*x only
        with pytest.raises(ConfigError, match="literal_double_mul"):
            small_fused(literal_double_mul=True)
        assert small_fused(literal_double_mul=False).meta()["literal_double_mul"] is False

    def test_too_few_classes_rejected(self):
        with pytest.raises(ConfigError):
            FpvCsafmModel.build(classes=1, fp_size=(24, 24), fv_size=(24, 24),
                                variant=FusionVariant.CSAFM, rng=Rng(0),
                                r1=4, r2=4, width_multiplier=0.125)

    def test_parameter_names_are_prefixed(self):
        m = small_fused()
        names = [n for n, _ in m.parameters()]
        assert any(n.startswith("fp.conv1") for n in names)
        assert any(n.startswith("fv.bn3") for n in names)
        assert any(n.startswith("fusion.channel") for n in names)
        assert any(n.startswith("fusion.spatial") for n in names)
        assert "head.weight" in names and "head.bias" in names


def gate_eval_digest(variant: FusionVariant) -> str:
    """sha256 of the eval logits at batch 1, then batch 3, of a fresh model
    at the acceptance-gate shape: 16 classes, 64x96 fp and 48x80 fv images,
    width 0.125, r1 = r2 = 4, whose fused map is 1x2."""
    m = FpvCsafmModel.build(
        classes=16, fp_size=(64, 96), fv_size=(48, 80), variant=variant,
        rng=Rng(21), r1=4, r2=4, width_multiplier=0.125)
    h = hashlib.sha256()
    for seed, n in ((22, 1), (23, 3)):
        fp, fv = batch_images(seed, n, fp_hw=(64, 96), fv_hw=(48, 80))
        h.update(m.forward_batch(fp, fv, "eval").data.tobytes())
    return h.hexdigest()


# gate_eval_digest per variant. The batch-1 eval forward is the recognize
# benchmark's query path; a change that moves these bytes, even in the last
# place, updates the pins and says so in CHANGES.md.
EVAL_SHA256 = {
    "CSAFM": "2c661ae9c940f25fa330d8765e2ec809210626e6b87aad8cf771c9036f951099",
    "CHANNEL_ONLY": "29414b3da2d6f05ae42513cc3fd245d7c01bc5fc9219a2af40e648c3a7ccc699",
    "SPATIAL_ONLY": "b4f1ba67d4b1a6ff9d87aa9dc006eaabf7410ebf9761290f43760ae406dc7388",
    "PARALLEL_CS": "98d02d1b9494a9c7d147385d2240a960314326f7f424df58319604f914d1ba25",
    "SEQ_SC": "682644e0ac738ded98e482ea136d5ef351cbc03d8cd410e2fe3d851db12f4bf9",
    "SERIAL_SUM": "073da031dc0574400ffb45ad9e95641a9e106abc378dc8659feee8d185f2e8bd",
    "PARALLEL_CONCAT": "739d0bf1f7afb58ee124749508a10d83334dd877c1f2cf2c48161966f9a4b919",
}


class TestEvalBits:
    @pytest.mark.parametrize("variant", list(FusionVariant), ids=lambda v: v.name)
    def test_gate_shape_eval_logits_pinned_bytes(self, variant):
        assert gate_eval_digest(variant) == EVAL_SHA256[variant.name]


class TestUnimodal:
    def test_uses_only_its_modality(self):
        m = UnimodalClassifier.build(classes=4, image_size=(24, 24),
                                     modality="fp", rng=Rng(12),
                                     width_multiplier=0.125)
        fp, _ = batch_images(13, 2)
        other1 = Tensor(np.zeros((2, 1, 20, 28), dtype=np.float32))
        other2 = Tensor(np.ones((2, 1, 20, 28), dtype=np.float32))
        y1 = m.forward_batch(fp, other1, "eval").data
        y2 = m.forward_batch(fp, other2, "eval").data
        assert np.array_equal(y1, y2)

    def test_too_few_classes_rejected(self):
        with pytest.raises(ConfigError):
            UnimodalClassifier.build(classes=1, image_size=(24, 24), modality="fp",
                                     rng=Rng(0), width_multiplier=0.125)

    def test_bad_modality_rejected(self):
        with pytest.raises(ConfigError):
            UnimodalClassifier.build(classes=4, image_size=(24, 24),
                                     modality="iris", rng=Rng(0))

    def test_meta_describes_model(self):
        m = UnimodalClassifier.build(classes=5, image_size=(20, 28),
                                     modality="fv", rng=Rng(14),
                                     width_multiplier=0.25)
        meta = m.meta()
        assert meta["kind"] == "unimodal"
        assert meta["modality"] == "fv"
        assert meta["classes"] == 5
        assert meta["image_size"] == [20, 28]


class TestEndToEndGradcheck:
    def test_tiny_fused_model(self):
        """f64 model on 20x20 pairs; probes one tensor from each block."""
        m = FpvCsafmModel.build(
            classes=3, fp_size=(20, 20), fv_size=(20, 20),
            variant=FusionVariant.CSAFM, rng=Rng(15), r1=4, r2=4,
            width_multiplier=1 / 16, dtype=np.float64)
        r = Rng(16)
        fp = Tensor(r.normal(2 * 400).reshape(2, 1, 20, 20).astype(np.float64))
        fv = Tensor(r.normal(2 * 400).reshape(2, 1, 20, 20).astype(np.float64))
        labels = np.array([0, 2])

        def loss():
            return ops.softmax_xent(m.forward_batch(fp, fv, "train"), labels)[0]

        wanted = ("fp.conv1.weight", "fv.conv3.weight", "fusion.channel.pw2.weight",
                  "fusion.spatial.conv1.weight", "head.weight")
        probe = [(n, t) for n, t in m.parameters() if n in wanted]
        assert len(probe) == len(wanted)
        errs = check_gradients(loss, probe, sample=5, seed=17)
        for name, e in errs.items():
            assert e < 1e-5, f"{name}: {e}"


class TestSerialization:
    def test_round_trip_state_and_logits(self, tmp_path):
        m = small_fused(seed=18)
        # give running stats non-default values so the test sees them travel
        fp, fv = batch_images(19, 4)
        m.forward_batch(fp, fv, "train")
        path = tmp_path / "w.csafm"
        save(m, path)
        back = load(path)
        a = {n: (arr.copy(), k) for n, arr, k in m.state_entries()}
        b = {n: (arr, k) for n, arr, k in back.state_entries()}
        assert set(a) == set(b)
        for n in a:
            assert a[n][1] == b[n][1]
            assert np.array_equal(a[n][0], b[n][0]), n
        y1 = m.forward_batch(fp, fv, "eval").data
        y2 = back.forward_batch(fp, fv, "eval").data
        assert np.array_equal(y1, y2)

    def test_unimodal_round_trip(self, tmp_path):
        m = UnimodalClassifier.build(classes=4, image_size=(24, 24),
                                     modality="fp", rng=Rng(20),
                                     width_multiplier=0.125)
        path = tmp_path / "u.csafm"
        save(m, path)
        back = load(path)
        assert isinstance(back, UnimodalClassifier)
        assert back.modality == "fp"
        fp, fv = batch_images(21, 2)
        assert np.array_equal(m.forward_batch(fp, fv, "eval").data,
                              back.forward_batch(fp, fv, "eval").data)

    def test_bad_magic(self, tmp_path):
        m = small_fused()
        path = tmp_path / "w.csafm"
        save(m, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"ZIPF"
        path.write_bytes(bytes(raw))
        with pytest.raises(WeightFileMagicError):
            load(path)

    def test_unsupported_version(self, tmp_path):
        m = small_fused()
        path = tmp_path / "w.csafm"
        save(m, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(WeightFileVersionError):
            load(path)

    def test_truncated_file(self, tmp_path):
        m = small_fused()
        path = tmp_path / "w.csafm"
        save(m, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 17])
        with pytest.raises(WeightFileTruncatedError):
            load(path)
        path.write_bytes(raw[:2])
        with pytest.raises(WeightFileTruncatedError):
            load(path)

    def test_header_shape_lie_detected(self, tmp_path):
        m = small_fused()
        path = tmp_path / "w.csafm"
        save(m, path)
        raw = path.read_bytes()
        hlen = struct.unpack_from("<I", raw, 8)[0]
        header = json.loads(raw[12 : 12 + hlen])
        header["tensors"][0]["dims"][0] += 1
        hb = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(raw[:4] + struct.pack("<II", 1, len(hb)) + hb
                         + raw[12 + hlen :])
        with pytest.raises(WeightFileShapeError):
            load(path)

    def test_trailing_garbage_detected(self, tmp_path):
        m = small_fused()
        path = tmp_path / "w.csafm"
        save(m, path)
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(WeightFileStructureError):
            load(path)

    def test_header_json_garbage_detected(self, tmp_path):
        m = small_fused()
        path = tmp_path / "w.csafm"
        save(m, path)
        raw = bytearray(path.read_bytes())
        raw[12] = ord("#")  # first header byte: JSON can no longer parse
        path.write_bytes(bytes(raw))
        with pytest.raises(WeightFileStructureError):
            load(path)

    @pytest.mark.parametrize("name, value", [
        ("fp.conv1.weight", np.nan),
        ("head.weight", np.inf),
        ("fv.bn2.running_var", -0.5),
    ])
    def test_non_finite_or_negative_variance_rejected(self, tmp_path, name, value):
        """A NaN weight would load and relu would zero its channel, so
        predict would give finite logits and plausible classes."""
        m = small_fused()
        {n: arr for n, arr, _ in m.state_entries()}[name].reshape(-1)[0] = value
        path = tmp_path / "w.csafm"
        save(m, path)
        with pytest.raises(WeightFileValueError, match=name):
            load(path)


    @pytest.mark.parametrize("kind", ["fused", "unimodal"])
    def test_loaded_arrays_are_writeable(self, tmp_path, kind):
        """load copies each blob into the model's own arrays; a read-only
        view of the file buffer would break Adam's in-place update."""
        m = small_fused() if kind == "fused" else UnimodalClassifier.build(
            classes=4, image_size=(20, 28), modality="fv", rng=Rng(3),
            width_multiplier=0.125)
        path = tmp_path / "w.csafm"
        save(m, path)
        entries = load(path).state_entries()
        assert entries
        for name, arr, _ in entries:
            assert arr.flags.writeable, name

    def test_float64_model_leaves_no_file(self, tmp_path):
        path = tmp_path / "w.csafm"
        with pytest.raises(ParameterError, match="float32"):
            save(small_fused(dtype=np.float64), path)
        assert not path.exists()


def _set(key, value):
    def edit(header):
        header["meta"][key] = value
    return edit


class TestMalformedHeader:
    @pytest.mark.parametrize("edit", [
        lambda h: h["meta"].pop("classes"),
        lambda h: h.update(meta=[h["meta"]]),
        _set("width_multiplier", "0.125"),
        _set("classes", 4.0),
        _set("variant", ["CSAFM"]),
        _set("fp_size", [24]),
        _set("literal_double_mul", 0),
        _set("literal_double_mul", True),
        lambda h: h.update(tensors=len(h["tensors"])),
        lambda h: h["tensors"][0].update(dims=7),
        _set("kind", "transformer"),
    ], ids=["meta_lacks_classes", "meta_is_list", "width_multiplier_str",
            "classes_float", "variant_list", "fp_size_short",
            "literal_double_mul_int", "literal_double_mul_true", "tensors_not_list",
            "dims_not_list", "kind_transformer"])
    def test_fused_header_rejected(self, tmp_path, rewrite_header, edit):
        path = tmp_path / "w.csafm"
        save(small_fused(), path)
        rewrite_header(path, edit)
        with pytest.raises(WeightFileStructureError):
            load(path)

    @pytest.mark.parametrize("edit", [
        lambda h: h["meta"].pop("image_size"),
        _set("modality", None),
        _set("width_multiplier", True),
    ], ids=["meta_lacks_image_size", "modality_null", "width_multiplier_bool"])
    def test_unimodal_header_rejected(self, tmp_path, rewrite_header, edit):
        path = tmp_path / "u.csafm"
        save(UnimodalClassifier.build(classes=4, image_size=(24, 24), modality="fv",
                                      rng=Rng(24), width_multiplier=0.125), path)
        rewrite_header(path, edit)
        with pytest.raises(WeightFileStructureError):
            load(path)


    def test_unimodal_one_class_rejected(self, tmp_path):
        """A two-class file cut to one class in its header and its head blobs
        alike, so that the size check passes and only the build can refuse it."""
        path = tmp_path / "u.csafm"
        save(UnimodalClassifier.build(classes=2, image_size=(24, 24), modality="fp",
                                      rng=Rng(24), width_multiplier=0.125), path)
        raw = path.read_bytes()
        hlen = struct.unpack_from("<I", raw, 8)[0]
        header = json.loads(raw[12 : 12 + hlen])
        header["meta"]["classes"] = 1
        w_decl, b_decl = header["tensors"][-2:]
        d = w_decl["dims"][1]
        w_decl["dims"][0] = b_decl["dims"][1] = 1
        w_at = len(raw) - (16 + 8 * d) - (16 + 8)  # the head weight and bias end the file
        b_at = w_at + 16 + 8 * d
        hb = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(raw[:4] + struct.pack("<II", 1, len(hb)) + hb + raw[12 + hlen : w_at]
                         + struct.pack("<4I", *w_decl["dims"]) + raw[w_at + 16 : w_at + 16 + 4 * d]
                         + struct.pack("<4I", *b_decl["dims"]) + raw[b_at + 16 : b_at + 20])
        with pytest.raises(WeightFileStructureError, match="need at least 2 classes"):
            load(path)


class TestReadersAgree:
    """The run config, the synth spec and the weight-file meta are read by one
    reader, so each refuses the same bad values, with its own error class and
    a message that names the key."""

    @staticmethod
    def read(reader, key, value, path, rewrite_header):
        if reader == "config":
            RunConfig.from_dict({key: value})
        elif reader == "synth spec":
            SynthSpec.from_dict({key: value})
        else:
            save(small_fused(), path)
            rewrite_header(path, _set(key, value))
            load(path)

    @pytest.mark.parametrize("value", [True, 2.5, "3", [8]], ids=repr)
    @pytest.mark.parametrize("reader, key, error", [
        ("config", "batch", ConfigError),
        ("config", "split", ConfigError),
        ("synth spec", "samples_per_class", ConfigError),
        ("synth spec", "grid", ConfigError),
        ("meta", "classes", WeightFileStructureError),
        ("meta", "fp_size", WeightFileStructureError),
    ])
    def test_bad_value_names_its_key(self, tmp_path, rewrite_header, reader, key, error,
                                     value):
        with pytest.raises(error, match=f"'{key}' is {re.escape(repr(value))}"):
            self.read(reader, key, value, tmp_path / "w.csafm", rewrite_header)

    @pytest.mark.parametrize("reader, key, error", [
        ("config", "lr", ConfigError),
        ("meta", "width_multiplier", WeightFileStructureError),
    ])
    def test_int_beyond_float_range_is_no_number(self, tmp_path, rewrite_header, reader, key,
                                                 error):
        """JSON reads 10**400 as an int, which float() cannot convert: the
        config once raised OverflowError from its float() of lr."""
        with pytest.raises(error, match=f"'{key}'"):
            self.read(reader, key, 10 ** 400, tmp_path / "w.csafm", rewrite_header)


def gate_fused():
    """The acceptance-gate model: 16 classes, fp 64x96, fv 48x80, width 0.125."""
    return FpvCsafmModel.build(classes=16, fp_size=(64, 96), fv_size=(48, 80),
                               variant=FusionVariant.CSAFM, rng=Rng(25),
                               r1=4, r2=4, width_multiplier=0.125)


class TestHeaderSizeBound:
    # the head is sized by the smaller of the two feature maps, so only a
    # forge of both image sizes inflates it
    @pytest.mark.parametrize("edit", [
        _set("width_multiplier", 64),
        lambda h: h["meta"].update(fp_size=[20000, 20000], fv_size=[20000, 20000]),
        _set("classes", 10 ** 7),
        _set("classes", 200000),
    ], ids=["width_multiplier_64", "sizes_20000", "classes_1e7", "classes_2e5"])
    def test_forged_size_rejected_before_build(self, tmp_path, rewrite_header, edit):
        """A meta that implies more tensor values than the file holds is refused
        before the build allocates them: load's traced peak stays within twice
        the file's size."""
        path = tmp_path / "gate.csafm"
        save(gate_fused(), path)
        rewrite_header(path, edit)
        # a load that did build the forged model meets MemoryError under this
        # cap on the process's address space, not the machine's memory limit
        vm = int(re.search(r"VmSize:\s+(\d+) kB", Path("/proc/self/status").read_text())[1])
        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (vm * 1024 + 256 * 2 ** 20, hard))
        tracemalloc.start()
        try:
            with pytest.raises(WeightFileStructureError, match="implies"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
        assert peak <= 2 * path.stat().st_size

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        """load builds with zeros in place of He draws, which the file overwrites."""
        path, again = tmp_path / "w.csafm", tmp_path / "again.csafm"
        save(small_fused(), path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load drew from an Rng")

        monkeypatch.setattr(Rng, "normal", no_draw)
        save(load(path), again)
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("variant", list(FusionVariant), ids=lambda v: v.name)
    def test_every_variant_reloads_byte_for_byte(self, tmp_path, variant):
        path, again = tmp_path / "w.csafm", tmp_path / "again.csafm"
        save(small_fused(variant=variant), path)
        save(load(path), again)
        assert again.read_bytes() == path.read_bytes()


# sha256 of save() on freshly built models at Rng(40), width 0.125: fused
# 4 classes on 24x24/20x28 with r1 = r2 = 4, unimodal 4 classes per modality.
# A refactor that moves a tensor, renames one or draws from another stream
# changes the file; one that only moves code keeps these digests.
PINNED_SHA256 = {
    "CSAFM": "5667035fbbc557d1b693b931ed38659cd276eb35ef2a6d7258b0de752b9ea16b",
    "CHANNEL_ONLY": "e1ec31f7e95bc2d2c74baa1dca7f16187e6acc0018e5558da0b0ad633a6cd204",
    "SPATIAL_ONLY": "c27edaa7c640afa6e4a1b4edb1bb02ec6c249d87271b64a30f727aeff02812d4",
    "PARALLEL_CS": "9ecd1a358f99f41d9ff2e9dd5aca905520326f320a6a09f10767c72e0d5b4f83",
    "SEQ_SC": "9784f4615491fc2f122d67c1eb5c4bc6cba5b57048c78073060997df15fe59a3",
    "SERIAL_SUM": "239f3a1da4bfca098a7aea8717cb891075e6fdd90d0ba77dcf72d7dae0d218ff",
    "PARALLEL_CONCAT": "086b535749b1afd9b9603fcbd86104853e3d652e6c068aa6dd0ac9987501100d",
    "fp": "281a4dada429fa66b5b9fd1e27d3f6b5f3ef2146c0cdc0f0aab8333b00cefd97",
    "fv": "7f390f6a8ee7b79bd51341744e9b662cb9c58cd19b9ba0cff3a4e12d64b0ed71",
}


def pinned_model(name):
    if name in ("fp", "fv"):
        size = (24, 24) if name == "fp" else (20, 28)
        return UnimodalClassifier.build(classes=4, image_size=size, modality=name,
                                        rng=Rng(40), width_multiplier=0.125)
    return small_fused(variant=FusionVariant[name], seed=40)


class TestWeightFileBytes:
    @pytest.mark.parametrize("name", list(PINNED_SHA256))
    def test_fresh_model_saves_pinned_bytes(self, tmp_path, name):
        path = tmp_path / "w.csafm"
        save(pinned_model(name), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[name]


def conv_weights(m):
    """(name, array) of every convolution weight of m: all weights but the head's."""
    return [(name, arr) for name, arr, kind in m.state_entries()
            if kind == "param" and name.endswith(".weight") and name != "head.weight"]


def memory_order(a):
    """The strides of a's axes longer than 1; an axis of length 1 is never stepped."""
    return tuple(st for st, d in zip(a.strides, a.shape) if d > 1)


class TestConvWeightLayout:
    """Conv weights are (oc, c, kh, kw) arrays held channels-last in memory,
    the order conv2d's GEMM reads them, and their grads and Adam moments
    keep that order. A C-ordered weight would cost a relayout copy per call."""

    @staticmethod
    def assert_channels_last(m):
        weights = conv_weights(m)
        assert weights
        for name, w in weights:
            assert w.ndim == 4 and w.transpose(0, 2, 3, 1).flags.c_contiguous, name
        # stage-2-on and 7x7 attention weights are not C-contiguous (k=1 or c=1 ones are both)
        assert any(not w.flags.c_contiguous for _, w in weights)

    @pytest.mark.parametrize("kind", ["fused", "fp", "fv"])
    def test_built_and_loaded_weights_are_channels_last(self, tmp_path, kind):
        m = small_fused(seed=41) if kind == "fused" else pinned_model(kind)
        self.assert_channels_last(m)
        path = tmp_path / "w.csafm"
        save(m, path)
        loaded = load(path)
        self.assert_channels_last(loaded)
        for (name, a), (_, b) in zip(conv_weights(m), conv_weights(loaded)):
            assert a.shape == b.shape and np.array_equal(a, b), name

    def test_grads_and_moments_share_the_param_strides(self):
        m = small_fused(seed=42)
        fp, fv = batch_images(43, 4)
        params = m.parameters()
        loss, _ = ops.softmax_xent(m.forward_batch(fp, fv, "train"), np.array([0, 1, 2, 3]))
        loss.backward()
        st = AdamState(lr=0.003)
        adam_step(params, st)
        for name, p in params:
            want = memory_order(p.data)
            assert memory_order(p.grad) == want, name
            assert memory_order(st.m[name]) == memory_order(st.v[name]) == want, name


class TestWeightFileFuzz:
    @pytest.mark.parametrize("edit", [
        _set("variant", "CSAFN"),
        _set("r1", 3),
        _set("r2", 0),
        _set("classes", 1),
        _set("width_multiplier", -0.125),
        _set("width_multiplier", 0),
        _set("width_multiplier", float("inf")),
        _set("width_multiplier", float("nan")),
        _set("width_multiplier", 1e308),
        _set("fp_size", [-64, 96]),
        _set("fv_size", [0, 0]),
        _set("kind", "unimodal"),
        lambda h: h["tensors"][0].update(dims=[-8, 1, 7, 7]),
        lambda h: h["tensors"][0].update(dims=[8, 1, 7]),
        lambda h: h["tensors"][0].update(dims=[2 ** 40, 1, 7, 7]),
        lambda h: h["tensors"][3].update(name="fp.bn1.gamma"),
        lambda h: h["tensors"][4].update(kind="param"),
        lambda h: h["tensors"].pop(),
    ], ids=["variant_CSAFN", "r1_3", "r2_0", "classes_1", "width_negative",
            "width_zero", "width_inf", "width_nan", "width_1e308", "fp_size_negative",
            "fv_size_0x0", "kind_unimodal", "dims_negative", "dims_rank3",
            "dims_huge", "name_swapped", "kind_swapped", "tensor_dropped"])
    def test_header_edit_is_a_weight_file_error(self, tmp_path, rewrite_header, edit):
        path = tmp_path / "w.csafm"
        save(small_fused(), path)
        rewrite_header(path, edit)
        with pytest.raises(WeightFileError):
            load(path)

    def test_seeded_flips_and_truncations(self, tmp_path):
        """Each mutant either raises a WeightFileError or loads a model that
        saves and reloads to the same state."""
        path = tmp_path / "w.csafm"
        save(small_fused(seed=27), path)
        raw = path.read_bytes()
        head_end = 12 + struct.unpack_from("<I", raw, 8)[0]
        rng = Rng(28)
        mutants = []
        for i in range(240):
            # half the flips land in the magic, lengths and JSON header
            pos = rng.below(head_end if i % 2 else len(raw))
            flipped = bytearray(raw)
            flipped[pos] ^= 1 << rng.below(8)
            mutants.append(bytes(flipped))
        mutants += [raw[: rng.below(len(raw))] for _ in range(60)]
        loaded = 0
        for i, blob in enumerate(mutants):
            mutant = tmp_path / f"m{i}.csafm"
            mutant.write_bytes(blob)
            try:
                m = load(mutant)
            except WeightFileError:
                continue
            loaded += 1
            again = tmp_path / f"again{i}.csafm"
            save(m, again)
            for (n1, a1, _), (n2, a2, _) in zip(m.state_entries(),
                                                load(again).state_entries()):
                assert n1 == n2 and a1.tobytes() == a2.tobytes(), (i, n1)
        assert 0 < loaded < len(mutants)
