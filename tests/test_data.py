"""PGM IO, directory ingestion, and the synthetic pair generator."""

import numpy as np
import pytest

from csafm import (
    ConfigError,
    DataError,
    EmptyClassError,
    PairingError,
    PgmFormatError,
    Rng,
    SynthSpec,
    ingest_dir,
    preprocess,
    read_pgm,
    synth_generate,
    write_pgm,
)
from csafm.data import synth_sample_u8, synth_write

from csafm.oracles import nearest_centroid


class TestPgm:
    def test_round_trip_bytes(self, tmp_path):
        img = np.random.default_rng(0).integers(0, 256, (7, 11), dtype=np.uint8)
        p = tmp_path / "x.pgm"
        write_pgm(p, img)
        assert np.array_equal(read_pgm(p), img)

    def test_header_comments_and_whitespace(self, tmp_path):
        img = np.arange(6, dtype=np.uint8).reshape(2, 3)
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5 # comment\n# another\n 3\t2 \n255\n" + img.tobytes())
        assert np.array_equal(read_pgm(p), img)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P2\n3 2\n255\n000000")
        with pytest.raises(PgmFormatError, match="magic"):
            read_pgm(p)

    def test_wrong_maxval(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n3 2\n65535\n" + bytes(12))
        with pytest.raises(PgmFormatError, match="maxval"):
            read_pgm(p)

    def test_truncated_pixels(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(9))
        with pytest.raises(PgmFormatError, match="pixel bytes"):
            read_pgm(p)

    def test_bytes_after_the_pixels(self, tmp_path):
        # they once went unread, so a size that does not match the data read quietly
        p = tmp_path / "long.pgm"
        p.write_bytes(b"P5\n4 4\n255\n" + bytes(20))
        with pytest.raises(PgmFormatError, match=r"long\.pgm: 4 bytes after the 16 pixel bytes"):
            read_pgm(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n4")
        with pytest.raises(PgmFormatError, match="ended early"):
            read_pgm(p)

    def test_garbage_in_header(self, tmp_path):
        p = tmp_path / "bad.pgm"
        p.write_bytes(b"P5\n3 x\n255\n" + bytes(6))
        with pytest.raises(PgmFormatError, match="unexpected byte"):
            read_pgm(p)

    @pytest.mark.parametrize("header", [b"P5\n0 5\n255\n", b"P5\n5 0\n255\n"])
    def test_zero_width_or_height(self, tmp_path, header):
        p = tmp_path / "empty.pgm"
        p.write_bytes(header)
        with pytest.raises(PgmFormatError, match=r"empty\.pgm: width \d, height \d"):
            read_pgm(p)

    def test_write_rejects_non_u8(self, tmp_path):
        with pytest.raises(DataError):
            write_pgm(tmp_path / "f.pgm", np.zeros((2, 2), dtype=np.float32))
        with pytest.raises(DataError):
            write_pgm(tmp_path / "f.pgm", np.zeros((2, 2, 1), dtype=np.uint8))


class TestPreprocess:
    def test_scaling_endpoints(self):
        img = np.array([[0, 255], [128, 51]], dtype=np.uint8)
        t = preprocess(img)
        assert t.dims == (1, 1, 2, 2)
        assert t.data.dtype == np.float32
        assert t.data[0, 0, 0, 0] == 0.0
        assert t.data[0, 0, 0, 1] == 1.0
        assert abs(t.data[0, 0, 1, 1] - 51 / 255) < 1e-7

    def test_rejects_wrong_rank(self):
        with pytest.raises(DataError):
            preprocess(np.zeros((2, 2, 3), dtype=np.uint8))


class TestIngest:
    def test_happy_path_labels_follow_sorted_dirs(self, pgm_tree):
        root = pgm_tree({0: 2, 1: 2, 2: 2})
        samples = ingest_dir(root)
        assert [s.label for s in samples] == [0, 0, 1, 1, 2, 2]
        assert samples[0].fp.dims == (1, 1, 12, 16)
        assert samples[0].fv.dims == (1, 1, 10, 14)

    def test_pixels_match_files(self, pgm_tree):
        root = pgm_tree({0: 1, 1: 1})
        samples = ingest_dir(root)
        raw = read_pgm(root / "class_001" / "fp" / "000.pgm")
        assert np.array_equal(
            samples[1].fp.data[0, 0], raw.astype(np.float32) / np.float32(255))

    def test_missing_fv_file_names_the_orphan(self, pgm_tree):
        root = pgm_tree({0: 3, 1: 3}, drop=(1, "fv", 1))
        with pytest.raises(PairingError, match=r"fp[/\\]001\.pgm"):
            ingest_dir(root)

    def test_missing_fp_file(self, pgm_tree):
        root = pgm_tree({0: 2}, drop=(0, "fp", 0))
        with pytest.raises(PairingError, match=r"fv[/\\]000\.pgm"):
            ingest_dir(root)

    def test_empty_class(self, pgm_tree):
        root = pgm_tree({0: 2, 1: 0})
        with pytest.raises(EmptyClassError):
            ingest_dir(root)

    def test_missing_modality_dir(self, pgm_tree):
        root = pgm_tree({0: 1})
        import shutil
        shutil.rmtree(root / "class_000" / "fv")
        with pytest.raises(DataError, match="fv"):
            ingest_dir(root)

    def test_nonexistent_root(self, tmp_path):
        with pytest.raises(DataError):
            ingest_dir(tmp_path / "nope")

    def test_rootdir_without_classes(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(DataError):
            ingest_dir(empty)


class TestSynthSpec:
    def test_defaults(self):
        s = SynthSpec()
        assert s.grid == (4, 4) and s.classes == 16
        assert s.fp_size == (64, 96) and s.fv_size == (48, 80)
        assert s.noise_sigma == 0.1 and s.samples_per_class == 10

    def test_from_dict_coerces_pairs(self):
        s = SynthSpec.from_dict({"grid": [2, 3], "fp_size": [8, 9]})
        assert s.grid == (2, 3) and s.fp_size == (8, 9)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown synth spec"):
            SynthSpec.from_dict({"sigma": 0.1})

    def test_validation(self):
        with pytest.raises(ConfigError):
            SynthSpec(grid=(1, 4))
        with pytest.raises(ConfigError):
            SynthSpec(noise_sigma=-0.1)
        with pytest.raises(ConfigError):
            SynthSpec(samples_per_class=0)
        with pytest.raises(ConfigError):
            SynthSpec(fp_size=(0, 5))


class TestSynthesis:
    def test_count_order_and_shapes(self, tiny_spec, tiny_dataset):
        assert len(tiny_dataset) == tiny_spec.classes * tiny_spec.samples_per_class
        assert [s.label for s in tiny_dataset] == sorted(
            s.label for s in tiny_dataset)
        assert tiny_dataset[0].fp.dims == (1, 1, 24, 24)
        assert tiny_dataset[0].fv.dims == (1, 1, 20, 20)

    def test_deterministic_per_seed(self, tiny_spec):
        a = synth_generate(tiny_spec, Rng(99))
        b = synth_generate(tiny_spec, Rng(99))
        c = synth_generate(tiny_spec, Rng(100))
        assert all(np.array_equal(x.fp.data, y.fp.data) for x, y in zip(a, b))
        assert any(not np.array_equal(x.fv.data, y.fv.data)
                   for x, y in zip(a, c))

    def test_noise_rng_does_not_disturb_textures(self, tiny_spec):
        # textures are keyed off textures_seed alone, so changing the noise
        # stream moves individual samples but not the class structure
        a = synth_generate(tiny_spec, Rng(1))
        b = synth_generate(tiny_spec, Rng(2))
        noiseless = SynthSpec(grid=(2, 2), fp_size=(24, 24), fv_size=(20, 20),
                              noise_sigma=0.0, samples_per_class=1)
        base = synth_generate(noiseless, Rng(1))
        for d in (a, b):
            for s, t in zip(d[::10], base):
                assert np.mean(np.abs(s.fp.data - t.fp.data)) < 0.12

    def test_fp_keyed_by_row_fv_by_column(self):
        spec = SynthSpec(grid=(2, 3), fp_size=(16, 16), fv_size=(16, 16),
                         noise_sigma=0.0, samples_per_class=1)
        data = synth_generate(spec, Rng(5))
        by_label = {s.label: s for s in data}
        # labels 0,1,2 share row 0: identical fp, pairwise distinct fv
        assert np.array_equal(by_label[0].fp.data, by_label[1].fp.data)
        assert np.array_equal(by_label[1].fp.data, by_label[2].fp.data)
        assert not np.array_equal(by_label[0].fv.data, by_label[1].fv.data)
        # labels 0 and 3 share column 0: identical fv, distinct fp
        assert np.array_equal(by_label[0].fv.data, by_label[3].fv.data)
        assert not np.array_equal(by_label[0].fp.data, by_label[3].fp.data)

    def test_in_memory_equals_pgm_round_trip(self, tiny_spec, tmp_path):
        n = synth_write(tiny_spec, Rng(99), tmp_path / "d")
        assert n == 2 * tiny_spec.classes * tiny_spec.samples_per_class
        from_disk = ingest_dir(tmp_path / "d")
        in_mem = synth_generate(tiny_spec, Rng(99))
        assert len(from_disk) == len(in_mem)
        for a, b in zip(from_disk, in_mem):
            assert a.label == b.label
            assert np.array_equal(a.fp.data, b.fp.data)
            assert np.array_equal(a.fv.data, b.fv.data)

    def test_quantized_u8_values(self, tiny_spec):
        fp_u8, fv_u8 = synth_sample_u8(tiny_spec, Rng(99), 0, 0)
        assert fp_u8.dtype == np.uint8 and fp_u8.shape == (24, 24)
        assert fv_u8.dtype == np.uint8 and fv_u8.shape == (20, 20)

    def test_pixel_range(self, tiny_dataset):
        for s in tiny_dataset[:8]:
            for t in (s.fp, s.fv):
                assert t.data.min() >= 0.0 and t.data.max() <= 1.0

    def test_one_modality_cannot_separate_classes(self):
        """Centroid oracle: fp alone ties grid rows, fp+fv resolves cells."""
        spec = SynthSpec(grid=(3, 3), fp_size=(20, 20), fv_size=(20, 20),
                         noise_sigma=0.1, samples_per_class=8)
        data = synth_generate(spec, Rng(42))
        labels = np.array([s.label for s in data])
        fp_flat = np.stack([s.fp.data.ravel() for s in data])
        fv_flat = np.stack([s.fv.data.ravel() for s in data])
        both = np.concatenate([fp_flat, fv_flat], axis=1)
        tr = np.arange(len(data)) % 8 < 5
        te = ~tr
        acc_fp = np.mean(nearest_centroid(
            fp_flat[tr], labels[tr], fp_flat[te]) == labels[te])
        acc_both = np.mean(nearest_centroid(
            both[tr], labels[tr], both[te]) == labels[te])
        # fp sees only the row: ~1/3 ceiling on a 3x3 grid
        assert acc_fp <= 0.5
        assert acc_both >= 0.95
