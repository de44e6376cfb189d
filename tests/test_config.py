import json

import numpy as np
import pytest

from csafm import (
    ConfigError,
    FusionVariant,
    RunConfig,
    SynthSpec,
    load_config,
    resolve_dataset,
)
from csafm.config import load_json


def synth_cfg(**kw):
    kw.setdefault("synth", SynthSpec())
    return RunConfig(**kw)


class TestDefaults:
    def test_field_defaults(self):
        cfg = synth_cfg()
        assert cfg.seed == 0
        assert cfg.variant is FusionVariant.CSAFM
        assert cfg.modality == "fused"
        assert (cfg.r1, cfg.r2) == (16, 16)
        assert cfg.lr == 1e-4
        assert cfg.batch == 32
        assert cfg.epochs == 100
        assert cfg.split == (0.3, 0.4, 0.3)
        assert cfg.width_multiplier == 1.0
        assert cfg.literal_double_mul is False
        assert cfg.out_dir == "runs"

    def test_from_dict_defaults_to_synth_dataset(self):
        cfg = RunConfig.from_dict({})
        assert cfg.dataset_path is None
        assert cfg.synth == SynthSpec()


class TestValidation:
    def test_dataset_xor(self):
        with pytest.raises(ConfigError, match="exactly one"):
            RunConfig()
        with pytest.raises(ConfigError, match="exactly one"):
            RunConfig(dataset_path="d", synth=SynthSpec())

    def test_modality(self):
        with pytest.raises(ConfigError, match="modality"):
            synth_cfg(modality="vein")

    def test_numeric_bounds(self):
        for kw in ({"batch": 0}, {"epochs": 0}, {"lr": -1.0},
                   {"r1": 0}, {"r2": 0}, {"width_multiplier": 0.0}):
            with pytest.raises(ConfigError):
                synth_cfg(**kw)

    def test_split_validation(self):
        with pytest.raises(ConfigError, match="three"):
            synth_cfg(split=(0.5, 0.5))
        with pytest.raises(ConfigError, match="positive"):
            synth_cfg(split=(0.0, 0.5, 0.5))
        with pytest.raises(ConfigError, match="sum"):
            synth_cfg(split=(0.3, 0.3, 0.3))

    def test_zero_lr_allowed(self):
        assert synth_cfg(lr=0.0).lr == 0.0


class TestFromDict:
    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_dict({"learning_rate": 0.1})

    def test_dataset_forms(self, tmp_path):
        assert RunConfig.from_dict({"dataset": "some/dir"}).dataset_path == "some/dir"
        assert RunConfig.from_dict(
            {"dataset": {"path": "p"}}).dataset_path == "p"
        cfg = RunConfig.from_dict({"dataset": {"synth": {"grid": [2, 2]}}})
        assert cfg.synth.grid == (2, 2)
        with pytest.raises(ConfigError, match="dataset must be"):
            RunConfig.from_dict({"dataset": {"path": "p", "synth": {}}})
        with pytest.raises(ConfigError, match="dataset must be"):
            RunConfig.from_dict({"dataset": 3})

    def test_variant_tag_parsing(self):
        cfg = RunConfig.from_dict({"variant": "SERIAL_SUM"})
        assert cfg.variant is FusionVariant.SERIAL_SUM
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"variant": "BOGUS"})

    def test_bool_strictness(self):
        with pytest.raises(ConfigError, match="true or false"):
            RunConfig.from_dict({"literal_double_mul": 1})
        assert RunConfig.from_dict(
            {"literal_double_mul": True}).literal_double_mul is True

    def test_bad_scalar_reports_key(self):
        with pytest.raises(ConfigError, match="lr"):
            RunConfig.from_dict({"lr": "fast"})

    def test_split_must_be_triple_list(self):
        with pytest.raises(ConfigError, match="split"):
            RunConfig.from_dict({"split": 0.3})
        cfg = RunConfig.from_dict({"split": [0.5, 0.2, 0.3]})
        assert cfg.split == (0.5, 0.2, 0.3)

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            RunConfig.from_dict([1, 2])


class TestLoadJson:
    def test_happy_path(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"seed": 3}))
        assert load_config(p).seed == 3

    def test_syntax_error_names_position(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{\n "seed": }')
        with pytest.raises(ConfigError, match="line 2 column 10"):
            load_json(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_json(tmp_path / "none.json")


class TestResolveDataset:
    def test_synth_noise_keyed_by_run_seed(self, tiny_spec):
        a = resolve_dataset(RunConfig(seed=1, synth=tiny_spec))
        b = resolve_dataset(RunConfig(seed=1, synth=tiny_spec))
        c = resolve_dataset(RunConfig(seed=2, synth=tiny_spec))
        assert all(np.array_equal(x.fp.data, y.fp.data) for x, y in zip(a, b))
        assert any(not np.array_equal(x.fp.data, y.fp.data)
                   for x, y in zip(a, c))

    def test_directory_dataset(self, pgm_tree):
        root = pgm_tree({0: 2, 1: 2})
        samples = resolve_dataset(RunConfig(dataset_path=str(root)))
        assert len(samples) == 4





class TestRejectsBadValues:
    """Values that once trained wrongly, truncated or ended in a traceback."""

    @pytest.mark.parametrize("d,key", [
        ({"lr": "nan"}, "lr"),
        ({"width_multiplier": "nan"}, "width_multiplier"),
        ({"split": ["a", 0.4, 0.3]}, "split"),
        ({"split": [None, 0.4, 0.3]}, "split"),
        ({"dataset": {"synth": {"grid": ["a", 2]}}}, "synth spec"),
        ({"dataset": {"synth": {"fp_size": [None, 8]}}}, "synth spec"),
        ({"dataset": {"synth": {"fv_size": [8.5, 8]}}}, "synth spec"),
        ({"dataset": {"synth": {"samples_per_class": "4"}}}, "synth spec"),
        ({"dataset": {"synth": 5}}, "synth spec"),
        ({"dataset": {"path": 5}}, "dataset"),
        ({"batch": 2.7}, "batch"),
        ({"r1": 1.5}, "r1"),
        ({"seed": True}, "seed"),
        ({"epochs": "3"}, "epochs"),
    ])
    def test_bad_json_value(self, d, key):
        with pytest.raises(ConfigError, match=key):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("kw", [{"lr": float("nan")}, {"width_multiplier": float("nan")},
                                    {"split": (float("nan"), 0.5, 0.5)}])
    def test_nan_field(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            synth_cfg(**kw)

    @pytest.mark.parametrize("ds", ["", {"path": ""}], ids=["string", "path_object"])
    def test_empty_dataset_path(self, ds):
        with pytest.raises(ConfigError, match="dataset path is empty"):
            RunConfig.from_dict({"dataset": ds})

    def test_empty_dataset_path_does_not_read_working_dir(self, config_file, pgm_tree,
                                                          monkeypatch, capsys):
        # run from a directory of class folders, an empty path once trained on them
        from csafm.cli import main
        path, _ = config_file(dataset="", epochs=1)
        monkeypatch.chdir(pgm_tree({label: 10 for label in range(4)}))
        assert main(["train", "--config", str(path)]) == 2
        assert "dataset path is empty" in capsys.readouterr().err
        assert not (path.parent / "run" / "summary.json").exists()

    def test_nan_lr_run_exits_2(self, config_file):
        from csafm.cli import main
        path, _ = config_file(lr="nan")
        assert main(["train", "--config", str(path)]) == 2
        assert not (path.parent / "run" / "summary.json").exists()
