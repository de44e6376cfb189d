"""Shared fixtures: tiny datasets, configs, and disk layouts."""

import json
import struct

import numpy as np
import pytest

from csafm import Rng, SynthSpec, synth_generate


@pytest.fixture
def rng():
    return Rng(20240817)


@pytest.fixture
def tiny_spec():
    # 4 classes, small images: fast enough for per-test training loops
    return SynthSpec(grid=(2, 2), fp_size=(24, 24), fv_size=(20, 20),
                     noise_sigma=0.1, samples_per_class=10)


@pytest.fixture
def tiny_dataset(tiny_spec):
    return synth_generate(tiny_spec, Rng(99))


def make_config_dict(out_dir, **overrides):
    cfg = {
        "seed": 5,
        "dataset": {"synth": {
            "grid": [2, 2], "fp_size": [24, 24], "fv_size": [20, 20],
            "noise_sigma": 0.1, "samples_per_class": 10,
        }},
        "modality": "fused",
        "variant": "CSAFM",
        "r1": 4,
        "r2": 4,
        "lr": 0.003,
        "batch": 8,
        "epochs": 2,
        "width_multiplier": 0.125,
        "out_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture
def config_file(tmp_path):
    """Write a tiny-run config JSON; returns (path, dict) after overrides."""

    def write(**overrides):
        cfg = make_config_dict(tmp_path / "run", **overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path, cfg

    return write


@pytest.fixture
def pgm_tree(tmp_path):
    """Build class_XXX/fp|fv/NNN.pgm trees from an {label: count} spec."""

    def build(counts, drop=None):
        from csafm import write_pgm
        root = tmp_path / "data"
        r = np.random.default_rng(7)
        for label, n in counts.items():
            for modality, size in (("fp", (12, 16)), ("fv", (10, 14))):
                d = root / f"class_{label:03d}" / modality
                d.mkdir(parents=True, exist_ok=True)
                for i in range(n):
                    if drop == (label, modality, i):
                        continue
                    img = r.integers(0, 256, size=size, dtype=np.uint8)
                    write_pgm(d / f"{i:03d}.pgm", img)
        return root

    return build


@pytest.fixture
def rewrite_header():
    """rewrite(path, edit): apply edit(header) to a saved weight file's JSON
    header, keeping the header length field true."""

    def rewrite(path, edit):
        raw = path.read_bytes()
        hlen = struct.unpack_from("<I", raw, 8)[0]
        header = json.loads(raw[12 : 12 + hlen])
        edit(header)
        hb = json.dumps(header, sort_keys=True).encode()
        path.write_bytes(raw[:4] + struct.pack("<II", 1, len(hb)) + hb + raw[12 + hlen :])

    return rewrite
