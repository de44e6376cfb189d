"""Release gates. Each test is one criterion; run with -v for a line per gate.

The criteria that take seconds are csafm.verify.CHECKS, the list that
`csafm verify` runs; test_release_check runs each entry as its own test.
The training gate (test_fused_variants_beat_unimodal_baselines) drives the
real CLI on the default 16-class synthetic set three times and takes one to
two minutes on a 2-vCPU VM.
"""

import json
import time

import pytest

from csafm import FusionVariant
from csafm.cli import main
from csafm.verify import CHECKS

# seconds that the named checks may take together
BUDGETS = [
    (30.0, {"conv_forward_oracle", "pool_forward_oracle"}),
    (120.0, {"conv_gradcheck", "pwconv_gradcheck", "pool_gradcheck", "batchnorm_gradcheck",
             "activation_gradchecks", "gap_oracle", "fc_gradcheck", "softmax_xent_grad",
             "backbone_gradcheck", "fusion_gradcheck", "e2e_gradcheck"}),
]
assert set().union(*(names for _, names in BUDGETS)) <= dict(CHECKS).keys()


@pytest.fixture(scope="module")
def spent():
    """Seconds taken so far by the checks of each budget."""
    return [0.0] * len(BUDGETS)


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_release_check(name, check, spent):
    t0 = time.monotonic()
    check()
    for i, (budget, names) in enumerate(BUDGETS):
        if name in names:
            spent[i] += time.monotonic() - t0
            assert spent[i] < budget, f"{sorted(names)} took {spent[i]:.1f} s together"


def _train_cli(cfg: dict, path, out) -> dict:
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path), "--out", str(out)]) == 0
    return json.loads((out / "summary.json").read_text())


def test_fused_variants_beat_unimodal_baselines(tmp_path):
    """Default 16-class synthetic task, three seeds: unimodal stalls at or
    below 40 CIR, every fused variant clears both baselines by 20 points,
    and full fusion reaches 90+ without trailing plain addition by more
    than 2 points on at least two seeds. Budget: 60 epochs, 10 minutes."""
    t0 = time.monotonic()
    base = {
        "dataset": {"synth": {
            "grid": [4, 4], "fp_size": [64, 96], "fv_size": [48, 80],
            "noise_sigma": 0.1, "samples_per_class": 10,
        }},
        "r1": 4, "r2": 4, "lr": 0.003, "batch": 16, "epochs": 40,
        "width_multiplier": 0.125,
    }
    assert base["epochs"] <= 60
    strong_csafm = 0
    for seed in (7, 8, 9):
        uni = {}
        for modality in ("fp", "fv"):
            cfg = {**base, "modality": modality, "seed": seed}
            out = tmp_path / f"s{seed}_{modality}"
            uni[modality] = _train_cli(
                cfg, tmp_path / f"s{seed}_{modality}.json", out)["test_cir"]
        cfg_path = tmp_path / f"s{seed}_ablate.json"
        cfg_path.write_text(json.dumps({**base, "modality": "fused", "seed": seed}))
        out = tmp_path / f"s{seed}_ablate"
        assert main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "variant,best_val_cir,test_cir"
        assert len(lines) == 8
        fused = {ln.split(",")[0]: float(ln.split(",")[2]) for ln in lines[1:]}
        assert set(fused) == {v.name for v in FusionVariant}

        assert uni["fp"] <= 40.0, f"seed {seed}: fp baseline {uni['fp']}"
        assert uni["fv"] <= 40.0, f"seed {seed}: fv baseline {uni['fv']}"
        floor = max(uni.values()) + 20.0
        for name, score in fused.items():
            assert score >= floor, f"seed {seed}: {name} {score} < {floor}"
        if fused["CSAFM"] >= 90.0 and fused["CSAFM"] >= fused["SERIAL_SUM"] - 2.0:
            strong_csafm += 1
    assert strong_csafm >= 2
    assert time.monotonic() - t0 < 600.0


def test_training_reproducibility(tmp_path, config_file):
    path, _ = config_file()
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        assert main(["train", "--config", str(path), "--out", str(d)]) == 0
    assert (d1 / "history.csv").read_bytes() == (d2 / "history.csv").read_bytes()
    assert (d1 / "weights.csafm").read_bytes() == (d2 / "weights.csafm").read_bytes()
    s1, s2 = (json.loads((d / "summary.json").read_text()) for d in (d1, d2))
    s1.pop("wall_seconds"), s2.pop("wall_seconds")
    assert s1 == s2
