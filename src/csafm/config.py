"""Run configuration: JSON schema, validation, and dataset resolution."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .data import SynthSpec, ingest_dir, synth_generate
from .errors import ConfigError
from .fusion import FusionVariant
from .model import read_fields
from .tensor import Rng, derive_seed

_MODALITIES = ("fused", "fp", "fv")
# JSON type of each config key (model.JSON_TYPES); from_dict reads dataset's two forms
_FIELDS = {
    "seed": "int", "dataset": "any", "variant": "str", "modality": "str", "r1": "int",
    "r2": "int", "lr": "float", "batch": "int", "epochs": "int", "split": "fractions",
    "width_multiplier": "float", "out_dir": "str",
}


@dataclass
class RunConfig:
    """Everything one training or evaluation run depends on.

    dataset is either a directory of PGM pairs (dataset_path) or a
    synthesis spec (synth); exactly one must be set. modality "fused"
    trains the two-branch model; "fp"/"fv" train a single-branch
    classifier on that modality alone.
    """

    seed: int = 0
    dataset_path: Optional[str] = None
    synth: Optional[SynthSpec] = None
    variant: FusionVariant = FusionVariant.CSAFM
    modality: str = "fused"
    r1: int = 16
    r2: int = 16
    lr: float = 1e-4
    batch: int = 32
    epochs: int = 100
    split: tuple[float, float, float] = (0.3, 0.4, 0.3)
    width_multiplier: float = 1.0
    out_dir: str = "runs"
    # not a field or a config key: perfbench/workloads.py::_build reads it
    literal_double_mul = False

    def __post_init__(self):
        if (self.dataset_path is None) == (self.synth is None):
            raise ConfigError("config needs exactly one of dataset path or synth spec")
        if self.dataset_path == "":
            # ingest_dir("") would read the working directory as the dataset
            raise ConfigError("dataset path is empty")
        if self.modality not in _MODALITIES:
            raise ConfigError(f"modality must be one of {_MODALITIES}, got {self.modality!r}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if self.r1 < 1 or self.r2 < 1:
            raise ConfigError(f"reduction ratios must be >= 1, got r1={self.r1} r2={self.r2}")
        if not (math.isfinite(self.width_multiplier) and self.width_multiplier > 0):
            raise ConfigError(
                f"width_multiplier must be finite and > 0, got {self.width_multiplier}")
        if len(self.split) != 3:
            raise ConfigError(f"split needs three fractions, got {self.split}")
        if not all(f > 0 for f in self.split):
            raise ConfigError(f"split fractions must be positive, got {self.split}")
        if not abs(sum(self.split) - 1.0) <= 1e-9:
            raise ConfigError(f"split fractions sum to {sum(self.split)}, need 1.0")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        kw = read_fields(d, _FIELDS, "config", ConfigError)
        ds = kw.pop("dataset", None)
        if ds is None:
            kw["synth"] = SynthSpec()
        elif isinstance(ds, str):
            kw["dataset_path"] = ds
        elif isinstance(ds, dict) and set(ds) == {"synth"}:
            kw["synth"] = SynthSpec.from_dict(ds["synth"])
        else:
            raise ConfigError('dataset must be a path string or {"synth": {...}}')
        if "variant" in kw:
            kw["variant"] = FusionVariant.from_tag(kw["variant"])
        return cls(**kw)


def load_json(path) -> dict:
    """Parse a JSON file, reporting the line/column on syntax errors."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None


def load_config(path) -> RunConfig:
    return RunConfig.from_dict(load_json(path))


def resolve_dataset(cfg: RunConfig):
    """Materialize the configured dataset as a list of paired samples.

    Synthetic noise derives from the run seed, so different seeds see
    different noise instances over the same fixed textures.
    """
    if cfg.dataset_path is not None:
        return ingest_dir(cfg.dataset_path)
    return synth_generate(cfg.synth, Rng(derive_seed(cfg.seed, "synthdata")))
