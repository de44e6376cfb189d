"""Paired two-modality datasets: directory ingestion and synthesis.

Directory layout: root/<class>/fp/*.pgm and root/<class>/fv/*.pgm with
matching filenames inside each class. Images are 8-bit binary PGM (P5,
maxval 255); labels follow sorted class-directory order.

Synthetic recipe (regenerable by oracles): classes form an a x b grid.
Class (i, j) draws its fp image from a texture keyed only by the row i
and its fv image from a texture keyed only by the column j, so one
modality alone can at best identify the row (or column) while the pair
identifies the class. A texture for key k of modality m at size (H, W) is

    rng   = Rng(derive_seed(textures_seed, m, k))
    u6    = rng.uniform(6)   in order: fy, fx, phase, cy, cx, radius
    yy,xx = row/(H-1), col/(W-1) grids (0 when the extent is 1)
    base  = 0.5 + 0.35 sin(2 pi ((1+3 fy) yy + (1+3 fx) xx + phase))
    sign  = +1 if rng.uniform(1)[0] >= 0.5 else -1
    blob  = sign * 0.35 exp(-((yy-(0.2+0.6 cy))^2 + (xx-(0.2+0.6 cx))^2)
                            / (2 (0.1+0.2 radius)^2))
    clip(base + blob, 0.05, 0.95)

Each sample adds N(0, noise_sigma^2) pixel noise from a stream keyed by
(label, sample index, modality), clips to [0,1], and quantizes to 8-bit
levels so in-memory samples equal their PGM round trip exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    EmptyClassError,
    PairingError,
    PgmFormatError,
)
from .model import read_fields
from .tensor import Rng, Tensor, derive_seed

# JSON type of each synthesis spec key (model.JSON_TYPES)
_SPEC_TYPES = {"grid": "size", "fp_size": "size", "fv_size": "size",
               "noise_sigma": "number", "textures_seed": "int", "samples_per_class": "int"}


@dataclass
class PairedSample:
    """One labeled (fingerprint, vein) image pair, pixels in [0,1]."""

    fp: Tensor
    fv: Tensor
    label: int


@dataclass
class SynthSpec:
    grid: tuple[int, int] = (4, 4)
    fp_size: tuple[int, int] = (64, 96)
    fv_size: tuple[int, int] = (48, 80)
    noise_sigma: float = 0.1
    textures_seed: int = 1234
    samples_per_class: int = 10

    def __post_init__(self):
        a, b = self.grid
        if a < 2 or b < 2:
            raise ConfigError(f"grid sides must be >= 2, got {self.grid}")
        if not self.noise_sigma >= 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.samples_per_class < 1:
            raise ConfigError("samples_per_class must be >= 1")
        for nm in ("fp_size", "fv_size"):
            h, w = getattr(self, nm)
            if h < 1 or w < 1:
                raise ConfigError(f"{nm} must be positive, got {(h, w)}")

    @property
    def classes(self) -> int:
        return self.grid[0] * self.grid[1]

    @classmethod
    def from_dict(cls, d: dict) -> "SynthSpec":
        return cls(**read_fields(d, _SPEC_TYPES, "synth spec", ConfigError))


# -- PGM (P5) --------------------------------------------------------------

def _pgm_tokens(buf: bytes, path, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace/comment-delimited integers; return (values, offset)."""
    vals: list[int] = []
    i = 0
    while len(vals) < count:
        if i >= len(buf):
            raise PgmFormatError(f"{path}: header ended early")
        ch = buf[i : i + 1]
        if ch.isspace():
            i += 1
        elif ch == b"#":
            while i < len(buf) and buf[i : i + 1] not in (b"\n", b"\r"):
                i += 1
        elif ch.isdigit():
            j = i
            while j < len(buf) and buf[j : j + 1].isdigit():
                j += 1
            vals.append(int(buf[i:j]))
            i = j
        else:
            raise PgmFormatError(f"{path}: unexpected byte {ch!r} in header")
    return vals, i


def read_pgm(path) -> np.ndarray:
    """Load a binary (P5) 8-bit PGM as a uint8 (h, w) array."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P5":
        raise PgmFormatError(f"{path}: not a binary PGM (magic {buf[:2]!r})")
    (w, h, maxval), i = _pgm_tokens(buf[2:], path, 3)
    i += 2
    if w < 1 or h < 1:
        raise PgmFormatError(f"{path}: width {w}, height {h}; both must be >= 1")
    if maxval != 255:
        raise PgmFormatError(f"{path}: maxval {maxval}, only 255 supported")
    if i >= len(buf) or not buf[i : i + 1].isspace():
        raise PgmFormatError(f"{path}: missing whitespace before pixel data")
    i += 1
    data = buf[i : i + w * h]
    if len(data) != w * h:
        raise PgmFormatError(
            f"{path}: expected {w * h} pixel bytes, found {len(data)}"
        )
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w)


def write_pgm(path, img: np.ndarray) -> None:
    """Write a uint8 (h, w) array as binary PGM with maxval 255."""
    if img.ndim != 2 or img.dtype != np.uint8:
        raise DataError(f"write_pgm needs a uint8 (h,w) array, got {img.dtype}{img.shape}")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(img.tobytes())


def preprocess(img) -> Tensor:
    """uint8 (h,w) -> float32 (1,1,h,w) scaled by 1/255."""
    arr = np.asarray(img)
    if arr.ndim != 2:
        raise DataError(f"expected a 2-d grayscale image, got shape {arr.shape}")
    out = (arr.astype(np.float32) / np.float32(255.0)).reshape(1, 1, *arr.shape)
    return Tensor(out)


# -- directory ingestion -----------------------------------------------------

def _modality_files(cdir: Path, modality: str) -> dict[str, Path]:
    mdir = cdir / modality
    if not mdir.is_dir():
        raise DataError(f"{cdir}: missing {modality}/ directory")
    return {p.name: p for p in sorted(mdir.iterdir()) if p.is_file()}


def ingest_dir(root) -> list[PairedSample]:
    """Load every class directory under root into labeled pairs."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} is not a directory")
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise DataError(f"dataset root {root} has no class directories")
    samples: list[PairedSample] = []
    for label, cdir in enumerate(class_dirs):
        fps = _modality_files(cdir, "fp")
        fvs = _modality_files(cdir, "fv")
        for name in fps:
            if name not in fvs:
                raise PairingError(f"{cdir / 'fp' / name}: no matching fv image")
        for name in fvs:
            if name not in fps:
                raise PairingError(f"{cdir / 'fv' / name}: no matching fp image")
        if not fps:
            raise EmptyClassError(f"{cdir}: class directory has no image pairs")
        for name in sorted(fps):
            samples.append(PairedSample(
                fp=preprocess(read_pgm(fps[name])),
                fv=preprocess(read_pgm(fvs[name])),
                label=label,
            ))
    return samples


# -- synthesis ---------------------------------------------------------------

def _texture(textures_seed: int, modality: str, key: int, size) -> np.ndarray:
    """The deterministic base pattern for one (modality, key); float64 in [0,1]."""
    h, w = size
    rng = Rng(derive_seed(textures_seed, modality, key))
    fy, fx, phase, cy, cx, radius = rng.uniform(6)
    yy = (np.arange(h, dtype=np.float64) / (h - 1 if h > 1 else 1)).reshape(h, 1)
    xx = (np.arange(w, dtype=np.float64) / (w - 1 if w > 1 else 1)).reshape(1, w)
    base = 0.5 + 0.35 * np.sin(
        2.0 * np.pi * ((1 + 3 * fy) * yy + (1 + 3 * fx) * xx + phase)
    )
    sign = 1.0 if rng.uniform(1)[0] >= 0.5 else -1.0
    r = 0.1 + 0.2 * radius
    blob = sign * 0.35 * np.exp(
        -(((yy - (0.2 + 0.6 * cy)) ** 2) + ((xx - (0.2 + 0.6 * cx)) ** 2)) / (2 * r * r)
    )
    return np.clip(base + blob, 0.05, 0.95)


def _quantize(img: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)


def synth_sample_u8(spec: SynthSpec, rng: Rng, label: int, idx: int) -> tuple[np.ndarray, np.ndarray]:
    """The 8-bit (fp, fv) image pair for one sample, prior to scaling."""
    a, b = spec.grid
    i, j = divmod(label, b)
    noise_fp = rng.spawn(label, idx, "fp")
    noise_fv = rng.spawn(label, idx, "fv")
    fp = _texture(spec.textures_seed, "fp", i, spec.fp_size)
    fv = _texture(spec.textures_seed, "fv", j, spec.fv_size)
    if spec.noise_sigma > 0:
        fp = fp + spec.noise_sigma * noise_fp.normal(fp.size).reshape(fp.shape)
        fv = fv + spec.noise_sigma * noise_fv.normal(fv.size).reshape(fv.shape)
    return _quantize(np.clip(fp, 0.0, 1.0)), _quantize(np.clip(fv, 0.0, 1.0))


def synth_generate(spec: SynthSpec, rng: Rng) -> list[PairedSample]:
    """All samples_per_class * classes pairs, class-major order."""
    out: list[PairedSample] = []
    for label in range(spec.classes):
        for idx in range(spec.samples_per_class):
            fp_u8, fv_u8 = synth_sample_u8(spec, rng, label, idx)
            out.append(PairedSample(fp=preprocess(fp_u8), fv=preprocess(fv_u8),
                                    label=label))
    return out


def synth_write(spec: SynthSpec, rng: Rng, out_dir) -> int:
    """Write the synthetic set as a PGM directory tree; returns file count."""
    out_dir = Path(out_dir)
    n = 0
    for label in range(spec.classes):
        cdir = out_dir / f"class_{label:03d}"
        (cdir / "fp").mkdir(parents=True, exist_ok=True)
        (cdir / "fv").mkdir(parents=True, exist_ok=True)
        for idx in range(spec.samples_per_class):
            fp_u8, fv_u8 = synth_sample_u8(spec, rng, label, idx)
            write_pgm(cdir / "fp" / f"{idx:03d}.pgm", fp_u8)
            write_pgm(cdir / "fv" / f"{idx:03d}.pgm", fv_u8)
            n += 2
    return n
