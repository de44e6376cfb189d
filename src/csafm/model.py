"""Full two-branch model, its unimodal counterpart, and weight files.

Weight file layout, exact to the byte:

    magic   4 bytes  b"CSAF"
    version u32 LE   1
    hlen    u32 LE   byte length of the JSON header
    header  hlen bytes, UTF-8 JSON:
            {"meta": {...build settings...},
             "tensors": [{"name", "dims", "kind"}...]}  kind: param | running_stat
    blobs   one per header entry, in order: four u32 LE dims then
            row-major little-endian float32 data

Running statistics are stored as (1,c,1,1) blobs. load() rebuilds the
model from "meta" through the same build and init code as training, with
zeros for every He draw, and the draws together may not pass the float32
values the blobs hold: a meta that implies more raises
WeightFileStructureError before the build allocates it. It then fills
every tensor in header order, so a round trip is bitwise exact; a meta
that implies fewer values than the file holds fails that walk, as a
WeightFileStructureError or WeightFileShapeError.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import dataclass
from typing import Union

import numpy as np

from .backbone import BackboneState, backbone_features, feature_shape
from .errors import (
    ConfigError,
    DimensionError,
    ParameterError,
    WeightFileError,
    WeightFileMagicError,
    WeightFileShapeError,
    WeightFileStructureError,
    WeightFileTruncatedError,
    WeightFileValueError,
    WeightFileVersionError,
)
from .fusion import FusionState, FusionVariant, ablation_fuse, standardize
from .ops import StateTree, flatten, fully_connected, he_fc
from .tensor import Rng, Tensor

MAGIC = b"CSAF"
VERSION = 1
_DIMS = struct.Struct("<4I")  # a blob's dims; its float32 data follows


def _head(d_in: int, classes: int, rng: Rng, dtype) -> tuple[Tensor, Tensor]:
    """The flatten+FC classifier weight and bias on d_in features, for either kind."""
    if classes < 2:
        raise ConfigError(f"need at least 2 classes, got {classes}")
    return he_fc(d_in, classes, rng, dtype)


def _classify(model: AnyModel, z: Tensor) -> Tensor:
    """Logits (n, classes, 1, 1) of the head on the feature map z."""
    flat = flatten(z)
    if flat.c != model.head_w.dims[1]:
        raise DimensionError(
            f"features flatten to {flat.c}, head expects "
            f"{model.head_w.dims[1]}; image sizes drifted from build time"
        )
    return fully_connected(flat, model.head_w, model.head_b)


@dataclass
class FpvCsafmModel(StateTree):
    """Two backbones, a fusion block, and a flatten+FC classifier head."""

    fp_backbone: BackboneState
    fv_backbone: BackboneState
    fusion: FusionState
    head_w: Tensor
    head_b: Tensor
    classes: int
    fp_size: tuple[int, int]
    fv_size: tuple[int, int]
    r1: int
    r2: int
    width_multiplier: float

    @classmethod
    def build(
        cls,
        classes: int,
        fp_size: tuple[int, int],
        fv_size: tuple[int, int],
        variant: FusionVariant,
        rng: Rng,
        r1: int = 16,
        r2: int = 16,
        width_multiplier: float = 1.0,
        literal_double_mul: bool = False,
        dtype=np.float32,
    ) -> "FpvCsafmModel":
        # spawn() leaves rng untouched, so the order of the parts moves no draw;
        # the head (the fused map, cropped to the smaller branch, flattened)
        # comes first because load's draw budget relies on it (_ZeroDraws)
        c, h1, w1 = feature_shape(*fp_size, width_multiplier)
        _, h2, w2 = feature_shape(*fv_size, width_multiplier)
        head_c = 2 * c if variant is FusionVariant.PARALLEL_CONCAT else c
        head_w, head_b = _head(head_c * min(h1, h2) * min(w1, w2), classes,
                               rng.spawn("head"), dtype)
        fusion = FusionState.init(variant, c, r1, r2, rng.spawn("fusion"),
                                  literal_double_mul=literal_double_mul, dtype=dtype)
        return cls(fp_backbone=BackboneState.init(rng.spawn("fp"), width_multiplier, dtype=dtype),
                   fv_backbone=BackboneState.init(rng.spawn("fv"), width_multiplier, dtype=dtype),
                   fusion=fusion, head_w=head_w, head_b=head_b, classes=classes,
                   fp_size=tuple(fp_size), fv_size=tuple(fv_size),
                   r1=r1, r2=r2, width_multiplier=width_multiplier)

    @property
    def image_sizes(self) -> dict[str, tuple[int, int]]:
        return {"fp": self.fp_size, "fv": self.fv_size}

    def forward_batch(self, fp_img: Tensor, fv_img: Tensor, mode: str) -> Tensor:
        if fp_img.n != fv_img.n:
            raise DimensionError(
                f"batch sizes differ: {fp_img.n} vs {fv_img.n}"
            )
        a = backbone_features(fp_img, self.fp_backbone, mode)
        b = backbone_features(fv_img, self.fv_backbone, mode)
        a, b = standardize(a, b)
        return _classify(self, ablation_fuse(a, b, self.fusion, mode))

    def named(self):
        yield from self.fp_backbone.named_under("fp")
        yield from self.fv_backbone.named_under("fv")
        yield from self.fusion.named_under("fusion")
        yield "head.weight", self.head_w, "param"
        yield "head.bias", self.head_b, "param"

    def meta(self) -> dict:
        return {
            "kind": "fused",
            "classes": self.classes,
            "variant": self.fusion.variant.name,
            "r1": self.r1,
            "r2": self.r2,
            "width_multiplier": self.width_multiplier,
            "literal_double_mul": self.fusion.literal_double_mul,
            "fp_size": list(self.fp_size),
            "fv_size": list(self.fv_size),
        }


@dataclass
class UnimodalClassifier(StateTree):
    """Single backbone with a classifier head, for one-modality baselines."""

    backbone: BackboneState
    head_w: Tensor
    head_b: Tensor
    classes: int
    image_size: tuple[int, int]
    modality: str
    width_multiplier: float

    @classmethod
    def build(
        cls,
        classes: int,
        image_size: tuple[int, int],
        modality: str,
        rng: Rng,
        width_multiplier: float = 1.0,
        dtype=np.float32,
    ) -> "UnimodalClassifier":
        if modality not in ("fp", "fv"):
            raise ConfigError(f"modality must be 'fp' or 'fv', got {modality!r}")
        rng = rng.spawn(modality)
        # the head first, as in FpvCsafmModel.build
        head_w, head_b = _head(math.prod(feature_shape(*image_size, width_multiplier)),
                               classes, rng.spawn("head"), dtype)
        return cls(backbone=BackboneState.init(rng, width_multiplier, dtype=dtype),
                   head_w=head_w, head_b=head_b, classes=classes,
                   image_size=tuple(image_size), modality=modality,
                   width_multiplier=width_multiplier)

    @property
    def image_sizes(self) -> dict[str, tuple[int, int]]:
        return {self.modality: self.image_size}

    def forward_batch(self, fp_img: Tensor, fv_img: Tensor, mode: str) -> Tensor:
        img = fp_img if self.modality == "fp" else fv_img
        return _classify(self, backbone_features(img, self.backbone, mode))

    def named(self):
        yield from self.backbone.named_under(self.modality)
        yield f"{self.modality}.head.weight", self.head_w, "param"
        yield f"{self.modality}.head.bias", self.head_b, "param"

    def meta(self) -> dict:
        return {
            "kind": "unimodal",
            "classes": self.classes,
            "modality": self.modality,
            "width_multiplier": self.width_multiplier,
            "image_size": list(self.image_size),
        }


AnyModel = Union[FpvCsafmModel, UnimodalClassifier]


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """A finite float, or an int that float() converts without overflow."""
    return (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max


# JSON type name -> (check, conversion of a value that passes, or None to keep it)
JSON_TYPES = {
    "int": (_is_int, None),
    "number": (_is_number, None),
    "float": (_is_number, float),
    "bool": (lambda v: isinstance(v, bool), None),
    "str": (lambda v: isinstance(v, str), None),
    "size": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)), tuple),
    "fractions": (lambda v: isinstance(v, list) and len(v) == 3 and all(map(_is_number, v)),
                  lambda v: tuple(map(float, v))),
    "any": (lambda v: True, None),
}


def read_fields(d, types: dict, what: str, error: type, *, required: bool = False,
                closed: bool = True) -> dict:
    """The keys of JSON object d that types names, each checked against its
    JSON_TYPES entry and converted by it; what names d in error messages.
    required: every key must be present; closed: no other key may be."""
    if not isinstance(d, dict):
        raise error(f"{what} must be a JSON object, got {type(d).__name__}")
    extra = set(d) - set(types)
    if closed and extra:
        raise error(f"unknown {what} keys: {sorted(extra)}")
    out = {}
    for key, want in types.items():
        if key not in d:
            if required:
                raise error(f"{what} lacks {key!r}")
            continue
        check, convert = JSON_TYPES[want]
        if not check(d[key]):
            raise error(f"{what} {key!r} is {d[key]!r}, expected "
                        f"{'true or false' if want == 'bool' else want}")
        out[key] = convert(d[key]) if convert else d[key]
    return out


# kind -> (builder, {meta key: JSON type}); the keys are the builder's keyword arguments
_KINDS = {
    "fused": (FpvCsafmModel, {
        "classes": "int", "fp_size": "size", "fv_size": "size", "variant": "str",
        "r1": "int", "r2": "int", "width_multiplier": "number", "literal_double_mul": "bool",
    }),
    "unimodal": (UnimodalClassifier, {
        "classes": "int", "image_size": "size", "modality": "str", "width_multiplier": "number",
    }),
}


def _meta_args(meta, path) -> tuple[str, dict]:
    """(kind, keyword arguments of that kind's build) read from a header meta.
    Values other than sizes and the variant pass through as the file holds
    them, so a reloaded file saves the same bytes."""
    what = f"{path}: header meta"
    kind = read_fields(meta, {"kind": "str"}, what, WeightFileStructureError,
                       required=True, closed=False)["kind"]
    if kind not in _KINDS:
        raise WeightFileStructureError(f"{path}: unknown model kind {kind!r} in header")
    args = read_fields(meta, _KINDS[kind][1], what, WeightFileStructureError,
                       required=True, closed=False)
    if "variant" in args:
        args["variant"] = FusionVariant.from_tag(args["variant"])
    return kind, args


class _ZeroDraws:
    """The Rng load builds with: every draw is zeros, since the file's values
    replace them, and the draws together may not pass the float32 values the
    file holds, so a forged size in the meta cannot make the build allocate
    without bound. The bound holds because every array larger than a channel
    count is drawn (conv and FC weights), each array that is not drawn (a bias
    or a batchnorm vector) is no larger than the draw just before it, and both
    model kinds draw their head, which the class count and image sizes scale,
    first."""

    def __init__(self, budget: int, path):
        self.budget, self.path = budget, path

    def spawn(self, *tags) -> "_ZeroDraws":
        return self

    def normal(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        if n > self.budget:
            raise WeightFileStructureError(
                f"{self.path}: header meta implies more than the tensor values the file holds")
        self.budget -= n
        return np.zeros(n, np.float32)


def _read_blobs(buf: bytes, offset: int, declared: list, path) -> list[np.ndarray]:
    """Each declared tensor's blob, from offset on, as a read-only float32 view
    of buf shaped by its stored dims. The dims must match the header entry, and
    the blobs must fill buf to its end exactly. Copies no tensor data."""
    blobs = []
    for decl in declared:
        if (not isinstance(decl, dict) or not {"name", "dims", "kind"} <= set(decl)
                or not isinstance(decl["dims"], list) or len(decl["dims"]) != 4
                or not all(_is_int(d) and d >= 0 for d in decl["dims"])):
            raise WeightFileStructureError(f"{path}: malformed tensor entry {decl!r}")
        if len(buf) - offset < _DIMS.size:
            raise WeightFileTruncatedError(f"{path}: file ends before blob {decl['name']!r}")
        dims = list(_DIMS.unpack_from(buf, offset))
        if dims != decl["dims"]:
            raise WeightFileShapeError(
                f"{path}: {decl['name']} blob dims {dims}, header says {decl['dims']}")
        offset += _DIMS.size
        count = math.prod(dims)
        if len(buf) - offset < 4 * count:
            raise WeightFileTruncatedError(f"{path}: file ends inside blob {decl['name']!r}")
        blobs.append(np.frombuffer(buf, "<f4", count, offset).reshape(dims))
        offset += 4 * count
    if offset != len(buf):
        raise WeightFileStructureError(
            f"{path}: {len(buf) - offset} unexpected trailing bytes")
    return blobs


def _stored(arr: np.ndarray, kind: str) -> np.ndarray:
    """The array as its blob holds it: running statistics as (1, c, 1, 1)."""
    return arr if kind == "param" else arr.reshape(1, arr.size, 1, 1)


def save(m: AnyModel, path) -> None:
    entries = m.state_entries()
    # checked before the file is opened, so a refused model leaves no partial file
    for name, arr, _ in entries:
        if arr.dtype != np.float32:
            raise ParameterError(f"only float32 tensors are serialized; {name} is {arr.dtype}")
    header = {
        "meta": m.meta(),
        "tensors": [
            {"name": name, "dims": list(_stored(arr, kind).shape), "kind": kind}
            for name, arr, kind in entries
        ],
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(hbytes)))
        fh.write(hbytes)
        for name, arr, kind in entries:
            fh.write(_DIMS.pack(*_stored(arr, kind).shape))
            fh.write(arr.astype("<f4", copy=False).tobytes())


def load(path) -> AnyModel:
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as e:
        raise WeightFileError(f"cannot read {path}: {e}") from None
    if len(buf) < 4:
        raise WeightFileTruncatedError(f"{path}: file shorter than magic")
    if buf[:4] != MAGIC:
        raise WeightFileMagicError(f"{path}: bad magic {buf[:4]!r}")
    if len(buf) < 12:
        raise WeightFileTruncatedError(f"{path}: missing version/header length")
    version, hlen = struct.unpack_from("<II", buf, 4)
    if version != VERSION:
        raise WeightFileVersionError(f"{path}: version {version}, expected {VERSION}")
    if len(buf) < 12 + hlen:
        raise WeightFileTruncatedError(f"{path}: header truncated")
    try:
        header = json.loads(buf[12 : 12 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise WeightFileStructureError(f"{path}: header not valid JSON: {e}") from None
    if not isinstance(header, dict) or "meta" not in header or "tensors" not in header:
        raise WeightFileStructureError(f"{path}: header missing meta/tensors")

    declared = header["tensors"]
    if not isinstance(declared, list):
        raise WeightFileStructureError(
            f"{path}: header tensors is a {type(declared).__name__}, not a list")
    blobs = _read_blobs(buf, 12 + hlen, declared, path)
    try:
        kind, args = _meta_args(header["meta"], path)
        model = _KINDS[kind][0].build(rng=_ZeroDraws(sum(b.size for b in blobs), path), **args)
    except (ConfigError, DimensionError, ParameterError) as e:
        raise WeightFileStructureError(f"{path}: header meta describes no model: {e}") from None
    entries = model.state_entries()
    if len(declared) != len(entries):
        raise WeightFileStructureError(
            f"{path}: header declares {len(declared)} tensors, model has {len(entries)}"
        )

    for decl, blob, (name, arr, kind) in zip(declared, blobs, entries):
        if decl["name"] != name or decl["kind"] != kind:
            raise WeightFileStructureError(
                f"{path}: tensor entry {decl['name']!r}/{decl['kind']!r} where "
                f"{name!r}/{kind!r} expected"
            )
        want = list(_stored(arr, kind).shape)
        if list(decl["dims"]) != want:
            raise WeightFileShapeError(
                f"{path}: {name} declared dims {decl['dims']}, expected {want}"
            )
        # a NaN weight does not fail later: relu turns its channel into zeros
        # and predict returns finite logits, so it is rejected here
        if not np.isfinite(blob).all():
            raise WeightFileValueError(f"{path}: {name} holds NaN or infinite values")
        if name.endswith(".running_var") and (blob < 0).any():
            raise WeightFileValueError(f"{path}: {name} has a negative variance")
        arr[...] = blob.reshape(arr.shape)  # a copy: the model owns its arrays
    return model
