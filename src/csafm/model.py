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
model from "meta", then fills every tensor in header order, so a round
trip is bitwise exact.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import Union

import numpy as np

from .backbone import BackboneState, backbone_classify, backbone_features, feature_shape
from .errors import (
    ConfigError,
    DimensionError,
    ParameterError,
    WeightFileMagicError,
    WeightFileShapeError,
    WeightFileStructureError,
    WeightFileTruncatedError,
    WeightFileValueError,
    WeightFileVersionError,
)
from .fusion import FusionState, FusionVariant, ablation_fuse, standardize
from .ops import StateTree, flatten, fully_connected, he_fc
from .tensor import Rng, Tensor, tensor_from_blob, tensor_to_blob

MAGIC = b"CSAF"
VERSION = 1


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
        if classes < 2:
            raise ConfigError(f"need at least 2 classes, got {classes}")
        fp_bb = BackboneState.init(rng.spawn("fp"), width_multiplier, dtype=dtype)
        fv_bb = BackboneState.init(rng.spawn("fv"), width_multiplier, dtype=dtype)
        c, h1, w1 = feature_shape(fp_size[0], fp_size[1], width_multiplier)
        _, h2, w2 = feature_shape(fv_size[0], fv_size[1], width_multiplier)
        fh, fw = min(h1, h2), min(w1, w2)
        fusion = FusionState.init(variant, c, r1, r2, rng.spawn("fusion"),
                                  literal_double_mul=literal_double_mul, dtype=dtype)
        head_c = 2 * c if variant is FusionVariant.PARALLEL_CONCAT else c
        head_w, head_b = he_fc(head_c * fh * fw, classes, rng.spawn("head"), dtype)
        return cls(fp_backbone=fp_bb, fv_backbone=fv_bb, fusion=fusion,
                   head_w=head_w, head_b=head_b, classes=classes,
                   fp_size=tuple(fp_size), fv_size=tuple(fv_size),
                   r1=r1, r2=r2, width_multiplier=width_multiplier)

    def forward_batch(self, fp_img: Tensor, fv_img: Tensor, mode: str) -> Tensor:
        if fp_img.n != fv_img.n:
            raise DimensionError(
                f"batch sizes differ: {fp_img.n} vs {fv_img.n}"
            )
        a = backbone_features(fp_img, self.fp_backbone, mode)
        b = backbone_features(fv_img, self.fv_backbone, mode)
        a, b = standardize(a, b)
        z = ablation_fuse(a, b, self.fusion, mode)
        flat = flatten(z)
        if flat.c != self.head_w.dims[1]:
            raise DimensionError(
                f"fused features flatten to {flat.c}, head expects "
                f"{self.head_w.dims[1]}; image sizes drifted from build time"
            )
        return fully_connected(flat, self.head_w, self.head_b)

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
        bb = BackboneState.init(rng.spawn(modality), width_multiplier,
                                classes=classes, image_hw=tuple(image_size), dtype=dtype)
        return cls(backbone=bb, classes=classes, image_size=tuple(image_size),
                   modality=modality, width_multiplier=width_multiplier)

    def forward_batch(self, fp_img: Tensor, fv_img: Tensor, mode: str) -> Tensor:
        img = fp_img if self.modality == "fp" else fv_img
        return backbone_classify(img, self.backbone, self.classes, mode)

    def named(self):
        return self.backbone.named_under(self.modality)

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


_META_TYPES = {
    "int": _is_int,
    "number": lambda v: _is_int(v) or (isinstance(v, float) and math.isfinite(v)),
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "size": lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
}


def _field(meta: dict, key: str, want: str):
    """meta[key], checked for presence and JSON type; its value the builders check."""
    if key not in meta:
        raise WeightFileStructureError(f"header meta lacks {key!r}")
    if not _META_TYPES[want](meta[key]):
        raise WeightFileStructureError(
            f"header meta {key!r} is {meta[key]!r}, expected {want}")
    return meta[key]


def _meta_args(meta) -> tuple[str, dict]:
    """(kind, keyword arguments of that kind's build) read from a header meta."""
    if not isinstance(meta, dict):
        raise WeightFileStructureError(
            f"header meta is a {type(meta).__name__}, not an object")
    kind = meta.get("kind")
    if kind == "fused":
        return kind, dict(
            classes=_field(meta, "classes", "int"),
            fp_size=tuple(_field(meta, "fp_size", "size")),
            fv_size=tuple(_field(meta, "fv_size", "size")),
            variant=FusionVariant.from_tag(_field(meta, "variant", "str")),
            r1=_field(meta, "r1", "int"),
            r2=_field(meta, "r2", "int"),
            width_multiplier=_field(meta, "width_multiplier", "number"),
            literal_double_mul=_field(meta, "literal_double_mul", "bool"),
        )
    if kind == "unimodal":
        return kind, dict(
            classes=_field(meta, "classes", "int"),
            image_size=tuple(_field(meta, "image_size", "size")),
            modality=_field(meta, "modality", "str"),
            width_multiplier=_field(meta, "width_multiplier", "number"),
        )
    raise WeightFileStructureError(f"unknown model kind {kind!r} in header")


_BUILDERS = {"fused": FpvCsafmModel, "unimodal": UnimodalClassifier}


def build_from_meta(meta: dict, rng: Rng) -> AnyModel:
    kind, args = _meta_args(meta)
    return _BUILDERS[kind].build(rng=rng, **args)


def _meta_nbytes(kind: str, args: dict) -> int:
    """Bytes of tensor blobs a model built from _meta_args would save, in closed form."""
    wm = args["width_multiplier"]
    if kind == "fused":
        sizes = BackboneState.tensor_sizes(wm) * 2
        c, h1, w1 = feature_shape(*args["fp_size"], wm)
        _, h2, w2 = feature_shape(*args["fv_size"], wm)
        sizes += FusionState.tensor_sizes(args["variant"], c, args["r1"], args["r2"])
        head_c = 2 * c if args["variant"] is FusionVariant.PARALLEL_CONCAT else c
        d = head_c * min(h1, h2) * min(w1, w2)
    else:
        sizes = BackboneState.tensor_sizes(wm)
        c, fh, fw = feature_shape(*args["image_size"], wm)
        d = c * fh * fw
    sizes += [args["classes"] * d, args["classes"]]  # head weight and bias
    return sum(16 + 4 * n for n in sizes)


def _check_blob_layout(buf: bytes, offset: int, declared: list, path) -> None:
    """Check that the declared tensors, read against each blob's stored dims,
    fill buf from offset to its end exactly. Only reads dims; allocates nothing."""
    for decl in declared:
        if (not isinstance(decl, dict) or not {"name", "dims", "kind"} <= set(decl)
                or not isinstance(decl["dims"], list) or len(decl["dims"]) != 4
                or not all(_is_int(d) and d >= 0 for d in decl["dims"])):
            raise WeightFileStructureError(f"{path}: malformed tensor entry {decl!r}")
        if len(buf) - offset < 16:
            raise WeightFileTruncatedError(f"{path}: file ends before blob {decl['name']!r}")
        dims = list(struct.unpack_from("<4I", buf, offset))
        if dims != decl["dims"]:
            raise WeightFileShapeError(
                f"{path}: {decl['name']} blob dims {dims}, header says {decl['dims']}")
        offset += 16 + 4 * math.prod(dims)
        if offset > len(buf):
            raise WeightFileTruncatedError(f"{path}: file ends inside blob {decl['name']!r}")
    if offset != len(buf):
        raise WeightFileStructureError(
            f"{path}: {len(buf) - offset} unexpected trailing bytes")


def _stored(arr: np.ndarray, kind: str) -> np.ndarray:
    """The array as its blob holds it: running statistics as (1, c, 1, 1)."""
    return arr if kind == "param" else arr.reshape(1, arr.size, 1, 1)


def save(m: AnyModel, path) -> None:
    entries = m.state_entries()
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
            fh.write(tensor_to_blob(Tensor(_stored(arr, kind))))


def load(path) -> AnyModel:
    with open(path, "rb") as fh:
        buf = fh.read()
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
    _check_blob_layout(buf, 12 + hlen, declared, path)
    # the meta must imply exactly the bytes the file holds before anything is
    # built, so a forged size in it cannot make the build allocate without bound
    try:
        kind, args = _meta_args(header["meta"])
        implied, held = _meta_nbytes(kind, args), len(buf) - 12 - hlen
        if implied != held:
            raise WeightFileStructureError(
                f"{path}: header meta implies {implied} tensor bytes, file holds {held}")
        model = _BUILDERS[kind].build(rng=Rng(0), **args)
    except (ConfigError, DimensionError, ParameterError) as e:
        raise WeightFileStructureError(f"{path}: header meta describes no model: {e}") from None
    entries = model.state_entries()
    if len(declared) != len(entries):
        raise WeightFileStructureError(
            f"{path}: header declares {len(declared)} tensors, model has {len(entries)}"
        )

    offset = 12 + hlen
    for decl, (name, arr, kind) in zip(declared, entries):
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
        t, offset = tensor_from_blob(buf, offset)  # blob dims == decl dims, checked above
        # a NaN weight does not fail later: relu turns its channel into zeros
        # and predict returns finite logits, so it is rejected here
        if not np.isfinite(t.data).all():
            raise WeightFileValueError(f"{path}: {name} holds NaN or infinite values")
        if name.endswith(".running_var") and (t.data < 0).any():
            raise WeightFileValueError(f"{path}: {name} has a negative variance")
        arr[...] = t.data.reshape(arr.shape)
    return model
