"""Attention-weighted fusion of two modality feature maps.

The full block: sum the standardized maps (IFI), weight by a channel
attention map, squash to per-element coefficients, weight by a spatial
attention map, squash again, then mix the two branches with the
complementary coefficients

    Z = f_fp * Fc * Fs + f_fv * (1 - Fc) * (1 - Fs)

Six alternative compositions (single-attention, parallel, reversed
order, plain sum, channel concat) are selectable for comparison runs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionError
from .ops import BnParams, ConvParams, StateTree, batchnorm, conv2d, gap, pwconv, relu, sigmoid
from .tensor import Rng, Tensor, accumulate_grad, ewise_add, ewise_mul, make_node, one_minus


class FusionVariant(enum.Enum):
    CSAFM = "CSAFM"
    CHANNEL_ONLY = "CHANNEL_ONLY"
    SPATIAL_ONLY = "SPATIAL_ONLY"
    PARALLEL_CS = "PARALLEL_CS"
    SEQ_SC = "SEQ_SC"
    SERIAL_SUM = "SERIAL_SUM"
    PARALLEL_CONCAT = "PARALLEL_CONCAT"

    @classmethod
    def from_tag(cls, tag: str) -> "FusionVariant":
        try:
            return cls[tag]
        except KeyError:
            raise ConfigError(
                f"unknown fusion variant {tag!r}; choose one of "
                f"{', '.join(v.name for v in cls)}"
            ) from None


# The gated variants as data: their gates in order, "C" channel and "S"
# spatial, and whether every gate reads the IFI (parallel) or each reads
# the one before it (series). The other variants have no gates.
GATED: dict[FusionVariant, tuple[str, bool]] = {
    FusionVariant.CSAFM: ("CS", False),
    FusionVariant.CHANNEL_ONLY: ("C", False),
    FusionVariant.SPATIAL_ONLY: ("S", False),
    FusionVariant.PARALLEL_CS: ("CS", True),
    FusionVariant.SEQ_SC: ("SC", False),
}
SPATIAL_K = 7  # kernel of both spatial-attention convolutions, padded to keep the map size


def bottleneck(c: int, r: int) -> int:
    """Channels inside an attention map of c channels reduced by r; r must divide c."""
    if r < 1 or c % r != 0:
        raise ConfigError(f"channel count {c} not divisible by reduction {r}")
    return c // r


def _gates(variant: FusionVariant) -> str:
    """The gate letters of a variant, "" for one without gates."""
    return GATED[variant][0] if variant in GATED else ""


@dataclass
class ChannelAttnState(StateTree):
    """Bottlenecked pointwise-conv pair over globally pooled features."""

    pw1: ConvParams
    pw2: ConvParams

    @classmethod
    def init(cls, c: int, r1: int, rng: Rng, dtype=np.float32) -> "ChannelAttnState":
        mid = bottleneck(c, r1)
        return cls(
            pw1=ConvParams.he_init(c, mid, 1, 1, 0, rng.spawn("pw1"), dtype=dtype),
            pw2=ConvParams.he_init(mid, c, 1, 1, 0, rng.spawn("pw2"), dtype=dtype),
        )

    def named(self):
        yield from self.pw1.named_under("pw1")
        yield from self.pw2.named_under("pw2")


@dataclass
class SpatialAttnState(StateTree):
    """Two 7x7 convolutions with batch norm, bottlenecked by r2."""

    conv1: ConvParams
    bn1: BnParams
    conv2: ConvParams
    bn2: BnParams

    @classmethod
    def init(cls, c: int, r2: int, rng: Rng, dtype=np.float32) -> "SpatialAttnState":
        mid = bottleneck(c, r2)
        pad = SPATIAL_K // 2
        return cls(
            conv1=ConvParams.he_init(c, mid, SPATIAL_K, 1, pad, rng.spawn("conv1"), dtype=dtype),
            bn1=BnParams.init(mid, dtype=dtype),
            conv2=ConvParams.he_init(mid, c, SPATIAL_K, 1, pad, rng.spawn("conv2"), dtype=dtype),
            bn2=BnParams.init(c, dtype=dtype),
        )

    def named(self):
        yield from self.conv1.named_under("conv1")
        yield from self.bn1.named_under("bn1")
        yield from self.conv2.named_under("conv2")
        yield from self.bn2.named_under("bn2")


@dataclass
class FusionState(StateTree):
    """Variant tag plus whichever attention parameters that variant uses."""

    variant: FusionVariant
    channel: Optional[ChannelAttnState] = None
    spatial: Optional[SpatialAttnState] = None
    literal_double_mul: bool = False

    @classmethod
    def init(
        cls,
        variant: FusionVariant,
        c: int,
        r1: int,
        r2: int,
        rng: Rng,
        literal_double_mul: bool = False,
        dtype=np.float32,
    ) -> "FusionState":
        if not isinstance(variant, FusionVariant):
            # a tag string would match no gate letters and build a fusion without gates
            raise ConfigError(f"fusion variant must be a FusionVariant, got {variant!r}; "
                              f"FusionVariant.from_tag reads a tag")
        ch = ChannelAttnState.init(c, r1, rng.spawn("channel"), dtype=dtype) \
            if "C" in _gates(variant) else None
        sp = SpatialAttnState.init(c, r2, rng.spawn("spatial"), dtype=dtype) \
            if "S" in _gates(variant) else None
        return cls(variant=variant, channel=ch, spatial=sp,
                   literal_double_mul=literal_double_mul)

    def named(self):
        if self.channel is not None:
            yield from self.channel.named_under("channel")
        if self.spatial is not None:
            yield from self.spatial.named_under("spatial")


def center_crop(x: Tensor, h: int, w: int) -> Tensor:
    """Crop to h x w keeping the center; offsets are floor((extent - target)/2)."""
    if h > x.h or w > x.w or h < 1 or w < 1:
        raise DimensionError(f"cannot crop {x.dims} to {h}x{w}")
    if (h, w) == (x.h, x.w):
        return x
    oh = (x.h - h) // 2
    ow = (x.w - w) // 2
    out = np.ascontiguousarray(x.data[:, :, oh : oh + h, ow : ow + w])

    def bw(g: np.ndarray) -> None:
        dx = np.zeros_like(x.data)
        dx[:, :, oh : oh + h, ow : ow + w] = g
        accumulate_grad(x, dx, fresh=True)

    return make_node(out, (x,), bw)


def standardize(f_fp: Tensor, f_fv: Tensor) -> tuple[Tensor, Tensor]:
    """Center-crop both maps to their common minimum height and width."""
    if f_fp.n != f_fv.n or f_fp.c != f_fv.c:
        raise DimensionError(
            f"standardize needs matching batch/channels, got {f_fp.dims} vs {f_fv.dims}"
        )
    h = min(f_fp.h, f_fv.h)
    w = min(f_fp.w, f_fv.w)
    return center_crop(f_fp, h, w), center_crop(f_fv, h, w)


def ifi(f_fp: Tensor, f_fv: Tensor) -> Tensor:
    """Elementwise sum of the two standardized maps."""
    return ewise_add(f_fp, f_fv)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack along the channel axis: (n,C,h,w)+(n,C',h,w) -> (n,C+C',h,w)."""
    if a.n != b.n or a.h != b.h or a.w != b.w:
        raise DimensionError(f"cannot concat {a.dims} with {b.dims}")
    out = np.concatenate([a.data, b.data], axis=1)
    ca = a.c

    def bw(g: np.ndarray) -> None:
        accumulate_grad(a, g[:, :ca])
        accumulate_grad(b, g[:, ca:])

    return make_node(out, (a, b), bw)


def channel_attention_map(x: Tensor, s: ChannelAttnState) -> Tensor:
    """Raw (pre-multiplication) channel map: pw2(relu(pw1(gap(x)))), shape (n,C,1,1)."""
    if x.c != s.pw1.in_c:
        raise DimensionError(f"input has {x.c} channels, attention expects {s.pw1.in_c}")
    return pwconv(relu(pwconv(gap(x), s.pw1)), s.pw2)


def spatial_attention_map(x: Tensor, s: SpatialAttnState, mode: str) -> Tensor:
    """Spatial map sigma(bn(conv2(relu(bn(conv1(x)))))); values in (0,1)."""
    if x.c != s.conv1.in_c:
        raise DimensionError(f"input has {x.c} channels, attention expects {s.conv1.in_c}")
    y = batchnorm(conv2d(x, s.conv1), s.bn1, mode)
    y = batchnorm(conv2d(relu(y), s.conv2), s.bn2, mode)
    return sigmoid(y)


def _apply(gate: str, x: Tensor, st: FusionState, mode: str) -> Tensor:
    """F = A(x) * x for gate "C" (channel map) or "S" (spatial map),
    times x once more under the literal reading."""
    if gate == "C":
        out = ewise_mul(x, channel_attention_map(x, st.channel))
    else:
        out = ewise_mul(x, spatial_attention_map(x, st.spatial, mode))
    if st.literal_double_mul:
        out = ewise_mul(out, x)
    return out


def _soft_select(f_fp: Tensor, f_fv: Tensor, coeffs: list[Tensor]) -> Tensor:
    """Z = f_fp * prod(coeffs) + f_fv * prod(1 - coeffs)."""
    w1 = coeffs[0]
    w2 = one_minus(coeffs[0])
    for c in coeffs[1:]:
        w1 = ewise_mul(w1, c)
        w2 = ewise_mul(w2, one_minus(c))
    return ewise_add(ewise_mul(f_fp, w1), ewise_mul(f_fv, w2))


def _gated_fuse(f_fp: Tensor, f_fv: Tensor, st: FusionState, mode: str,
                return_parts: bool = False):
    """Run the gates of st.variant's GATED row over the IFI, then mix the
    branches by the squashed gate outputs in gate order."""
    if f_fp.dims != f_fv.dims:
        raise DimensionError(f"fuse inputs differ: {f_fp.dims} vs {f_fv.dims}")
    letters, parallel = GATED[st.variant]
    x = ifi(f_fp, f_fv)
    parts = {"ifi": x}
    f = x
    for g in letters:
        f = _apply(g, x if parallel else f, st, mode)
        key = f"f_{g.lower()}"
        parts[key], parts[key + "_final"] = f, sigmoid(f)
    z = _soft_select(f_fp, f_fv, [parts[f"f_{g.lower()}_final"] for g in letters])
    return (z, parts) if return_parts else z


def csafm_fuse(
    f_fp: Tensor,
    f_fv: Tensor,
    ca: ChannelAttnState,
    sa: SpatialAttnState,
    mode: str,
    literal_double_mul: bool = False,
    return_parts: bool = False,
):
    """Channel-then-spatial attention fusion of two standardized maps.

    With return_parts=True also returns the intermediate maps
    {ifi, f_c, f_c_final, f_s, f_s_final} for inspection.
    """
    st = FusionState(FusionVariant.CSAFM, ca, sa, literal_double_mul)
    return _gated_fuse(f_fp, f_fv, st, mode, return_parts)


def ablation_fuse(f_fp: Tensor, f_fv: Tensor, st: FusionState, mode: str) -> Tensor:
    """Dispatch on the configured variant; every gated one runs its GATED row."""
    if st.variant is FusionVariant.SERIAL_SUM:
        return ifi(f_fp, f_fv)
    if st.variant is FusionVariant.PARALLEL_CONCAT:
        return concat_channels(f_fp, f_fv)
    return _gated_fuse(f_fp, f_fv, st, mode)
