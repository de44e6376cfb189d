"""Five-stage CNN branch mapping one grayscale image to a 512-channel map.

Stage layout: conv -> batchnorm -> relu -> 3x3 stride-2 maxpool, five
times. Stage 1 uses a 7x7 stride-2 kernel; the rest are 3x3 stride 1.
Paddings are 3 for the 7x7 conv, 1 for the 3x3 convs, and 1 for every
pool, so each stride-2 stage maps an extent s to ceil(s/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError
from .ops import BnParams, ConvParams, StateTree, batchnorm, conv2d, conv_out_size, maxpool2d, relu
from .tensor import Rng, Tensor

BASE_CHANNELS = (64, 128, 256, 512, 512)
KERNELS = (7, 3, 3, 3, 3)
CONV_STRIDES = (2, 1, 1, 1, 1)
CONV_PADS = (3, 1, 1, 1, 1)
POOL_K, POOL_S, POOL_P = 3, 2, 1


def scaled_channels(width_multiplier: float = 1.0) -> tuple[int, ...]:
    """Channel counts after the test-only width multiplier (min 1 each)."""
    if not width_multiplier > 0:
        raise ConfigError(f"width_multiplier must be positive, got {width_multiplier}")
    return tuple(max(1, round(c * width_multiplier)) for c in BASE_CHANNELS)


def feature_shape(h: int, w: int, width_multiplier: float = 1.0) -> tuple[int, int, int]:
    """(channels, h', w') after all five stages; errors name the first stage to underflow."""
    ch = scaled_channels(width_multiplier)
    for i in range(5):
        nh = conv_out_size(h, KERNELS[i], CONV_STRIDES[i], CONV_PADS[i])
        nw = conv_out_size(w, KERNELS[i], CONV_STRIDES[i], CONV_PADS[i])
        if nh < 1 or nw < 1:
            raise DimensionError(
                f"input too small: conv stage {i + 1} would produce {nh}x{nw}"
            )
        h, w = nh, nw
        nh = conv_out_size(h, POOL_K, POOL_S, POOL_P)
        nw = conv_out_size(w, POOL_K, POOL_S, POOL_P)
        if nh < 1 or nw < 1:
            raise DimensionError(
                f"input too small: pool stage {i + 1} would produce {nh}x{nw}"
            )
        h, w = nh, nw
    return ch[-1], h, w


@dataclass
class BackboneState(StateTree):
    """Parameters of the five conv/bn stages."""

    convs: list[ConvParams]
    bns: list[BnParams]

    @classmethod
    def init(cls, rng: Rng, width_multiplier: float = 1.0, dtype=np.float32) -> "BackboneState":
        ch = scaled_channels(width_multiplier)
        convs, bns = [], []
        in_c = 1
        for i in range(5):
            convs.append(ConvParams.he_init(
                in_c, ch[i], KERNELS[i], CONV_STRIDES[i], CONV_PADS[i],
                rng.spawn("conv", i), dtype=dtype))
            bns.append(BnParams.init(ch[i], dtype=dtype))
            in_c = ch[i]
        return cls(convs=convs, bns=bns)

    @staticmethod
    def tensor_sizes(width_multiplier: float = 1.0) -> list[int]:
        """Element counts of the saved tensors of init()'s five stages, without allocating them."""
        out: list[int] = []
        in_c = 1
        for c, k in zip(scaled_channels(width_multiplier), KERNELS):
            out += [c * in_c * k * k, c] + [c] * 4  # conv weight and bias, then bn's four tensors
            in_c = c
        return out

    def named(self):
        for i, (cv, bn) in enumerate(zip(self.convs, self.bns), 1):
            yield from cv.named_under(f"conv{i}")
            yield from bn.named_under(f"bn{i}")


def backbone_features(img: Tensor, s: BackboneState, mode: str) -> Tensor:
    """Run the five stages; output (n, C, h', w') per feature_shape."""
    if img.c != 1:
        raise DimensionError(f"expected 1-channel input, got {img.c}")
    x = img
    for i in range(5):
        x = conv2d(x, s.convs[i])
        x = batchnorm(x, s.bns[i], mode)
        x = relu(x)
        x = maxpool2d(x, POOL_K, POOL_S, POOL_P)
    return x

