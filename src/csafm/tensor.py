"""Rank-4 float tensors with reverse-mode autodiff and a deterministic RNG.

Every value in the engine is a dense (batch, channel, height, width) array
of float32, stored row-major n->c->h->w. float64 is supported as a parallel
precision used only by the finite-difference gradient checker.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError, ParameterError

Dims = tuple[int, int, int, int]

_grad_enabled = True


@contextmanager
def no_grad():
    """Suspend graph construction; used for evaluation forwards."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense rank-4 value array, optionally part of an autodiff graph.

    `data` always has ndim 4 with every axis >= 1; `grad`, once populated,
    matches `data` in shape and dtype. Interior graph nodes carry a
    `_backward` closure that pushes the upstream gradient to their parents;
    leaves (parameters, inputs) carry none.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        if arr.ndim != 4:
            raise DimensionError(
                f"tensors are rank-4 (n,c,h,w); got shape {arr.shape}"
            )
        if min(arr.shape) < 1:
            raise DimensionError(f"all dims must be >= 1; got shape {arr.shape}")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None

    # -- shape accessors -------------------------------------------------
    @property
    def dims(self) -> Dims:
        return self.data.shape  # type: ignore[return-value]

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]

    @property
    def h(self) -> int:
        return self.data.shape[2]

    @property
    def w(self) -> int:
        return self.data.shape[3]

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return (
            f"Tensor(dims={self.dims}, dtype={self.data.dtype.name}, "
            f"requires_grad={self.requires_grad})"
        )

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(f"item() needs a single element, got {self.dims}")
        return float(self.data.reshape(()))

    # -- construction helpers --------------------------------------------
    @classmethod
    def zeros(cls, dims: Dims, dtype=np.float32, requires_grad: bool = False) -> "Tensor":
        return cls(np.zeros(dims, dtype=dtype), requires_grad=requires_grad)

    @classmethod
    def full(cls, dims: Dims, value: float, dtype=np.float32) -> "Tensor":
        return cls(np.full(dims, value, dtype=dtype))

    @classmethod
    def from_flat(cls, values: Sequence[float], dims: Dims, dtype=np.float32) -> "Tensor":
        arr = np.asarray(values, dtype=dtype)
        need = int(np.prod(dims))
        if arr.size != need:
            raise DimensionError(f"{arr.size} values cannot fill dims {tuple(dims)}")
        return cls(arr.reshape(dims))

    # -- autodiff ----------------------------------------------------------
    def backward(self, seed: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this node through the recorded graph.

        `seed` defaults to all-ones (appropriate for a scalar loss node).
        Gradients accumulate into every reachable tensor with
        requires_grad set. Only leaves keep theirs: an interior node's
        gradient is dropped once its closure has passed it on, so each
        frees as soon as the walk is past it.
        """
        if seed is None:
            seed = np.ones_like(self.data)
        else:
            seed = np.asarray(seed, dtype=self.data.dtype)
            if seed.shape != self.data.shape:
                raise DimensionError(
                    f"seed shape {seed.shape} != tensor dims {self.dims}"
                )

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        accumulate_grad(self, seed)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                g, node.grad = node.grad, None
                node._backward(g)


def make_node(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward: Callable[[np.ndarray], None],
) -> Tensor:
    """Wrap `data` as a graph node when grad mode is on and a parent needs it."""
    track = _grad_enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=track)
    if track:
        out._parents = parents
        out._backward = backward
    return out


def accumulate_grad(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add `g` into t.grad if t participates in the graph.

    The first gradient a tensor receives is copied, unless the caller
    passes fresh=True: g is then an array its backward closure has just
    allocated, or a view of one, which nothing else holds, and t.grad
    adopts it with its strides (conv2d hands over the transpose of its
    channels-last dw). Never pass fresh=True for a view of an array that
    something else holds, or for a g that goes to more than one tensor, as
    ewise_add's does: a later += into one grad would write into the other.
    """
    if not t.requires_grad:
        return
    if t.grad is not None:
        t.grad += g
    elif fresh and g.shape == t.data.shape and g.dtype == t.data.dtype:
        t.grad = g
    else:
        t.grad = np.array(np.broadcast_to(g, t.data.shape), dtype=t.data.dtype)


# -- elementwise arithmetic ------------------------------------------------

def ewise_add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.dims != b.dims:
        raise DimensionError(f"ewise_add shape mismatch: {a.dims} vs {b.dims}")
    out = a.data + b.data

    def bw(g: np.ndarray) -> None:
        accumulate_grad(a, g)
        accumulate_grad(b, g)

    return make_node(out, (a, b), bw)


def ewise_mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; b may be (n,c,1,1) against a's (n,c,h,w).

    The broadcast case scales each (h,w) plane of a by the matching scalar
    in b; its gradient w.r.t. b sums over the plane.
    """
    broadcast = False
    if a.dims != b.dims:
        if b.n == a.n and b.c == a.c and b.h == 1 and b.w == 1:
            broadcast = True
        else:
            raise DimensionError(
                f"ewise_mul shapes incompatible: {a.dims} vs {b.dims} "
                "(only the (n,c,1,1) channel-map broadcast is supported)"
            )
    out = a.data * b.data

    def bw(g: np.ndarray) -> None:
        accumulate_grad(a, g * b.data, fresh=True)
        if broadcast:
            accumulate_grad(b, (g * a.data).sum(axis=(2, 3), keepdims=True), fresh=True)
        else:
            accumulate_grad(b, g * a.data, fresh=True)

    return make_node(out, (a, b), bw)


def one_minus(a: Tensor) -> Tensor:
    """1 - a elementwise; the complementary fusion weight."""
    dt = a.data.dtype
    out = dt.type(1.0) - a.data

    def bw(g: np.ndarray) -> None:
        accumulate_grad(a, -g, fresh=True)

    return make_node(out, (a,), bw)


# -- deterministic RNG -------------------------------------------------------

_U64 = np.uint64
_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer (Steele, Lea, Flood 2014), on uint64 arrays
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _tag_to_int(tag) -> int:
    if isinstance(tag, str):
        # FNV-1a 64-bit over the UTF-8 bytes
        h = 0xCBF29CE484222325
        for b in tag.encode("utf-8"):
            h = ((h ^ b) * 0x100000001B3) & _MASK64
        return h
    return int(tag) & _MASK64


def derive_seed(seed: int, *tags) -> int:
    """Fold int or str tags into a seed to obtain an independent stream."""
    s = seed & _MASK64
    for t in tags:
        s = (s ^ _tag_to_int(t)) & _MASK64
        s = int(_mix64(np.array([(s + _GAMMA) & _MASK64], dtype=_U64))[0])
    return s


class Rng:
    """Counter-based splitmix64 generator.

    The i-th raw 64-bit draw (1-based, continuing across calls) is
    mix(seed + i*GAMMA) mod 2^64 with GAMMA = 0x9E3779B97F4A7C15 and mix
    the splitmix64 finalizer, i.e. exactly the splitmix64 output sequence
    seeded with `seed`. Identical seeds therefore give bit-identical
    sequences on every platform. uniform() consumes one draw per value;
    normal() consumes two draws per pair of values (Box-Muller).
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self.counter = 0

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self.counter + 1, self.counter + n + 1, dtype=_U64)
        self.counter += n
        with np.errstate(over="ignore"):
            states = _U64(self.seed) + idx * _U64(_GAMMA)
            return _mix64(states)

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n float64 samples from U[lo, hi)."""
        if lo > hi:
            raise ParameterError(f"uniform needs lo <= hi, got lo={lo} hi={hi}")
        u = (self._raw(n) >> _U64(11)).astype(np.float64) * 2.0**-53
        return lo + (hi - lo) * u

    def normal(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """n float64 samples from N(mu, sigma^2) via Box-Muller."""
        if sigma < 0:
            raise ParameterError(f"normal needs sigma >= 0, got {sigma}")
        pairs = (n + 1) // 2
        u1 = ((self._raw(pairs) >> _U64(11)).astype(np.float64) + 1.0) * 2.0**-53
        u2 = (self._raw(pairs) >> _U64(11)).astype(np.float64) * 2.0**-53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * math.pi) * u2
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return mu + sigma * z[:n]

    def below(self, bound: int) -> int:
        """One integer in [0, bound)."""
        if bound < 1:
            raise ParameterError(f"below needs bound >= 1, got {bound}")
        return min(int(self.uniform(1)[0] * bound), bound - 1)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.below(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def spawn(self, *tags) -> "Rng":
        """Independent child stream keyed by int/str tags; parent state untouched."""
        return Rng(derive_seed(self.seed, *tags))

