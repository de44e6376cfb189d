"""Finite-difference gradient verification.

Runs the function twice per probed element with a central difference in
float64 and compares against the analytic gradient from backward(). The
comparison is the normalized max-abs error

    err = ||a - n||_inf / (||a||_inf + ||n||_inf + 1e-12)

which stays meaningful when gradients are tiny or large.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .tensor import Rng, Tensor

# central-difference step added to and taken from each probed element
STEP = 1e-5


def numeric_grad(
    f: Callable[[], Tensor],
    wrt: Tensor,
    sample: Optional[int] = None,
    rng: Optional[Rng] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient of the scalar f() w.r.t. wrt.data.

    Returns (indices, grads) over the probed flat positions. With
    sample=None every element is probed; otherwise `sample` positions are
    drawn without replacement using rng.
    """
    # the flat iterator writes through to wrt.data whatever its strides;
    # reshape(-1) of a non-contiguous array is a copy the probes would miss
    flat = wrt.data.flat
    size = wrt.data.size
    if sample is None or sample >= size:
        idx = np.arange(size)
    else:
        if rng is None:
            rng = Rng(0)
        perm = np.arange(size)
        # partial Fisher-Yates: first `sample` entries become the draw
        for i in range(sample):
            j = i + int(rng.below(size - i))
            perm[i], perm[j] = perm[j], perm[i]
        idx = np.sort(perm[:sample])
    grads = np.empty(idx.size, dtype=np.float64)
    for out_i, i in enumerate(idx):
        orig = flat[i]
        flat[i] = orig + STEP
        fp = f().item()
        flat[i] = orig - STEP
        fm = f().item()
        flat[i] = orig
        grads[out_i] = (fp - fm) / (2.0 * STEP)
    return idx, grads


def rel_error(a: np.ndarray, n: np.ndarray) -> float:
    num = float(np.max(np.abs(a - n))) if a.size else 0.0
    den = float(np.max(np.abs(a))) + float(np.max(np.abs(n))) + 1e-12 if a.size else 1.0
    return num / den


def check_gradients(
    f: Callable[[], Tensor],
    params: Sequence[tuple[str, Tensor]],
    sample: Optional[int] = None,
    seed: int = 0,
) -> dict[str, float]:
    """Compare analytic vs numeric gradients for each named tensor.

    f() must rebuild the graph from the current parameter data and return
    a scalar (1,1,1,1) loss. Tensors must be float64. Returns
    {name: rel_error}; callers assert against their tolerance.
    """
    for name, t in params:
        if t.data.dtype != np.float64:
            raise ValueError(f"gradcheck requires float64 tensors; {name} is {t.data.dtype}")

    for _, t in params:
        t.grad = None
    loss = f()
    loss.backward()
    analytic = {name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                for name, t in params}

    errs: dict[str, float] = {}
    rng = Rng(seed)
    for name, t in params:
        idx, num = numeric_grad(f, t, sample=sample, rng=rng)
        ana = analytic[name].reshape(-1)[idx]
        errs[name] = rel_error(ana, num)
    return errs
