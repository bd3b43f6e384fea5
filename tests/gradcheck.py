"""Central finite-difference gradient checks for the autodiff tape, and the
hooks that pin a forward pass for them.

The check perturbs each coordinate of a leaf's ``data`` in place and puts
the original value back before moving on. A finite difference compares two
forward passes, so both must see the same perturbed top-K noise
(`PinnedNoise`) or the same frozen top-K support (`frozen_forward`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from cmil import autodiff as ad
from cmil.autodiff import Array, Tensor
from cmil.concept_branch import concept_forward
from cmil.errors import ShapeError
from cmil.image_branch import image_forward
from cmil.topk import Selection, gather_concepts
from cmil.trainer import CmilModel, JointForward


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None


class PinnedNoise:
    """Stands in for the generator `perturbed_topk` draws from: every
    `normal(size=...)` returns the same array, after checking the shape."""

    def __init__(self, noise: np.ndarray):
        self.noise = noise

    def normal(self, size):
        if tuple(size) != self.noise.shape:
            raise ShapeError(f"pinned noise is {self.noise.shape}, the draw asks for {size}")
        return self.noise


def frozen_forward(model: CmilModel, emb: np.ndarray, f_values: np.ndarray,
                   fixed) -> JointForward:
    """`joint_forward` with the top-K support frozen to `fixed`: the selection
    is a constant, so the loss is smooth in every parameter."""
    img = image_forward(ad.constant(emb), model.image)
    sel = Selection(np.asarray(fixed, dtype=int))
    f_topk = gather_concepts(f_values, sel)
    con = concept_forward(f_topk, model.concept)
    prob = img.prob if model.mode == "image-only" else con.prob
    return JointForward(img, sel, f_topk, con, prob)


def relative_error(analytic: Array, numeric: Array) -> float:
    """Max over coordinates of |a - n| / (|a| + |n| + 1e-12)."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    return float(np.max(np.abs(a - n) / (np.abs(a) + np.abs(n) + 1e-12))) if a.size else 0.0


def grad_check(f: Callable[[Tensor], Tensor], point: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between backward() and central finite differences.

    ``f`` must map a single tensor to a scalar tensor and be smooth at
    ``point`` (the caller keeps clear of activation kinks).
    """
    return grad_check_many(lambda ts: f(ts[0]), [point], eps=eps)


def grad_check_many(
    f: Callable[[Sequence[Tensor]], Tensor],
    points: Sequence[Tensor],
    eps: float = 1e-5,
    coords: dict[int, np.ndarray] | None = None,
) -> float:
    """grad_check over several leaf tensors at once.

    ``coords`` optionally restricts the finite-difference sweep to flat
    indices per tensor position (useful when the full sweep is too slow);
    the analytic gradient is always the full backward pass.
    """
    out = f(points)
    if out.data.size != 1:
        raise ShapeError("grad_check requires a scalar-valued function")
    zero_grads(points)
    out.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in points]

    worst = 0.0
    for pi, p in enumerate(points):
        flat = p.data.reshape(-1)
        idxs = coords.get(pi, np.arange(flat.size)) if coords is not None else np.arange(flat.size)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(points).data)
            flat[i] = orig - eps
            f_minus = float(f(points).data)
            flat[i] = orig
            cd = (f_plus - f_minus) / (2.0 * eps)
            an = analytic[pi].reshape(-1)[i]
            worst = max(worst, float(abs(an - cd) / (abs(an) + abs(cd) + 1e-12)))
    return worst
