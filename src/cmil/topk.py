"""Patch-attention-guided top-K: hard selection at inference, perturbed-maximum
smoothing during training.

The soft indicator is the Monte-Carlo mean of hard top-K one-hot unions under
Gaussian perturbations of the attention scores; its backward pass uses the
perturbed-maximizer Jacobian estimator J = (1/(M·sigma)) * sum_m ind_m (x) z_m
with the same saved noise samples, so gradients reach the attention network
through the selection itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, constant, gather, node, scale_rows
from .errors import ConfigError, ShapeError, check_field_types


@dataclass(frozen=True)
class TopKConfig:
    K: int = 20
    num_noise_samples: int = 100
    noise_sigma: float = 0.05

    def __post_init__(self):
        check_field_types(self)
        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        if self.num_noise_samples < 1:
            raise ConfigError(f"num_noise_samples must be >= 1, got {self.num_noise_samples}")
        if self.noise_sigma <= 0:
            raise ConfigError(f"noise_sigma must be > 0, got {self.noise_sigma}")


@dataclass
class Selection:
    """Hard indices always; the soft indicator only when selection was perturbed."""

    hard_indices: np.ndarray
    soft_indicator: Tensor | None = None


def hard_topk(alpha: np.ndarray, k: int) -> np.ndarray:
    """Indices of the K largest entries, ties to the lower index, returned sorted."""
    alpha = np.asarray(alpha, dtype=np.float64)
    n = alpha.shape[0]
    if k > n:
        raise ShapeError(f"K={k} exceeds bag size N={n}")
    order = np.argsort(-alpha, kind="stable")
    return np.sort(order[:k])


def _topk_indicators(perturbed: np.ndarray, k: int) -> np.ndarray:
    idx = np.argpartition(-perturbed, k - 1, axis=1)[:, :k]
    ind = np.zeros_like(perturbed)
    np.put_along_axis(ind, idx, 1.0, axis=1)
    return ind


def perturbed_topk(alpha: Tensor, cfg: TopKConfig, rng: np.random.Generator) -> Tensor:
    """Soft top-K indicator as an autodiff node over the attention vector.

    The M x N Gaussian samples, M = cfg.num_noise_samples, are drawn from `rng`.
    K must not exceed N: `select` checks that first, in `hard_topk`.
    """
    n = alpha.shape[0]
    if cfg.K == n:
        # every perturbation selects everything: constant ones, no gradient
        return constant(np.ones(n))

    m = cfg.num_noise_samples
    noise = rng.normal(size=(m, n))
    perturbed = alpha.data[None, :] + cfg.noise_sigma * noise
    ind = _topk_indicators(perturbed, cfg.K)

    def vjp(g):
        per_sample = ind @ g  # upstream mass landing on each sample's selected set
        return (per_sample @ noise) / (m * cfg.noise_sigma)

    return node(ind.mean(axis=0), (alpha, vjp))


def select(alpha: Tensor, cfg: TopKConfig, rng: np.random.Generator | None) -> Selection:
    """Hard top-K of `alpha`, plus the perturbed soft indicator when given `rng`."""
    hard = hard_topk(alpha.data, cfg.K)
    if rng is None:
        return Selection(hard)
    return Selection(hard, perturbed_topk(alpha, cfg, rng))


def gather_concepts(f_values: np.ndarray, sel: Selection) -> Tensor:
    """K x C concept activations of the selected patches.

    With a soft indicator each hard-top-K row is scaled by its soft weight, so
    selection gradients reach the attention scores while the concept branch
    sees a fixed K x C shape; without one the rows are gathered as-is.
    """
    f_values = np.asarray(f_values, dtype=np.float64)
    idx = np.asarray(sel.hard_indices)
    if idx.size and (idx.min() < 0 or idx.max() >= f_values.shape[0]):
        raise ShapeError(f"selection indices out of range for {f_values.shape[0]} patches")
    rows = constant(f_values[idx])
    if sel.soft_indicator is None:
        return rows
    return scale_rows(rows, gather(sel.soft_indicator, idx))
