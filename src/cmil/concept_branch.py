"""Self-interpretable concept branch.

Gated attention runs over the transposed K x C activation matrix, so every
attention unit sees one concept's K-vector of activations across the selected
patches. Raw scores are sparsified by a percentile/temperature squash
(sigmoid((raw - Pr_gamma)/std * t)) instead of softmax, and the slide logit is
assembled as the sum of per-concept contributions kappa_c, making the
decomposition sigma(sum kappa + b) = Y_concept an identity of the forward
pass itself rather than a post-hoc approximation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError
from .image_branch import gated_attention, named_tensors


@dataclass
class ConceptBranchParams:
    attn_v: Tensor  # K x d_a
    attn_u: Tensor  # K x d_a
    attn_w: Tensor  # d_a
    clf_w: Tensor  # C
    clf_b: Tensor  # scalar
    gamma: float  # checked by TrainConfig
    temperature: float

    def tensors(self) -> dict[str, Tensor]:
        return named_tensors(self, "concept.")


@dataclass
class ConceptAttention:
    scaled: Tensor
    gated: Tensor


def concept_attention(f_topk: Tensor, params: ConceptBranchParams) -> Tensor:
    if f_topk.shape[0] != params.attn_v.shape[0]:
        raise ShapeError(
            f"selected activations have K={f_topk.shape[0]}, attention expects K={params.attn_v.shape[0]}"
        )
    ft = ad.transpose(f_topk)  # C x K, one row per concept
    return gated_attention(ft, params.attn_v, params.attn_u, params.attn_w)


def scale_attention(raw: Tensor, gamma: float, temperature: float) -> ConceptAttention:
    mean = ad.reduce_mean(raw)
    centered = raw - mean
    std = ad.sqrt(ad.reduce_mean(centered * centered))
    if std.item() <= 1e-12:
        warnings.warn(
            "concept attention has zero variance; falling back to uniform gating at 0.5",
            RuntimeWarning,
        )
        c = raw.shape[0]
        scaled = ad.constant(np.zeros(c))
        return ConceptAttention(scaled, ad.constant(np.full(c, 0.5)))
    scaled = (raw - ad.percentile(raw, gamma)) / std
    return ConceptAttention(scaled, ad.sigmoid(scaled * temperature))


def _contributions(f_topk: Tensor, beta: Tensor, params: ConceptBranchParams) -> Tensor:
    if f_topk.shape[1] != params.clf_w.shape[0]:
        raise ShapeError(
            f"activations have C={f_topk.shape[1]}, classifier expects C={params.clf_w.shape[0]}"
        )
    ones = ad.constant(np.ones(f_topk.shape[0]))
    col_sums = ad.transpose(f_topk) @ ones  # per-concept sum over the K patches
    return params.clf_w * beta * col_sums


@dataclass
class ConceptForward:
    attention: ConceptAttention
    kappa: Tensor
    prob: Tensor


def concept_forward(f_topk: Tensor, params: ConceptBranchParams) -> ConceptForward:
    att = scale_attention(concept_attention(f_topk, params), params.gamma, params.temperature)
    kappa = _contributions(f_topk, att.gated, params)
    # the logit IS the contribution sum, so the decomposition identity is exact
    return ConceptForward(att, kappa, ad.sigmoid(ad.reduce_sum(kappa) + params.clf_b))
