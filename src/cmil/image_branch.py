"""Attention-MIL image branch: ReLU projector, gated patch attention, logistic head.

Attention scores are softmax-normalized over the N patches of a bag, so they
double as the selection signal for the top-K gate and as the weights of the
attention-scaled feature aggregate feeding the slide-level classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ShapeError


@dataclass
class ImageBranchParams:
    proj_w: Tensor  # D x d_h
    proj_b: Tensor  # d_h
    attn_v: Tensor  # d_h x d_a
    attn_u: Tensor  # d_h x d_a
    attn_w: Tensor  # d_a
    clf_w: Tensor  # d_h
    clf_b: Tensor  # scalar

    def tensors(self) -> dict[str, Tensor]:
        return {
            "image.proj_w": self.proj_w,
            "image.proj_b": self.proj_b,
            "image.attn_v": self.attn_v,
            "image.attn_u": self.attn_u,
            "image.attn_w": self.attn_w,
            "image.clf_w": self.clf_w,
            "image.clf_b": self.clf_b,
        }


def _uniform(rng, fan_in: int, shape) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape))


def init_image_params(rng: np.random.Generator, D: int, d_h: int = 256, d_a: int = 128) -> ImageBranchParams:
    return ImageBranchParams(
        proj_w=_uniform(rng, D, (D, d_h)),
        proj_b=_uniform(rng, D, (d_h,)),
        attn_v=_uniform(rng, d_h, (d_h, d_a)),
        attn_u=_uniform(rng, d_h, (d_h, d_a)),
        attn_w=_uniform(rng, d_a, (d_a,)),
        clf_w=_uniform(rng, d_h, (d_h,)),
        clf_b=_uniform(rng, d_h, ()),
    )


def project_features(I: Tensor, params: ImageBranchParams) -> Tensor:
    if I.shape[1] != params.proj_w.shape[0]:
        raise ShapeError(f"embeddings have D={I.shape[1]}, projector expects D={params.proj_w.shape[0]}")
    return ad.relu(ad.add_rowvec(I @ params.proj_w, params.proj_b))


def raw_attention_scores(V: Tensor, params: ImageBranchParams) -> Tensor:
    gate = ad.mul(ad.tanh(V @ params.attn_v), ad.sigmoid(V @ params.attn_u))
    return gate @ params.attn_w


def attention_scores(V: Tensor, params: ImageBranchParams) -> Tensor:
    return ad.softmax(raw_attention_scores(V, params))


def image_logit(V: Tensor, alpha: Tensor, params: ImageBranchParams) -> tuple[Tensor, Tensor]:
    scaled = ad.scale_rows(V, alpha)
    logit = ad.reduce_sum(scaled @ params.clf_w) + params.clf_b
    return logit, ad.sigmoid(logit)


@dataclass
class ImageForward:
    V: Tensor
    alpha: Tensor
    logit: Tensor
    prob: Tensor


def image_forward(I: Tensor, params: ImageBranchParams) -> ImageForward:
    V = project_features(I, params)
    alpha = attention_scores(V, params)
    logit, prob = image_logit(V, alpha, params)
    return ImageForward(V, alpha, logit, prob)
