"""Attention-MIL image branch: ReLU projector, gated patch attention, logistic head.

Attention scores are softmax-normalized over the N patches of a bag, so they
double as the selection signal for the top-K gate and as the weights of the
attention-scaled feature aggregate feeding the slide-level classifier.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

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
        return named_tensors(self, "image.")


def named_tensors(params, prefix: str) -> dict[str, Tensor]:
    """The Tensor fields of a params dataclass, keyed prefix + field name, in field order."""
    return {prefix + f.name: v for f in fields(params)
            if isinstance(v := getattr(params, f.name), Tensor)}


def project_features(I: Tensor, params: ImageBranchParams) -> Tensor:
    if I.shape[1] != params.proj_w.shape[0]:
        raise ShapeError(f"embeddings have D={I.shape[1]}, projector expects D={params.proj_w.shape[0]}")
    return ad.affine_relu(I, params.proj_w, params.proj_b)


def gated_attention(x: Tensor, attn_v: Tensor, attn_u: Tensor, attn_w: Tensor) -> Tensor:
    """Gated attention score of each row of x: (tanh(x@V) * sigmoid(x@U)) @ w."""
    return ad.mul(ad.tanh(x @ attn_v), ad.sigmoid(x @ attn_u)) @ attn_w


def attention_scores(V: Tensor, params: ImageBranchParams) -> Tensor:
    return ad.softmax(gated_attention(V, params.attn_v, params.attn_u, params.attn_w))


def image_logit(V: Tensor, alpha: Tensor, params: ImageBranchParams) -> Tensor:
    return ad.reduce_sum(ad.scale_rows(V, alpha) @ params.clf_w) + params.clf_b


@dataclass
class ImageForward:
    alpha: Tensor
    prob: Tensor


def image_forward(I: Tensor, params: ImageBranchParams) -> ImageForward:
    V = project_features(I, params)
    alpha = attention_scores(V, params)
    return ImageForward(alpha, ad.sigmoid(image_logit(V, alpha, params)))
