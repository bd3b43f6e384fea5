"""Evaluation metrics: classification, localization, and separability.

JS divergence uses shared-range equal-width histograms and base-2 logs so the
[0,1] bound holds; silhouette is the exact O(n^2) definition with the
singleton-cluster-scores-zero convention.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .bagio import Bag
from .embed2d import _ROWS, add_strip_product, lift, sq_dist_strips
from .errors import DataValidationError


def accuracy(preds, labels) -> float:
    preds = np.asarray(preds, dtype=np.float64)
    labels = np.asarray(labels)
    if preds.size == 0 or preds.shape != labels.shape:
        raise DataValidationError(f"need equal nonempty preds/labels, got {preds.shape} vs {labels.shape}")
    return float(np.mean((preds >= 0.5).astype(int) == labels))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of `values`; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)  # 1-based rank of the last member of each tie group
    return (ends - (counts - 1) / 2.0)[inverse]


def auc(scores, labels) -> float:
    """Mann-Whitney AUC; tied scores contribute 1/2 via average ranks."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataValidationError("AUC needs both classes present")
    ranks = _average_ranks(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def disease_localization(selected_indices, bag: Bag) -> float:
    """Fraction of the selected patches lying in ground-truth tumor regions."""
    if bag.in_tumor is None:
        raise DataValidationError(f"bag {bag.slide_id} lacks in_tumor flags")
    idx = np.asarray(selected_indices, dtype=int)
    if idx.size == 0:
        raise DataValidationError("empty selection")
    hits = int(np.count_nonzero(bag.in_tumor[idx]))
    return hits / idx.size


def jsd_from_histograms(p, q) -> float:
    """Jensen-Shannon divergence of two probability vectors, base-2 logs."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    p = p / p.sum()
    q = q / q.sum()
    m = 0.5 * (p + q)

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    return 0.5 * kl(p, m) + 0.5 * kl(q, m)


def js_divergence(samples_a, samples_b) -> float:
    """JSD between two sample sets, histogrammed on 32 shared equal-width bins."""
    a = np.asarray(samples_a, dtype=np.float64).ravel()
    b = np.asarray(samples_b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise DataValidationError("JS divergence needs nonempty samples on both sides")
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if lo == hi:
        return 0.0
    p, _ = np.histogram(a, bins=32, range=(lo, hi))
    q, _ = np.histogram(b, bins=32, range=(lo, hi))
    return jsd_from_histograms(p, q)


def silhouette(points, labels) -> float:
    """Mean silhouette over points, Euclidean distance, singletons score 0.

    Distances are built a block of _ROWS rows at a time, each pair once:
    embed2d.sq_dist_strips gives the block's upper strip, exactly 0 on the
    diagonal, and embed2d.add_strip_product adds its distance sums to each
    cluster for the block's rows and the mirrored rows after them.  Memory
    stays O(rows x n), and each row is scored after the last strip.
    """
    pts = np.asarray(points, dtype=np.float64)
    labels = np.asarray(labels)
    if pts.ndim != 2 or pts.shape[0] != labels.shape[0]:
        raise DataValidationError(f"points {pts.shape} and labels {labels.shape} do not align")
    if pts.shape[1] < 1:
        raise DataValidationError(f"points {pts.shape} have no coordinates")
    classes, cluster, counts = np.unique(labels, return_inverse=True, return_counts=True)
    if classes.size < 2:
        raise DataValidationError("silhouette needs at least 2 clusters")
    n = pts.shape[0]
    onehot = np.zeros((n, classes.size))
    onehot[np.arange(n), cluster] = 1.0
    per_cluster, mirrored = np.empty((n, classes.size)), np.zeros((n, classes.size))
    buf = np.empty(2 * min(_ROWS, n) * n)
    for lo, strip in sq_dist_strips(*lift(pts), buf):
        add_strip_product(np.sqrt(strip[1], out=strip[1]), lo, onehot, per_cluster, mirrored)
    per_cluster += mirrored  # distance sums to each cluster
    rows = np.arange(n)
    own_count = counts[cluster]
    a = per_cluster[rows, cluster] / np.maximum(own_count - 1, 1)
    per_cluster /= counts  # mean distance to each cluster
    per_cluster[rows, cluster] = np.inf
    b = per_cluster.min(axis=1)
    denom = np.maximum(a, b)
    # singleton convention; max(a, b) == 0 only for coincident points
    scored = (own_count > 1) & (denom > 0)
    scores = np.divide(b - a, denom, out=np.zeros_like(denom), where=scored)
    return float(scores.mean())


@dataclass
class EvalResult:
    """`eval.json`'s ``results`` object, in schemas/eval.schema.json's shape."""

    accuracy: float
    auc: float
    auc_per_concept: dict
    localization_mean: float | None
    localization_slides: int
    jsd_per_concept: dict
    jsd_mean: float | None
    silhouette: dict
    counts: dict

    def to_dict(self) -> dict:
        return asdict(self)
