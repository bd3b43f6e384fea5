"""Cosine projection of patch embeddings into concept space.

Both patch and concept embeddings come from frozen encoders, so the
activation matrix is training-invariant; it is computed once per bag (plain
numpy, no autodiff).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bagio import ConceptSet
from .errors import DataValidationError, DegenerateEmbeddingError, ShapeError


@dataclass
class ConceptActivationMatrix:
    """N x C cosine activations, columns aligned with the concept names."""

    values: np.ndarray
    names: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != len(self.names):
            raise ShapeError(
                f"activation matrix {self.values.shape} does not match {len(self.names)} concept names"
            )
        if np.max(np.abs(self.values), initial=0.0) > 1 + 1e-9:
            raise DataValidationError("cosine activations must lie in [-1, 1]")


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    bad = np.nonzero(norms <= 1e-12)[0]
    if bad.size:
        raise DegenerateEmbeddingError(f"zero-norm embedding at row {bad[0]}")
    return m / norms[:, None]


def project(bag_embeddings: np.ndarray, concepts: ConceptSet) -> ConceptActivationMatrix:
    emb = np.asarray(bag_embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[1] != concepts.dim:
        raise ShapeError(
            f"embeddings are {emb.shape}, concept space expects D={concepts.dim}"
        )
    values = l2_normalize_rows(emb) @ l2_normalize_rows(concepts.embeddings).T
    # unit rows can still round a hair past 1
    np.clip(values, -1.0, 1.0, out=values)
    return ConceptActivationMatrix(values, list(concepts.names))
