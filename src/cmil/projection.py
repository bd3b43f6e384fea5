"""Cosine projection of patch embeddings into concept space.

Both patch and concept embeddings come from frozen encoders, so the
activation matrix is training-invariant; it is computed once per bag (plain
numpy, no autodiff).
"""

from __future__ import annotations

import numpy as np

from .bagio import ConceptSet
from .errors import DegenerateEmbeddingError, ShapeError


def l2_normalize_rows(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    bad = np.nonzero(norms <= 1e-12)[0]
    if bad.size:
        raise DegenerateEmbeddingError(f"zero-norm embedding at row {bad[0]}")
    return m / norms[:, None]


def project(bag_embeddings: np.ndarray, concepts: ConceptSet) -> np.ndarray:
    """N x C cosine activations, columns in the concept set's order."""
    emb = np.asarray(bag_embeddings, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[1] != concepts.dim:
        raise ShapeError(
            f"embeddings are {emb.shape}, concept space expects D={concepts.dim}"
        )
    values = l2_normalize_rows(emb) @ l2_normalize_rows(concepts.embeddings).T
    # unit rows can still round a hair past 1
    np.clip(values, -1.0, 1.0, out=values)
    return values
