"""Cosine projection of patch embeddings into concept space.

Both patch and concept embeddings come from frozen encoders, so the
activation matrix is training-invariant (plain numpy, no autodiff). Training
recomputes it for the bag of each step rather than holding every bag's.
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


def check_dim(shape: tuple, concepts: ConceptSet) -> None:
    """Raise the ShapeError `project` raises unless `shape` is N x D in the concept set's D."""
    if len(shape) != 2 or shape[1] != concepts.dim:
        got = f"have D={shape[1]}" if len(shape) == 2 else "are not N x D"
        raise ShapeError(f"embeddings of shape {shape} {got}; concept space expects D={concepts.dim}")


def project(bag_embeddings: np.ndarray, concepts: ConceptSet) -> np.ndarray:
    """N x C cosine activations, columns in the concept set's order."""
    emb = np.asarray(bag_embeddings, dtype=np.float64)
    check_dim(emb.shape, concepts)
    values = l2_normalize_rows(emb) @ l2_normalize_rows(concepts.embeddings).T
    # unit rows can still round a hair past 1
    np.clip(values, -1.0, 1.0, out=values)
    return values
