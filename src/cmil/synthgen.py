"""Deterministic synthetic datasets with known tumor patches.

Concept vectors form an exact orthonormal basis subset, positive bags carry a
contiguous grid block of tumor patches built from convex combinations of the
tumor concepts, and every bag derives its own RNG stream from
``(seed, bag_index)`` so parallel and serial generation are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bagio import Bag, ConceptSet, DatasetSplit, read_split, write_bag, write_concepts, write_split
from .errors import ConfigError, check_field_types

# stream ids far above any bag index
_CONCEPT_STREAM = 2**40
_LAYOUT_STREAM = 2**40 + 1


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    num_bags: int = 200
    N_range: tuple[int, int] = (64, 256)
    D: int = 64
    C: int = 12
    tumor_concept_count: int = 4
    tumor_fraction_range: tuple[float, float] = (0.2, 0.4)
    signal_strength: float = 1.0
    noise_std: float = 0.05
    positive_rate: float = 0.5

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        lo, hi = self.tumor_fraction_range
        if not (0 < lo < hi < 1):
            raise ConfigError(f"tumor_fraction_range must satisfy 0 < lo < hi < 1, got {self.tumor_fraction_range}")
        if not (1 <= self.tumor_concept_count < self.C):
            raise ConfigError(f"tumor_concept_count must be in [1, C), got {self.tumor_concept_count} with C={self.C}")
        if self.D < self.C:
            raise ConfigError(f"D must be >= C, got D={self.D}, C={self.C}")
        if not (1 <= self.N_range[0] <= self.N_range[1]):
            raise ConfigError(f"invalid N_range {self.N_range}")
        if self.num_bags < 1:
            raise ConfigError("num_bags must be >= 1")
        if self.signal_strength <= 0:
            raise ConfigError("signal_strength must be > 0")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if not (0 < self.positive_rate < 1):
            raise ConfigError(f"positive_rate must be in (0,1), got {self.positive_rate}")


def gen_concepts(cfg: SynthConfig) -> ConceptSet:
    """C exactly-orthonormal unit rows; the first tumor_concept_count are tumor concepts."""
    rng = np.random.default_rng((cfg.seed, _CONCEPT_STREAM))
    a = rng.normal(size=(cfg.D, cfg.C))
    q, r = np.linalg.qr(a)
    # canonical sign: positive R diagonal
    s = np.sign(np.diag(r))
    s[s == 0] = 1.0
    rows = (q * s).T
    names = [f"tumor concept {i}" for i in range(cfg.tumor_concept_count)] + [
        f"background concept {i}" for i in range(cfg.C - cfg.tumor_concept_count)
    ]
    return ConceptSet(names, rows)


def _grid_shape(n: int) -> tuple[int, int]:
    cols = math.isqrt(n)
    if cols * cols < n:
        cols += 1
    rows = (n + cols - 1) // cols
    return rows, cols


def _tumor_block(n: int, frac: float, lo: float, hi: float, rng) -> np.ndarray:
    """Indices of a 4-connected block of ~frac·n cells in the row-major grid of n cells."""
    _, cols = _grid_shape(n)
    t_lo = max(1, math.ceil(lo * n))
    t_hi = max(1, math.floor(hi * n))
    t = min(max(int(round(frac * n)), t_lo), max(t_lo, t_hi))
    full_rows = n // cols
    t = min(t, full_rows * cols)
    w = min(cols, math.ceil(math.sqrt(t)))
    h = math.ceil(t / w)
    if h > full_rows:
        h = full_rows
        w = math.ceil(t / h)
    r0 = int(rng.integers(0, full_rows - h + 1))
    c0 = int(rng.integers(0, cols - w + 1))
    # first t cells of the rectangle, row-major: stays 4-connected
    j = np.arange(t)
    return (r0 + j // w) * cols + (c0 + j % w)


def _convex_weights(rng, k: int) -> np.ndarray:
    # bounded away from 0 so every chosen concept genuinely contributes
    w = rng.uniform(0.5, 1.0, size=k)
    return w / w.sum()


def _background_draws(rng, k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m x 2 concept picks and m x 2 uniforms of m patches'
    `rng.choice(k, 2, replace=False)` then `rng.random(2)`, from one
    `rng.integers` call of five draws a patch, in the loop's order:
    Floyd's two in `choice`, in [0, k-2] and [0, k-1], where a repeat of the
    first takes k-1 (k = 2 makes the first 0 and consumes nothing); the
    shuffle draw in [0, 1], where 0 swaps the pair; and two in [0, 2**53),
    the top 53 bits of the next 64, which times 2**-53 is `random()`.

    An int64 `integers` with array bounds and `choice` both draw through
    numpy's `random_bounded_uint64` (Lemire's method), so for PCG64, which
    `default_rng` and `gen_dataset` use, the values and the generator's
    state after them are the loop's, its buffered 32-bit half included.
    Other bit generators get valid uniform draws, but not the loop's."""
    d = rng.integers(0, np.tile(np.array([k - 1, k, 2, 2**53, 2**53]), m)).reshape(m, 5)
    pair = np.stack([d[:, 0], np.where(d[:, 1] == d[:, 0], k - 1, d[:, 1])], axis=1)
    return np.where(d[:, 2:3] == 0, pair[:, ::-1], pair), d[:, 3:] * 2.0**-53


def gen_bag(
    cfg: SynthConfig,
    rng: np.random.Generator,
    force_label: int,
    concepts: ConceptSet,
    slide_id: str,
) -> Bag:
    """One bag of n patches: a positive bag's tumor block shares one convex
    mixture of the tumor concepts, and every other patch mixes two
    background concepts with its own draws (or is the one background
    concept).  All background draws are one call (`_background_draws`); the
    weights are scaled and normalised on arrays, and the mixing is one
    stacked 1 x 2 @ 2 x D matmul, which gives each row the bits of a
    per-patch `weights @ basis`."""
    tc = cfg.tumor_concept_count
    tumor_basis = concepts.embeddings[:tc]
    bg_basis = concepts.embeddings[tc:]

    n = int(rng.integers(cfg.N_range[0], cfg.N_range[1] + 1))
    label = int(force_label)

    in_tumor = np.zeros(n, dtype=bool)
    emb = np.empty((n, cfg.D))
    if label == 1:
        frac = float(rng.uniform(*cfg.tumor_fraction_range))
        in_tumor[_tumor_block(n, frac, *cfg.tumor_fraction_range, rng)] = True
        emb[in_tumor] = cfg.signal_strength * (_convex_weights(rng, tc) @ tumor_basis)

    background = ~in_tumor
    if bg_basis.shape[0] >= 2:
        picks, u = _background_draws(rng, bg_basis.shape[0], n - int(in_tumor.sum()))
        # rng.uniform(0.5, 1.0) is 0.5 + 0.5 u of the same u, and 0.5 u is exact
        weights = 0.5 + 0.5 * u[:, None, :]
        weights /= weights.sum(axis=2, keepdims=True)
        emb[background] = cfg.signal_strength * np.matmul(weights, bg_basis[picks])[:, 0]
    else:
        emb[background] = cfg.signal_strength * bg_basis[0]
    if cfg.noise_std > 0:
        emb += cfg.noise_std * rng.normal(size=emb.shape)

    _, cols = _grid_shape(n)
    grid = np.stack(np.divmod(np.arange(n), cols), axis=1)
    return Bag(slide_id, label, emb, grid, in_tumor)


def gen_dataset(cfg: SynthConfig, out_dir: Path) -> DatasetSplit:
    """Write bags, concept set and split JSON; returns the split as `read_split` reads it.

    Embeddings are quantized to f32 on disk (the storage format), and
    `read_bag` keeps them as f32: reading a written bag reproduces the file
    bytes, not the exact f64 values that `gen_bag` returns in memory.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    concepts = gen_concepts(cfg)
    write_concepts(concepts, out_dir / "concepts.ccpt")

    layout_rng = np.random.default_rng((cfg.seed, _LAYOUT_STREAM))
    num_pos = int(round(cfg.num_bags * cfg.positive_rate))
    labels = np.array([1] * num_pos + [0] * (cfg.num_bags - num_pos))
    layout_rng.shuffle(labels)

    names = []
    for i in range(cfg.num_bags):
        bag_rng = np.random.default_rng((cfg.seed, i))
        bag = gen_bag(cfg, bag_rng, force_label=int(labels[i]), concepts=concepts, slide_id=f"synth_{i:04d}")
        name = f"bag_{i:04d}.cmil"
        write_bag(bag, out_dir / name)
        names.append(name)

    n_train = int(round(0.8 * cfg.num_bags))
    n_val = int(round(0.1 * cfg.num_bags))
    rel = {
        "train": names[:n_train],
        "val": names[n_train : n_train + n_val],
        "test": names[n_train + n_val :],
    }
    write_split(rel, out_dir / "split.json")
    return read_split(out_dir / "split.json")
