import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmil.bagio import ConceptSet, read_bag, read_concepts, read_split
from cmil.errors import DegenerateEmbeddingError, ShapeError
from cmil.projection import l2_normalize_rows, project
from cmil.synthgen import SynthConfig, gen_dataset


def cosine_oracle(emb, conc):
    """Scalar-loop cosine similarity, no vectorization."""
    n, c = len(emb), len(conc)
    out = np.zeros((n, c))
    for i in range(n):
        for j in range(c):
            dot = sum(emb[i][k] * conc[j][k] for k in range(len(emb[i])))
            ni = math.sqrt(sum(x * x for x in emb[i]))
            nj = math.sqrt(sum(x * x for x in conc[j]))
            out[i, j] = dot / (ni * nj)
    return out


class TestNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(l2_normalize_rows([[3.0, 4.0]]), [[0.6, 0.8]], atol=1e-15)

    def test_idempotent(self):
        m = np.random.default_rng(0).normal(size=(4, 6))
        once = l2_normalize_rows(m)
        np.testing.assert_allclose(l2_normalize_rows(once), once, atol=1e-12)

    def test_zero_row_names_index(self):
        m = np.ones((3, 4))
        m[2] = 0.0
        with pytest.raises(DegenerateEmbeddingError, match="row 2"):
            l2_normalize_rows(m)


class TestProject:
    def _concepts(self, mat):
        return ConceptSet([f"c{i}" for i in range(len(mat))], np.asarray(mat, float))

    def test_parallel_is_one(self):
        cs = self._concepts([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        acts = project(np.array([[5.0, 0.0, 0.0]]), cs)
        assert acts[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_is_zero(self):
        cs = self._concepts([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        acts = project(np.array([[0.0, 0.0, 2.0]]), cs)
        np.testing.assert_allclose(acts[0], [0.0, 0.0], atol=1e-12)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(42)
        emb = rng.normal(size=(5, 8))
        conc = rng.normal(size=(3, 8))
        acts = project(emb, self._concepts(conc))
        np.testing.assert_allclose(acts, cosine_oracle(emb, conc), atol=1e-12)

    def test_dimension_mismatch(self):
        cs = self._concepts(np.eye(2, 4))
        with pytest.raises(ShapeError, match="D=4"):
            project(np.zeros((3, 5)) + 1.0, cs)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(6, 5))
        cs = self._concepts(rng.normal(size=(3, 5)))
        a = project(emb, cs)
        b = project(emb * 137.0, cs)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_self_projection_unit_diagonal(self):
        rng = np.random.default_rng(2)
        conc = rng.normal(size=(4, 7))
        cs = self._concepts(conc)
        acts = project(conc, cs)
        np.testing.assert_allclose(np.diag(acts), 1.0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), scale=st.floats(0.01, 100.0))
    def test_values_bounded_property(self, seed, scale):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(4, 6)) * scale
        cs = self._concepts(rng.normal(size=(3, 6)))
        acts = project(emb, cs)
        assert np.all(np.abs(acts) <= 1.0)


def test_tumor_concepts_retrieve_only_tumor_patches(tmp_path):
    """The ten highest activations of each tumor concept fall on tumor patches."""
    root = tmp_path / "noiseless"
    gen_dataset(SynthConfig(seed=100, num_bags=30, N_range=(12, 20), D=16, C=6,
                            tumor_concept_count=2, signal_strength=3.0, noise_std=0.0),
                root)
    concepts = read_concepts(root / "concepts.ccpt")
    bags = [read_bag(p) for p in read_split(root / "split.json").all_paths()]
    in_tumor = np.concatenate([b.in_tumor for b in bags])
    acts = np.vstack([project(b.embeddings, concepts) for b in bags])
    for c, name in enumerate(concepts.names):
        if name.startswith("tumor"):
            assert in_tumor[np.argsort(-acts[:, c], kind="stable")[:10]].all(), name
