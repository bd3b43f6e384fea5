import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmil.bagio import read_bag, read_concepts, read_split
from cmil.errors import ConfigError, config_from_dict
from cmil.synthgen import (SynthConfig, _background_draws, _grid_shape, _tumor_block, gen_bag,
                           gen_concepts, gen_dataset)

DESK = SynthConfig(seed=7, num_bags=20, N_range=(30, 60), D=32, C=8, tumor_concept_count=3)
DESK_CONCEPTS = gen_concepts(DESK)


def desk_bag(seed, label):
    return gen_bag(DESK, np.random.default_rng(seed), force_label=label,
                   concepts=DESK_CONCEPTS, slide_id="synth")


class TestConfig:
    def test_d_smaller_than_c_rejected(self):
        with pytest.raises(ConfigError, match="D must be >= C"):
            SynthConfig(D=4, C=12)

    def test_fraction_range_ordering(self):
        with pytest.raises(ConfigError, match="tumor_fraction_range"):
            SynthConfig(tumor_fraction_range=(0.4, 0.2))

    def test_tumor_concepts_bounded_by_c(self):
        with pytest.raises(ConfigError, match="tumor_concept_count"):
            SynthConfig(C=4, D=8, tumor_concept_count=4)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(SynthConfig, {"seeed": 3})

    def test_from_dict_round_trip(self):
        cfg = config_from_dict(SynthConfig, {"seed": 5, "N_range": [10, 20], "D": 16, "C": 6})
        assert cfg.N_range == (10, 20) and cfg.seed == 5


class TestConcepts:
    def test_rows_orthonormal(self):
        cs = gen_concepts(DESK)
        gram = cs.embeddings @ cs.embeddings.T
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=1e-12)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-9

    def test_square_case(self):
        cfg = SynthConfig(D=4, C=4, tumor_concept_count=2)
        cs = gen_concepts(cfg)
        assert cs.embeddings.shape == (4, 4)
        np.testing.assert_allclose(np.linalg.norm(cs.embeddings, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        a = gen_concepts(DESK).embeddings
        b = gen_concepts(DESK).embeddings
        assert a.tobytes() == b.tobytes()

    def test_tumor_names_lead(self):
        cs = gen_concepts(DESK)
        assert all(n.startswith("tumor") for n in cs.names[:3])
        assert all(n.startswith("background") for n in cs.names[3:])


def _neighbors(idx, cols):
    r, c = idx // cols, idx % cols
    return {(r - 1) * cols + c, (r + 1) * cols + c, idx - 1 if c > 0 else -1, idx + 1 if c + 1 < cols else -1}


class TestGenBag:
    def test_force_negative_has_no_tumor_flags(self):
        bag = desk_bag(0, 0)
        assert bag.label == 0
        assert bag.in_tumor is not None and not bag.in_tumor.any()

    def test_force_positive_fraction_in_range(self):
        for seed in range(8):
            bag = desk_bag(seed, 1)
            n = len(bag.in_tumor)
            frac = int(bag.in_tumor.sum()) / n
            lo, hi = DESK.tumor_fraction_range
            assert lo - 1 / n <= frac <= hi + 1 / n

    def test_tumor_block_connected(self):
        bag = desk_bag(3, 1)
        cols = int(bag.grid[:, 1].max()) + 1
        tumor = set(np.flatnonzero(bag.in_tumor).tolist())
        # BFS over 4-adjacency must reach the whole block
        start = next(iter(tumor))
        seen, frontier = {start}, [start]
        while frontier:
            cur = frontier.pop()
            for nb in _neighbors(cur, cols):
                if nb in tumor and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        assert seen == tumor

    def test_noiseless_tumor_patch_is_exact_mixture(self):
        cfg = SynthConfig(seed=1, N_range=(40, 40), D=16, C=5, tumor_concept_count=2,
                          noise_std=0.0, signal_strength=1.0)
        cs = gen_concepts(cfg)
        bag = gen_bag(cfg, np.random.default_rng(5), force_label=1, concepts=cs, slide_id="synth")
        tumor_rows = bag.embeddings[bag.in_tumor]
        # all tumor patches share the bag mixture; cosine vs that mixture is 1
        mix = tumor_rows[0]
        for row in tumor_rows:
            cos = row @ mix / (np.linalg.norm(row) * np.linalg.norm(mix))
            assert abs(cos - 1.0) < 1e-12

    def test_noiseless_tumor_patches_activate_only_tumor_concepts(self):
        cfg = SynthConfig(seed=2, N_range=(50, 50), D=32, C=10, tumor_concept_count=3, noise_std=0.0)
        cs = gen_concepts(cfg)
        bag = gen_bag(cfg, np.random.default_rng(11), force_label=1, concepts=cs, slide_id="synth")
        unit = bag.embeddings / np.linalg.norm(bag.embeddings, axis=1, keepdims=True)
        acts = unit @ cs.embeddings.T
        tumor_mask = bag.in_tumor
        assert np.max(np.abs(acts[tumor_mask][:, 3:])) <= 1e-9
        assert np.max(np.abs(acts[~tumor_mask][:, :3])) <= 1e-9

    def test_label_iff_tumor_patch(self):
        for seed in range(12):
            for label in (0, 1):
                bag = desk_bag(seed, label)
                assert bag.label == label
                assert (bag.label == 1) == bool(bag.in_tumor.any())


def per_patch_bag(cfg, rng, label, concepts):
    """The generator as a per-patch loop: the reference gen_bag must match
    byte for byte.  Returns (embeddings, grid, in_tumor)."""
    tc = cfg.tumor_concept_count
    tumor_basis, bg_basis = concepts.embeddings[:tc], concepts.embeddings[tc:]

    def convex_weights(k):
        w = rng.uniform(0.5, 1.0, size=k)
        return w / w.sum()

    n = int(rng.integers(cfg.N_range[0], cfg.N_range[1] + 1))
    tumor_idx = set()
    tumor_dir = np.zeros(cfg.D)
    if label == 1:
        frac = float(rng.uniform(*cfg.tumor_fraction_range))
        tumor_idx = {int(i) for i in _tumor_block(n, frac, *cfg.tumor_fraction_range, rng)}
        tumor_dir = convex_weights(tc) @ tumor_basis
    emb = np.empty((n, cfg.D))
    for i in range(n):
        if i in tumor_idx:
            base = tumor_dir
        elif bg_basis.shape[0] >= 2:
            pick = rng.choice(bg_basis.shape[0], size=2, replace=False)
            base = convex_weights(2) @ bg_basis[pick]
        else:
            base = bg_basis[0]
        emb[i] = cfg.signal_strength * base
    if cfg.noise_std > 0:
        emb += cfg.noise_std * rng.normal(size=emb.shape)
    cols = _grid_shape(n)[1]
    grid = np.array([(i // cols, i % cols) for i in range(n)], dtype=np.int64)
    in_tumor = np.array([i in tumor_idx for i in range(n)])
    return emb, grid, in_tumor


GEN_ORACLE_CONFIGS = {
    "desk": DESK,
    "one background concept": SynthConfig(seed=2, N_range=(20, 70), D=16, C=4, tumor_concept_count=3),
    "noiseless": SynthConfig(seed=5, N_range=(1, 90), D=24, C=9, tumor_concept_count=2,
                             noise_std=0.0, signal_strength=1.7),
    # k = 2: choice's first Floyd draw is in [0, 0] and consumes no bits
    "two background concepts": SynthConfig(seed=4, N_range=(1, 80), D=12, C=5,
                                           tumor_concept_count=3),
}


class TestGenBagMatchesPerPatchLoop:
    @pytest.mark.parametrize("name", list(GEN_ORACLE_CONFIGS))
    def test_byte_equal(self, name):
        cfg = GEN_ORACLE_CONFIGS[name]
        concepts = gen_concepts(cfg)
        for seed in range(8):
            for label in (0, 1):
                bag = gen_bag(cfg, np.random.default_rng(seed), force_label=label, concepts=concepts,
                              slide_id="s")
                emb, grid, in_tumor = per_patch_bag(cfg, np.random.default_rng(seed), label, concepts)
                assert bag.embeddings.tobytes() == emb.tobytes(), (seed, label)
                assert bag.grid.tobytes() == grid.tobytes(), (seed, label)
                assert bag.in_tumor.tobytes() == in_tumor.tobytes(), (seed, label)

    def test_default_scale(self):
        cfg = SynthConfig(seed=11)
        concepts = gen_concepts(cfg)
        for seed in range(4):
            bag = gen_bag(cfg, np.random.default_rng(seed), force_label=seed % 2, concepts=concepts,
                          slide_id="s")
            emb, _, _ = per_patch_bag(cfg, np.random.default_rng(seed), seed % 2, concepts)
            assert bag.embeddings.tobytes() == emb.tobytes(), seed


def per_patch_draws(rng, k, m):
    """The background draws as gen_bag made them one patch at a time."""
    picks, u = np.empty((m, 2), dtype=np.int64), np.empty((m, 2))
    for j in range(m):
        picks[j] = rng.choice(k, size=2, replace=False)
        u[j] = rng.random(2)
    return picks, u


class TestBackgroundDrawsMatchPerPatchLoop:
    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(2, 40), m=st.integers(0, 300), prior=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_same_draws_and_state(self, k, m, prior, seed):
        fast, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        # each bounded draw below 2**32 takes one 32-bit half of a PCG64 output,
        # so the other half starts buffered or not
        for rng in (fast, loop):
            for _ in range(prior):
                rng.integers(0, 100)
        picks, u = _background_draws(fast, k, m)
        loop_picks, loop_u = per_patch_draws(loop, k, m)
        assert picks.tobytes() == loop_picks.tobytes()
        assert u.tobytes() == loop_u.tobytes()
        assert fast.bit_generator.state == loop.bit_generator.state
        assert fast.normal(size=3).tobytes() == loop.normal(size=3).tobytes()


class CountingRng:
    """Forwards every method call to a Generator and counts them."""

    def __init__(self, rng):
        self.rng, self.calls = rng, 0

    def __getattr__(self, name):
        method = getattr(self.rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)
        return counted


class TestGenBagWork:
    def test_generator_calls_do_not_grow_with_patches(self):
        concepts = gen_concepts(SynthConfig())
        for label in (0, 1):
            counts = set()
            for n in (64, 100, 181, 256):
                cfg = SynthConfig(N_range=(n, n))
                rng = CountingRng(np.random.default_rng(n))
                bag = gen_bag(cfg, rng, force_label=label, concepts=concepts, slide_id="s")
                plain = gen_bag(cfg, np.random.default_rng(n), force_label=label,
                                concepts=concepts, slide_id="s")
                assert bag.embeddings.tobytes() == plain.embeddings.tobytes()
                counts.add(rng.calls)
            assert len(counts) == 1 and max(counts) <= 8, (label, counts)


class TestGenDataset:
    def test_counts_and_split_sizes(self, tmp_path):
        cfg = SynthConfig(seed=3, num_bags=100, N_range=(8, 12), D=16, C=6, tumor_concept_count=2,
                          positive_rate=0.5)
        split = gen_dataset(cfg, tmp_path)
        assert (len(split.train), len(split.val), len(split.test)) == (80, 10, 10)
        labels = [read_bag(p).label for p in split.all_paths()]
        assert sum(labels) == 50

    def test_round_positive_count(self, tmp_path):
        cfg = SynthConfig(seed=3, num_bags=30, N_range=(6, 8), D=8, C=4, tumor_concept_count=1,
                          positive_rate=0.37)
        split = gen_dataset(cfg, tmp_path)
        labels = [read_bag(p).label for p in split.all_paths()]
        assert sum(labels) == round(30 * 0.37)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = SynthConfig(seed=9, num_bags=12, N_range=(6, 10), D=16, C=6, tumor_concept_count=2)
        gen_dataset(cfg, tmp_path / "a")
        gen_dataset(cfg, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b and len(files_a) > 20
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes(), rel

    def test_artifacts_loadable(self, tmp_path):
        cfg = SynthConfig(seed=1, num_bags=10, N_range=(5, 9), D=16, C=6, tumor_concept_count=2)
        gen_dataset(cfg, tmp_path)
        cs = read_concepts(tmp_path / "concepts.ccpt")
        assert cs.num_concepts == 6 and cs.dim == 16
        split = read_split(tmp_path / "split.json")
        assert len(split.all_paths()) == 10
        slide_ids = {read_bag(p).slide_id for p in split.all_paths()}
        assert len(slide_ids) == 10
