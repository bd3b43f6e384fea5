import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmil.bagio import Bag
from cmil.embed2d import _ROWS as ROWS
from cmil.errors import DataValidationError
from cmil.metrics import (
    EvalResult,
    _average_ranks,
    accuracy,
    auc,
    disease_localization,
    js_divergence,
    jsd_from_histograms,
    silhouette,
)
from test_embed2d import count_built_distances, strip_entries


def auc_pairwise_oracle(scores, labels):
    """Brute force over all positive/negative pairs; ties count 1/2."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def average_ranks_loop(values):
    """The sort-then-scan loop metrics used before np.unique: ties share the mean 1-based rank."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def silhouette_oracle(points, labels):
    n = len(points)
    d = [[float(np.linalg.norm(np.asarray(points[i]) - np.asarray(points[j]))) for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        same = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not same:
            out.append(0.0)
            continue
        a = sum(d[i][j] for j in same) / len(same)
        b = min(
            sum(d[i][j] for j in range(n) if labels[j] == c) / sum(1 for j in range(n) if labels[j] == c)
            for c in set(labels)
            if c != labels[i]
        )
        out.append((b - a) / max(a, b) if max(a, b) > 0 else 0.0)
    return sum(out) / n


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([0.9, 0.1, 0.8], [1, 0, 1]) == 1.0

    def test_threshold_tie_counts_as_positive(self):
        assert accuracy([0.5], [1]) == 1.0
        assert accuracy([0.5], [0]) == 0.0

    def test_three_of_four(self):
        assert accuracy([0.9, 0.2, 0.7, 0.6], [1, 0, 0, 1]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(DataValidationError):
            accuracy([], [])


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_tied_is_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_pinned_example(self):
        assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75, abs=1e-15)

    def test_single_class_rejected(self):
        with pytest.raises(DataValidationError, match="both classes"):
            auc([0.1, 0.9], [1, 1])

    def test_matches_pairwise_oracle_exactly(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            n = int(rng.integers(2, 30))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 1)
            assert auc(scores, labels) == pytest.approx(auc_pairwise_oracle(scores, labels), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(12)
        labels = np.array([0, 1] * 6)
        a = auc(scores, labels)
        b = auc(np.exp(3 * scores) + 7, labels)
        assert a == pytest.approx(b, abs=1e-12)


class TestAverageRanks:
    def assert_loop_bits(self, values):
        values = np.asarray(values, dtype=np.float64)
        got, expected = _average_ranks(values), average_ranks_loop(values)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_pinned_ties(self):
        np.testing.assert_array_equal(_average_ranks(np.array([3.0, 1.0, 3.0, 2.0, 3.0])),
                                      [4.0, 1.0, 4.0, 2.0, 4.0])

    def test_edge_inputs_match_loop(self):
        for values in ([], [7.0], [0.0, -0.0, 0.0], [-0.0, 1.0, 0.0, -1.0], [np.inf, -np.inf, np.inf],
                       [5e-324, 0.0, -5e-324]):
            self.assert_loop_bits(values)

    def test_random_tied_inputs_match_loop(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 400))
            values = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
            values[rng.random(n) < 0.1] = -0.0
            self.assert_loop_bits(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]) | st.floats(-1e3, 1e3),
                    max_size=60))
    def test_matches_loop_on_any_finite_input(self, values):
        self.assert_loop_bits(values)


def make_flagged_bag(flags):
    n = len(flags)
    emb = np.ones((n, 3))
    return Bag("s", int(any(flags)), emb, [(i, 0) for i in range(n)], [bool(f) for f in flags])


class TestLocalization:
    def test_all_hits(self):
        bag = make_flagged_bag([True] * 20)
        assert disease_localization(range(20), bag) == 1.0

    def test_no_hits(self):
        bag = make_flagged_bag([False] * 20)
        assert disease_localization(range(20), bag) == 0.0

    def test_seventeen_of_twenty(self):
        bag = make_flagged_bag([True] * 17 + [False] * 3)
        assert disease_localization(range(20), bag) == 0.85

    def test_order_invariance(self):
        bag = make_flagged_bag([True, False, True, True, False])
        idx = [0, 2, 3]
        assert disease_localization(idx, bag) == disease_localization(list(reversed(idx)), bag)

    def test_missing_flags_rejected(self):
        bag = Bag("s", 0, np.ones((2, 3)), [(0, 0), (0, 1)], None)
        with pytest.raises(DataValidationError, match="flags"):
            disease_localization([0], bag)


class TestJsd:
    def test_identical_samples_zero(self):
        a = np.random.default_rng(1).normal(size=100)
        assert js_divergence(a, a.copy()) == pytest.approx(0.0, abs=1e-12)

    def test_disjoint_supports_one(self):
        assert js_divergence(np.zeros(50), np.ones(50)) == pytest.approx(1.0, abs=1e-12)

    def test_pinned_histogram_example(self):
        # independent arithmetic: 0.5*KL([1,0]||[.75,.25]) + 0.5*KL([.5,.5]||[.75,.25])
        #   = 0.5*log2(4/3) + 0.5*(0.5*log2(2/3) + 0.5*log2(2)) = 0.311278...
        assert jsd_from_histograms([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.31128, abs=5e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=80), rng.normal(loc=1.0, size=90)
        assert js_divergence(a, b) == pytest.approx(js_divergence(b, a), abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), shift=st.floats(-3, 3))
    def test_bounded_in_unit_interval(self, seed, shift):
        rng = np.random.default_rng(seed)
        v = js_divergence(rng.normal(size=40), rng.normal(loc=shift, size=35))
        assert -1e-12 <= v <= 1.0 + 1e-12

    def test_empty_sample_rejected(self):
        with pytest.raises(DataValidationError):
            js_divergence([], [1.0])

    def test_constant_identical_range(self):
        assert js_divergence([2.0, 2.0], [2.0]) == 0.0


class TestSilhouette:
    def test_two_tight_far_clusters(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(10, 2)) * 0.05
        b = rng.normal(size=(10, 2)) * 0.05 + 10.0
        pts = np.vstack([a, b])
        labels = np.array([0] * 10 + [1] * 10)
        assert silhouette(pts, labels) > 0.8

    def test_interleaved_identical_points_nonpositive(self):
        pts = np.tile(np.array([[1.0, 2.0]]), (8, 1))
        labels = np.array([0, 1] * 4)
        assert silhouette(pts, labels) <= 0.0

    def test_six_point_hand_case(self):
        pts = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [5.0, 5.0], [5.0, 6.0], [6.0, 5.0]]
        labels = [0, 0, 0, 1, 1, 1]
        assert silhouette(np.array(pts), np.array(labels)) == pytest.approx(
            silhouette_oracle(pts, labels), abs=1e-12
        )

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(4, 50))
            k = int(rng.integers(2, 4))
            pts = rng.normal(size=(n, 3))
            labels = rng.integers(0, k, size=n)
            while np.unique(labels).size < 2:
                labels = rng.integers(0, k, size=n)
            assert silhouette(pts, labels) == pytest.approx(
                silhouette_oracle(pts.tolist(), labels.tolist()), abs=1e-12
            )

    @pytest.mark.parametrize("n", [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1, 300])
    def test_matches_brute_force_across_row_blocks(self, n):
        """Three string-labelled clusters, a singleton cluster in the last row
        block and a run of coincident points across the first block boundary."""
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(n, 3))
        labels = [["normal", "tumor", "stroma"][i] for i in rng.integers(0, 3, size=n)]
        labels[:3] = ["normal", "tumor", "stroma"]
        labels[-1] = "isolated"
        mid = ROWS if n > ROWS + 4 else n // 2
        pts[mid - 4 : mid + 4] = pts[mid]
        assert silhouette(pts, np.array(labels)) == pytest.approx(
            silhouette_oracle(pts.tolist(), labels), abs=1e-12
        )

    @pytest.mark.parametrize("n", [2 * ROWS, 2 * ROWS + 1])
    def test_matches_brute_force_across_the_second_block_boundary(self, n):
        """The last strip has no mirrored columns (2 ROWS) or is a single
        row (2 ROWS + 1), and a run of coincident points in two clusters
        reaches the boundary after the second block."""
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(n, 3))
        labels = [["normal", "tumor", "stroma"][i] for i in rng.integers(0, 3, size=n)]
        labels[:3] = ["normal", "tumor", "stroma"]
        for i in range(2 * ROWS - 4, min(n, 2 * ROWS + 4)):
            pts[i] = pts[2 * ROWS - 4]
            labels[i] = ["tumor", "normal"][i % 2]
        assert silhouette(pts, np.array(labels)) == pytest.approx(
            silhouette_oracle(pts.tolist(), labels), abs=1e-12
        )

    @pytest.mark.parametrize("n", [65, 129, 300, 2000])
    def test_each_pair_built_once(self, n, monkeypatch):
        sizes = count_built_distances(monkeypatch)
        rng = np.random.default_rng(n)
        silhouette(rng.normal(size=(n, 3)), rng.integers(0, 3, size=n))
        assert sum(sizes) == strip_entries(n) < n * n

    def test_peak_memory_stays_within_row_blocks(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((2000, 12))
        labels = rng.integers(0, 2, size=2000)
        tracemalloc.start()
        try:
            silhouette(pts, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20  # the 2000 x 2000 x 12 difference tensor alone is 366 MiB

    def test_singleton_cluster_scores_zero(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [9.0, 9.0]])
        labels = np.array([0, 0, 1])
        assert silhouette(pts, labels) == pytest.approx(silhouette_oracle(pts.tolist(), labels.tolist()), abs=1e-12)

    def test_single_cluster_rejected(self):
        with pytest.raises(DataValidationError, match="2 clusters"):
            silhouette(np.zeros((3, 2)), np.zeros(3))

    def test_points_without_coordinates_rejected(self):
        with pytest.raises(DataValidationError, match="no coordinates"):
            silhouette(np.zeros((4, 0)), np.array([0, 0, 1, 1]))

    def test_bounded(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(20, 2))
        labels = rng.integers(0, 2, size=20)
        labels[0], labels[1] = 0, 1
        assert -1.0 <= silhouette(pts, labels) <= 1.0


class TestEvalResult:
    def test_to_dict_structure(self):
        r = EvalResult(accuracy=0.9, auc=0.95, auc_per_concept={}, localization_mean=0.8,
                       localization_slides=10, jsd_per_concept={}, jsd_mean=None,
                       silhouette={"wsi_concept_space": None}, counts={})
        d = r.to_dict()
        assert d["accuracy"] == 0.9 and "silhouette" in d and d["localization_slides"] == 10
