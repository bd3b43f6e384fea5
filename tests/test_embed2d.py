"""Projection oracles: PCA sign/distance behavior, t-SNE calibration and objective."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cmil.embed2d
import cmil.metrics
from cmil.embed2d import _ROWS as ROWS
from cmil.embed2d import calibrate_conditionals, lift, pca_2d, project_2d, sq_dist_rows, tsne_2d
from cmil.errors import ConfigError, DataValidationError, ShapeError
from cmil.metrics import silhouette


def pairwise_dists(x):
    n = x.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = math.sqrt(float(np.sum((x[i] - x[j]) ** 2)))
    return out


class TestPca:
    def test_2d_input_preserves_pairwise_distances(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 2))
        out = pca_2d(x)
        np.testing.assert_allclose(pairwise_dists(out), pairwise_dists(x), atol=1e-9)

    def test_collinear_points_land_on_first_axis(self):
        t = np.array([-2.0, -1.0, 0.0, 1.0, 3.0])
        x = np.outer(t, [0.6, 0.8])
        out = pca_2d(x)
        # component (0.6, 0.8): largest loading 0.8 kept positive by convention
        np.testing.assert_allclose(out[:, 0], t - t.mean(), atol=1e-12)
        np.testing.assert_allclose(out[:, 1], 0.0, atol=1e-12)

    def test_sign_convention_makes_negation_antisymmetric(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 6))
        np.testing.assert_allclose(pca_2d(-x), -pca_2d(x), atol=1e-9)

    def test_first_component_captures_most_variance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(60, 5)) * np.array([5.0, 1.0, 0.5, 0.2, 0.1])
        out = pca_2d(x)
        assert out[:, 0].var() >= out[:, 1].var()

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(12, 4))
        np.testing.assert_array_equal(pca_2d(x), pca_2d(x))

    def test_identical_points_rejected(self):
        with pytest.raises(DataValidationError, match="identical"):
            pca_2d(np.ones((5, 3)))

    def test_single_feature_rejected(self):
        with pytest.raises(ShapeError):
            pca_2d(np.arange(6.0).reshape(6, 1))


class TestCalibration:
    def test_entropy_matches_log2_perplexity(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(50, 8))
        cond, betas = calibrate_conditionals(x, perplexity=10.0)
        assert np.all(np.diag(cond) == 0.0)
        np.testing.assert_allclose(cond.sum(axis=1), 1.0, atol=1e-12)
        for i in range(50):
            row = cond[i][cond[i] > 0]
            entropy = -np.sum(row * np.log2(row))
            assert abs(entropy - math.log2(10.0)) <= 1e-5, i
        assert np.all(betas > 0)

    def test_regular_simplex_rows_uniform(self):
        # unit basis vectors are mutually equidistant
        cond, _ = calibrate_conditionals(np.eye(6), perplexity=1.5)
        for i in range(6):
            row = np.delete(cond[i], i)
            np.testing.assert_allclose(row, 1.0 / 5.0, atol=1e-9)

    def test_nearer_neighbour_gets_more_mass(self):
        x = np.array([[0.0], [1.0], [3.0]])
        cond, _ = calibrate_conditionals(x, perplexity=1.2)
        assert cond[0, 1] > cond[0, 2]


def dense_sq_dists(z):
    """Squared distances summed one coordinate at a time, in z's dtype."""
    d2 = np.zeros((z.shape[0], z.shape[0]), dtype=z.dtype)
    for col in z.T:
        d2 += (col[None, :] - col[:, None]) ** 2
    return d2


class TestSqDistRows:
    # 1e-310 is subnormal, 1e-150 squares to a subnormal, 1e150 squares near overflow
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 200), dim=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-310, 1e-150, 1.0, 1e150]))
    def test_blocks_match_the_coordinate_loop(self, n, dim, seed, scale):
        x = np.random.default_rng(seed).normal(size=(n, dim)) * scale
        x[n // 2:n // 2 + 3] = x[n // 2]  # coincident points
        x[n // 3, 0], x[(2 * n) // 3, 0] = 0.0, -0.0
        cols, rows = lift(x)
        d2, tmp = np.empty((n, n)), np.empty((64, n))
        for lo in range(0, n, 64):
            hi = min(lo + 64, n)
            sq_dist_rows(cols[lo:hi], rows, d2[lo:hi], tmp[:hi - lo])
        assert d2.tobytes() == dense_sq_dists(x).tobytes()
        assert np.all(d2 == d2.T)
        assert np.all(np.diag(d2) == 0.0)

    def test_a_strip_takes_its_differences_from_matmul(self, monkeypatch):
        log = NumpyCallLog({"subtract"})
        monkeypatch.setattr(cmil.embed2d, "np", log)
        x = np.random.default_rng(0).normal(size=(ROWS, 3))
        next(cmil.embed2d.sq_dist_strips(*lift(x), np.empty(2 * ROWS * ROWS)))
        assert [shape for _, shape in log.calls if len(shape) == 2] == []


def dense_p(x):
    """Symmetric P of tsne_2d at its perplexity, and its precisions."""
    n = x.shape[0]
    cond, betas = calibrate_conditionals(x, min(30, (n - 1) // 3))
    return np.maximum((cond + cond.T) / (2.0 * n), 1e-12), betas


# Per-row oracle for the calibration: each row is bisected on its own, with
# the entropy in bits over the nonzero entries.
def calibrate_per_row(d2, perplexity, tol=1e-5, max_iter=200):
    n = d2.shape[0]
    target = math.log2(perplexity)
    cond = np.zeros((n, n))
    betas = np.ones(n)
    others = ~np.eye(n, dtype=bool)
    for i in range(n):
        di = d2[i, others[i]]
        di = di - di.min()  # shift-invariant; keeps exp() from underflowing
        beta, lo, hi = 1.0, 0.0, math.inf
        pi = np.full(n - 1, 1.0 / (n - 1))
        for _ in range(max_iter):
            w = np.exp(-beta * di)
            pi = w / w.sum()
            nz = pi > 0
            entropy = -np.sum(pi[nz] * np.log2(pi[nz]))
            if abs(entropy - target) <= tol:
                break
            if entropy > target:
                lo = beta
                beta = beta * 2.0 if hi == math.inf else 0.5 * (lo + hi)
            else:
                hi = beta
                beta = 0.5 * (lo + hi)
        cond[i, others[i]] = pi
        betas[i] = beta
    return cond, betas


def assert_calibration_matches_per_row(x, perplexity, **kwargs):
    """kwargs go to the oracle; a test that passes max_iter patches _MAX_ITER to match."""
    cond, betas = calibrate_conditionals(x, perplexity)
    ref_cond, ref_betas = calibrate_per_row(dense_sq_dists(x), perplexity, **kwargs)
    assert cond.tobytes() == ref_cond.tobytes()
    assert betas.tobytes() == ref_betas.tobytes()
    return cond


class NumpyCallLog:
    """Stands in for numpy in a module and logs the calls to the named
    functions, each with the shape of its first argument."""

    def __init__(self, names):
        self._np, self._names, self.calls = np, names, []

    def __getattr__(self, name):
        attr = getattr(self._np, name)
        if name not in self._names:
            return attr

        def logged(*args, **kwargs):
            self.calls.append((name, np.shape(args[0])))
            return attr(*args, **kwargs)

        return logged


class TestCalibrationMatchesPerRow:
    # n straddles the 64-row block boundary
    @pytest.mark.parametrize("n", [10, 63, 64, 65, 129, 300])
    def test_standard_normal(self, n):
        x = np.random.default_rng(n).normal(size=(n, 12))
        assert_calibration_matches_per_row(x, min(30, (n - 1) // 3))

    def test_tight_clusters_with_underflowed_entries(self):
        rng = np.random.default_rng(21)
        centers = rng.normal(scale=100.0, size=(3, 12))
        x = centers[rng.integers(0, 3, size=150)] + rng.normal(scale=1e-3, size=(150, 12))
        cond = assert_calibration_matches_per_row(x, 10.0)
        assert np.count_nonzero(cond == 0.0) > 150  # exp() underflowed off the diagonal

    def test_simplex_runs_to_max_iter(self, monkeypatch):
        log = NumpyCallLog({"exp"})
        monkeypatch.setattr(cmil.embed2d, "np", log)
        assert_calibration_matches_per_row(np.eye(6), 1.5)
        assert log.calls == [("exp", (6, 5))] * 200  # every row stays active

    # 1 and 3 steps stop rows short of the tolerance
    @pytest.mark.parametrize("max_iter", [1, 3])
    def test_few_steps(self, max_iter, monkeypatch):
        monkeypatch.setattr(cmil.embed2d, "_MAX_ITER", max_iter)
        x = np.random.default_rng(8).normal(size=(70, 5))
        assert_calibration_matches_per_row(x, 10.0, max_iter=max_iter)

    def test_duplicate_points(self):
        x = np.random.default_rng(5).normal(size=(70, 4))
        x[1:11] = x[0]
        x[40:60] = x[30]
        assert_calibration_matches_per_row(x, 5.0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(4, 80), seed=st.integers(0, 2**32 - 1),
           dim=st.integers(1, 8), frac=st.floats(0.0, 1.0))
    def test_random_inputs(self, n, seed, dim, frac):
        x = np.random.default_rng(seed).normal(size=(n, dim))
        perplexity = 1.0 + frac * ((n - 1) / 3 - 1.0)
        assert_calibration_matches_per_row(x, perplexity)

    def test_one_exp_call_per_step_of_a_block(self, monkeypatch):
        n = 300
        x = np.random.default_rng(n).normal(size=(n, 12))
        per_row = NumpyCallLog({"full", "exp"})
        monkeypatch.setitem(calibrate_per_row.__globals__, "np", per_row)
        calibrate_per_row(dense_sq_dists(x), 30.0)
        monkeypatch.undo()
        steps = []  # exp() calls per row; the oracle starts each row with full()
        for name, _ in per_row.calls:
            if name == "full":
                steps.append(0)
            else:
                steps[-1] += 1
        assert len(steps) == n
        log = NumpyCallLog({"exp"})
        monkeypatch.setattr(cmil.embed2d, "np", log)
        calibrate_conditionals(x, 30.0)
        # each call covers the block's rows still active: sum(steps) row-steps in all
        assert sum(shape[0] for _, shape in log.calls) == sum(steps)
        assert len(log.calls) <= math.ceil(n / 64) * max(steps)


# Dense oracle for the t-SNE objective: each function builds its n x n arrays
# in full, with q floored at 1e-12, in long double: q and num are long double,
# so the KL and the gradient made from them are too.
def dense_q_matrix(y):
    num = 1.0 / (1.0 + dense_sq_dists(y.astype(np.longdouble)))
    np.fill_diagonal(num, 0.0)
    return np.maximum(num / num.sum(), 1e-12), num


def dense_kl(p, q):
    return float(np.sum(p * np.log(p / q)))


def dense_grad(p, q, num, y):
    pq = (p - q) * num
    return 4.0 * ((np.diag(pq.sum(axis=1)) - pq) @ y)


class LoggedRun:
    """tsne_2d with every block pass made to compute its KL, over `iterations`
    steps (_ITERATIONS) and at `learning_rate` (_learning_rate) where given.

    passes holds (whether tsne_2d asked for the KL, the iterate) for each pass
    in order; steps holds the current iterate at the start of each step, the
    one whose gradient the step takes; betas holds the calibrated precisions."""

    def __init__(self, points, seed=0, iterations=None, learning_rate=None):
        self.passes, self.steps = [], []
        at, grad = cmil.embed2d._Objective.at, cmil.embed2d._Iterate.grad
        calibrate = cmil.embed2d.calibrate_conditionals

        def logged_at(objective, y, with_kl):
            it = at(objective, y, True)
            self.passes.append((with_kl, it))
            return it

        def logged_grad(it, exaggeration):
            self.steps.append(it)
            return grad(it, exaggeration)

        def logged_calibrate(x, perplexity):
            cond, self.betas = calibrate(x, perplexity)
            return cond, self.betas

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cmil.embed2d._Objective, "at", logged_at)
            mp.setattr(cmil.embed2d._Iterate, "grad", logged_grad)
            mp.setattr(cmil.embed2d, "calibrate_conditionals", logged_calibrate)
            if iterations is not None:
                mp.setattr(cmil.embed2d, "_ITERATIONS", iterations)
            if learning_rate is not None:
                mp.setattr(cmil.embed2d, "_learning_rate", lambda n: learning_rate)
            self.map = tsne_2d(points, seed=seed)
        # the iterate whose map tsne_2d returned
        self.final = next(it for _, it in self.passes if it.y is self.map)

    @property
    def kl_trace(self):
        """KL (nats) of the current iterate after each step."""
        return [it.kl for it in self.steps[1:]] + [self.final.kl]


@pytest.fixture(scope="module")
def two_clusters():
    rng = np.random.default_rng(7)
    points = np.vstack([rng.normal(size=(15, 10)), rng.normal(size=(15, 10)) + 2.2])
    labels = np.array([0] * 15 + [1] * 15)
    return points, labels, LoggedRun(points, seed=0)


class TestTsne:
    def test_kl_non_increasing_over_final_100_iterations(self, two_clusters):
        _, _, run = two_clusters
        tail = run.kl_trace[-100:]
        assert len(tail) == 100
        for a, b in zip(tail, tail[1:]):
            assert b <= a + 1e-12

    def test_kl_improves_overall(self, two_clusters):
        _, _, run = two_clusters
        assert run.kl_trace[-1] < run.kl_trace[0]

    def test_silhouette_improves_after_projection(self, two_clusters):
        points, labels, run = two_clusters
        assert silhouette(run.map, labels) > silhouette(points, labels)

    def test_default_learning_rate_improves_every_seed(self, two_clusters):
        points, labels, _ = two_clusters
        before = silhouette(points, labels)
        for seed in range(8):
            run = LoggedRun(points, seed=seed)
            assert run.kl_trace[-1] < run.kl_trace[0], seed
            assert silhouette(run.map, labels) > before, seed

    def test_deterministic_given_seed(self, two_clusters):
        points, _, _ = two_clusters
        first = tsne_2d(points, seed=0)
        np.testing.assert_array_equal(first, tsne_2d(points, seed=0))
        assert not np.array_equal(first, tsne_2d(points, seed=1))

    def test_skipping_the_kl_changes_no_bit(self, two_clusters):
        points = two_clusters[0]
        for seed in range(8):
            forced = LoggedRun(points, seed=seed).map
            assert tsne_2d(points, seed=seed).tobytes() == forced.tobytes(), seed
        x = np.random.default_rng(300).standard_normal((300, 12))
        assert tsne_2d(x, seed=0).tobytes() == LoggedRun(x).map.tobytes()

    def test_identical_points_rejected(self):
        with pytest.raises(DataValidationError, match="identical"):
            tsne_2d(np.zeros((8, 3)), seed=0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_too_few_points_rejected(self, n):
        # the perplexity, min(30, (n - 1) // 3), would be 0
        with pytest.raises(DataValidationError, match=f"^tsne needs at least 4 points, got {n}$"):
            tsne_2d(np.eye(n, 3), seed=0)

    def test_default_perplexity_respects_small_n(self):
        rng = np.random.default_rng(1)
        run = LoggedRun(rng.normal(size=(10, 4)), iterations=60)
        assert run.map.shape == (10, 2)
        assert len(run.kl_trace) == 60


def _small_points():
    return np.random.default_rng(1).normal(size=(10, 4))


def _rel(a, b):
    return float(np.linalg.norm(np.subtract(a, b)) / np.linalg.norm(b))


def _objective_case(n, kind):
    """P of n standard-normal 6-d points and a map y: the 1e-4 start, a
    spread map or a converged map."""
    x = np.random.default_rng(n).normal(size=(n, 6))
    p, _ = dense_p(x)
    if kind == "start":
        y = np.random.default_rng(1).normal(scale=1e-4, size=(n, 2))
    elif kind == "spread":
        y = np.random.default_rng(2).normal(scale=5.0, size=(n, 2))
    else:
        y = tsne_2d(x, seed=0)
    return p, y


# n straddles the 64-row block boundary; at 128 and 129 the last strip has
# 0 and 1 mirrored columns
objective_cases = pytest.mark.parametrize("n, kind", [
    (n, kind) for n in [10, 63, 64, 65, 128, 129, 300]
    for kind in ["start", "spread", "converged"]])


def strip_entries(n):
    """The distances the upper strips hold: b (n - lo) for the block of
    rows lo .. lo+b-1."""
    return sum(min(ROWS, n - lo) * (n - lo) for lo in range(0, n, ROWS))


def count_built_distances(monkeypatch):
    """Wraps sq_dist_rows in each module that binds it; the returned list
    gets the size of each block of distances it builds."""
    sizes, build = [], cmil.embed2d.sq_dist_rows

    def counted(cols, rows, out, tmp):
        sizes.append(out.size)
        return build(cols, rows, out, tmp)

    for module in (cmil.embed2d, cmil.metrics):
        if hasattr(module, "sq_dist_rows"):
            monkeypatch.setattr(module, "sq_dist_rows", counted)
    return sizes

# rate 200: the line search rejects candidates; 1: a single step; 40:
# the backtracking tail covers every iteration
line_search_cases = pytest.mark.parametrize("points, iterations, rate", [
    ("two_clusters", 500, None), ("small", 60, 200.0), ("small", 1, None),
    ("small", 40, None)])


def _line_search(passes, head):
    """Replays the line search on the passes after the one that enters it:
    a candidate is kept iff its KL is not above the current one.  Returns
    (kept iterates, rejected count)."""
    current, kept, rejected = passes[head][1], [], 0
    for _, it in passes[head + 1:]:
        if it.kl <= current.kl:
            current = it
            kept.append(it)
        else:
            rejected += 1
    return kept, rejected


class TestTsneMatchesReference:
    @objective_cases
    def test_objective_matches_dense(self, n, kind):
        p, y = _objective_case(n, kind)
        q, num = dense_q_matrix(y)
        assert np.min(num / num.sum() + np.eye(n)) >= 1e-12  # the floor is idle
        it = cmil.embed2d._Objective(p).at(y, True)
        assert abs(it.kl - dense_kl(p, q)) <= 1e-12 * abs(dense_kl(p, q))
        for a in (1.0, 12.0):
            assert _rel(it.grad(a), dense_grad(a * p, q, num, y)) <= 1e-12, a

    @objective_cases
    def test_pass_without_kl_keeps_every_other_bit(self, n, kind):
        p, y = _objective_case(n, kind)
        objective = cmil.embed2d._Objective(p)
        full, bare = objective.at(y, True), objective.at(y, False)
        assert bare.kl is None and full.kl is not None
        assert np.float64(bare.z).tobytes() == np.float64(full.z).tobytes()
        assert bare.pn.tobytes() == full.pn.tobytes()
        assert bare.nn.tobytes() == full.nn.tobytes()

    @pytest.mark.parametrize("n", [65, 129, 300, 2000])
    def test_each_pair_built_once(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        p = rng.random((n, n))
        objective = cmil.embed2d._Objective((p + p.T) / (2.0 * p.sum()))
        sizes = count_built_distances(monkeypatch)
        objective.at(rng.normal(size=(n, 2)), True)
        assert sum(sizes) == strip_entries(n) < n * n

    def test_betas_match_calibration(self, two_clusters):
        points, _, run = two_clusters
        assert np.array_equal(run.betas, dense_p(points)[1])
        small = _small_points()
        assert np.array_equal(LoggedRun(small, iterations=1).betas, dense_p(small)[1])

    @line_search_cases
    def test_one_block_pass_per_iterate(self, two_clusters, points, iterations, rate):
        x = two_clusters[0] if points == "two_clusters" else _small_points()
        run = LoggedRun(x, iterations=iterations, learning_rate=rate)
        head = iterations - min(100, iterations)
        # the start, then one pass per momentum step, each the next step's iterate
        assert all(s is it for s, (_, it) in zip(run.steps[:head + 1], run.passes))
        # each kept candidate is the iterate the next step starts from, and
        # the last one is the map
        kept, rejected = _line_search(run.passes, head)
        assert [id(it) for it in kept] == [id(it) for it in run.steps[head + 1:] + [run.final]]
        assert len(run.passes) == 1 + iterations + rejected
        if rate is not None:
            assert rejected > 0

    @line_search_cases
    def test_kl_only_where_the_line_search_compares(self, two_clusters, points,
                                                    iterations, rate):
        x = two_clusters[0] if points == "two_clusters" else _small_points()
        run = LoggedRun(x, iterations=iterations, learning_rate=rate)
        head = iterations - min(100, iterations)
        _, rejected = _line_search(run.passes, head)
        asked = [with_kl for with_kl, _ in run.passes]
        # the iterate that enters the line search, then every candidate
        assert asked == [False] * head + [True] * (len(asked) - head)
        assert sum(asked) == 1 + min(100, iterations) + rejected
        if iterations == 500:  # no candidate is rejected on this data
            assert (len(asked), sum(asked), rejected) == (501, 101, 0)

    def test_one_iterate_peak_memory(self):
        n = 2000
        rng = np.random.default_rng(0)
        p = rng.random((n, n))
        p = (p + p.T) / p.sum()
        y = rng.normal(size=(n, 2))
        tracemalloc.start()
        try:
            cmil.embed2d._Objective(p).at(y, True).grad(12.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20  # P alone is 32 MB

    def test_set_up_peak_memory(self, monkeypatch):
        monkeypatch.setattr(cmil.embed2d, "_ITERATIONS", 1)
        x = np.random.default_rng(0).standard_normal((2000, 12))
        tracemalloc.start()
        try:
            tsne_2d(x, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20  # P alone is 30.5 MiB


class TestProject2d:
    def test_pca_dispatch_shape(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(9, 5))
        out = project_2d(x, "pca", 0)
        assert out.shape == (9, 2)
        np.testing.assert_array_equal(out, project_2d(x, "pca", 1))  # PCA ignores the seed

    def test_tsne_dispatch_shape(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(12, 5))
        out = project_2d(x, "tsne", 3)
        assert out.shape == (12, 2)
        np.testing.assert_array_equal(out, tsne_2d(x, seed=3))

    def test_too_few_points(self):
        with pytest.raises(DataValidationError, match="3 points"):
            project_2d(np.eye(2), "pca", 0)
        with pytest.raises(DataValidationError, match="4 points"):
            project_2d(np.eye(3), "tsne", 0)  # default perplexity would be 0

    def test_unknown_method(self):
        with pytest.raises(ConfigError, match="unknown"):
            project_2d(np.eye(4), "umap", 0)

    def test_non_matrix_rejected(self):
        with pytest.raises(ShapeError):
            project_2d(np.arange(8.0), "pca", 0)
