import math

import numpy as np
import pytest

from cmil.autodiff import Tensor, reduce_sum
from cmil.errors import ConfigError, ShapeError
from cmil.topk import Selection, TopKConfig, gather_concepts, hard_topk, perturbed_topk, select
from gradcheck import PinnedNoise

# numpy < 2.0 has only the older name
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def topone_inclusion_oracle(alpha, sigma):
    """P(i = argmax(alpha + sigma*z)) by numeric integration over the shared coordinate.

    P_i = integral phi(z) * prod_{j != i} Phi((alpha_i - alpha_j)/sigma + z) dz.
    """
    alpha = np.asarray(alpha, float)
    z = np.linspace(-12.0, 12.0, 48001)
    phi = np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    cdf = lambda x: 0.5 * (1.0 + np.array([math.erf(v / math.sqrt(2)) for v in x]))
    out = np.zeros(alpha.size)
    for i in range(alpha.size):
        prod = np.ones_like(z)
        for j in range(alpha.size):
            if j != i:
                prod *= cdf((alpha[i] - alpha[j]) / sigma + z)
        out[i] = _trapezoid(phi * prod, z)
    return out


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TopKConfig(K=0)
        with pytest.raises(ConfigError):
            TopKConfig(num_noise_samples=0)
        with pytest.raises(ConfigError):
            TopKConfig(noise_sigma=0.0)

    def test_defaults(self):
        cfg = TopKConfig()
        assert (cfg.K, cfg.num_noise_samples, cfg.noise_sigma) == (20, 100, 0.05)


class TestHardTopK:
    def test_two_of_three(self):
        assert list(hard_topk([0.1, 0.5, 0.3], 2)) == [1, 2]

    def test_k_equals_n(self):
        assert list(hard_topk([3.0, 1.0, 2.0], 3)) == [0, 1, 2]

    def test_tie_goes_to_lower_index(self):
        assert list(hard_topk([0.5, 0.5, 0.1], 1)) == [0]

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=20)
        for c in (-5.0, 0.3, 1e4):
            assert list(hard_topk(a + c, 7)) == list(hard_topk(a, 7))

    def test_k_too_large(self):
        with pytest.raises(ShapeError, match="exceeds"):
            hard_topk([1.0, 2.0], 3)


class TestPerturbedForward:
    def test_k_equals_n_is_exact_ones_with_zero_grad(self):
        alpha = Tensor(np.array([0.2, 0.5, 0.3]))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        soft = perturbed_topk(alpha, TopKConfig(K=3, num_noise_samples=10, noise_sigma=0.05), rng)
        assert rng.bit_generator.state == state  # nothing drawn
        np.testing.assert_array_equal(soft.data, 1.0)
        assert soft._const and soft._parents == ()
        reduce_sum(soft).backward()
        assert alpha.grad is None or not np.any(alpha.grad)

    def test_symmetric_pair_splits_evenly(self):
        cfg = TopKConfig(K=1, num_noise_samples=100_000, noise_sigma=0.05)
        soft = perturbed_topk(Tensor(np.array([0.4, 0.4])), cfg, rng=np.random.default_rng(3))
        np.testing.assert_allclose(soft.data, [0.5, 0.5], atol=0.01)

    def test_mass_is_exactly_k(self):
        rng = np.random.default_rng(1)
        cfg = TopKConfig(K=4, num_noise_samples=500, noise_sigma=0.05)
        soft = perturbed_topk(Tensor(rng.normal(size=11)), cfg, rng=np.random.default_rng(0))
        assert abs(soft.data.sum() - 4.0) < 1e-9
        assert np.all(soft.data >= 0.0) and np.all(soft.data <= 1.0)

    def test_inclusion_probabilities_match_integration_oracle(self):
        alpha = np.array([0.0, 1.0, 2.0])
        m = 200_000
        cfg = TopKConfig(K=1, num_noise_samples=m, noise_sigma=1.0)
        soft = perturbed_topk(Tensor(alpha), cfg, rng=np.random.default_rng(7))
        expected = topone_inclusion_oracle(alpha, 1.0)
        assert abs(expected.sum() - 1.0) < 1e-6
        se = np.sqrt(expected * (1 - expected) / m)
        assert np.all(np.abs(soft.data - expected) <= 3 * se)

    def test_converges_to_hard_selection_at_tiny_sigma(self):
        alpha = np.array([0.9, 0.1, 0.5, 0.3])
        cfg = TopKConfig(K=2, num_noise_samples=100, noise_sigma=1e-6)
        soft = perturbed_topk(Tensor(alpha), cfg, rng=np.random.default_rng(5))
        hard = np.zeros(4)
        hard[hard_topk(alpha, 2)] = 1.0
        np.testing.assert_array_equal(soft.data, hard)

    def test_seeded_determinism(self):
        cfg = TopKConfig(K=2, num_noise_samples=50, noise_sigma=0.05)
        alpha = np.array([0.1, 0.9, 0.4, 0.2])
        a = perturbed_topk(Tensor(alpha), cfg, rng=np.random.default_rng(11))
        b = perturbed_topk(Tensor(alpha), cfg, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(a.data, b.data)

    def test_k_larger_than_bag_rejected(self):
        with pytest.raises(ShapeError, match="exceeds"):
            select(Tensor(np.array([1.0, 2.0])), TopKConfig(K=5), np.random.default_rng(0))


class TestPerturbedBackward:
    def _grad(self, alpha, cfg, noise, upstream):
        t = Tensor(np.asarray(alpha, float))
        loss = reduce_sum(perturbed_topk(t, cfg, PinnedNoise(noise)) * Tensor(upstream))
        loss.backward()
        return t.grad

    def test_zero_upstream_gives_zero_grad(self):
        noise = np.random.default_rng(0).normal(size=(200, 4))
        cfg = TopKConfig(K=2, num_noise_samples=200, noise_sigma=0.05)
        g = self._grad([0.1, 0.9, 0.4, 0.2], cfg, noise, np.zeros(4))
        np.testing.assert_array_equal(g, 0.0)

    def test_matches_einsum_jacobian_oracle(self):
        # independent contraction of the estimator J = (1/(M*sigma)) sum ind_m (x) z_m
        rng = np.random.default_rng(4)
        alpha = rng.normal(size=6)
        noise = rng.normal(size=(300, 6))
        upstream = rng.normal(size=6)
        sigma = 0.07
        cfg = TopKConfig(K=3, num_noise_samples=300, noise_sigma=sigma)
        g = self._grad(alpha, cfg, noise, upstream)

        perturbed = alpha[None, :] + sigma * noise
        ind = np.zeros_like(perturbed)
        for m in range(300):
            ind[m, np.argsort(-perturbed[m])[:3]] = 1.0
        jac = np.einsum("mi,mj->ij", ind, noise) / (300 * sigma)
        np.testing.assert_allclose(g, jac.T @ upstream, atol=1e-12)

    def test_crn_finite_differences_three_elements(self):
        alpha = np.array([0.1, 0.3, 0.2])
        upstream = np.array([1.0, -2.0, 0.5])
        m, sigma, h = 1_000_000, 0.05, 0.01
        noise = np.random.default_rng(1).normal(size=(m, 3))
        cfg = TopKConfig(K=1, num_noise_samples=m, noise_sigma=sigma)
        analytic = self._grad(alpha, cfg, noise, upstream)

        def f(a):
            return float(perturbed_topk(Tensor(a), cfg, PinnedNoise(noise)).data @ upstream)

        fd = np.zeros(3)
        for j in range(3):
            hi, lo = alpha.copy(), alpha.copy()
            hi[j] += h
            lo[j] -= h
            fd[j] = (f(hi) - f(lo)) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / (np.linalg.norm(analytic) + np.linalg.norm(fd))
        assert rel < 1e-2

    def test_crn_finite_differences_k2(self):
        alpha = np.array([0.1, 0.3, 0.2, 0.15, 0.05])
        upstream = np.array([1.0, -2.0, 0.5, 0.3, -0.7])
        m, sigma, h = 1_000_000, 0.05, 0.01
        noise = np.random.default_rng(1).normal(size=(m, 5))
        cfg = TopKConfig(K=2, num_noise_samples=m, noise_sigma=sigma)
        analytic = self._grad(alpha, cfg, noise, upstream)

        def f(a):
            return float(perturbed_topk(Tensor(a), cfg, PinnedNoise(noise)).data @ upstream)

        fd = np.zeros(5)
        for j in range(5):
            hi, lo = alpha.copy(), alpha.copy()
            hi[j] += h
            lo[j] -= h
            fd[j] = (f(hi) - f(lo)) / (2 * h)
        rel = np.linalg.norm(analytic - fd) / (np.linalg.norm(analytic) + np.linalg.norm(fd))
        assert rel < 5e-2

    def test_monotone_in_own_score_under_common_noise(self):
        noise = np.random.default_rng(9).normal(size=(2000, 4))
        cfg = TopKConfig(K=2, num_noise_samples=2000, noise_sigma=0.05)
        base = np.array([0.1, 0.9, 0.4, 0.2])
        prev = -1.0
        for delta in np.linspace(0.0, 0.6, 13):
            a = base.copy()
            a[3] += delta
            val = perturbed_topk(Tensor(a), cfg, PinnedNoise(noise)).data[3]
            assert val >= prev - 1e-15
            prev = val


class TestGatherConcepts:
    def _f(self, n=6, c=4, seed=2):
        return np.random.default_rng(seed).normal(size=(n, c))

    def test_inference_gathers_rows_in_index_order(self):
        f = self._f()
        sel = Selection(hard_indices=np.array([0, 2]))
        out = gather_concepts(f, sel)
        np.testing.assert_array_equal(out.data, f[[0, 2]])

    def test_unit_soft_weights_match_hard_gather(self):
        f = self._f()
        alpha = Tensor(np.array([0.9, 0.0, 0.8, 0.1, 0.0, 0.0]))
        sel = Selection(hard_indices=np.array([0, 2]), soft_indicator=Tensor(np.ones(6)))
        out = gather_concepts(f, sel)
        np.testing.assert_array_equal(out.data, f[[0, 2]])

    def test_soft_case_matches_scalar_loop_oracle(self):
        f = self._f(n=5, c=3)
        soft = np.array([0.9, 0.2, 0.7, 0.4, 0.05])
        idx = np.array([0, 2, 3])
        sel = Selection(hard_indices=idx, soft_indicator=Tensor(soft))
        out = gather_concepts(f, sel)
        expected = np.zeros((3, 3))
        for r, i in enumerate(idx):
            for j in range(3):
                expected[r, j] = soft[i] * f[i, j]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_gradient_reaches_soft_indicator(self):
        f = self._f(n=4, c=2)
        soft = Tensor(np.array([0.5, 0.25, 0.8, 0.1]))
        sel = Selection(hard_indices=np.array([1, 2]), soft_indicator=soft)
        reduce_sum(gather_concepts(f, sel)).backward()
        expected = np.zeros(4)
        expected[1] = f[1].sum()
        expected[2] = f[2].sum()
        np.testing.assert_allclose(soft.grad, expected, atol=1e-12)

    def test_out_of_range_index(self):
        sel = Selection(hard_indices=np.array([0, 9]))
        with pytest.raises(ShapeError, match="out of range"):
            gather_concepts(self._f(), sel)


class TestSelect:
    def test_infer_mode_has_no_soft(self):
        sel = select(Tensor(np.array([0.3, 0.1, 0.6])), TopKConfig(K=2), None)
        assert sel.soft_indicator is None
        assert list(sel.hard_indices) == [0, 2]

    def test_train_mode_keeps_hard_support_of_unperturbed_alpha(self):
        alpha = Tensor(np.array([0.9, 0.1, 0.5, 0.3]))
        sel = select(alpha, TopKConfig(K=2, num_noise_samples=64), rng=np.random.default_rng(1))
        assert list(sel.hard_indices) == [0, 2]
        assert sel.soft_indicator is not None
