import math
import warnings

import numpy as np
import pytest

from cmil import autodiff as ad
from cmil.autodiff import Tensor, percentile
from cmil.bagio import ConceptSet
from cmil.concept_branch import (
    ConceptBranchParams,
    _contributions,
    concept_attention,
    concept_forward,
    scale_attention,
)
from cmil.errors import ConfigError, ShapeError
from cmil.topk import TopKConfig
from cmil.trainer import TrainConfig, init_model, parameter_shapes
from gradcheck import relative_error, zero_grads


DEFAULTS = TrainConfig()


def small_params(seed=0, K=6, C=5, d_a=4):
    """The concept entries of the init table, drawn in order from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    shapes = parameter_shapes(TrainConfig(d_a=d_a, topk=TopKConfig(K=K)), C, 1)
    return ConceptBranchParams(**{
        name[len("concept."):]: Tensor(rng.uniform(-1.0 / np.sqrt(f), 1.0 / np.sqrt(f), size=shape))
        for name, (f, shape) in shapes.items() if name.startswith("concept.")
    }, gamma=DEFAULTS.gamma, temperature=DEFAULTS.temperature)


def scalar_concept_attention(F, Vw, Uw, w):
    k, c = F.shape
    raw = np.zeros(c)
    for ci in range(c):
        col = F[:, ci]
        for a in range(Vw.shape[1]):
            t = math.tanh(sum(col[j] * Vw[j, a] for j in range(k)))
            s = 1.0 / (1.0 + math.exp(-sum(col[j] * Uw[j, a] for j in range(k))))
            raw[ci] += w[a] * t * s
    return raw


class TestConceptAttention:
    def test_identical_columns_give_equal_scores(self):
        p = small_params()
        col = np.random.default_rng(1).normal(size=(6, 1))
        raw = concept_attention(Tensor(np.tile(col, (1, 5))), p)
        np.testing.assert_allclose(raw.data, raw.data[0], atol=1e-12)

    def test_zero_attention_weight_gives_equal_scores(self):
        p = small_params(seed=2)
        p.attn_w.data[:] = 0.0
        raw = concept_attention(Tensor(np.random.default_rng(3).normal(size=(6, 5))), p)
        np.testing.assert_array_equal(raw.data, 0.0)

    def test_matches_scalar_loop_oracle(self):
        p = small_params(seed=4)
        F = np.random.default_rng(5).normal(size=(6, 5))
        raw = concept_attention(Tensor(F), p)
        expected = scalar_concept_attention(F, p.attn_v.data, p.attn_u.data, p.attn_w.data)
        np.testing.assert_allclose(raw.data, expected, atol=1e-12)

    def test_k_mismatch(self):
        with pytest.raises(ShapeError, match="K=6"):
            concept_attention(Tensor(np.zeros((4, 5))), small_params())

    def test_has_the_inline_gate_bits_over_the_transpose(self):
        p = small_params(seed=6)
        F = Tensor(np.random.default_rng(7).normal(size=(6, 5)))
        ft = ad.transpose(F)
        inline = ad.mul(ad.tanh(ft @ p.attn_v), ad.sigmoid(ft @ p.attn_u)) @ p.attn_w
        assert concept_attention(F, p).data.tobytes() == inline.data.tobytes()


class TestPercentile:
    def test_pinned_linear_interpolation(self):
        assert percentile(Tensor(np.array([1.0, 2.0, 3.0, 4.0])), 0.75).item() == pytest.approx(3.25, abs=1e-12)

    def test_boundaries(self):
        v = Tensor(np.array([5.0, -1.0, 3.0]))
        assert percentile(v, 0.0).item() == -1.0
        assert percentile(v, 1.0).item() == 5.0

    def test_constant_vector(self):
        assert percentile(Tensor(np.full(7, 2.5)), 0.75).item() == 2.5


class TestScaleAttention:
    def test_element_at_percentile_gates_to_half(self):
        raw = np.array([1.0, 2.0, 3.0, 4.0])
        att = scale_attention(Tensor(raw), gamma=0.75, temperature=3.0)
        # an artificial element equal to Pr_gamma would sit at sigma(0); check via direct eval
        pr = 3.25
        std = np.sqrt(np.mean((raw - raw.mean()) ** 2))
        assert att.scaled.data[2] == pytest.approx((3.0 - pr) / std, abs=1e-12)
        # with five entries the 0.75-percentile lands on rank 3 exactly: the element 4
        raw2 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert percentile(Tensor(raw2), 0.75).item() == 4.0
        att2 = scale_attention(Tensor(raw2), 0.75, 3.0)
        assert att2.scaled.data[3] == 0.0
        assert att2.gated.data[3] == pytest.approx(0.5, abs=1e-12)

    def test_worked_example(self):
        # independent chain: Pr=3.25, population std=sqrt(1.25),
        # scaled=0.75/sqrt(1.25)=0.6708203932..., gated=sigmoid(3*scaled)=0.8820992261...
        # (0.88212 seen in some write-ups rounds the sigmoid incorrectly at the 5th decimal)
        att = scale_attention(Tensor(np.array([1.0, 2.0, 3.0, 4.0])), gamma=0.75, temperature=3.0)
        assert att.scaled.data[3] == pytest.approx(0.75 / math.sqrt(1.25), abs=1e-12)
        assert att.scaled.data[3] == pytest.approx(0.67082, abs=5e-6)
        assert att.gated.data[3] == pytest.approx(0.8820992261398057, abs=1e-12)
        assert att.gated.data[3] == pytest.approx(0.88212, abs=2.5e-5)

    def test_population_std_is_used(self):
        raw = np.array([1.0, 2.0, 3.0, 4.0])
        att = scale_attention(Tensor(raw), 0.75, 1.0)
        assert att.scaled.data[3] == pytest.approx((4 - 3.25) / 1.1180339887498949, abs=1e-12)

    def test_large_temperature_approaches_step(self):
        raw = np.array([0.0, 1.0, 2.0, 3.0, 10.0])
        att = scale_attention(Tensor(raw), gamma=0.5, temperature=1e3)
        above = raw > np.quantile(raw, 0.5)
        np.testing.assert_allclose(att.gated.data[above], 1.0, atol=1e-3)
        np.testing.assert_allclose(att.gated.data[~above & (raw < np.quantile(raw, 0.5))], 0.0, atol=1e-3)

    def test_zero_variance_falls_back_to_half(self):
        with pytest.warns(RuntimeWarning, match="zero variance"):
            att = scale_attention(Tensor(np.full(4, 1.7)), 0.75, 3.0)
        np.testing.assert_array_equal(att.gated.data, 0.5)

    def test_monotone_in_gamma(self):
        raw = Tensor(np.random.default_rng(6).normal(size=9))
        prev = np.full(9, np.inf)
        for gamma in (0.1, 0.3, 0.5, 0.75, 0.9):
            gated = scale_attention(raw, gamma, 3.0).gated.data
            assert np.all(gated <= prev + 1e-12)
            prev = gated

    def test_gated_strictly_inside_unit_interval(self):
        att = scale_attention(Tensor(np.random.default_rng(7).normal(size=6)), 0.75, 3.0)
        assert np.all(att.gated.data > 0) and np.all(att.gated.data < 1)


def concept_logit(fwd, params):
    """The concept head's logit, sum(kappa) + b, as concept_forward forms it."""
    return (ad.reduce_sum(fwd.kappa) + params.clf_b).item()


class TestConceptLogit:
    def test_zero_classifier_weight(self):
        p = small_params(seed=8)
        p.clf_w.data[:] = 0.0
        F = Tensor(np.random.default_rng(9).normal(size=(6, 5)))
        fwd = concept_forward(F, p)
        assert concept_logit(fwd, p) == pytest.approx(float(p.clf_b.data), abs=1e-12)

    def test_zero_beta(self):
        # the logit is sum(kappa) + b, so zero kappa leaves b
        p = small_params(seed=11)
        F = Tensor(np.random.default_rng(12).normal(size=(6, 5)))
        kappa = _contributions(F, Tensor(np.zeros(5)), p)
        np.testing.assert_array_equal(kappa.data, 0.0)

    def test_matches_double_loop_oracle(self):
        p = small_params(seed=13)
        F = np.random.default_rng(14).normal(size=(6, 5))
        fwd = concept_forward(Tensor(F), p)
        prob, beta = fwd.prob, fwd.attention.gated.data
        acc = float(p.clf_b.data)
        for j in range(6):
            for c in range(5):
                acc += p.clf_w.data[c] * F[j, c] * beta[c]
        assert concept_logit(fwd, p) == pytest.approx(acc, abs=1e-12)
        assert prob.item() == pytest.approx(1 / (1 + math.exp(-acc)), abs=1e-12)


class TestContributions:
    def test_single_concept_reduces_to_logit_minus_bias(self):
        p = small_params(seed=16, C=1)
        F = Tensor(np.random.default_rng(17).normal(size=(6, 1)))
        with warnings.catch_warnings():
            # one concept always has zero attention variance; the fallback is tested above
            warnings.simplefilter("ignore", RuntimeWarning)
            fwd = concept_forward(F, p)
        assert fwd.kappa.data[0] == pytest.approx(concept_logit(fwd, p) - float(p.clf_b.data), abs=1e-12)

    def test_zero_activations_give_zero_kappa(self):
        p = small_params(seed=18)
        kappa = _contributions(Tensor(np.zeros((6, 5))), Tensor(np.full(5, 0.5)), p)
        np.testing.assert_array_equal(kappa.data, 0.0)

    def test_decomposition_identity(self):
        for seed in range(10):
            p = small_params(seed=seed)
            F = Tensor(np.random.default_rng(100 + seed).normal(size=(6, 5)))
            fwd = concept_forward(F, p)
            rebuilt = 1.0 / (1.0 + math.exp(-(fwd.kappa.data.sum() + float(p.clf_b.data))))
            assert abs(rebuilt - fwd.prob.item()) < 1e-12

    def test_concept_permutation_equivariance(self):
        p = small_params(seed=19)
        F = np.random.default_rng(20).normal(size=(6, 5))
        perm = np.array([3, 0, 4, 1, 2])
        fwd = concept_forward(Tensor(F), p)
        p2 = ConceptBranchParams(
            attn_v=p.attn_v, attn_u=p.attn_u, attn_w=p.attn_w,
            clf_w=Tensor(p.clf_w.data[perm]), clf_b=p.clf_b,
            gamma=p.gamma, temperature=p.temperature,
        )
        fwd2 = concept_forward(Tensor(F[:, perm]), p2)
        np.testing.assert_allclose(fwd2.kappa.data, fwd.kappa.data[perm], atol=1e-12)
        assert fwd2.prob.item() == pytest.approx(fwd.prob.item(), abs=1e-12)


class TestGradients:
    def test_prob_gradients_match_finite_differences(self):
        p = small_params(seed=21, K=5, C=4, d_a=3)
        F = np.random.default_rng(22).normal(size=(5, 4))

        params = p.tensors()
        fwd = concept_forward(Tensor(F), p)
        zero_grads(params.values())
        fwd.prob.backward()

        eps = 1e-6
        for name, t in params.items():
            numeric = np.zeros_like(t.data)
            flat, num_flat = t.data.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = concept_forward(Tensor(F), p).prob.item()
                flat[i] = orig - eps
                lo = concept_forward(Tensor(F), p).prob.item()
                flat[i] = orig
                num_flat[i] = (hi - lo) / (2 * eps)
            grad = t.grad if t.grad is not None else np.zeros_like(t.data)
            assert relative_error(grad, numeric) < 1e-4, name

    def test_gradient_flows_into_activations(self):
        p = small_params(seed=23)
        F = Tensor(np.random.default_rng(24).normal(size=(6, 5)))
        concept_forward(F, p).prob.backward()
        assert F.grad is not None and np.any(F.grad != 0)


class TestValidation:
    def test_bad_gamma(self):
        with pytest.raises(ConfigError, match="gamma"):
            TrainConfig(gamma=1.5)

    def test_bad_temperature(self):
        with pytest.raises(ConfigError, match="temperature"):
            TrainConfig(temperature=0.0)

    def test_c_mismatch_in_classifier(self):
        p = small_params()
        with pytest.raises(ShapeError, match="C=3"):
            concept_forward(Tensor(np.random.default_rng(25).normal(size=(6, 3))), p)


class TestParameters:
    def test_tensors_are_the_tensor_fields_in_declaration_order(self):
        p = small_params()
        assert list(p.tensors()) == ["concept.attn_v", "concept.attn_u", "concept.attn_w",
                                     "concept.clf_w", "concept.clf_b"]
        assert all(t is getattr(p, name[len("concept."):]) for name, t in p.tensors().items())

    def test_init_draws_each_parameter_in_field_order(self):
        # (fan_in, shape) of every field: one uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) draw each,
        # from the init stream once the image branch's seven draws are taken
        K, C, d_a, D, d_h = 6, 5, 4, 3, 2
        image_draws = [(D, (D, d_h)), (D, (d_h,)), (d_h, (d_h, d_a)), (d_h, (d_h, d_a)),
                       (d_a, (d_a,)), (d_h, (d_h,)), (d_h, ())]
        draws = [(K, (K, d_a)), (K, (K, d_a)), (d_a, (d_a,)), (C, (C,)), (C, ())]
        rng = np.random.default_rng((8, 0))
        for f, s in image_draws:
            rng.uniform(-1.0 / np.sqrt(f), 1.0 / np.sqrt(f), size=s)
        expected = [rng.uniform(-1.0 / np.sqrt(f), 1.0 / np.sqrt(f), size=s) for f, s in draws]
        cfg = TrainConfig(seed=8, d_h=d_h, d_a=d_a, topk=TopKConfig(K=K))
        concepts = ConceptSet([f"c{i}" for i in range(C)], np.ones((C, D)))
        got = init_model(cfg, concepts, D).concept.tensors().values()
        for e, t in zip(expected, got, strict=True):
            assert t.shape == e.shape and t.data.tobytes() == e.tobytes()
