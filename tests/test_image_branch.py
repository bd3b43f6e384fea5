import math

import numpy as np
import pytest

from cmil.autodiff import Tensor, sigmoid_value
from cmil.bagio import ConceptSet
from cmil.errors import ShapeError
from cmil.image_branch import (
    ImageBranchParams,
    attention_scores,
    gated_attention,
    image_forward,
    image_logit,
    project_features,
)
from cmil.trainer import TrainConfig, init_model, parameter_shapes
from gradcheck import relative_error, zero_grads


def small_params(seed=0, D=5, d_h=6, d_a=4):
    """The image entries of the init table, drawn in order from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    shapes = parameter_shapes(TrainConfig(d_h=d_h, d_a=d_a), 2, D)
    return ImageBranchParams(**{
        name[len("image."):]: Tensor(rng.uniform(-1.0 / np.sqrt(f), 1.0 / np.sqrt(f), size=shape))
        for name, (f, shape) in shapes.items() if name.startswith("image.")})


def scalar_relu_fc(I, W, b):
    n, d_h = I.shape[0], W.shape[1]
    out = np.zeros((n, d_h))
    for i in range(n):
        for j in range(d_h):
            acc = b[j]
            for k in range(I.shape[1]):
                acc += I[i, k] * W[k, j]
            out[i, j] = max(acc, 0.0)
    return out


def scalar_gated_attention(V, Vw, Uw, w):
    n = V.shape[0]
    e = np.zeros(n)
    for i in range(n):
        for a in range(Vw.shape[1]):
            t = math.tanh(sum(V[i, k] * Vw[k, a] for k in range(V.shape[1])))
            s = 1.0 / (1.0 + math.exp(-sum(V[i, k] * Uw[k, a] for k in range(V.shape[1]))))
            e[i] += w[a] * t * s
    exps = np.exp(e - e.max())
    return exps / exps.sum()


class TestProjector:
    def test_zero_weights_give_zero_features(self):
        p = small_params()
        p.proj_w.data[:] = 0.0
        p.proj_b.data[:] = 0.0
        V = project_features(Tensor(np.random.default_rng(1).normal(size=(3, 5))), p)
        np.testing.assert_array_equal(V.data, 0.0)

    def test_large_negative_bias_saturates(self):
        p = small_params()
        p.proj_b.data[:] = -1e6
        V = project_features(Tensor(np.random.default_rng(2).normal(size=(4, 5))), p)
        np.testing.assert_array_equal(V.data, 0.0)

    def test_matches_scalar_oracle(self):
        p = small_params(seed=3)
        I = np.random.default_rng(4).normal(size=(6, 5))
        V = project_features(Tensor(I), p)
        expected = scalar_relu_fc(I, p.proj_w.data, p.proj_b.data)
        np.testing.assert_allclose(V.data, expected, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError, match="D=5"):
            project_features(Tensor(np.zeros((2, 3))), small_params())


class TestAttention:
    def test_identical_patches_uniform(self):
        p = small_params(seed=5)
        V = Tensor(np.tile(np.random.default_rng(6).normal(size=(1, 6)), (7, 1)))
        alpha = attention_scores(V, p)
        np.testing.assert_allclose(alpha.data, 1.0 / 7, atol=1e-12)

    def test_zero_w_uniform(self):
        p = small_params(seed=7)
        p.attn_w.data[:] = 0.0
        alpha = attention_scores(Tensor(np.random.default_rng(8).normal(size=(5, 6))), p)
        np.testing.assert_allclose(alpha.data, 0.2, atol=1e-12)

    def test_matches_scalar_oracle_and_sums_to_one(self):
        p = small_params(seed=9)
        V = np.random.default_rng(10).normal(size=(6, 6))
        alpha = attention_scores(Tensor(V), p)
        expected = scalar_gated_attention(V, p.attn_v.data, p.attn_u.data, p.attn_w.data)
        np.testing.assert_allclose(alpha.data, expected, atol=1e-12)
        assert abs(alpha.data.sum() - 1.0) <= 1e-12

    def test_ordering_invariant_to_score_shift(self):
        p = small_params(seed=11)
        V = Tensor(np.random.default_rng(12).normal(size=(8, 6)))
        e = gated_attention(V, p.attn_v, p.attn_u, p.attn_w).data
        import cmil.autodiff as ad

        shifted = ad.softmax(Tensor(e + 3.7)).data
        plain = ad.softmax(Tensor(e)).data
        assert list(np.argsort(shifted)) == list(np.argsort(plain))
        np.testing.assert_allclose(shifted, plain, atol=1e-12)

    def test_gated_attention_has_the_inline_gate_bits(self):
        import cmil.autodiff as ad

        p = small_params(seed=14)
        V = Tensor(np.random.default_rng(15).normal(size=(7, 6)))
        inline = ad.mul(ad.tanh(V @ p.attn_v), ad.sigmoid(V @ p.attn_u)) @ p.attn_w
        got = gated_attention(V, p.attn_v, p.attn_u, p.attn_w)
        assert got.data.tobytes() == inline.data.tobytes()


class TestLogit:
    def test_zero_classifier_gives_bias_prob(self):
        p = small_params(seed=13)
        p.clf_w.data[:] = 0.0
        fwd = image_forward(Tensor(np.random.default_rng(14).normal(size=(4, 5))), p)
        assert fwd.prob.item() == pytest.approx(sigmoid_value(p.clf_b.data), abs=1e-12)

    def test_single_patch_reduces_to_logistic_regression(self):
        p = small_params(seed=15)
        I = np.random.default_rng(16).normal(size=(1, 5))
        fwd = image_forward(Tensor(I), p)
        V = project_features(Tensor(I), p)
        logit = V.data[0] @ p.clf_w.data + p.clf_b.data
        assert fwd.alpha.data[0] == pytest.approx(1.0, abs=1e-12)
        assert image_logit(V, fwd.alpha, p).item() == pytest.approx(float(logit), abs=1e-12)

    def test_matches_double_loop_oracle(self):
        p = small_params(seed=17)
        I = np.random.default_rng(18).normal(size=(5, 5))
        fwd = image_forward(Tensor(I), p)
        V = project_features(Tensor(I), p)
        acc = float(p.clf_b.data)
        for n in range(5):
            for d in range(6):
                acc += p.clf_w.data[d] * V.data[n, d] * fwd.alpha.data[n]
        assert image_logit(V, fwd.alpha, p).item() == pytest.approx(acc, abs=1e-12)
        assert 0.0 < fwd.prob.item() < 1.0


class TestBagSymmetry:
    def test_permutation_equivariance(self):
        p = small_params(seed=19)
        I = np.random.default_rng(20).normal(size=(9, 5))
        perm = np.random.default_rng(21).permutation(9)
        fwd = image_forward(Tensor(I), p)
        fwd_p = image_forward(Tensor(I[perm]), p)
        np.testing.assert_allclose(fwd_p.alpha.data, fwd.alpha.data[perm], atol=1e-12)
        assert fwd_p.prob.item() == pytest.approx(fwd.prob.item(), abs=1e-12)


class TestGradients:
    def test_probability_gradients_match_finite_differences(self):
        p = small_params(seed=22)
        I = np.random.default_rng(23).normal(size=(4, 5))

        params = p.tensors()
        fwd = image_forward(Tensor(I), p)
        zero_grads(params.values())
        fwd.prob.backward()

        eps = 1e-6
        for name, t in params.items():
            numeric = np.zeros_like(t.data)
            flat, num_flat = t.data.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = image_forward(Tensor(I), p).prob.item()
                flat[i] = orig - eps
                lo = image_forward(Tensor(I), p).prob.item()
                flat[i] = orig
                num_flat[i] = (hi - lo) / (2 * eps)
            assert relative_error(t.grad, numeric) < 1e-4, name

    def test_init_is_seed_deterministic_and_bounded(self):
        cfg = TrainConfig(seed=5, d_h=4, d_a=3)
        concepts = ConceptSet(["a", "b"], np.ones((2, 8)))
        a = init_model(cfg, concepts, 8).image
        b = init_model(cfg, concepts, 8).image
        for (na, ta), (nb, tb) in zip(sorted(a.tensors().items()), sorted(b.tensors().items())):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)
        assert np.max(np.abs(a.proj_w.data)) <= 1 / np.sqrt(8)
        assert np.max(np.abs(a.attn_w.data)) <= 1 / np.sqrt(3)

    def test_tensors_are_the_fields_in_declaration_order(self):
        p = small_params()
        assert list(p.tensors()) == ["image.proj_w", "image.proj_b", "image.attn_v", "image.attn_u",
                                     "image.attn_w", "image.clf_w", "image.clf_b"]
        assert all(t is getattr(p, name[len("image."):]) for name, t in p.tensors().items())

    def test_init_draws_each_parameter_in_field_order(self):
        # (fan_in, shape) of every field: one uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) draw each,
        # the image branch first from the init stream
        D, d_h, d_a = 5, 6, 4
        draws = [(D, (D, d_h)), (D, (d_h,)), (d_h, (d_h, d_a)), (d_h, (d_h, d_a)),
                 (d_a, (d_a,)), (d_h, (d_h,)), (d_h, ())]
        rng = np.random.default_rng((3, 0))
        expected = [rng.uniform(-1.0 / np.sqrt(f), 1.0 / np.sqrt(f), size=s) for f, s in draws]
        cfg = TrainConfig(seed=3, d_h=d_h, d_a=d_a)
        got = init_model(cfg, ConceptSet(["a", "b"], np.ones((2, D))), D).image.tensors().values()
        for e, t in zip(expected, got, strict=True):
            assert t.shape == e.shape and t.data.tobytes() == e.tobytes()
