import ctypes
import dataclasses
import json
import math
import platform
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmil import autodiff as ad
from cmil.autodiff import Tensor
from cmil.bagio import Bag, ConceptSet, read_bag, read_concepts
from cmil.concept_branch import ConceptBranchParams
from cmil.errors import (ConfigError, DataValidationError, FormatError, ShapeError, TrainingDivergedError,
                         config_from_dict)
from cmil.image_branch import ImageBranchParams
from cmil.metrics import auc
from cmil.projection import project
from cmil.synthgen import SynthConfig, gen_dataset
from cmil.topk import TopKConfig, select
from cmil.trainer import (
    MODES,
    AdamW,
    TrainConfig,
    _validation_auc,
    bce_loss,
    init_model,
    joint_forward,
    load_checkpoint,
    parameter_shapes,
    predict,
    save_checkpoint,
    total_loss,
    train,
)
from blobs import HEADER, reseal
from gradcheck import PinnedNoise, frozen_forward, relative_error, zero_grads

# seed chosen so the 3-bag val and test slices each contain both classes
TINY_SYNTH = SynthConfig(
    seed=100, num_bags=30, N_range=(12, 20), D=16, C=6, tumor_concept_count=2,
    signal_strength=4.0, noise_std=0.5,
)
TINY_TRAIN = TrainConfig(
    epochs=12, seed=5, d_h=24, d_a=12,
    topk=TopKConfig(K=4, num_noise_samples=32, noise_sigma=0.05),
)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("tinyds")
    split = gen_dataset(TINY_SYNTH, out)
    from cmil.bagio import read_concepts

    return split, read_concepts(out / "concepts.ccpt")


class TestConfig:
    def test_defaults_match_contract(self):
        cfg = TrainConfig()
        assert cfg.learning_rate == 1e-3
        assert cfg.weight_decay == 1e-3
        assert cfg.epochs == 300
        assert cfg.lam == 0.05
        assert cfg.topk.K == 20

    def test_batch_size_fixed(self):
        for batch_size in (2, 4):
            with pytest.raises(ConfigError, match="batch_size"):
                config_from_dict(TrainConfig, {"batch_size": batch_size})

    def test_from_dict_rejects_the_keys_older_files_carried(self):
        with pytest.raises(ConfigError, match="batch_size"):
            config_from_dict(TrainConfig, {"epochs": 2, "batch_size": 1})
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(TrainConfig, {"epochs": 2, "topk": {"K": 3, "seed": 7}})

    def test_from_dict_nested_topk(self):
        doc = {"epochs": 2, "topk": {"K": 3, "num_noise_samples": 8}}
        cfg = config_from_dict(TrainConfig, doc)
        assert cfg.topk.K == 3 and cfg.topk.noise_sigma == 0.05
        assert doc["topk"] == {"K": 3, "num_noise_samples": 8}

    def test_config_from_dict_round_trips_every_field(self):
        synth = SynthConfig(seed=3, num_bags=50, N_range=(10, 30), D=32, C=8, tumor_concept_count=3,
                            tumor_fraction_range=(0.1, 0.5), signal_strength=2.5, noise_std=0.1,
                            positive_rate=0.4)
        trained = TrainConfig(learning_rate=2e-3, weight_decay=0.0, epochs=7, lam=0.1, seed=4,
                              d_h=32, d_a=16, gamma=0.5, temperature=2.0, beta1=0.8, beta2=0.99,
                              eps=1e-6, mode="image-only",
                              topk=TopKConfig(K=5, num_noise_samples=10, noise_sigma=0.2))
        for cfg in (synth, trained, trained.topk):
            assert all(getattr(cfg, f.name) != f.default for f in dataclasses.fields(cfg))
        for cfg in (synth, trained):
            doc = json.loads(json.dumps(dataclasses.asdict(cfg)))
            assert config_from_dict(type(cfg), doc) == cfg

    def test_from_dict_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            config_from_dict(TrainConfig, {"learningrate": 0.1})


class TestBceLoss:
    """bce_loss reads the logit z of the slide probability sigmoid(z)."""

    def test_half_is_ln_two(self):
        for y in (0, 1):
            assert bce_loss(y, Tensor(np.float64(0.0))).item() == pytest.approx(math.log(2), abs=1e-12)

    def test_confident_correct_is_near_zero(self):
        # sigmoid(21) = 1 - 7.6e-10
        assert 0.0 < bce_loss(1, Tensor(np.float64(21.0))).item() < 1e-6
        assert 0.0 < bce_loss(0, Tensor(np.float64(-21.0))).item() < 1e-6

    def test_wrong_nine_tenths(self):
        z = Tensor(np.float64(math.log(9.0)))  # sigmoid(z) = 0.9
        assert bce_loss(0, z).item() == pytest.approx(-math.log(0.1), abs=1e-12)

    def test_large_logits_keep_loss_finite(self):
        # a confidently wrong logit z costs about |z|
        assert bce_loss(1, Tensor(np.float64(-40.0))).item() == pytest.approx(40.0, abs=1e-12)
        assert bce_loss(0, Tensor(np.float64(1e300))).item() == 1e300
        assert bce_loss(1, Tensor(np.float64(1e300))).item() == 0.0

    def test_gradient_matches_analytic(self):
        z = Tensor(np.float64(0.3))
        bce_loss(1, z).backward()
        assert z.grad == pytest.approx(1.0 / (1.0 + math.exp(-0.3)) - 1.0, abs=1e-12)

    def test_confidently_wrong_logit_gets_a_unit_gradient(self):
        # clamping the probability to [1e-7, 1 - 1e-7] gave these bags no gradient at all
        for y, z0 in ((1, -40.0), (0, 40.0)):
            z = Tensor(np.float64(z0))
            bce_loss(y, z).backward()
            assert z.grad == pytest.approx(1.0 if y == 0 else -1.0, abs=1e-12), y

    def test_label_must_be_binary(self):
        with pytest.raises(DataValidationError, match="label"):
            bce_loss(2, Tensor(np.float64(0.0)))


class TestTotalLoss:
    def test_lambda_zero_drops_regularizer(self):
        a = Tensor(np.full(4, 0.25))
        lb = total_loss(1, Tensor(np.float64(0.7)), Tensor(np.float64(0.6)), a, 0.0, "dual")
        assert lb["total"].item() == pytest.approx(lb["bce_img"].item() + lb["bce_concept"].item(),
                                                   abs=1e-15)

    def test_uniform_alpha_l2_is_one_over_n(self):
        for n in (2, 5, 17):
            a = Tensor(np.full(n, 1.0 / n))
            lb = total_loss(0, Tensor(np.float64(0.4)), Tensor(np.float64(0.5)), a, 0.05, "dual")
            assert lb["l2_alpha"].item() == pytest.approx(1.0 / n, abs=1e-12)

    def test_breakdown_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = Tensor(rng.random(6))
            pi, pc = rng.uniform(0.01, 0.99, 2)
            lam = float(rng.uniform(0, 0.2))
            y = int(rng.integers(0, 2))
            lb = total_loss(y, Tensor(np.float64(pi)), Tensor(np.float64(pc)), a, lam, "dual")
            recomputed = lb["bce_img"].item() + lb["bce_concept"].item() + lam * lb["l2_alpha"].item()
            assert abs(lb["total"].item() - recomputed) < 1e-12


class PerParameterAdamW:
    """Frozen copy of the per-parameter AdamW step that the flat vector replaced."""

    def __init__(self, params, lr, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = dict(params)
        self.lr, self.wd = lr, weight_decay
        self.b1, self.b2, self.eps = beta1, beta2, eps
        self.t = 0
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self):
        zero_grads(self.params.values())

    def step(self):
        self.t += 1
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise TrainingDivergedError(f"non-finite gradient in {name}")
            m = self._m[name] = self.b1 * self._m[name] + (1 - self.b1) * g
            v = self._v[name] = self.b2 * self._v[name] + (1 - self.b2) * g * g
            m_hat = m / (1 - self.b1**self.t)
            v_hat = v / (1 - self.b2**self.t)
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.wd * p.data)


def adamw(params, weight_decay):
    """AdamW at learning rate 0.1 with TrainConfig's default moment settings."""
    d = TrainConfig()
    return AdamW(params, 0.1, weight_decay, d.beta1, d.beta2, d.eps)


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]))
        opt = adamw({"p": p}, 0.0)
        p.grad[...] = 0.0
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])

    def test_zero_grad_decay_scales(self):
        p = Tensor(np.array([1.0, -2.0]))
        opt = adamw({"p": p}, 0.01)
        p.grad[...] = 0.0
        opt.step()
        np.testing.assert_allclose(p.data, np.array([1.0, -2.0]) * (1 - 0.1 * 0.01), atol=1e-15)

    def test_single_step_hand_oracle(self):
        p = Tensor(np.float64(1.0))
        opt = AdamW({"p": p}, lr=0.1, weight_decay=0.01, beta1=0.9, beta2=0.999, eps=1e-8)
        p.grad[...] = 0.5
        opt.step()
        m_hat = (0.1 * 0.5) / (1 - 0.9)
        v_hat = (0.001 * 0.25) / (1 - 0.999)
        expected = 1.0 - 0.1 * (m_hat / (math.sqrt(v_hat) + 1e-8) + 0.01 * 1.0)
        assert float(p.data) == pytest.approx(expected, abs=1e-15)

    def test_nan_gradient_aborts(self):
        p = Tensor(np.array([1.0]))
        opt = adamw({"p": p}, 0.0)
        p.grad[...] = np.nan
        with pytest.raises(TrainingDivergedError, match="p"):
            opt.step()

    def test_nan_gradient_leaves_parameters_untouched(self):
        first = Tensor(np.array([1.0, -2.0]))
        second = Tensor(np.array([[0.5, 0.25]]))
        opt = adamw({"first": first, "second": second}, 0.01)
        before = first.data.tobytes()
        first.grad[...] = [0.3, -0.7]
        second.grad[...] = [[0.1, np.nan]]
        with pytest.raises(TrainingDivergedError, match="second"):
            opt.step()
        assert first.data.tobytes() == before
        # the failed step left no trace: the next one is the first step
        second.grad[...] = [[0.1, 0.2]]
        opt.step()
        oracle = {"first": Tensor(np.array([1.0, -2.0])), "second": Tensor(np.array([[0.5, 0.25]]))}
        ref = PerParameterAdamW(oracle, lr=0.1, weight_decay=0.01)
        oracle["first"].grad, oracle["second"].grad = first.grad.copy(), second.grad.copy()
        ref.step()
        assert first.data.tobytes() == oracle["first"].data.tobytes()
        assert second.data.tobytes() == oracle["second"].data.tobytes()

    def test_flat_vector_matches_per_parameter_oracle(self):
        rng = np.random.default_rng(11)
        # "long" spans two whole scratch blocks and part of a third, which "unused" ends
        shapes = {"scalar": (), "vector": (7,), "matrix": (5, 3),
                  "long": (2 * AdamW._BLOCK + 5,), "unused": (4,)}
        init = {k: rng.normal(size=s) for k, s in shapes.items()}
        flat = {k: Tensor(v.copy()) for k, v in init.items()}
        ref = {k: Tensor(v.copy()) for k, v in init.items()}
        kw = dict(lr=0.05, weight_decay=0.1, beta1=0.8, beta2=0.99, eps=1e-6)
        opt, oracle = AdamW(flat, **kw), PerParameterAdamW(ref, **kw)
        for step in range(50):
            opt.zero_grad()
            oracle.zero_grad()
            for k, shape in shapes.items():
                if k != "unused":  # its grad stays zero: decay only
                    g = rng.normal(scale=10.0 ** rng.integers(-4, 3), size=shape)
                    flat[k].grad[...], ref[k].grad = g, g.copy()
            opt.step()
            oracle.step()
            for k in shapes:
                assert flat[k].data.tobytes() == ref[k].data.tobytes(), (step, k)
                assert flat[k].data.shape == shapes[k]


# every parameter name in the order AdamW's flat vector took them when each
# branch listed its names by hand; ablations kept the names with their prefix
HAND_LISTED_NAMES = [
    "image.proj_w", "image.proj_b", "image.attn_v", "image.attn_u", "image.attn_w",
    "image.clf_w", "image.clf_b",
    "concept.attn_v", "concept.attn_u", "concept.attn_w", "concept.clf_w", "concept.clf_b",
]


def train_hand_listed(split, concepts, cfg):
    """Frozen copy of `train` that picks the optimized parameters by name prefix."""
    train_bags = [read_bag(p) for p in split.train]
    val_bags = [read_bag(p) for p in split.val]
    model = init_model(cfg, concepts)
    f_train = [project(b.embeddings, concepts) for b in train_bags]
    prefix = {"dual": "", "image-only": "image.", "concept-only": "concept."}[cfg.mode]
    tensors = model.parameters()
    opt = AdamW({n: tensors[n] for n in HAND_LISTED_NAMES if n.startswith(prefix)},
                cfg.learning_rate, cfg.weight_decay, cfg.beta1, cfg.beta2, cfg.eps)
    rng_shuffle = np.random.default_rng((cfg.seed, 1))
    rng_noise = np.random.default_rng((cfg.seed, 2))
    log = []
    for epoch in range(cfg.epochs):
        sums = {"bce_img": 0.0, "bce_concept": 0.0, "l2_alpha": 0.0, "total": 0.0}
        for i in rng_shuffle.permutation(len(train_bags)):
            bag = train_bags[i]
            fwd = joint_forward(model, bag.embeddings, f_train[i], rng=rng_noise)
            lb = total_loss(bag.label, fwd.img.logit, fwd.con.logit, fwd.img.alpha,
                            cfg.lam, mode=cfg.mode)
            opt.zero_grad()
            lb["total"].backward()
            opt.step()
            for k in sums:
                sums[k] += lb[k].item()
        record = {"epoch": epoch}
        record.update({k: v / len(train_bags) for k, v in sums.items()})
        record["val_auc"] = _validation_auc(model, val_bags)
        log.append(record)
    return model, log


class TestTraining:
    @pytest.mark.parametrize("mode", ["dual", "image-only", "concept-only"])
    def test_two_epochs_match_hand_listed_parameters_bit_for_bit(self, tiny_dataset, mode):
        split, concepts = tiny_dataset
        cfg = dataclasses.replace(TINY_TRAIN, epochs=2, mode=mode)
        model, log = train(split, concepts, cfg)
        oracle, oracle_log = train_hand_listed(split, concepts, cfg)
        assert list(model.parameters()) == HAND_LISTED_NAMES
        assert json.dumps(log) == json.dumps(oracle_log)
        for name, t in oracle.parameters().items():
            got = model.parameters()[name].data
            assert got.shape == t.shape and got.tobytes() == t.data.tobytes(), name

    def test_learns_tiny_synthetic_dataset(self, tiny_dataset):
        split, concepts = tiny_dataset
        model, log = train(split, concepts, TINY_TRAIN)
        assert len(log) == TINY_TRAIN.epochs
        final = log[-1]
        assert final["val_auc"] is not None and final["val_auc"] >= 0.9
        first = np.median([r["total"] for r in log[:3]])
        last = np.median([r["total"] for r in log[-3:]])
        assert last < first

    def test_same_seed_bit_identical_checkpoints(self, tiny_dataset, tmp_path):
        split, concepts = tiny_dataset
        cfg = TrainConfig(epochs=2, seed=9, d_h=16, d_a=8,
                          topk=TopKConfig(K=3, num_noise_samples=16))
        m1, log1 = train(split, concepts, cfg)
        m2, log2 = train(split, concepts, cfg)
        assert log1 == log2
        save_checkpoint(tmp_path / "a.cmck", m1, cfg, epoch=2)
        save_checkpoint(tmp_path / "b.cmck", m2, cfg, epoch=2)
        assert (tmp_path / "a.cmck").read_bytes() == (tmp_path / "b.cmck").read_bytes()

    def test_lambda_shrinks_attention_l2(self, tmp_path):
        # paired runs: with the regularizer on, logged l2_alpha ends lower (median over seeds)
        synth = SynthConfig(seed=33, num_bags=16, N_range=(10, 14), D=12, C=5,
                            tumor_concept_count=2, signal_strength=4.0, noise_std=0.5)
        split = gen_dataset(synth, tmp_path / "ds")
        from cmil.bagio import read_concepts

        concepts = read_concepts(tmp_path / "ds" / "concepts.ccpt")
        diffs = []
        for seed in range(5):
            base = dict(epochs=8, seed=seed, d_h=12, d_a=8,
                        topk=TopKConfig(K=3, num_noise_samples=16))
            _, log0 = train(split, concepts, TrainConfig(lam=0.0, **base))
            _, log1 = train(split, concepts, TrainConfig(lam=0.05, **base))
            diffs.append(log1[-1]["l2_alpha"] - log0[-1]["l2_alpha"])
        assert np.median(diffs) < 0.0

    def test_empty_split_rejected(self, tiny_dataset):
        split, concepts = tiny_dataset
        from cmil.bagio import DatasetSplit

        with pytest.raises(DataValidationError, match="empty"):
            train(DatasetSplit([], [], []), concepts, TINY_TRAIN)


class TestEndToEndGradients:
    def _setup(self, seed=0, n=8):
        rng = np.random.default_rng(seed)
        emb = rng.normal(size=(n, 6))
        f_values = np.clip(rng.normal(size=(n, 4)), -1, 1)
        cfg = TrainConfig(seed=3, d_h=5, d_a=4,
                          topk=TopKConfig(K=3, num_noise_samples=100, noise_sigma=0.05))
        concepts = ConceptSet([f"c{i}" for i in range(4)], rng.normal(size=(4, 6)))
        model = init_model(cfg, concepts)
        return model, cfg, emb, f_values

    def test_frozen_support_matches_fd_tightly(self):
        model, cfg, emb, f_values = self._setup()
        from cmil.topk import hard_topk

        fixed = hard_topk(
            joint_forward(model, emb, f_values).img.alpha.data, cfg.topk.K
        )

        def loss_value():
            fwd = frozen_forward(model, emb, f_values, fixed)
            return total_loss(1, fwd.img.logit, fwd.con.logit, fwd.img.alpha, cfg.lam, "dual")

        params = model.parameters()
        zero_grads(params.values())
        loss_value()["total"].backward()
        analytic = {k: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
                    for k, t in params.items()}

        eps = 1e-6
        for name, t in params.items():
            numeric = np.zeros_like(t.data)
            flat, nflat = t.data.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss_value()["total"].item()
                flat[i] = orig - eps
                lo = loss_value()["total"].item()
                flat[i] = orig
                nflat[i] = (hi - lo) / (2 * eps)
            if np.linalg.norm(analytic[name]) == 0 and np.linalg.norm(numeric) < 1e-10:
                continue  # image attention params have no path into the frozen-selection concept loss
            assert relative_error(analytic[name], numeric) < 1e-4, name

    def test_smoothed_loss_matches_crn_fd_per_tensor(self):
        # selection gradient included: same noise on both sides, wide step, L2 comparison
        model, cfg, emb, f_values = self._setup(seed=1)
        m_samples = 1_000_000  # measured rel err 0.0054 at h=1e-2; 300k plateaus near 0.02
        noise = np.random.default_rng(8).normal(size=(m_samples, emb.shape[0]))
        cfg2 = TrainConfig(seed=3, d_h=5, d_a=4,
                           topk=TopKConfig(K=3, num_noise_samples=m_samples, noise_sigma=0.05))

        model = dataclasses.replace(model, topk=cfg2.topk)  # the same parameters, M = m_samples

        def loss_value():
            fwd = joint_forward(model, emb, f_values, rng=PinnedNoise(noise))
            return total_loss(1, fwd.img.logit, fwd.con.logit, fwd.img.alpha, cfg2.lam, "dual")

        params = model.parameters()
        zero_grads(params.values())
        loss_value()["total"].backward()

        name, t = "image.attn_w", params["image.attn_w"]
        analytic = t.grad.copy()
        h = 1e-2
        numeric = np.zeros_like(t.data)
        flat, nflat = t.data.reshape(-1), numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_value()["total"].item()
            flat[i] = orig - h
            lo = loss_value()["total"].item()
            flat[i] = orig
            nflat[i] = (hi - lo) / (2 * h)
        rel = np.linalg.norm(analytic - numeric) / (
            np.linalg.norm(analytic) + np.linalg.norm(numeric) + 1e-12
        )
        assert rel < 1e-2, rel


class TestConstantLeaves:
    def _step(self, monkeypatch, tiny_dataset, plain: bool, mode: str = "dual"):
        """Parameter gradients of one training step, the embeddings leaf it
        built, its loss node and its gathered top-K rows.

        With ``plain`` every constant (the embeddings, the gathered top-K rows
        and the column-sum ones) is built as an ordinary differentiable Tensor.
        """
        import cmil.autodiff
        import cmil.topk
        import cmil.trainer

        split, concepts = tiny_dataset
        if plain:
            monkeypatch.setattr(cmil.autodiff, "constant", Tensor)
            monkeypatch.setattr(cmil.topk, "constant", Tensor)
        leaves = []
        image_forward = cmil.trainer.image_forward

        def capture(I, params):
            leaves.append(I)
            return image_forward(I, params)

        monkeypatch.setattr(cmil.trainer, "image_forward", capture)
        model = init_model(dataclasses.replace(TINY_TRAIN, mode=mode), concepts)
        bag = read_bag(split.train[0])
        fwd = joint_forward(model, bag.embeddings, project(bag.embeddings, concepts),
                            rng=np.random.default_rng(0))
        loss = total_loss(bag.label, fwd.img.logit, fwd.con.logit, fwd.img.alpha,
                          TINY_TRAIN.lam, mode=mode)["total"]
        loss.backward()
        monkeypatch.undo()
        return {k: t.grad for k, t in model.parameters().items()}, leaves[0], loss, fwd.f_topk

    def test_embeddings_get_no_gradient_and_parameters_are_unchanged(self, monkeypatch, tiny_dataset):
        grads, leaf, _, _ = self._step(monkeypatch, tiny_dataset, plain=False)
        plain_grads, plain_leaf, _, _ = self._step(monkeypatch, tiny_dataset, plain=True)
        assert leaf.grad is None
        assert plain_leaf.grad is not None  # the plain run did differentiate the input
        assert grads.keys() == plain_grads.keys()
        for name, g in grads.items():
            assert g is not None, name
            assert g.tobytes() == plain_grads[name].tobytes(), name

    def test_concept_only_step_skips_the_transposed_rows(self, monkeypatch, tiny_dataset):
        import cmil.autodiff

        views, transpose = [], cmil.autodiff.transpose

        def capture(a):
            views.append(transpose(a))
            return views[-1]

        monkeypatch.setattr(cmil.autodiff, "transpose", capture)  # _step undoes it
        grads, _, loss, f_topk = self._step(monkeypatch, tiny_dataset, plain=False,
                                            mode="concept-only")
        plain_grads, _, _, _ = self._step(monkeypatch, tiny_dataset, plain=True,
                                          mode="concept-only")
        assert f_topk._const
        # the attention input and the column-sum operand, both C x K views of the gathered rows
        assert [v.shape for v in views] == [f_topk.shape[::-1]] * 2
        assert all(np.shares_memory(v.data, f_topk.data) for v in views)
        # the nodes on the tape that hold more than one value and are constant
        consts, seen, stack = [], set(), [loss]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if node._const and node.data.ndim:
                consts.append(node)
            stack.extend(node._parents)
        # the attention input and the column sums over the other view; that view feeds
        # only the sums, so it is off the tape
        assert len(consts) == 2 and any(n is views[0] for n in consts)
        assert not any(n is views[1] for n in consts)
        col_sums = next(n for n in consts if n is not views[0])
        assert col_sums.data.tobytes() == (views[1].data @ np.ones(f_topk.shape[0])).tobytes()
        # those two transposes and the column sums are constant leaves without a grad
        for n in views + [col_sums]:
            assert n._const and n._parents == () and n._vjps == () and n.grad is None
        assert grads.keys() == plain_grads.keys()
        assert grads["concept.attn_v"] is not None
        for name, g in grads.items():
            if g is None:
                assert plain_grads[name] is None, name
            else:
                assert g.tobytes() == plain_grads[name].tobytes(), name

    def test_constant_operands_skip_their_products(self):
        rng = np.random.default_rng(12)
        for a_shape, b_shape in [((3, 4), (4, 2)), ((4,), (4, 2)), ((3, 4), (4,)), ((4,), (4,))]:
            for make_a, make_b in [(ad.constant, Tensor), (Tensor, ad.constant)]:
                a, b = make_a(rng.normal(size=a_shape)), make_b(rng.normal(size=b_shape))
                ad.reduce_sum(a @ b).backward()
                for t, make in [(a, make_a), (b, make_b)]:
                    assert (t.grad is None) == (make is ad.constant), (a_shape, b_shape)
        m, v = ad.constant(rng.normal(size=(3, 2))), Tensor(rng.normal(size=3))
        ad.reduce_sum(ad.scale_rows(m, v)).backward()
        assert m.grad is None
        np.testing.assert_array_equal(v.grad, m.data.sum(axis=1))
        m, v = Tensor(rng.normal(size=(3, 2))), ad.constant(rng.normal(size=3))
        ad.reduce_sum(ad.scale_rows(m, v)).backward()
        assert v.grad is None
        np.testing.assert_array_equal(m.grad, np.repeat(v.data[:, None], 2, axis=1))


@pytest.fixture(scope="module")
def trained(tiny_dataset):
    split, concepts = tiny_dataset
    model, _ = train(split, concepts, TINY_TRAIN)
    return split, concepts, model


class TestPredict:

    def test_inference_is_deterministic(self, trained):
        # the inputs decide the selection: perturbed only with an rng or noise,
        # and concept-only takes the first K patches without drawing noise
        split, concepts, model = trained
        bag = read_bag(split.test[0])
        f_values = project(bag.embeddings, concepts)
        for mode in ("dual", "image-only", "concept-only"):
            m = dataclasses.replace(model, mode=mode)
            a = predict(bag, m)
            b = predict(bag, m)
            assert a.prob_concept == b.prob_concept
            np.testing.assert_array_equal(a.alpha, b.alpha)
            np.testing.assert_array_equal(a.hard_indices, b.hard_indices)

            rng = np.random.default_rng(0)
            state = rng.bit_generator.state
            fwd = joint_forward(m, bag.embeddings, f_values, rng=rng)
            assert fwd.logit is (fwd.img.logit if mode == "image-only" else fwd.con.logit), mode
            if mode == "concept-only":
                np.testing.assert_array_equal(fwd.sel.hard_indices, np.arange(m.topk.K))
                assert rng.bit_generator.state == state
            else:
                assert fwd.sel.soft_indicator is not None, mode
            assert select(fwd.img.alpha, m.topk, None).soft_indicator is None

    def test_bag_with_n_equal_k_selects_everything(self, trained):
        _, concepts, model = trained
        rng = np.random.default_rng(0)
        from cmil.bagio import Bag

        k = model.topk.K
        bag = Bag("tiny", 0, rng.normal(size=(k, 16)), [(i, 0) for i in range(k)], None)
        out = predict(bag, model)
        assert list(out.hard_indices) == list(range(k))

    def test_decomposition_identity_in_prediction(self, trained):
        split, concepts, model = trained
        for p in split.test:
            out = predict(read_bag(p), model)
            rebuilt = 1.0 / (1.0 + math.exp(-(out.kappa.sum() + out.bias)))
            assert abs(rebuilt - out.prob_concept) < 1e-12

    def test_dimension_mismatch_rejected(self, trained):
        _, _, model = trained
        from cmil.bagio import Bag

        bag = Bag("bad", 0, np.zeros((6, 9)) + 1.0, [(i, 0) for i in range(6)], None)
        with pytest.raises(ShapeError, match="D=9"):
            predict(bag, model)

    def test_fields_equal_the_live_forward_byte_for_byte(self, trained):
        split, concepts, model = trained
        for mode in MODES:
            m = dataclasses.replace(model, mode=mode)
            for path in split.test:
                bag = read_bag(path)
                out = predict(bag, m)
                fwd = joint_forward(m, bag.embeddings, project(bag.embeddings, concepts))
                expected = {
                    "prob_concept": ad.sigmoid_value(fwd.con.logit.data),
                    "prob_image": ad.sigmoid_value(fwd.img.logit.data),
                    "prob": ad.sigmoid_value(fwd.logit.data), "alpha": fwd.img.alpha.data,
                    "hard_indices": np.asarray(fwd.sel.hard_indices, dtype=int),
                    "f_topk": fwd.f_topk.data, "beta": fwd.con.attention.gated.data,
                    "kappa": fwd.con.kappa.data, "bias": m.concept.clf_b.data,
                }
                for name, value in expected.items():
                    got = np.asarray(getattr(out, name))
                    assert got.dtype == value.dtype, (mode, name)
                    assert got.tobytes() == value.tobytes(), (mode, name)

    def test_predict_and_validation_build_no_tape(self, trained, monkeypatch):
        import cmil.trainer

        split, concepts, model = trained
        forwards, live = [], cmil.trainer.joint_forward

        def capture(*args, **kwargs):
            forwards.append(live(*args, **kwargs))
            return forwards[-1]

        monkeypatch.setattr(cmil.trainer, "joint_forward", capture)
        val_bags = [read_bag(p) for p in split.val]
        got_auc = _validation_auc(model, val_bags)
        predict(read_bag(split.test[0]), model)
        monkeypatch.undo()
        f_val = [project(b.embeddings, concepts) for b in val_bags]
        assert len(forwards) == len(val_bags) + 1
        for fwd in forwards:
            for t in (fwd.img.alpha, fwd.img.logit, fwd.f_topk, fwd.con.attention.gated,
                      fwd.con.kappa, fwd.con.logit):
                assert t._const and t._parents == ()
        live_probs = [ad.sigmoid_value(joint_forward(model, b.embeddings, f).logit.data)
                      for b, f in zip(val_bags, f_val)]
        assert got_auc == auc(live_probs, [b.label for b in val_bags])

    def test_trained_tumor_bags_score_higher(self, trained):
        split, concepts, model = trained
        probs = {0: [], 1: []}
        for p in split.train[:10]:
            bag = read_bag(p)
            probs[bag.label].append(predict(bag, model).prob_concept)
        if probs[0] and probs[1]:
            assert np.mean(probs[1]) > np.mean(probs[0])


def _wide_bag(n: int) -> Bag:
    """A bag of n float32 patch embeddings at D = 64, as a read bag holds them."""
    emb = np.random.default_rng(n).normal(size=(n, 64)).astype(np.float32)
    return Bag(f"wide{n}", 1, emb, [(i, 0) for i in range(n)], None)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTapeMemory:
    """backward drops each interior grad once its vjps have run, and predict builds
    no tape; both peaks are bounded against the bag's float32 embedding bytes
    (default TrainConfig, 12 concepts, D = 64)."""

    CONCEPTS = ConceptSet([f"c{i}" for i in range(12)],
                          np.random.default_rng(0).normal(size=(12, 64)))

    def test_dual_training_step_peak_stays_below_58x_the_embeddings(self):
        # holding every interior grad to the end of backward peaked at 113x; keeping the
        # projector's product and pre-activation on the tape, and AdamW's two full-length
        # scratch vectors, at 84.6x; keeping gated attention's two pre-activations, at 68.6x;
        # the image logit's N x d_h attention-scaled features, at 64.5x
        cfg = TrainConfig()
        model = init_model(cfg, self.CONCEPTS)
        params = model.parameters()
        opt = AdamW(params, cfg.learning_rate, cfg.weight_decay, cfg.beta1, cfg.beta2, cfg.eps)
        bag = _wide_bag(2000)
        f_values = project(bag.embeddings, self.CONCEPTS)

        def step():
            fwd = joint_forward(model, bag.embeddings, f_values, rng=np.random.default_rng(0))
            lb = total_loss(bag.label, fwd.img.logit, fwd.con.logit, fwd.img.alpha, cfg.lam, cfg.mode)
            opt.zero_grad()
            lb["total"].backward()
            opt.step()

        peak = _traced_peak(step)
        ratio = peak / bag.embeddings.nbytes
        assert ratio < 58, f"peak {ratio:.1f}x the {bag.embeddings.nbytes}-byte embeddings"
        # the parameters are leaves: their grads are still the optimizer's buffer
        assert all(np.shares_memory(p.grad, opt._g) for p in params.values())
        assert np.any(opt._g)

    def test_predict_peak_stays_below_28x_the_embeddings(self):
        # predicting on the live parameters held the whole tape and peaked at 54.5x;
        # sigmoid_value's four temporaries at 30.4x
        model = init_model(TrainConfig(), self.CONCEPTS)
        bag = _wide_bag(10_000)
        peak = _traced_peak(lambda: predict(bag, model))
        ratio = peak / bag.embeddings.nbytes
        assert ratio < 28, f"peak {ratio:.1f}x the {bag.embeddings.nbytes}-byte embeddings"


@pytest.fixture(scope="module")
def default_scale(tmp_path_factory):
    """A 40-bag default-scale dataset (32 train bags, N 64-256, D = 64, C = 12), preloaded."""
    out = tmp_path_factory.mktemp("default40")
    split = gen_dataset(SynthConfig(num_bags=40), out)
    bags = {"train": [read_bag(p) for p in split.train], "val": [read_bag(p) for p in split.val]}
    return split, read_concepts(out / "concepts.ccpt"), bags


class TestTrainingHeap:
    """train keeps the heap each step frees for the next step, and frees each
    step's tape before the next forward."""

    @pytest.mark.skipif(platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
                        reason="only glibc's mallopt keeps the freed heap; elsewhere train changes "
                               "nothing and each step may fault its pages in again")
    def test_steps_take_almost_no_page_faults(self, default_scale):
        # with glibc trimming the freed tape off the heap top, each step took about 230
        import resource

        split, concepts, bags = default_scale
        train(split, concepts, TrainConfig(epochs=1), bags=bags)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        train(split, concepts, TrainConfig(epochs=2), bags=bags)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        steps = 2 * len(bags["train"])
        assert faults <= 10 * steps, f"{faults / steps:.1f} minor page faults per step"

    def test_without_mallopt_training_keeps_its_bits(self, tiny_dataset, monkeypatch):
        split, concepts = tiny_dataset
        cfg = dataclasses.replace(TINY_TRAIN, epochs=2)
        model, log = train(split, concepts, cfg)
        lookups = []

        def no_libc(name, *args, **kwargs):
            lookups.append(name)
            raise OSError("no libc here")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        fallback, fallback_log = train(split, concepts, cfg)
        assert lookups == [None]
        assert json.dumps(fallback_log) == json.dumps(log)
        for name, t in model.parameters().items():
            assert fallback.parameters()[name].data.tobytes() == t.data.tobytes(), name

    def test_one_tape_alive_at_a_time(self, default_scale):
        # holding the last step's tape through the next forward peaked at 12.3 MiB, the
        # projector's two extra tape arrays and AdamW's full-length scratch at 9.8 MiB, and
        # every train bag's activations with gated attention's pre-activations at 8.0 MiB
        split, concepts, bags = default_scale
        peak = _traced_peak(lambda: train(split, concepts, TrainConfig(epochs=1), bags=bags))
        assert peak < 7.75 * 2**20, f"one epoch peaked at {peak / 2**20:.2f} MiB"

    def test_epoch_peak_does_not_grow_with_the_train_bags(self, default_scale):
        # holding every train bag's N x C activations for the run grew it by 0.33 MiB here
        split, concepts, bags = default_scale
        largest = sorted(bags["train"], key=lambda b: b.embeddings.shape[0])[-8:]
        peaks = [_traced_peak(lambda: train(split, concepts, TrainConfig(epochs=1),
                                            bags={"train": train_bags, "val": bags["val"]}))
                 for train_bags in (largest, bags["train"])]
        assert len(bags["train"]) == 4 * len(largest)
        assert peaks[1] - peaks[0] < 64 * 2**10, \
            f"8 bags peaked at {peaks[0] / 2**20:.3f} MiB, 32 at {peaks[1] / 2**20:.3f} MiB"


class TestParameterShapes:
    # C, D, K, d_h and d_a all differ, so a swapped dimension changes a shape
    CFG = TrainConfig(seed=4, d_h=5, d_a=4, topk=TopKConfig(K=2))
    CONCEPTS = ConceptSet(["a", "b", "c"], np.ones((3, 7)))

    def test_names_are_the_prefixed_fields_and_shapes_are_init_models(self):
        shapes = parameter_shapes(self.CFG, 3, 7)
        assert list(shapes) == (
            [f"image.{f.name}" for f in dataclasses.fields(ImageBranchParams) if f.type == "Tensor"]
            + [f"concept.{f.name}" for f in dataclasses.fields(ConceptBranchParams) if f.type == "Tensor"])
        params = init_model(self.CFG, self.CONCEPTS).parameters()
        assert list(params) == list(shapes)
        assert all(params[name].shape == shape for name, (_, shape) in shapes.items())

    def test_default_model_holds_87822_values(self):
        shapes = parameter_shapes(TrainConfig(), 12, 64)
        assert sum(math.prod(shape) for _, shape in shapes.values()) == 87_822

    def test_init_draws_each_parameter_in_table_order(self):
        # (name, fan_in, shape) of every parameter: one uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) draw each
        C, D, K, d_h, d_a = 3, 7, 2, 5, 4
        draws = [("image.proj_w", D, (D, d_h)), ("image.proj_b", D, (d_h,)),
                 ("image.attn_v", d_h, (d_h, d_a)), ("image.attn_u", d_h, (d_h, d_a)),
                 ("image.attn_w", d_a, (d_a,)), ("image.clf_w", d_h, (d_h,)), ("image.clf_b", d_h, ()),
                 ("concept.attn_v", K, (K, d_a)), ("concept.attn_u", K, (K, d_a)),
                 ("concept.attn_w", d_a, (d_a,)), ("concept.clf_w", C, (C,)), ("concept.clf_b", C, ())]
        assert parameter_shapes(self.CFG, C, D) == {name: (f, s) for name, f, s in draws}
        rng = np.random.default_rng((self.CFG.seed, 0))
        expected = {name: rng.uniform(-1.0 / np.sqrt(f), 1.0 / np.sqrt(f), size=s) for name, f, s in draws}
        got = init_model(self.CFG, self.CONCEPTS).parameters()
        assert list(got) == list(expected)
        for name, e in expected.items():
            assert got[name].shape == e.shape and got[name].data.tobytes() == e.tobytes(), name


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tiny_dataset, tmp_path):
        split, concepts = tiny_dataset
        cfg = TrainConfig(epochs=1, seed=2, d_h=16, d_a=8, topk=TopKConfig(K=3, num_noise_samples=8))
        model, _ = train(split, concepts, cfg)
        path = tmp_path / "model.cmck"
        save_checkpoint(path, model, cfg, epoch=1)
        loaded, cfg2, header = load_checkpoint(path)
        assert cfg2 == cfg
        assert header["epoch"] == 1
        for name, t in model.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[name].data, t.data)
        np.testing.assert_array_equal(loaded.concepts.embeddings, model.concepts.embeddings)
        assert loaded.concepts.names == model.concepts.names

    def test_predictions_survive_round_trip(self, tiny_dataset, tmp_path):
        split, concepts = tiny_dataset
        cfg = TrainConfig(
            epochs=2, seed=4, d_h=16, d_a=8, topk=TopKConfig(K=3, num_noise_samples=8))
        model, _ = train(split, concepts, cfg)
        save_checkpoint(tmp_path / "m.cmck", model, cfg, epoch=2)
        loaded, _, _ = load_checkpoint(tmp_path / "m.cmck")
        bag = read_bag(split.test[0])
        assert predict(bag, loaded).prob_concept == predict(bag, model).prob_concept

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "x.cmck"
        p.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(p)

    @pytest.mark.filterwarnings("ignore:concept attention has zero variance")
    def test_truncated_blob(self, tiny_dataset, tmp_path):
        split, concepts = tiny_dataset
        cfg = TrainConfig(epochs=1, seed=2, d_h=8, d_a=4, topk=TopKConfig(K=2, num_noise_samples=4))
        model, _ = train(split, concepts, cfg)
        p = tmp_path / "t.cmck"
        save_checkpoint(p, model, cfg, epoch=1)
        raw = p.read_bytes()
        p.write_bytes(raw[:-16])
        with pytest.raises(FormatError, match="payload is .* bytes, header declares"):
            load_checkpoint(p)

    def test_load_peak_stays_below_one_and_a_quarter_file_sizes(self, tmp_path):
        # the model holds the sections it was read into: no second copy, no init draws
        cfg = TrainConfig()
        concepts = ConceptSet([f"c{i}" for i in range(12)],
                              np.random.default_rng(0).normal(size=(12, 64)))
        path = tmp_path / "default.cmck"
        save_checkpoint(path, init_model(cfg, concepts), cfg, epoch=0)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * size, f"peak {peak / size:.2f}x the {size}-byte file"

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        cfg = TrainConfig(seed=3, d_h=5, d_a=4, topk=TopKConfig(K=2))
        model = init_model(cfg, ConceptSet(["a", "b", "c"], np.ones((3, 7))))
        save_checkpoint(tmp_path / "m.cmck", model, cfg, epoch=0)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew from a generator")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        loaded, _, _ = load_checkpoint(tmp_path / "m.cmck")
        for name, t in model.parameters().items():
            assert loaded.parameters()[name].data.tobytes() == t.data.tobytes(), name

    @settings(max_examples=25, deadline=None)
    @given(d_h=st.integers(1, 5), d_a=st.integers(1, 5), K=st.integers(1, 5), D=st.integers(1, 5),
           C=st.integers(2, 5), seed=st.integers(0, 2**16))
    def test_format_holds_across_shapes(self, tmp_path_factory, d_h, d_a, K, D, C, seed):
        cfg = TrainConfig(seed=seed, d_h=d_h, d_a=d_a, topk=TopKConfig(K=K))
        concepts = ConceptSet([f"c{i}" for i in range(C)], np.random.default_rng(seed).normal(size=(C, D)))
        model = init_model(cfg, concepts)
        path = tmp_path_factory.mktemp("shapes") / "m.cmck"
        save_checkpoint(path, model, cfg, epoch=0)
        params = model.parameters()
        # after the header and the C x D embeddings, each parameter in sorted-name order
        assert path.read_bytes()[HEADER + 8 * C * D:] == b"".join(
            params[n].data.astype("<f8").tobytes() for n in sorted(params))
        loaded, cfg2, _ = load_checkpoint(path)
        assert cfg2 == cfg
        assert loaded.concepts.embeddings.tobytes() == concepts.embeddings.tobytes()
        for name, t in params.items():
            got = loaded.parameters()[name].data
            assert got.shape == t.shape and got.tobytes() == t.data.tobytes(), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_reports_epoch(self, tiny_dataset):
        split, concepts = tiny_dataset
        cfg = TrainConfig(epochs=4, seed=2, d_h=16, d_a=8, learning_rate=1e9,
                          topk=TopKConfig(K=3, num_noise_samples=8))
        with pytest.raises(TrainingDivergedError) as exc_info:
            train(split, concepts, cfg)
        assert exc_info.value.epoch is not None


class TestCheckpointAgainstModel:
    """Edited checkpoints, resealed so that each edit reaches the check behind the CRC."""

    CFG = TrainConfig(epochs=1, seed=2, d_h=16, d_a=8, topk=TopKConfig(K=3, num_noise_samples=8))

    @pytest.fixture(scope="class")
    def saved(self, tiny_dataset, tmp_path_factory):
        split, concepts = tiny_dataset
        model, _ = train(split, concepts, self.CFG)
        path = tmp_path_factory.mktemp("ckpt") / "m.cmck"
        save_checkpoint(path, model, self.CFG, epoch=1)
        return model, path

    def edited(self, saved, tmp_path, sidecar=lambda doc: doc, blob=lambda raw: raw):
        """A copy of the saved pair with `sidecar` applied to its JSON and
        `blob` to its bytes, resealed."""
        out = tmp_path / "edited.cmck"
        out.write_bytes(bytes(blob(bytearray(saved[1].read_bytes()))))
        out.with_suffix(".json").write_text(json.dumps(sidecar(json.loads(
            saved[1].with_suffix(".json").read_text()))))
        reseal(out)
        return out

    def test_reseal_leaves_an_unedited_checkpoint_unchanged(self, saved, tmp_path):
        out = self.edited(saved, tmp_path)
        assert out.read_bytes() == saved[1].read_bytes()
        assert (json.loads(out.with_suffix(".json").read_text())
                == json.loads(saved[1].with_suffix(".json").read_text()))
        loaded, _, _ = load_checkpoint(out)
        for name, t in saved[0].parameters().items():
            assert loaded.parameters()[name].data.tobytes() == t.data.tobytes(), name

    def test_zero_width_concept_embeddings_are_rejected(self, saved, tmp_path):
        model = saved[0]
        size = 8 * model.concepts.embeddings.size

        def empty(raw):
            raw[16:24] = struct.pack("<Q", 0)  # the header's cols D
            del raw[HEADER:HEADER + size]
            return raw

        with pytest.raises(FormatError, match="degenerate shape"):
            load_checkpoint(self.edited(saved, tmp_path, blob=empty))

    def test_config_larger_than_the_file_fails_before_allocating(self, saved, tmp_path):
        out = self.edited(saved, tmp_path, sidecar=lambda doc: dict(
            doc, train_config=dict(doc["train_config"], d_h=400_000)))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="header declares"):
                load_checkpoint(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("edit", [{"d_a": 4.0}, {"seed": 1.5}, {"topk": 7}], ids=str)
    def test_wrongly_typed_config_value_is_a_format_error(self, saved, tmp_path, edit):
        out = self.edited(saved, tmp_path, sidecar=lambda doc: dict(
            doc, train_config=dict(doc["train_config"], **edit)))
        with pytest.raises(FormatError, match="invalid embedded train config"):
            load_checkpoint(out)

    def test_non_string_prompt_template_is_rejected(self, saved, tmp_path):
        out = self.edited(saved, tmp_path, sidecar=lambda doc: dict(
            doc, concepts=dict(doc["concepts"], prompt_template=5)))
        with pytest.raises(DataValidationError, match="prompt_template must be a string"):
            load_checkpoint(out)

    def test_missing_prompt_template_is_a_format_error(self, saved, tmp_path):
        out = self.edited(saved, tmp_path, sidecar=lambda doc: dict(
            doc, concepts={"names": doc["concepts"]["names"]}))
        with pytest.raises(FormatError, match="malformed 'concepts' record"):
            load_checkpoint(out)

    @pytest.mark.parametrize("name, value", [("data.concept_embeddings", math.nan),
                                             ("image.attn_w", math.inf),
                                             ("concept.clf_b", -math.inf)])
    def test_non_finite_blob_value_is_a_format_error(self, saved, tmp_path, name, value):
        # the concept section, then each parameter in sorted-name order
        model = saved[0]
        params = model.parameters()
        offset = HEADER
        if name != "data.concept_embeddings":
            offset += 8 * (model.concepts.embeddings.size
                           + sum(params[n].data.size for n in sorted(params) if n < name))

        def poison(raw):
            raw[offset:offset + 8] = struct.pack("<d", value)
            return raw

        with pytest.raises(FormatError, match="non-finite values in payload"):
            load_checkpoint(self.edited(saved, tmp_path, blob=poison))

    def test_version_1_checkpoint_says_to_rerun_train(self, tmp_path):
        # a version-1 file: magic, u32 version, u64 header length, JSON header, blobs; no sidecar
        header = json.dumps({"epoch": 0, "params": []}).encode("utf-8")
        path = tmp_path / "v1.cmck"
        path.write_bytes(struct.pack("<4sIQ", b"CMCK", 1, len(header)) + header)
        with pytest.raises(FormatError, match="format version 1 is no longer read; re-run train"):
            load_checkpoint(path)

    def test_another_checkpoints_sidecar_is_rejected(self, saved, tmp_path):
        model, path = saved
        other = tmp_path / "other.cmck"
        save_checkpoint(other, model, self.CFG, epoch=2)
        out = tmp_path / "paired.cmck"
        out.write_bytes(path.read_bytes())
        out.with_suffix(".json").write_bytes(other.with_suffix(".json").read_bytes())
        with pytest.raises(FormatError, match="does not match its blob's"):
            load_checkpoint(out)

    @pytest.mark.parametrize("edit", [
        lambda doc: dict(doc, epoch=7),
        lambda doc: dict(doc, data_hash="0" * 64),
        lambda doc: dict(doc, concepts=dict(doc["concepts"], prompt_template="CONCEPT")),
        lambda doc: dict(doc, concepts=dict(doc["concepts"], names=doc["concepts"]["names"][::-1])),
        lambda doc: dict(doc, train_config=dict(doc["train_config"], lam=0.5)),
    ], ids=["epoch", "data_hash", "prompt_template", "names", "lam"])
    def test_edited_sidecar_field_without_reseal_is_rejected(self, saved, tmp_path, edit):
        out = tmp_path / "unsealed.cmck"
        out.write_bytes(saved[1].read_bytes())
        doc = json.loads(saved[1].with_suffix(".json").read_text())
        out.with_suffix(".json").write_text(json.dumps(edit(doc)))
        with pytest.raises(FormatError, match="CRC-32 mismatch"):
            load_checkpoint(out)
