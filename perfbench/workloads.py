"""The workloads: fixture, cold set-up, warm-up, timed op, output check.

Every input comes from ``cmil.synthgen`` at the benchmark seed and is written
to disk; the program reads it back through ``cmil.bagio``.  Held-out bags
reuse the training dataset's ``ConceptSet`` and draw from bag-index streams
far above the training set's, so a model trained on the dataset can score
them.  Only public entry points with their defaults are
called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cmil import bagio, evaluation, render, synthgen, trainer
from cmil.topk import TopKConfig

# RNG stream id hung off the benchmark seed, above synthgen's bag indices
# and its concept/layout streams (2**40, 2**40 + 1).
_HELDOUT_STREAM = 2**41

# Model-quality floors for the 2-epoch checkpoint on held-out bags.  A model
# trained on one seed's concept basis and scored on another's falls far
# below them (AUC about 0.4), so they catch mismatched inputs.
QUALITY_FLOORS = {"auc": 0.9, "accuracy": 0.85}

# Additive decomposition identity |sigmoid(sum kappa + b) - prob_concept|.
IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class Scale:
    synth: dict            # SynthConfig overrides for the training dataset
    train: dict            # TrainConfig overrides for every training run
    ckpt: dict             # further overrides for the checkpoint the eval workloads load
    heldout_bags: int
    tsne_points: int       # max_patch_points of eval-tsne


# The serving checkpoint trains 2 epochs at twice the default learning rate.
# At the default rate 2 epochs leave some seeds near AUC 0.77 on held-out
# bags, and more epochs would lengthen every predict and eval run.
FULL = Scale({}, {}, {"epochs": 2, "learning_rate": 2e-3}, 200, 500)
# Seconds-long smoke scale for the benchmark's own tests.
TINY = Scale({"num_bags": 60, "N_range": (40, 60)},
             {"topk": TopKConfig(K=8, num_noise_samples=20)},
             {"epochs": 6, "learning_rate": 3e-3}, 24, 40)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _balanced_labels(n: int, seed: int, stream: int) -> list:
    labels = np.arange(n) % 2
    return [int(v) for v in np.random.default_rng((seed, stream)).permutation(labels)]


def _gen_bags(cfg, concepts, labels, seed, stream, prefix, out_dir: Path) -> list:
    """Write one bag per label, bag i drawn from stream ``stream + i``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, label in enumerate(labels):
        bag = synthgen.gen_bag(cfg, np.random.default_rng((seed, stream + i)),
                               force_label=label, concepts=concepts,
                               slide_id=f"{prefix}_{i:04d}")
        path = out_dir / f"{prefix}_{i:04d}.cmil"
        bagio.write_bag(bag, path)
        paths.append(path)
    return paths


def _training_data(seed: int, scale: Scale, work: Path):
    cfg = synthgen.SynthConfig(seed=seed, **scale.synth)
    synthgen.gen_dataset(cfg, work / "data")
    split = bagio.read_split(work / "data" / "split.json")
    concepts = bagio.read_concepts(work / "data" / "concepts.ccpt")
    return cfg, split, concepts


def _serving_fixture(seed: int, scale: Scale, work: Path) -> dict:
    """Train the model that the eval workloads serve and write its checkpoint.

    This runs once per run, outside the timed set-up rounds: its cost is
    training, which train-default measures as its op.
    """
    cfg, split, concepts = _training_data(seed, scale, work)
    train_cfg = trainer.TrainConfig(**{**scale.train, **scale.ckpt})
    model, _ = trainer.train(split, concepts, train_cfg)
    path = work / "model.cmck"
    trainer.save_checkpoint(path, model, train_cfg, epoch=train_cfg.epochs - 1)
    return {"synth": cfg, "concepts": concepts, "checkpoint": path}


def _below_floors(auc: float, accuracy: float) -> list:
    got = {"auc": auc, "accuracy": accuracy}
    return [f"{k} {got[k]:.4f} below floor {floor}"
            for k, floor in QUALITY_FLOORS.items() if not got[k] >= floor]


def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


def _prediction_problems(pred, k: int) -> list:
    """The additive decomposition identity and K distinct in-range hard indices."""
    problems = []
    gap = abs(_sigmoid(float(np.sum(pred.kappa)) + pred.bias) - pred.prob_concept)
    if not gap <= IDENTITY_TOL:
        problems.append(f"additive identity off by {gap:.3e}")
    idx = np.asarray(pred.hard_indices)
    n = pred.alpha.shape[0]
    if idx.shape != (k,) or len(set(idx.tolist())) != k or idx.min() < 0 or idx.max() >= n:
        problems.append(f"hard indices are not {k} distinct values in [0, {n})")
    return problems


class TrainDefault:
    """One `trainer.train` epoch over preloaded bags; the unit is one step."""

    name = "train-default"
    unit = "step"

    def fixture(self, seed: int, scale: Scale, work: Path) -> dict:
        return {}

    def setup(self, fixture: dict, seed: int, scale: Scale, work: Path) -> dict:
        _, split, concepts = _training_data(seed, scale, work)
        bags = {"train": [bagio.read_bag(p) for p in split.train],
                "val": [bagio.read_bag(p) for p in split.val]}
        cfg = trainer.TrainConfig(epochs=1, **scale.train)
        return {"split": split, "concepts": concepts, "bags": bags, "cfg": cfg}

    def warm_up(self, state: dict) -> list:
        """One untimed op; its epoch log is the reference for later ops."""
        out, _ = self.op(state, -1)
        state["reference"] = out[1]
        return self.check(state, out)

    def op(self, state: dict, i: int):
        out = trainer.train(state["split"], state["concepts"], state["cfg"], bags=state["bags"])
        return out, len(state["bags"]["train"]) * state["cfg"].epochs

    def check(self, state: dict, out) -> list:
        model, log = out
        problems = []
        if len(log) != state["cfg"].epochs:
            problems.append(f"{len(log)} epoch records for {state['cfg'].epochs} epochs")
        for rec in log:
            if not _finite([rec["bce_img"], rec["bce_concept"], rec["l2_alpha"], rec["total"]]):
                problems.append(f"non-finite loss in epoch {rec['epoch']}")
        if not all(_finite(p.data) for p in model.parameters().values()):
            problems.append("non-finite parameters")
        if "reference" in state and log != state["reference"]:
            problems.append("epoch log differs from the warm-up run at the same seed")
        return problems


class Evaluate:
    """Read the held-out split, `evaluate_split`, write the global report."""

    unit = "op"

    def __init__(self, name: str, projection: str):
        self.name = name
        self.projection = projection

    def fixture(self, seed: int, scale: Scale, work: Path) -> dict:
        return _serving_fixture(seed, scale, work)

    def setup(self, fixture: dict, seed: int, scale: Scale, work: Path) -> dict:
        model, _, _ = trainer.load_checkpoint(fixture["checkpoint"])
        n = scale.heldout_bags
        labels = _balanced_labels(n, seed, _HELDOUT_STREAM - 1)
        paths = _gen_bags(fixture["synth"], fixture["concepts"], labels, seed,
                          _HELDOUT_STREAM, "heldout", work / "heldout")
        # PCA runs at evaluate_split's default patch cap; exact t-SNE at that cap
        # takes minutes per call, so eval-tsne lowers it.
        kwargs = {"max_patch_points": scale.tsne_points} if self.projection == "tsne" else {}
        (work / "reports").mkdir(parents=True)
        return {"model": model, "paths": paths, "kwargs": kwargs, "reports": work / "reports"}

    def warm_up(self, state: dict) -> list:
        """One untimed op; its result is the reference for later ops."""
        out, _ = self.op(state, -1)
        state["reference"] = out
        return self.check(state, out)

    def op(self, state: dict, i: int):
        bags = [bagio.read_bag(p) for p in state["paths"]]
        result, g, preds = evaluation.evaluate_split(bags, state["model"],
                                                     projection=self.projection, **state["kwargs"])
        files = render.write_global_report(g, state["reports"])
        return (result, g, preds, files), 1

    def check(self, state: dict, out) -> list:
        result, g, preds, files = out
        problems = _below_floors(result.auc, result.accuracy)
        k = state["model"].topk.K
        problems += sorted({p for pred in preds for p in _prediction_problems(pred, k)})
        if not (_finite(g.wsi_points_2d) and _finite(g.patch_points_2d)):
            problems.append("non-finite 2-D points")
        if not all(Path(f).stat().st_size > 0 for f in files):
            problems.append("empty report file")
        ref = state.get("reference")
        if ref is not None and ref is not out:
            ref_result, ref_g, _, _ = ref
            if (ref_result.to_dict() != result.to_dict()
                    or not np.array_equal(ref_g.wsi_points_2d, g.wsi_points_2d)
                    or not np.array_equal(ref_g.patch_points_2d, g.patch_points_2d)):
                problems.append("result differs from the warm-up op at the same seed")
        return problems


WORKLOADS = {w.name: w for w in (TrainDefault(), Evaluate("eval-pca", "pca"),
                                 Evaluate("eval-tsne", "tsne"))}
