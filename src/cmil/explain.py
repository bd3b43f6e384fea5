"""Local and global explanation assembly from trained-model predictions.

A slide's report is the JSON object `explain_slide` returns; `render` writes and
draws it as it is, so a saved `.explain.json` redraws its SVG.
"""

from dataclasses import dataclass

import numpy as np

from .bagio import Bag
from .embed2d import project_2d
from .errors import DataValidationError
from .trainer import CmilModel, Prediction

SCHEMA_VERSION = 1

CLASS_NAMES = ("normal", "tumor")


def explain_slide(bag: Bag, model: CmilModel, pred: Prediction) -> dict:
    """The slide's four-part report, as the JSON object `render.write_local_report`
    writes: attention map, selected patches with their concept vectors,
    per-concept contributions (model order), and the prediction itself."""
    grid = bag.grid.tolist()
    topk = []
    for k, j in enumerate(pred.hard_indices):
        r, c = grid[int(j)]
        topk.append({
            "patch_index": int(j),
            "row": r,
            "col": c,
            "alpha": float(pred.alpha[int(j)]),
            "concept_values": [float(v) for v in pred.f_topk[k]],
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "slide_id": bag.slide_id,
        "grid_shape": [int(m) + 1 for m in bag.grid.max(axis=0)],
        "attention_grid": [
            {"patch_index": i, "row": r, "col": c, "alpha": float(pred.alpha[i])}
            for i, (r, c) in enumerate(grid)
        ],
        "topk": topk,
        "contributions": [
            {"concept": name, "kappa": float(pred.kappa[c])}
            for c, name in enumerate(model.concepts.names)
        ],
        "bias": pred.bias,
        "prob_concept": pred.prob_concept,
        "prob_image": pred.prob_image,
        "decision": pred.decision,
    }


def wsi_concept_values(pred: Prediction) -> np.ndarray:
    """Slide-level aggregate per concept: beta_c * sum_j f_jc over selected patches."""
    return pred.beta * pred.f_topk.sum(axis=0)


@dataclass
class GlobalExplanation:
    """Dataset-level view: mean contributions per class, per-concept slide-level
    value distributions, and 2-D projections at patch and slide level."""

    group_by: str                      # "predicted" or "truth"
    concept_names: list
    classes: dict                      # class name -> [slide_id], partition of the split
    mean_contributions: dict           # class name -> [mean kappa_c]
    wsi_values: dict                   # concept name -> {class name: [per-slide value]}
    wsi_points: np.ndarray             # S x C aggregates, slide order
    wsi_labels: list                   # class name per slide
    wsi_slide_ids: list
    patch_points: np.ndarray           # P x C selected-patch concept vectors
    patch_labels: list
    patch_refs: list                   # (slide_id, patch_index) per point
    projection_method: str
    wsi_points_2d: np.ndarray
    patch_points_2d: np.ndarray

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "group_by": self.group_by,
            "concept_names": list(self.concept_names),
            "classes": {k: list(v) for k, v in self.classes.items()},
            "mean_contributions": {k: list(v) for k, v in self.mean_contributions.items()},
            "wsi_values": {c: {k: list(v) for k, v in d.items()}
                           for c, d in self.wsi_values.items()},
            "projection_method": self.projection_method,
            "wsi_2d": [
                {"slide_id": s, "class": l, "x": float(x), "y": float(y)}
                for s, l, (x, y) in zip(self.wsi_slide_ids, self.wsi_labels,
                                        self.wsi_points_2d)
            ],
            "patch_2d": [
                {"slide_id": r[0], "patch_index": r[1], "class": l,
                 "x": float(x), "y": float(y)}
                for r, l, (x, y) in zip(self.patch_refs, self.patch_labels,
                                        self.patch_points_2d)
            ],
        }


def global_explanations(predictions, labels, names, group_by: str, projection: str,
                        seed: int, max_patch_points: int) -> GlobalExplanation:
    """Aggregate per-slide predictions into the dataset-level explanation.

    Slides are grouped by predicted class (group_by="predicted") or by
    ground-truth label, one per prediction in `labels` (group_by="truth");
    `names` are the model's concept names.  Patch-level points are subsampled
    to max_patch_points (seeded) before projection to keep the exact t-SNE
    O(n^2) cost bounded.
    """
    if group_by not in ("predicted", "truth"):
        raise DataValidationError(f"unknown grouping {group_by!r}")

    classes = {name: [] for name in CLASS_NAMES}
    kappas = {name: [] for name in CLASS_NAMES}
    wsi_points, wsi_labels, wsi_slide_ids = [], [], []
    patch_points, patch_labels, patch_refs = [], [], []
    for pred, label in zip(predictions, labels):
        cls = pred.decision if group_by == "predicted" else CLASS_NAMES[label]
        classes[cls].append(pred.slide_id)
        kappas[cls].append(pred.kappa)
        wsi_points.append(wsi_concept_values(pred))
        wsi_labels.append(cls)
        wsi_slide_ids.append(pred.slide_id)
        for k, j in enumerate(pred.hard_indices):
            patch_points.append(pred.f_topk[k])
            patch_labels.append(cls)
            patch_refs.append((pred.slide_id, int(j)))

    for name in CLASS_NAMES:
        if len(classes[name]) < 2:
            raise DataValidationError(
                f"class {name!r} has {len(classes[name])} slide(s); need at least 2"
            )

    mean_contributions = {
        cls: [float(v) for v in np.mean(kappas[cls], axis=0)] for cls in CLASS_NAMES
    }
    wsi_points = np.asarray(wsi_points)
    wsi_values = {
        names[c]: {
            cls: [float(v) for v, l in zip(wsi_points[:, c], wsi_labels) if l == cls]
            for cls in CLASS_NAMES
        }
        for c in range(len(names))
    }

    patch_points = np.asarray(patch_points)
    if patch_points.shape[0] > max_patch_points:
        keep = np.sort(np.random.default_rng(seed).choice(
            patch_points.shape[0], size=max_patch_points, replace=False))
        patch_points = patch_points[keep]
        patch_labels = [patch_labels[i] for i in keep]
        patch_refs = [patch_refs[i] for i in keep]

    wsi_2d = project_2d(wsi_points, projection, seed)
    patch_2d = project_2d(patch_points, projection, seed)

    return GlobalExplanation(
        group_by=group_by,
        concept_names=list(names),
        classes=classes,
        mean_contributions=mean_contributions,
        wsi_values=wsi_values,
        wsi_points=wsi_points,
        wsi_labels=wsi_labels,
        wsi_slide_ids=wsi_slide_ids,
        patch_points=patch_points,
        patch_labels=patch_labels,
        patch_refs=patch_refs,
        projection_method=projection,
        wsi_points_2d=wsi_2d,
        patch_points_2d=patch_2d,
    )
