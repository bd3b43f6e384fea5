"""Local and global explanation assembly from trained-model predictions.

A slide's report is the JSON object `explain_slide` returns, and the dataset's
is the one `global_explanations` returns as `report`; `render` writes and draws
each as it is, so a saved `.explain.json` or `global.json` redraws its SVG.
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
    """The dataset-level report, as the JSON object `render.write_global_report`
    writes, and the concept-space points behind it that `evaluate_split` scores."""

    report: dict
    wsi_points: np.ndarray             # S x C aggregates, in wsi_2d order
    patch_points: np.ndarray           # P x C selected-patch concept vectors, in patch_2d order
    wsi_points_2d: np.ndarray
    patch_points_2d: np.ndarray


def global_explanations(predictions, labels, names, group_by: str, projection: str,
                        seed: int, max_patch_points: int) -> GlobalExplanation:
    """Aggregate per-slide predictions into the dataset-level explanation.

    The report holds mean contributions per class, per-concept slide-level
    values, and one `wsi_2d` entry per slide and one `patch_2d` entry per
    selected patch with its 2-D projection.  Slides are grouped by predicted
    class (group_by="predicted") or by ground-truth label, one per prediction
    in `labels` (group_by="truth"); `names` are the model's concept names.
    Patch-level points are subsampled to max_patch_points (seeded) before
    projection to keep the exact t-SNE O(n^2) cost bounded.
    """
    if group_by not in ("predicted", "truth"):
        raise DataValidationError(f"unknown grouping {group_by!r}")

    classes = {name: [] for name in CLASS_NAMES}
    kappas = {name: [] for name in CLASS_NAMES}
    wsi_points, wsi_2d, patch_points, patch_2d = [], [], [], []
    for pred, label in zip(predictions, labels):
        cls = pred.decision if group_by == "predicted" else CLASS_NAMES[label]
        classes[cls].append(pred.slide_id)
        kappas[cls].append(pred.kappa)
        wsi_points.append(wsi_concept_values(pred))
        wsi_2d.append({"slide_id": pred.slide_id, "class": cls})
        for k, j in enumerate(pred.hard_indices):
            patch_points.append(pred.f_topk[k])
            patch_2d.append({"slide_id": pred.slide_id, "patch_index": int(j), "class": cls})

    for name in CLASS_NAMES:
        if len(classes[name]) < 2:
            raise DataValidationError(
                f"class {name!r} has {len(classes[name])} slide(s); need at least 2"
            )

    wsi_points = np.asarray(wsi_points)
    patch_points = np.asarray(patch_points)
    if patch_points.shape[0] > max_patch_points:
        keep = np.sort(np.random.default_rng(seed).choice(
            patch_points.shape[0], size=max_patch_points, replace=False))
        patch_points = patch_points[keep]
        patch_2d = [patch_2d[i] for i in keep]

    wsi_points_2d = project_2d(wsi_points, projection, seed)
    patch_points_2d = project_2d(patch_points, projection, seed)
    for entries, points in ((wsi_2d, wsi_points_2d), (patch_2d, patch_points_2d)):
        for entry, (x, y) in zip(entries, points):
            entry["x"], entry["y"] = float(x), float(y)

    report = {
        "schema_version": SCHEMA_VERSION,
        "group_by": group_by,
        "concept_names": list(names),
        "classes": classes,
        "mean_contributions": {
            cls: [float(v) for v in np.mean(kappas[cls], axis=0)] for cls in CLASS_NAMES
        },
        "wsi_values": {
            name: {
                cls: [float(v) for v, e in zip(wsi_points[:, c], wsi_2d) if e["class"] == cls]
                for cls in CLASS_NAMES
            }
            for c, name in enumerate(names)
        },
        "projection_method": projection,
        "wsi_2d": wsi_2d,
        "patch_2d": patch_2d,
    }
    return GlobalExplanation(report, wsi_points, patch_points, wsi_points_2d, patch_points_2d)
