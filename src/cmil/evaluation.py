"""Split-level evaluation: classification, localization, separability."""

import warnings

import numpy as np

from .explain import global_explanations
from .metrics import (EvalResult, accuracy, auc, disease_localization,
                      js_divergence, silhouette)
from .trainer import CmilModel, predict


def evaluate_split(bags, model: CmilModel, projection: str = "tsne", seed: int = 0,
                   group_by: str = "predicted", max_patch_points: int = 2000):
    """Evaluate an iterable of bags; returns (EvalResult, GlobalExplanation, predictions).

    Each bag is read once and not held: it is reduced to its prediction, its
    label and its localization hit fraction.  Metrics (AUC, per-concept AUC
    and JSD, silhouette) compare against ground-truth labels; the explanation
    artifact groups slides by predicted class unless group_by says otherwise.
    Localization averages over slides with annotated tumor regions; when no
    slide has any the fields are null and a warning is emitted.  So are the
    patch silhouettes when the patch subsample holds one class.  Ablation
    models score the head their mode decides on.
    """
    preds, labels, hits = [], [], []
    for bag in bags:
        pred = predict(bag, model)
        preds.append(pred)
        labels.append(bag.label)
        # pointing game needs a target: score only slides with annotated tumor regions
        if bag.in_tumor is not None and bag.in_tumor.any():
            hits.append(disease_localization(pred.hard_indices, bag))
    probs = [p.prob for p in preds]

    acc = accuracy(probs, labels)
    auc_val = auc(probs, labels)

    if hits:
        loc_mean = float(np.mean(hits))
    else:
        warnings.warn("no slide has annotated tumor regions; localization skipped")
        loc_mean = None

    g = global_explanations(preds, labels, model.concepts.names, group_by=group_by,
                            projection=projection, seed=seed,
                            max_patch_points=max_patch_points)

    truth = np.asarray(labels)
    tumor_rows = np.flatnonzero(truth == 1)
    normal_rows = np.flatnonzero(truth == 0)
    jsd_per_concept, auc_per_concept = {}, {}
    for c, name in enumerate(model.concepts.names):
        jsd_per_concept[name] = js_divergence(
            g.wsi_points[tumor_rows, c], g.wsi_points[normal_rows, c])
        # a rank measure: JSD saturates at 1 once the classes stop overlapping
        auc_per_concept[name] = auc(g.wsi_points[:, c], truth)
    jsd_mean = float(np.mean(list(jsd_per_concept.values())))

    slide_truth = {p.slide_id: label for p, label in zip(preds, labels)}
    patch_truth = np.asarray([slide_truth[e["slide_id"]] for e in g.report["patch_2d"]])
    two_classes = bool(np.any(patch_truth != patch_truth[0]))
    if not two_classes:
        warnings.warn("the patch subsample holds one class; patch silhouettes skipped")
    result = EvalResult(
        accuracy=acc,
        auc=auc_val,
        auc_per_concept=auc_per_concept,
        localization_mean=loc_mean,
        localization_slides=len(hits),
        jsd_per_concept=jsd_per_concept,
        jsd_mean=jsd_mean,
        silhouette={
            "wsi_concept_space": silhouette(g.wsi_points, truth),
            "patch_concept_space": silhouette(g.patch_points, patch_truth) if two_classes else None,
            "wsi_projected_2d": silhouette(g.wsi_points_2d, truth),
            "patch_projected_2d": silhouette(g.patch_points_2d, patch_truth) if two_classes else None,
        },
        counts={
            "slides": len(preds),
            "tumor": int(truth.sum()),
            "normal": int((1 - truth).sum()),
            "patch_points": int(g.patch_points.shape[0]),
        },
    )
    return result, g, preds
