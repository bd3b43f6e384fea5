"""Explanation assembly, SVG rendering, and split evaluation."""

import dataclasses
import json
import tracemalloc
import xml.etree.ElementTree as ET
from importlib.resources import files

import numpy as np
import pytest

from cmil.autodiff import sigmoid_value
from cmil.bagio import Bag, read_bag, read_concepts, read_split
from cmil.errors import DataValidationError
from cmil.evaluation import evaluate_split
from cmil.explain import (SCHEMA_VERSION, explain_slide, global_explanations,
                          wsi_concept_values)
from cmil.metrics import EvalResult, auc
from cmil.render import (CLASS_COLORS, VIRIDIS_STOPS, color_for,
                         render_global_svg, render_local_svg,
                         write_global_report, write_local_report)
from cmil.synthgen import SynthConfig, gen_dataset
from cmil.topk import TopKConfig
from cmil.trainer import TrainConfig, init_model, predict, train

NOISELESS_SYNTH = SynthConfig(
    seed=100, num_bags=30, N_range=(12, 20), D=16, C=6, tumor_concept_count=2,
    signal_strength=3.0, noise_std=0.0,
)
FIT_TRAIN = TrainConfig(
    epochs=25, seed=5, d_h=24, d_a=12,
    topk=TopKConfig(K=4, num_noise_samples=32, noise_sigma=0.05),
)


def explain(bag, model):
    """The local report of the bag's own prediction, as `cmil explain` builds it."""
    return explain_slide(bag, model, predict(bag, model))


def global_pca(bags, model, group_by="predicted", max_patch_points=2000):
    """The PCA global report of the bags' own predictions, at seed 0."""
    return global_explanations([predict(b, model) for b in bags], [b.label for b in bags],
                               model.concepts.names, group_by, "pca", 0, max_patch_points)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    root = tmp_path_factory.mktemp("noiseless")
    gen_dataset(NOISELESS_SYNTH, root)
    split = read_split(root / "split.json")
    concepts = read_concepts(root / "concepts.ccpt")
    bags = [read_bag(p) for p in split.train + split.val + split.test]
    model, _ = train(split, concepts, FIT_TRAIN)
    return bags, concepts, model


class TestLocalExplanation:
    def test_reconstruction_identity_every_slide(self, fitted):
        bags, _, model = fitted
        for bag in bags:
            exp = explain(bag, model)
            logit = sum(c["kappa"] for c in exp["contributions"]) + exp["bias"]
            assert abs(sigmoid_value(logit) - exp["prob_concept"]) <= 1e-12, bag.slide_id
            assert len(exp["topk"]) == model.topk.K

    def test_attention_grid_is_the_prediction_alpha(self, fitted):
        bags, _, model = fitted
        bag = bags[0]
        exp = explain(bag, model)
        pred = predict(bag, model)
        emitted = np.array([e["alpha"] for e in exp["attention_grid"]])
        np.testing.assert_array_equal(emitted, pred.alpha)

    def test_topk_entries_reference_selected_patches(self, fitted):
        bags, _, model = fitted
        bag = bags[1]
        exp = explain(bag, model)
        pred = predict(bag, model)
        assert [e["patch_index"] for e in exp["topk"]] == [int(j) for j in pred.hard_indices]
        for k, e in enumerate(exp["topk"]):
            assert [e["row"], e["col"]] == bag.grid[e["patch_index"]].tolist()
            np.testing.assert_array_equal(e["concept_values"], pred.f_topk[k])
            assert e["alpha"] == pred.alpha[e["patch_index"]]

    def test_tumor_slides_rank_a_tumor_concept_first(self, fitted):
        bags, concepts, model = fitted
        for bag in bags:
            if bag.label != 1:
                continue
            exp = explain(bag, model)
            best = max(exp["contributions"], key=lambda c: c["kappa"])
            assert best["concept"].startswith("tumor"), bag.slide_id

    def test_normal_slides_get_negative_logit(self, fitted):
        bags, _, model = fitted
        for bag in bags:
            if bag.label != 0:
                continue
            exp = explain(bag, model)
            assert sum(c["kappa"] for c in exp["contributions"]) + exp["bias"] < 0
            assert exp["decision"] == "normal"

    def test_grid_shape_bounds_all_coordinates(self, fitted):
        bags, _, model = fitted
        exp = explain(bags[2], model)
        rows, cols = exp["grid_shape"]
        assert rows == max(e["row"] for e in exp["attention_grid"]) + 1
        assert cols == max(e["col"] for e in exp["attention_grid"]) + 1

    def test_report_dict_is_json_ready(self, fitted):
        bags, _, model = fitted
        d = explain(bags[0], model)
        assert d["schema_version"] == SCHEMA_VERSION
        assert json.loads(json.dumps(d, sort_keys=True)) == d


class TestGlobalExplanation:
    def test_classes_partition_all_slides(self, fitted):
        bags, concepts, model = fitted
        g = global_pca(bags, model).report
        grouped = sorted(s for ids in g["classes"].values() for s in ids)
        assert grouped == sorted(b.slide_id for b in bags)
        for vec in g["mean_contributions"].values():
            assert len(vec) == concepts.num_concepts

    def test_grouping_flag_recorded_and_respected(self, fitted):
        bags, _, model = fitted
        by_pred = global_pca(bags, model).report
        by_truth = global_pca(bags, model, group_by="truth").report
        assert by_pred["group_by"] == "predicted" and by_truth["group_by"] == "truth"
        truth_tumor = sorted(b.slide_id for b in bags if b.label == 1)
        assert sorted(by_truth["classes"]["tumor"]) == truth_tumor

    def test_single_class_split_names_missing_class(self, fitted):
        bags, _, model = fitted
        tumor_only = [b for b in bags if b.label == 1]
        with pytest.raises(DataValidationError, match="'normal'"):
            global_pca(tumor_only, model, group_by="truth")

    def test_identical_slides_have_zero_within_class_variance(self, fitted):
        bags, concepts, model = fitted
        rng = np.random.default_rng(3)
        emb_t, emb_n = rng.normal(size=(8, 16)), rng.normal(size=(8, 16))
        grid = [(i, 0) for i in range(8)]
        mk = lambda sid, label, emb: Bag(sid, label, emb.copy(), grid, None)
        four = [mk("t1", 1, emb_t), mk("t2", 1, emb_t),
                mk("n1", 0, emb_n), mk("n2", 0, emb_n)]
        g = global_pca(four, model, group_by="truth").report
        for name in g["concept_names"]:
            for cls, values in g["wsi_values"][name].items():
                assert np.var(values) == 0.0

    def test_tumor_concept_means_larger_for_tumor_class(self, fitted):
        bags, concepts, model = fitted
        g = global_pca(bags, model, group_by="truth").report
        for c, name in enumerate(g["concept_names"]):
            if name.startswith("tumor"):
                assert (g["mean_contributions"]["tumor"][c]
                        > g["mean_contributions"]["normal"][c]), name

    def test_wsi_points_are_beta_weighted_sums(self, fitted):
        bags, _, model = fitted
        g = global_pca(bags, model)
        for i, bag in enumerate(bags):
            pred = predict(bag, model)
            np.testing.assert_array_equal(g.wsi_points[i], wsi_concept_values(pred))

    def test_patch_point_cap_is_deterministic(self, fitted):
        bags, _, model = fitted
        a = global_pca(bags, model, max_patch_points=10)
        b = global_pca(bags, model, max_patch_points=10)
        assert a.patch_points.shape[0] == 10
        assert len(a.report["patch_2d"]) == 10
        np.testing.assert_array_equal(a.patch_points, b.patch_points)
        assert a.report["patch_2d"] == b.report["patch_2d"]


class TestRender:
    def test_ramp_hits_documented_stops(self):
        for i, stop in enumerate(VIRIDIS_STOPS):
            assert color_for(i / (len(VIRIDIS_STOPS) - 1)) == stop
        assert color_for(-0.5) == VIRIDIS_STOPS[0]
        assert color_for(1.5) == VIRIDIS_STOPS[-1]

    def test_ramp_interpolates_linearly_between_stops(self):
        t = 0.3
        pos = t * 7
        i, frac = int(pos), pos - int(pos)
        a = [int(VIRIDIS_STOPS[i][k:k + 2], 16) for k in (1, 3, 5)]
        b = [int(VIRIDIS_STOPS[i + 1][k:k + 2], 16) for k in (1, 3, 5)]
        expected = "#" + "".join(
            f"{round(x + (y - x) * frac):02x}" for x, y in zip(a, b))
        assert color_for(t) == expected

    def test_local_svg_wellformed_and_deterministic(self, fitted):
        bags, _, model = fitted
        exp = explain(bags[0], model)
        svg = render_local_svg(exp)
        assert svg == render_local_svg(exp)
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        rects = root.findall(f"{ns}rect")
        outlined = [r for r in rects if r.get("stroke") == "#ff3b30"]
        assert len(outlined) == len({(e["row"], e["col"]) for e in exp["topk"]})
        assert len(rects) >= len(exp["attention_grid"])
        texts = [t.text for t in root.findall(f"{ns}text")]
        assert any(exp["slide_id"] in t for t in texts if t)

    def test_global_svg_wellformed(self, fitted):
        bags, _, model = fitted
        g = global_pca(bags, model).report
        svg = render_global_svg(g)
        assert svg == render_global_svg(g)
        root = ET.fromstring(svg)
        circles = root.findall("{http://www.w3.org/2000/svg}circle")
        scatter = [c for c in circles if c.get("fill-opacity") == "0.7"]
        assert len(scatter) == len(g["wsi_2d"]) + len(g["patch_2d"])
        fills = {c.get("fill") for c in circles}
        assert CLASS_COLORS["tumor"] in fills and CLASS_COLORS["normal"] in fills

    def test_markup_in_names_is_escaped(self, fitted):
        """A concept name or slide id holding `&` or `<` is text, not markup:
        both SVGs parse and give the names back."""
        bags, _, model = fitted
        names = [f"H&E <artifact {i}>" for i in range(len(model.concepts.names))]
        exp = explain(bags[0], model)
        exp["slide_id"] = "slide <0> & co"
        for c in exp["contributions"]:
            c["concept"] = names[model.concepts.names.index(c["concept"])]
        g = global_explanations([predict(b, model) for b in bags], [b.label for b in bags],
                                names, "predicted", "pca", 0, 2000)
        ns = "{http://www.w3.org/2000/svg}"
        local = [t.text for t in ET.fromstring(render_local_svg(exp)).iter(f"{ns}text")]
        assert local[0].startswith("slide <0> & co: ") and set(names) <= set(local)
        glob = [t.text for t in ET.fromstring(render_global_svg(g.report)).iter(f"{ns}text")]
        assert [t for t in glob if t in names] == names + names

    def test_write_local_report_files(self, fitted, tmp_path):
        bags, _, model = fitted
        exp = explain(bags[0], model)
        json_path, svg_path = write_local_report(exp, tmp_path)
        assert json_path.name == f"{bags[0].slide_id}.explain.json"
        assert svg_path.name == f"{bags[0].slide_id}.explain.svg"
        loaded = json.loads(json_path.read_text())
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded == exp
        assert svg_path.read_text().startswith("<svg")
        assert render_local_svg(json.loads(json_path.read_text())) == svg_path.read_text()

    def test_write_global_report_files(self, fitted, tmp_path):
        bags, _, model = fitted
        g = global_pca(bags, model)
        json_path, svg_path = write_global_report(g, tmp_path)
        assert json_path.name == "global.json" and svg_path.name == "global.svg"
        loaded = json.loads(json_path.read_text())
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["projection_method"] == "pca"
        assert len(loaded["wsi_2d"]) == len(bags)
        assert loaded == g.report
        assert render_global_svg(json.loads(json_path.read_text())) == svg_path.read_text()


class TestEvaluation:
    def test_eval_result_fields(self, fitted):
        bags, concepts, model = fitted
        res, g, preds = evaluate_split(bags, model, projection="pca")
        assert res.accuracy == 1.0 and res.auc == 1.0
        # pointing game scores only slides that contain tumor patches
        assert res.localization_slides == sum(b.label for b in bags)
        assert 0.0 <= res.localization_mean <= 1.0
        assert sorted(res.jsd_per_concept) == sorted(concepts.names)
        assert res.counts == {"slides": 30, "tumor": 15, "normal": 15,
                              "patch_points": 30 * model.topk.K}
        assert len(preds) == len(bags)

    def test_result_is_the_schemas_results_object(self, fitted):
        """The record's fields, its silhouette keys and their order are the
        schema's: `to_dict` is the dataclass's own dict, with no key renamed."""
        results = json.loads(files("cmil").joinpath("schemas/eval.schema.json")
                             .read_text())["properties"]["results"]
        res, _, _ = evaluate_split(fitted[0], fitted[2], projection="pca")
        assert [f.name for f in dataclasses.fields(EvalResult)] == results["required"]
        assert list(res.silhouette) == results["properties"]["silhouette"]["required"]
        assert res.to_dict() == dataclasses.asdict(res)

    def test_auc_per_concept_ranks_slide_level_scores(self, fitted):
        bags, concepts, model = fitted
        res, g, _ = evaluate_split(bags, model, projection="pca")
        labels = [b.label for b in bags]
        assert list(res.auc_per_concept) == list(concepts.names)
        for c, name in enumerate(g.report["concept_names"]):
            assert res.auc_per_concept[name] == auc(g.wsi_points[:, c], labels), name
        assert res.to_dict()["auc_per_concept"] == res.auc_per_concept

    def test_localization_null_without_flags(self, fitted):
        bags, _, model = fitted
        stripped = [
            Bag(b.slide_id, b.label, b.embeddings, b.grid, None)
            for b in bags
        ]
        with pytest.warns(UserWarning, match="localization"):
            res, _, _ = evaluate_split(stripped, model, projection="pca")
        assert res.localization_mean is None
        assert res.localization_slides == 0

    def test_tumor_concept_jsd_at_least_background(self, fitted):
        bags, _, model = fitted
        res, _, _ = evaluate_split(bags, model, projection="pca")
        tumor = [v for k, v in res.jsd_per_concept.items() if k.startswith("tumor")]
        background = [v for k, v in res.jsd_per_concept.items()
                      if k.startswith("background")]
        assert min(tumor) >= max(background)
        assert min(tumor) >= 0.9

    def test_wsi_silhouette_at_least_patch_level(self, fitted):
        bags, _, model = fitted
        res, g, _ = evaluate_split(bags, model, projection="tsne", seed=0)
        assert res.silhouette["wsi_projected_2d"] >= res.silhouette["patch_projected_2d"]
        assert res.silhouette["wsi_concept_space"] >= res.silhouette["patch_concept_space"]
        assert g.report["projection_method"] == "tsne"

    def test_evaluation_is_deterministic(self, fitted):
        bags, _, model = fitted
        a, _, _ = evaluate_split(bags, model, projection="pca")
        b, _, _ = evaluate_split(bags, model, projection="pca")
        assert a.to_dict() == b.to_dict()
        # a one-shot generator over the same bags gives what the list gives
        for projection, cap in (("pca", 2000), ("tsne", 40)):
            res_l, g_l, preds_l = evaluate_split(bags, model, projection=projection,
                                                 max_patch_points=cap)
            res_s, g_s, preds_s = evaluate_split((b for b in bags), model,
                                                 projection=projection, max_patch_points=cap)
            assert res_s.to_dict() == res_l.to_dict(), projection
            assert g_s.wsi_points_2d.tobytes() == g_l.wsi_points_2d.tobytes(), projection
            assert g_s.patch_points_2d.tobytes() == g_l.patch_points_2d.tobytes(), projection
            assert len(preds_s) == len(preds_l) == len(bags)
            for p_s, p_l in zip(preds_s, preds_l):
                assert p_s.prob == p_l.prob and p_s.slide_id == p_l.slide_id
                np.testing.assert_array_equal(p_s.hard_indices, p_l.hard_indices)

    def test_split_is_held_one_bag_at_a_time(self, tmp_path):
        # 200 default bags from a generator: a split held whole peaks at 1.4-1.6x
        # its embedding bytes, one bag at a time near half of them
        cfg = SynthConfig(seed=1)
        split = gen_dataset(cfg, tmp_path)
        model = init_model(TrainConfig(), read_concepts(tmp_path / "concepts.ccpt"), cfg.D)
        embedding_bytes = 0

        def stream():
            nonlocal embedding_bytes
            for p in split.all_paths():
                bag = read_bag(p)
                embedding_bytes += bag.embeddings.nbytes
                yield bag

        tracemalloc.start()
        try:
            # an untrained model may call every slide one class; truth keeps both
            res, _, _ = evaluate_split(stream(), model, projection="pca", group_by="truth")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.counts["slides"] == 200
        assert peak < embedding_bytes, f"{peak / embedding_bytes:.2f}x the embeddings"
