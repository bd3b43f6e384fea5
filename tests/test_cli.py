"""End-to-end command-line tests: artifacts, determinism, exit codes."""

import hashlib
import importlib.metadata
import io
import json
import math
import pkgutil
import shutil
import struct
import subprocess
import sys
from importlib.resources import files
from pathlib import Path

import jsonschema
import pytest

from cmil.bagio import (Bag, _sidecar, content_hash, dump_json, read_bag, read_split,
                        write_bag)
from cmil.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_IO, EXIT_OK,
                      EXIT_SHAPE, main)
from cmil.explain import explain_slide
from cmil.render import write_local_report
from cmil.trainer import load_checkpoint, predict
from blobs import reseal

# noiseless generator so a short training run converges; 30 bags keep it quick
SYNTH_ARGS = [
    "--seed", "100", "--set", "num_bags=30", "--set", "N_range=[12,20]",
    "--set", "D=16", "--set", "C=6", "--set", "tumor_concept_count=2",
    "--set", "signal_strength=3.0", "--set", "noise_std=0.0",
]
TRAIN_ARGS = [
    "--seed", "5", "--epochs", "25", "--set", "d_h=24", "--set", "d_a=12",
    "--set", 'topk={"K":4,"num_noise_samples":32,"noise_sigma":0.05}',
]


def _checksums(directory: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.is_file()
    }


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "dataset"
    assert main(["gen-data", "--out", str(out)] + SYNTH_ARGS) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def ckpt(data_dir, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-train") / "model.cmck"
    rc = main(["train", "--data", str(data_dir), "--out", str(path)] + TRAIN_ARGS)
    assert rc == EXIT_OK
    return path


# -- gen-data --------------------------------------------------------------------


def test_gen_data_defaults_make_200_bags(tmp_path):
    out = tmp_path / "ds"
    assert main(["gen-data", "--out", str(out)]) == EXIT_OK
    assert len(list(out.glob("*.cmil"))) == 200
    split = read_split(out / "split.json")
    assert (len(split.train), len(split.val), len(split.test)) == (160, 20, 20)


def test_gen_data_same_seed_identical_directory(data_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["gen-data", "--out", str(again)] + SYNTH_ARGS) == EXIT_OK
    assert _checksums(again) == _checksums(data_dir)


def test_gen_data_invalid_tumor_fraction_exits_2(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "x"),
               "--set", "tumor_fraction_range=[0.5,0.2]"])
    assert rc == EXIT_CONFIG
    assert "tumor_fraction_range" in capsys.readouterr().err


def test_gen_data_unknown_key_exits_2(tmp_path, capsys):
    rc = main(["gen-data", "--out", str(tmp_path / "x"), "--set", "bogus=1"])
    assert rc == EXIT_CONFIG
    assert "unknown synth config keys" in capsys.readouterr().err


def test_malformed_set_flag_exits_2(tmp_path):
    assert main(["gen-data", "--out", str(tmp_path / "x"), "--set", "seed"]) == EXIT_CONFIG


def test_config_file_not_json_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["gen-data", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == EXIT_CONFIG


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b'\xff\xfe{"seed": 1}')
    assert main(["gen-data", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {cfg} is not valid JSON") and err.count("\n") == 1


def test_config_file_not_object_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert main(["gen-data", "--out", str(tmp_path / "x"), "--config", str(cfg)]) == EXIT_CONFIG


def test_settings_merge_file_then_set_then_flags(tmp_path):
    synth = tmp_path / "synth.json"
    synth.write_text(json.dumps({"num_bags": 30, "N_range": [12, 20], "D": 16, "C": 6,
                                 "tumor_concept_count": 2, "noise_std": 0.3, "seed": 1}))
    data = tmp_path / "ds"
    assert main(["gen-data", "--out", str(data), "--config", str(synth),
                 "--set", "noise_std=0.0", "--set", "seed=50", "--seed", "100"]) == EXIT_OK
    resolved = json.loads((data / "run.json").read_text())["config"]
    assert resolved["N_range"] == [12, 20] and resolved["num_bags"] == 30  # the file's
    assert resolved["noise_std"] == 0.0  # --set beats the file
    assert resolved["seed"] == 100  # the flag beats --set and the file

    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"epochs": 9, "seed": 1, "d_h": 24, "d_a": 12, "lam": 0.5,
                                     "mode": "concept-only",
                                     "topk": {"K": 4, "num_noise_samples": 8}}))
    ckpt = tmp_path / "m.cmck"
    assert main(["train", "--data", str(data), "--out", str(ckpt), "--config", str(train_cfg),
                 "--set", "topk.noise_sigma=0.1", "--set", "lam=0.02", "--set", "epochs=4",
                 "--set", "mode=image-only", "--seed", "7", "--epochs", "1",
                 "--mode", "dual"]) == EXIT_OK
    embedded = load_checkpoint(ckpt)[2]["train_config"]
    assert embedded["topk"] == {"K": 4, "num_noise_samples": 8, "noise_sigma": 0.1}
    assert embedded["d_h"] == 24 and embedded["lam"] == 0.02
    assert (embedded["seed"], embedded["epochs"], embedded["mode"]) == (7, 1, "dual")
    header = json.loads(ckpt.with_suffix(".log.jsonl").read_text().splitlines()[0])
    assert header["config"] == embedded


def test_run_json_embeds_config_and_dataset_hash(data_dir):
    doc = json.loads((data_dir / "run.json").read_text())
    assert doc["config"]["num_bags"] == 30
    assert doc["config"]["noise_std"] == 0.0
    split = read_split(data_dir / "split.json")
    expected = content_hash(split.all_paths()
                            + [data_dir / "concepts.ccpt", data_dir / "split.json"])
    assert doc["dataset_hash"] == expected


def _streamed(doc) -> bytes:
    """What json.dump streams for a canonical document."""
    buf = io.StringIO()
    json.dump(doc, buf, indent=2, sort_keys=True)
    buf.write("\n")
    return buf.getvalue().encode("utf-8")


def test_dump_json_writes_the_bytes_json_dump_streams(data_dir, tmp_path):
    for name in ("run.json", "split.json", "concepts.json"):
        raw = (data_dir / name).read_bytes()
        assert raw == _streamed(json.loads(raw)), name
    # a document the size of a global report: 2,200 entries
    report = {"patches": [{"slide_id": f"synth_{i:04d}", "x": i / 7, "y": -i * 1e-300,
                           "concept": "nécrose" if i % 3 else "tumor", "flags": [i % 2 == 0, None]}
                          for i in range(2200)],
              "counts": {"n": 2200, "mean": 2199 / 14}}
    dump_json(report, tmp_path / "global.json")
    assert (tmp_path / "global.json").read_bytes() == _streamed(report)


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# -- train -----------------------------------------------------------------------


def test_train_single_epoch_logs_one_record(data_dir, tmp_path):
    out = tmp_path / "m.cmck"
    rc = main(["train", "--data", str(data_dir), "--out", str(out),
               "--epochs", "1", "--set", "topk.K=4"])
    assert rc == EXIT_OK
    lines = out.with_suffix(".log.jsonl").read_text().splitlines()
    header, records = json.loads(lines[0]), [json.loads(l) for l in lines[1:]]
    assert len(records) == 1
    assert records[0]["epoch"] == 0
    assert {"bce_img", "bce_concept", "total", "val_auc"} <= set(records[0])
    assert header["config"]["epochs"] == 1
    assert len(header["data_hash"]) == 64


def test_train_missing_split_exits_3(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.cmck")])
    assert rc == EXIT_IO
    assert "split.json" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_divergence_exits_4_with_last_good_epoch(data_dir, tmp_path, capsys):
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.cmck"),
               "--epochs", "4", "--set", "learning_rate=1e9", "--set", "topk.K=4"])
    assert rc == EXIT_DIVERGED
    err = capsys.readouterr().err
    assert "diverged at epoch" in err and "last good epoch" in err
    assert not (tmp_path / "m.cmck").exists()  # no partial checkpoint
    assert not (tmp_path / "m.json").exists()


def test_dotted_set_overrides_nested_config(data_dir, tmp_path):
    out = tmp_path / "m.cmck"
    rc = main(["train", "--data", str(data_dir), "--out", str(out),
               "--epochs", "1", "--set", "topk.K=6"])
    assert rc == EXIT_OK
    _, cfg, header = load_checkpoint(out)
    assert cfg.topk.K == 6
    assert header["train_config"]["topk"]["K"] == 6


def test_train_unknown_mode_exits_2(data_dir, tmp_path):
    rc = main(["train", "--data", str(data_dir), "--out", str(tmp_path / "m.cmck"),
               "--epochs", "1", "--set", "mode=sideways"])
    assert rc == EXIT_CONFIG


def test_train_out_named_as_its_own_sidecar_exits_2_and_writes_nothing(data_dir, tmp_path,
                                                                      monkeypatch, capsys):
    out = _sidecar(tmp_path / "m")  # the checkpoint's sidecar would overwrite it
    reads = []
    monkeypatch.setattr("cmil.cli.read_split", lambda p: reads.append(p) or read_split(p))
    rc = main(["train", "--data", str(data_dir), "--out", str(out), "--epochs", "1"])
    assert rc == EXIT_CONFIG
    assert "sidecar" in capsys.readouterr().err
    assert reads == [] and list(tmp_path.iterdir()) == []


# a setting of the wrong type, a dotted --set into a value that is not an object, a
# negative seed or a cap below 3 (4 for t-SNE) is a configuration error
BAD_SETTINGS = [
    ["train", "--set", "epochs=1.5"],
    ["train", "--set", "topk.K=2.5"],
    ["train", "--set", "d_h=2.5"],
    ["train", "--set", "seed=1.5"],
    ["train", "--set", "topk=5"],
    ["train", "--set", "topk=5", "--set", "topk.K=3"],
    ["gen-data", "--set", "topk=5", "--set", "topk.K=3"],
    ["train", "--seed", "-1"],
    ["gen-data", "--set", "num_bags=20.5"],
    ["gen-data", "--set", "D=64.0"],
    ["gen-data", "--seed", "-1"],
    ["eval", "--seed", "-1", "--projection", "tsne"],
    ["eval", "--seed", "-1", "--projection", "pca", "--max-patch-points", "10"],
    ["eval", "--max-patch-points", "-1", "--projection", "pca"],
    ["eval", "--max-patch-points", "0", "--projection", "pca"],
    ["eval", "--max-patch-points", "2", "--projection", "tsne"],
    ["eval", "--max-patch-points", "3", "--projection", "tsne"],
]


@pytest.mark.parametrize("argv", BAD_SETTINGS, ids=" ".join)
def test_bad_setting_exits_2_with_an_error_line(argv, data_dir, ckpt, tmp_path, capsys):
    command, flags = argv[0], argv[1:]
    where = {
        "gen-data": ["--out", str(tmp_path / "ds")],
        "train": ["--data", str(data_dir), "--out", str(tmp_path / "m.cmck")],
        "eval": ["--ckpt", str(ckpt), "--data", str(data_dir),
                 "--out", str(tmp_path / "eval.json"), "--split", "train"],
    }[command]
    assert main([command] + where + flags) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tsne_cap_below_4_fails_before_reading_a_bag(ckpt, data_dir, tmp_path, capsys,
                                                     monkeypatch):
    reads = []
    monkeypatch.setattr("cmil.cli.read_bag", lambda p: reads.append(p))
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir), "--out",
               str(tmp_path / "eval.json"), "--projection", "tsne", "--max-patch-points", "3"])
    assert rc == EXIT_CONFIG
    assert "--max-patch-points" in capsys.readouterr().err
    assert reads == []


# -- predict / explain -------------------------------------------------------------


def test_predict_prints_tab_separated_line(ckpt, data_dir, capsys):
    rc = main(["predict", "--ckpt", str(ckpt), "--bag", str(data_dir / "bag_0000.cmil")])
    assert rc == EXIT_OK
    line = capsys.readouterr().out.strip()
    slide_id, prob, decision = line.split("\t")
    assert slide_id == "synth_0000"
    assert decision in ("tumor", "normal")
    assert f"{float(prob):.6f}" == prob
    assert 0.0 <= float(prob) <= 1.0


def test_predict_out_json_has_provenance(ckpt, data_dir, tmp_path):
    rc = main(["predict", "--ckpt", str(ckpt), "--bag", str(data_dir / "bag_0000.cmil"),
               "--out", str(tmp_path)])
    assert rc == EXIT_OK
    doc = json.loads((tmp_path / "synth_0000.predict.json").read_text())
    assert len(doc["inputs"]["checkpoint_sha256"]) == 64
    assert len(doc["prediction"]["topk_indices"]) == 4
    assert doc["config"]["mode"] == "dual"


def test_predict_dimension_mismatch_exits_5(ckpt, tmp_path, capsys):
    other = tmp_path / "other"
    rc = main(["gen-data", "--out", str(other), "--seed", "1",
               "--set", "num_bags=4", "--set", "N_range=[6,10]",
               "--set", "D=8", "--set", "C=4", "--set", "tumor_concept_count=2"])
    assert rc == EXIT_OK
    rc = main(["predict", "--ckpt", str(ckpt), "--bag", str(other / "bag_0000.cmil")])
    assert rc == EXIT_SHAPE
    assert "D=8" in capsys.readouterr().err


def test_predict_corrupt_checkpoint_exits_3(data_dir, tmp_path):
    bad = tmp_path / "bad.cmck"
    bad.write_bytes(b"XXXX" + b"\0" * 64)
    rc = main(["predict", "--ckpt", str(bad), "--bag", str(data_dir / "bag_0000.cmil")])
    assert rc == EXIT_IO


def test_predict_misshaped_blob_exits_3(ckpt, data_dir, tmp_path, capsys):
    raw = bytearray(ckpt.read_bytes())
    rows, cols = struct.unpack_from("<QQ", raw, 8)
    assert (rows, cols) == (6, 16)
    struct.pack_into("<QQ", raw, 8, cols, rows)  # the same C x D values read as D x C
    bad = tmp_path / "bad.cmck"
    bad.write_bytes(bytes(raw))
    bad.with_suffix(".json").write_bytes(ckpt.with_suffix(".json").read_bytes())
    reseal(bad)
    rc = main(["predict", "--ckpt", str(bad), "--bag", str(data_dir / "bag_0000.cmil")])
    assert rc == EXIT_IO
    assert "header declares" in capsys.readouterr().err


@pytest.mark.parametrize("slide_id", ["../escaped", "", "a/b"])
@pytest.mark.parametrize("command", ["predict", "explain"])
def test_slide_id_that_is_not_a_file_name_exits_3_and_writes_nothing(command, slide_id, ckpt, data_dir,
                                                                     tmp_path, capsys):
    bag = tmp_path / "in" / "bag.cmil"
    bag.parent.mkdir()
    shutil.copy(data_dir / "bag_0000.cmil", bag)
    doc = json.loads((data_dir / "bag_0000.json").read_text())
    bag.with_suffix(".json").write_text(json.dumps({**doc, "slide_id": slide_id}))
    reseal(bag)
    rc = main([command, "--ckpt", str(ckpt), "--bag", str(bag), "--out", str(tmp_path / "out")])
    assert rc == EXIT_IO
    assert "not one file-name component" in capsys.readouterr().err
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == [
        Path("in"), Path("in/bag.cmil"), Path("in/bag.json")]


def test_explain_writes_byte_identical_reports(ckpt, data_dir, tmp_path):
    bag = str(data_dir / "bag_0003.cmil")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["explain", "--ckpt", str(ckpt), "--bag", bag, "--out", str(a)]) == EXIT_OK
    assert main(["explain", "--ckpt", str(ckpt), "--bag", bag, "--out", str(b)]) == EXIT_OK
    assert _checksums(a) == _checksums(b)
    assert (a / "synth_0003.explain.json").exists()
    assert (a / "synth_0003.explain.svg").exists()


def test_explain_runs_predict_once(ckpt, data_dir, tmp_path, monkeypatch):
    calls = []

    def counting_predict(*args, **kwargs):
        calls.append(args[0].slide_id)
        return predict(*args, **kwargs)

    monkeypatch.setattr("cmil.cli.predict", counting_predict)
    bag = data_dir / "bag_0003.cmil"
    assert main(["explain", "--ckpt", str(ckpt), "--bag", str(bag),
                 "--out", str(tmp_path / "cli")]) == EXIT_OK
    assert calls == ["synth_0003"]

    # the reused prediction gives the bytes of a report built from a fresh pass
    model, cfg, _ = load_checkpoint(ckpt)
    assert model.mode == cfg.mode == "dual"  # predict follows the model's mode
    (tmp_path / "direct").mkdir()
    direct = read_bag(bag)
    write_local_report(explain_slide(direct, model, predict(direct, model)), tmp_path / "direct")
    assert _checksums(tmp_path / "cli") == _checksums(tmp_path / "direct")


def test_explain_report_satisfies_additive_identity(ckpt, data_dir, tmp_path):
    """sigma(sum kappa + bias) must reproduce the reported concept probability."""
    assert main(["explain", "--ckpt", str(ckpt), "--bag",
                 str(data_dir / "bag_0001.cmil"), "--out", str(tmp_path)]) == EXIT_OK
    doc = json.loads((tmp_path / "synth_0001.explain.json").read_text())
    logit = sum(c["kappa"] for c in doc["contributions"]) + doc["bias"]
    prob = 1.0 / (1.0 + math.exp(-logit))
    assert abs(prob - doc["prob_concept"]) < 1e-12


# -- eval ------------------------------------------------------------------------


def test_eval_output_validates_against_shipped_schema(ckpt, data_dir, tmp_path):
    out = tmp_path / "eval.json"
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir),
               "--out", str(out), "--split", "train"])
    assert rc == EXIT_OK
    schema = json.loads(files("cmil").joinpath("schemas/eval.schema.json").read_text())
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, schema)
    assert (tmp_path / "eval_global" / "global.json").exists()
    assert (tmp_path / "eval_global" / "global.svg").exists()
    assert doc["results"]["counts"]["slides"] == 24


def test_two_evals_into_one_directory_keep_both_global_reports(ckpt, data_dir, tmp_path):
    for projection in ("pca", "tsne"):
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data_dir), "--split", "train",
                   "--out", str(tmp_path / f"eval_{projection}.json"),
                   "--projection", projection])
        assert rc == EXIT_OK
    for projection in ("pca", "tsne"):
        report = tmp_path / f"eval_{projection}_global"
        assert json.loads((report / "global.json").read_text())["projection_method"] == projection
        assert f"({projection})" in (report / "global.svg").read_text()


def test_eval_out_naming_the_checkpoint_or_its_sidecar_exits_2_and_writes_nothing(
        ckpt, data_dir, tmp_path, monkeypatch, capsys):
    model = tmp_path / "m.cmck"
    shutil.copyfile(ckpt, model)
    shutil.copyfile(_sidecar(ckpt), _sidecar(model))
    before = _checksums(tmp_path)
    reads = []
    monkeypatch.setattr("cmil.cli.read_split", lambda p: reads.append(p) or read_split(p))
    monkeypatch.setattr("cmil.cli.load_checkpoint",
                        lambda p: reads.append(p) or load_checkpoint(p))
    monkeypatch.chdir(tmp_path)
    # the sidecar, the checkpoint itself, and the sidecar spelled relative to the cwd
    for out in (_sidecar(model), model, Path(_sidecar(model).name)):
        rc = main(["eval", "--ckpt", str(model), "--data", str(data_dir), "--out", str(out),
                   "--split", "train", "--projection", "pca"])
        assert rc == EXIT_CONFIG, out
        assert "--ckpt" in capsys.readouterr().err
    assert reads == [] and _checksums(tmp_path) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.cmck", "m.json"]
    load_checkpoint(model)


def test_bag_in_two_splits_exits_3(ckpt, data_dir, tmp_path, capsys):
    # a bag in both train and test, and a bag listed twice in test
    for name, source, expected in [("leaky", "train", "in both 'train' and 'test'"),
                                   ("repeated", "test", "twice in 'test'")]:
        leaky = tmp_path / name
        shutil.copytree(data_dir, leaky)
        doc = json.loads((leaky / "split.json").read_text())
        doc["test"].append(doc[source][0])
        (leaky / "split.json").write_text(json.dumps(doc))
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(leaky),
                   "--out", str(leaky / "eval.json"), "--split", "test", "--projection", "pca"])
        assert rc == EXIT_IO
        err = capsys.readouterr().err
        assert expected in err and doc[source][0] in err, name
        assert not (leaky / "eval.json").exists()
        rc = main(["train", "--data", str(leaky), "--out", str(leaky / "m.cmck"), "--epochs", "1"])
        assert rc == EXIT_IO
        assert expected in capsys.readouterr().err, name


def _rehash(data: Path) -> None:
    """Record an edited dataset's hash in its run.json, as gen-data would for those files."""
    doc = json.loads((data / "run.json").read_text())
    split = read_split(data / "split.json")
    doc["dataset_hash"] = content_hash(split.all_paths()
                                       + [data / "concepts.ccpt", data / "split.json"])
    dump_json(doc, data / "run.json")


def test_dataset_changed_after_gen_data_exits_3(ckpt, data_dir, tmp_path, capsys):
    other = tmp_path / "other"
    seed = SYNTH_ARGS.index("--seed") + 1
    assert main(["gen-data", "--out", str(other)]
                + SYNTH_ARGS[:seed] + ["101"] + SYNTH_ARGS[seed + 1:]) == EXIT_OK
    swapped = tmp_path / "swapped"
    shutil.copytree(data_dir, swapped)
    # another dataset's bag of the same name: a valid file, with its own CRC
    for name in ("bag_0000.cmil", "bag_0000.json"):
        shutil.copyfile(other / name, swapped / name)
    read_bag(swapped / "bag_0000.cmil")
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(swapped),
               "--out", str(tmp_path / "eval.json"), "--split", "train", "--projection", "pca"])
    assert rc == EXIT_IO
    assert "run.json" in capsys.readouterr().err
    assert not (tmp_path / "eval.json").exists()
    rc = main(["train", "--data", str(swapped), "--out", str(tmp_path / "m.cmck"), "--epochs", "1"])
    assert rc == EXIT_IO
    assert "run.json" in capsys.readouterr().err
    assert not (tmp_path / "m.cmck").exists()


def test_dataset_without_run_json_is_read_unchecked(ckpt, data_dir, tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(data_dir, bare)
    (bare / "run.json").unlink()
    rc = main(["eval", "--ckpt", str(ckpt), "--data", str(bare),
               "--out", str(tmp_path / "eval.json"), "--split", "train", "--projection", "pca"])
    assert rc == EXIT_OK


def test_eval_without_flags_reports_null_localization(ckpt, data_dir, tmp_path):
    stripped = tmp_path / "noflags"
    shutil.copytree(data_dir, stripped)
    for path in stripped.glob("bag_*.cmil"):
        bag = read_bag(path)
        write_bag(Bag(bag.slide_id, bag.label, bag.embeddings, bag.grid, None), path)
    _rehash(stripped)
    out = tmp_path / "eval.json"
    with pytest.warns(UserWarning, match="localization skipped"):
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(stripped),
                   "--out", str(out), "--split", "train", "--projection", "pca"])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["results"]["localization_mean"] is None
    assert doc["results"]["localization_slides"] == 0
    assert 0.0 <= doc["results"]["auc"] <= 1.0  # other metrics intact
    schema = json.loads(files("cmil").joinpath("schemas/eval.schema.json").read_text())
    jsonschema.validate(doc, schema)


def test_one_class_patch_subsample_reports_null_patch_silhouettes(tmp_path):
    data, ckpt, out = tmp_path / "data", tmp_path / "model.cmck", tmp_path / "eval.json"
    assert main(["gen-data", "--seed", "7", "--out", str(data)]) == EXIT_OK
    assert main(["train", "--data", str(data), "--out", str(ckpt),
                 "--epochs", "2", "--seed", "1"]) == EXIT_OK
    with pytest.warns(UserWarning, match="patch silhouettes skipped"):
        rc = main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--out", str(out),
                   "--projection", "pca", "--max-patch-points", "3", "--seed", "2"])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    sil = doc["results"]["silhouette"]
    assert sil["patch_concept_space"] is None and sil["patch_projected_2d"] is None
    assert sil["wsi_concept_space"] is not None  # the slide-level ones stay
    schema = json.loads(files("cmil").joinpath("schemas/eval.schema.json").read_text())
    jsonschema.validate(doc, schema)


@pytest.mark.parametrize("mode", ["image-only", "concept-only"])
def test_ablation_modes_flow_through_checkpoint_to_eval(data_dir, tmp_path, mode, capsys):
    out = tmp_path / "m.cmck"
    rc = main(["train", "--data", str(data_dir), "--out", str(out),
               "--mode", mode, "--epochs", "6", "--seed", "5",
               "--set", "d_h=24", "--set", "d_a=12",
               "--set", 'topk={"K":4,"num_noise_samples":32,"noise_sigma":0.05}'])
    assert rc == EXIT_OK

    # the loaded model carries its mode into the library entry points
    model, _, _ = load_checkpoint(out)
    bag_path = data_dir / "bag_0000.cmil"  # its image and concept heads disagree
    pred = predict(read_bag(bag_path), model)
    if mode == "concept-only":
        assert pred.hard_indices.tolist() == [0, 1, 2, 3]
    else:
        assert pred.prob == pred.prob_image
    assert pred.decision == ("tumor" if pred.prob >= 0.5 else "normal")
    capsys.readouterr()
    assert main(["predict", "--ckpt", str(out), "--bag", str(bag_path)]) == EXIT_OK
    assert capsys.readouterr().out == f"{pred.slide_id}\t{pred.prob:.6f}\t{pred.decision}\n"
    assert main(["explain", "--ckpt", str(out), "--bag", str(bag_path),
                 "--out", str(tmp_path / "cli")]) == EXIT_OK
    (tmp_path / "direct").mkdir()
    write_local_report(explain_slide(read_bag(bag_path), model, pred), tmp_path / "direct")
    assert _checksums(tmp_path / "cli") == _checksums(tmp_path / "direct")

    result = tmp_path / "eval.json"
    rc = main(["eval", "--ckpt", str(out), "--data", str(data_dir),
               "--out", str(result), "--split", "train", "--projection", "pca"])
    assert rc == EXIT_OK
    doc = json.loads(result.read_text())
    assert doc["config"]["train"]["mode"] == mode


# -- process-level entry -------------------------------------------------------------


# a four-bag dataset: enough to see the entry point run end to end
TINY_GEN_ARGS = ["--set", "num_bags=4", "--set", "N_range=[6,10]",
                 "--set", "D=8", "--set", "C=4", "--set", "tumor_concept_count=2"]


def test_module_entry_point_runs_as_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cmil.cli", "gen-data", "--out", str(tmp_path / "ds")]
        + TINY_GEN_ARGS,
        capture_output=True, text=True)
    assert proc.returncode == EXIT_OK
    assert "wrote 4 bags" in proc.stdout


def test_console_script_is_installed(tmp_path, monkeypatch, capsys):
    scripts = {"cmil": "cmil.cli:main"}

    # call the target the way a generated console-script wrapper does
    entry = pkgutil.resolve_name(scripts["cmil"])
    monkeypatch.setattr(sys, "argv",
                        ["cmil", "gen-data", "--out", str(tmp_path / "ds")] + TINY_GEN_ARGS)
    assert entry() == EXIT_OK
    assert "wrote 4 bags" in capsys.readouterr().out

    # the executable exists only where the distribution is installed; a source
    # run (the Tier-1 command, see ROADMAP "Known issues") leaves these two out
    try:
        dist = importlib.metadata.distribution("cmil")
    except importlib.metadata.PackageNotFoundError:
        dist = None
    if dist is not None:
        installed = {ep.name: ep.value for ep in dist.entry_points
                     if ep.group == "console_scripts"}
        assert installed == scripts
        assert shutil.which("cmil") is not None

    # the packaging declaration; last, so Python 3.10 (no tomllib) runs the rest
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["scripts"] == scripts
